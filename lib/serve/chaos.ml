(* Deterministic socket fault injection: an in-process TCP proxy that
   damages the byte streams between a client and a live daemon at exact
   byte offsets, plus the seeded soak harness that checks the crash-only
   serving invariants against hundreds of derived fault schedules.

   Faults are positioned by byte offset (not time), and seeds map to specs
   through the repo's SplitMix64 generator, so a failing soak run replays
   exactly from its seed — the whole point of chaos testing a daemon whose
   regression contract is byte-identity. *)

module Pr = Protocol
module Rng = Wfc_platform.Rng
module Metrics = Wfc_obs.Metrics

type fault =
  | Tear of int
  | Reset of int
  | Corrupt of int * int
  | Delay of float
  | Trickle of int

type spec = fault list

(* ---- grammar ----------------------------------------------------------- *)

let fault_to_string = function
  | Tear k -> Printf.sprintf "tear@%d" k
  | Reset k -> Printf.sprintf "reset@%d" k
  | Corrupt (k, 255) -> Printf.sprintf "corrupt@%d" k
  | Corrupt (k, m) -> Printf.sprintf "corrupt@%d:%d" k m
  | Delay s -> Printf.sprintf "delay:%g" (s *. 1000.)
  | Trickle n -> Printf.sprintf "trickle:%d" n

let to_string = function
  | [] -> "none"
  | spec -> String.concat "," (List.map fault_to_string spec)

let offset_arg name v =
  match int_of_string_opt v with
  | Some k when k >= 0 -> Ok k
  | _ ->
      Error
        (Printf.sprintf "%s: byte offset must be a non-negative integer, got %S"
           name v)

let fault_of_token tok =
  match String.index_opt tok '@' with
  | Some i -> (
      let name = String.sub tok 0 i in
      let arg = String.sub tok (i + 1) (String.length tok - i - 1) in
      match name with
      | "tear" -> Result.map (fun k -> Tear k) (offset_arg "tear" arg)
      | "reset" -> Result.map (fun k -> Reset k) (offset_arg "reset" arg)
      | "corrupt" -> (
          let off, mask =
            match String.index_opt arg ':' with
            | None -> (arg, "255")
            | Some j ->
                ( String.sub arg 0 j,
                  String.sub arg (j + 1) (String.length arg - j - 1) )
          in
          match offset_arg "corrupt" off with
          | Error _ as e -> e
          | Ok k -> (
              match int_of_string_opt mask with
              | Some m when m >= 1 && m <= 255 -> Ok (Corrupt (k, m))
              | _ ->
                  Error
                    (Printf.sprintf "corrupt: mask must be in 1..255, got %S"
                       mask)))
      | _ -> Error (Printf.sprintf "unknown fault %S" name))
  | None -> (
      match String.index_opt tok ':' with
      | Some i -> (
          let name = String.sub tok 0 i in
          let arg = String.sub tok (i + 1) (String.length tok - i - 1) in
          match name with
          | "delay" -> (
              match float_of_string_opt arg with
              | Some ms when ms >= 0. && Float.is_finite ms ->
                  Ok (Delay (ms /. 1000.))
              | _ ->
                  Error
                    (Printf.sprintf
                       "delay: milliseconds must be non-negative, got %S" arg))
          | "trickle" -> (
              match int_of_string_opt arg with
              | Some n when n >= 1 -> Ok (Trickle n)
              | _ ->
                  Error
                    (Printf.sprintf
                       "trickle: chunk size must be a positive integer, got %S"
                       arg))
          | _ -> Error (Printf.sprintf "unknown fault %S" name))
      | None -> Error (Printf.sprintf "unknown fault %S (try tear@K, reset@K, corrupt@K:MASK, delay:MS, trickle:N or none)" tok))

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest -> (
          match fault_of_token (String.trim tok) with
          | Ok f -> go (f :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' s)

(* Seed -> spec. Offsets are sized to the serve protocol's small streams
   (a text batch is tens of bytes, a binary one a few hundred), so most
   derived faults actually land inside the stream they target. *)
let random ~seed =
  let rng = Rng.create seed in
  let fault () =
    match Rng.int rng 6 with
    | 0 -> Tear (Rng.int rng 160)
    | 1 -> Reset (Rng.int rng 400)
    | 2 | 5 -> Corrupt (Rng.int rng 120, 1 + Rng.int rng 255)
    | 3 -> Delay (float_of_int (Rng.int rng 20) /. 1000.)
    | _ -> Trickle (1 + Rng.int rng 7)
  in
  let n = 1 + Rng.int rng 2 in
  (* explicit recursion: List.init does not promise an evaluation order,
     and the rng draws must happen in a fixed one *)
  let rec build acc k = if k = 0 then List.rev acc else build (fault () :: acc) (k - 1) in
  build [] n

(* ---- proxy ------------------------------------------------------------- *)

let m_corrupted = Metrics.counter "chaos.corrupted"
let m_torn = Metrics.counter "chaos.torn"
let m_reset = Metrics.counter "chaos.reset"
let m_connections = Metrics.counter "chaos.connections"

type proxy = {
  sock : Unix.file_descr;
  port : int;
  stopped : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  conns : (int, Unix.file_descr * Unix.file_descr) Hashtbl.t;
  cmutex : Mutex.t;
  conn_ids : int Atomic.t;
  spec : spec;
  target : Unix.sockaddr;
}

let listen p = Server.Tcp p.port

let shutdown_quiet fd how = try Unix.shutdown fd how with Unix.Unix_error _ -> ()
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Client -> server direction: Delay, Corrupt, Trickle, Tear. After a tear
   the server side is half-closed (it sees a mid-stream EOF) but the client
   side keeps draining so the client's own writes never block. *)
let pump_request ~spec ~src ~dst =
  let corrupts =
    List.filter_map (function Corrupt (k, m) -> Some (k, m) | _ -> None) spec
  in
  let tear =
    List.fold_left
      (fun acc -> function Tear k -> Some (match acc with Some a -> min a k | None -> k) | _ -> acc)
      None spec
  in
  let delay =
    List.fold_left (fun acc -> function Delay s -> acc +. s | _ -> acc) 0. spec
  in
  let chunk =
    List.fold_left
      (fun acc -> function Trickle n -> min acc n | _ -> acc)
      4096 spec
  in
  let buf = Bytes.create 4096 in
  let off = ref 0 in
  let torn = ref false in
  if delay > 0. then Unix.sleepf delay;
  let forward n =
    List.iter
      (fun (k, mask) ->
        if k >= !off && k < !off + n then begin
          let i = k - !off in
          Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor mask));
          Metrics.incr m_corrupted
        end)
      corrupts;
    let keep =
      match tear with Some t when !off + n >= t -> max 0 (t - !off) | _ -> n
    in
    (try
       let pos = ref 0 in
       while !pos < keep do
         let c = min chunk (keep - !pos) in
         Sock_io.write_all dst buf !pos c;
         if chunk < 4096 then Thread.yield ();
         pos := !pos + c
       done
     with Unix.Unix_error _ -> torn := true);
    off := !off + n;
    match tear with
    | Some t when !off >= t && not !torn ->
        torn := true;
        Metrics.incr m_torn;
        shutdown_quiet dst Unix.SHUTDOWN_SEND
    | _ -> ()
  in
  let rec loop () =
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> if not !torn then shutdown_quiet dst Unix.SHUTDOWN_SEND
    | exception Unix.Unix_error _ ->
        if not !torn then shutdown_quiet dst Unix.SHUTDOWN_SEND
    | n ->
        forward n;
        if !torn then drain () else loop ()
  and drain () =
    (* discard the rest of the client's bytes after a tear *)
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> ()
    | exception Unix.Unix_error _ -> ()
    | _ -> drain ()
  in
  loop ()

(* Server -> client direction: Reset. At the reset offset both sockets are
   shut down in both directions, so the client observes a truncated
   response and the server a vanished peer — the mid-write failure mode a
   crash-only server must confine to that one connection. *)
let pump_response ~spec ~src ~dst =
  let reset =
    List.fold_left
      (fun acc -> function Reset k -> Some (match acc with Some a -> min a k | None -> k) | _ -> acc)
      None spec
  in
  let buf = Bytes.create 4096 in
  let off = ref 0 in
  let rec loop () =
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> shutdown_quiet dst Unix.SHUTDOWN_SEND
    | exception Unix.Unix_error _ -> shutdown_quiet dst Unix.SHUTDOWN_SEND
    | n -> (
        let keep =
          match reset with
          | Some r when !off + n >= r -> max 0 (r - !off)
          | _ -> n
        in
        (try Sock_io.write_all dst buf 0 keep with Unix.Unix_error _ -> ());
        off := !off + n;
        match reset with
        | Some r when !off >= r ->
            Metrics.incr m_reset;
            shutdown_quiet src Unix.SHUTDOWN_ALL;
            shutdown_quiet dst Unix.SHUTDOWN_ALL
        | _ -> loop ())
  in
  loop ()

let handle_conn p client_fd =
  match Unix.socket (Unix.domain_of_sockaddr p.target) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> close_quiet client_fd
  | server_fd -> (
      match Unix.connect server_fd p.target with
      | exception Unix.Unix_error _ ->
          close_quiet server_fd;
          close_quiet client_fd
      | () ->
          Metrics.incr m_connections;
          let id = Atomic.fetch_and_add p.conn_ids 1 in
          Mutex.protect p.cmutex (fun () ->
              Hashtbl.replace p.conns id (client_fd, server_fd));
          let req =
            Thread.create
              (fun () -> pump_request ~spec:p.spec ~src:client_fd ~dst:server_fd)
              ()
          in
          pump_response ~spec:p.spec ~src:server_fd ~dst:client_fd;
          Thread.join req;
          Mutex.protect p.cmutex (fun () -> Hashtbl.remove p.conns id);
          close_quiet client_fd;
          close_quiet server_fd)

let rec accept_loop p =
  if not (Atomic.get p.stopped) then begin
    (match Unix.select [ p.sock ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept p.sock with
        | fd, _ -> ignore (Thread.create (handle_conn p) fd)
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ());
    accept_loop p
  end

let start ~target spec =
  (* a peer vanishing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  try
    let sock, port = Sock_io.listen_tcp ~backlog:16 0 in
    let p =
      {
        sock;
        port;
        stopped = Atomic.make false;
        accept_thread = None;
        conns = Hashtbl.create 8;
        cmutex = Mutex.create ();
        conn_ids = Atomic.make 0;
        spec;
        target = Sock_io.sockaddr target;
      }
    in
    p.accept_thread <- Some (Thread.create accept_loop p);
    Ok p
  with Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "chaos proxy cannot listen: %s" (Unix.error_message e))

let stop p =
  if not (Atomic.exchange p.stopped true) then begin
    (match p.accept_thread with Some t -> Thread.join t | None -> ());
    close_quiet p.sock;
    (* nudge live pumps loose; their own threads close the descriptors *)
    Mutex.protect p.cmutex (fun () ->
        Hashtbl.iter
          (fun _ (a, b) ->
            shutdown_quiet a Unix.SHUTDOWN_ALL;
            shutdown_quiet b Unix.SHUTDOWN_ALL)
          p.conns)
  end

(* ---- soak -------------------------------------------------------------- *)

type report = {
  runs : int;
  completed : int;
  mismatched : int;
  structured : int;
  torn : int;
  alive : bool;
  leaked : int;
}

let default_lines =
  [ "ping"; "solve family=montage n=20 seed=7 mtbf=500"; "ping" ]

(* Byte spans of each request in the outgoing stream, so the soak knows
   which requests a given fault schedule provably did not touch. Text-mode
   ids are the daemon's 1-based line counter; binary ids are assigned the
   same way by the client, so span ids line up with reply ids in both
   modes. *)
let request_spans ~binary lines =
  let rec go i off acc = function
    | [] -> List.rev acc
    | line :: rest ->
        let rid = Int64.of_int (i + 1) in
        let len =
          if binary then
            match Pr.request_of_line line with
            | Ok req ->
                String.length (Codec.frame (Codec.encode_request ~id:rid req))
            | Error _ -> 0 (* rejected locally, never hits the wire *)
          else String.length line + 1
        in
        go (i + 1) (off + len) ((rid, off, off + len) :: acc) rest
  in
  go 0 0 [] lines

(* Ids whose request bytes lie wholly before every damage point of the
   spec. Damage at offset K can garble framing (or, in text mode, inject a
   newline) for everything at or after K, so only the prefix before the
   first tear/corrupt is held to byte-identity. *)
let untouched_ids spans spec =
  let first_damage =
    List.fold_left
      (fun acc -> function
        | Tear k | Corrupt (k, _) -> min acc k
        | Reset _ | Delay _ | Trickle _ -> acc)
      max_int spec
  in
  List.filter_map
    (fun (rid, _, stop) -> if stop <= first_damage then Some rid else None)
    spans

type outcome = Completed | Mismatched | Structured | Torn

let classify ~reference ~safe replies =
  if replies = reference then Completed
  else
    let mismatch =
      List.exists
        (fun (r : Client.reply) ->
          List.mem r.rid safe
          && (match r.body with
             | Ok b ->
                 List.exists
                   (fun (q : Client.reply) ->
                     q.rid = r.rid
                     && match q.body with Ok b' -> b' <> b | Error _ -> false)
                   reference
             | Error _ -> false))
        replies
    in
    if mismatch then Mismatched
    else if List.length replies < List.length reference then Torn
    else Structured

let direct_exchange ?retry ?recv_timeout ~binary target lines =
  match Client.connect ?retry target with
  | Error _ -> None
  | Ok fd ->
      Option.iter
        (fun t ->
          try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t
          with Unix.Unix_error _ | Invalid_argument _ -> ())
        recv_timeout;
      let r = try Some (Client.exchange ~binary fd lines) with _ -> None in
      close_quiet fd;
      r

let run_one ~target ~recv_timeout ~binary ~lines ~reference ~safe spec =
  match start ~target spec with
  | Error _ -> Torn
  | Ok p ->
      let replies =
        direct_exchange ~retry:2. ~recv_timeout ~binary (listen p) lines
      in
      stop p;
      Option.fold ~none:Torn ~some:(classify ~reference ~safe) replies

let parse_outstanding lines =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ "cache.outstanding"; v ] -> (
          match int_of_string_opt v with Some n -> n | None -> acc)
      | _ -> acc)
    0 lines

let soak ?(lines = default_lines) ?(recv_timeout = 10.) ?spec ~target ~seeds ()
    =
  let reference_for binary = direct_exchange ~binary target lines in
  let text_ref = reference_for false and bin_ref = reference_for true in
  let counts = Hashtbl.create 4 in
  let bump o = Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)) in
  let runs = ref 0 in
  List.iter
    (fun seed ->
      let binary = seed land 1 = 1 in
      match if binary then bin_ref else text_ref with
      | None -> ()
      | Some reference ->
          incr runs;
          let spec = match spec with Some s -> s | None -> random ~seed in
          let safe = untouched_ids (request_spans ~binary lines) spec in
          bump (run_one ~target ~recv_timeout ~binary ~lines ~reference ~safe spec))
    seeds;
  let get o = Option.value ~default:0 (Hashtbl.find_opt counts o) in
  let alive, leaked =
    match direct_exchange ~recv_timeout ~binary:false target [ "ping"; "stats" ] with
    | None -> (false, 0)
    | Some replies ->
        let alive =
          List.exists
            (fun (r : Client.reply) -> r.body = Ok [ "pong" ])
            replies
        in
        let leaked =
          List.fold_left
            (fun acc (r : Client.reply) ->
              match r.body with
              | Ok body -> max acc (parse_outstanding body)
              | Error _ -> acc)
            0 replies
        in
        (alive, leaked)
  in
  {
    runs = !runs;
    completed = get Completed;
    mismatched = get Mismatched;
    structured = get Structured;
    torn = get Torn;
    alive;
    leaked;
  }
