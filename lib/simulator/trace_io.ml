module Json = Wfc_io.Json
module Metrics = Wfc_obs.Metrics

let m_recorded = Metrics.counter "trace.recorded"
let m_events_recorded = Metrics.counter "trace.events_recorded"
let m_replays = Metrics.counter "trace.replays"
let m_saved = Metrics.counter "trace.saved"
let m_loaded = Metrics.counter "trace.loaded"

type attempt = Survived of float | Failed of { after : float; downtime : float }

type t =
  | Attempts of attempt array
  | Renewal of { uptimes : float array; downtimes : float array }
  | Replicated of { events : attempt array; replicas : int array }

let version = 1

let kind_name = function
  | Attempts _ -> "attempts"
  | Renewal _ -> "renewal"
  | Replicated _ -> "attempts-replicated"

let count_failed evs =
  Array.fold_left
    (fun acc ev -> match ev with Failed _ -> acc + 1 | Survived _ -> acc)
    0 evs

let n_events = function
  | Attempts evs | Replicated { events = evs; _ } -> Array.length evs
  | Renewal { uptimes; downtimes } ->
      Array.length uptimes + Array.length downtimes

let n_failures = function
  | Attempts evs | Replicated { events = evs; _ } -> count_failed evs
  | Renewal { downtimes; _ } -> Array.length downtimes

exception Divergence of string

(* {1 Recording} *)

type recorder = { mutable events : attempt list; mutable last_ttf : float }

let recorder () = { events = []; last_ttf = nan }

(* Relies on the engine contract from Sim.source: each attempt issues one
   [time_to_failure], then either [consume] (survived) or [next_downtime]
   followed by [after_failure] (failed). *)
let recording_source r (inner : Sim.source) =
  Sim.custom_source
    ~time_to_failure:(fun () ->
      let v = inner.Sim.time_to_failure () in
      r.last_ttf <- v;
      v)
    ~consume:(fun dt ->
      r.events <- Survived r.last_ttf :: r.events;
      inner.Sim.consume dt)
    ~next_downtime:(fun () ->
      let d = inner.Sim.next_downtime () in
      r.events <- Failed { after = r.last_ttf; downtime = d } :: r.events;
      d)
    ~after_failure:inner.Sim.after_failure

let recorded r = Attempts (Array.of_list (List.rev r.events))

let count_recorded t =
  if Metrics.enabled () then begin
    Metrics.incr m_recorded;
    Metrics.add m_events_recorded (n_events t)
  end;
  t

let record_run ?replica_cost ~rng model g sched =
  (* one recorder shared by every lane: the executor resolves each lane's
     outcome before polling the next, so the interleaved stream is totally
     ordered and replays through a single cursor *)
  let r = recorder () in
  let lanes = Array.map (recording_source r) (Sim.model_lanes ~rng model sched) in
  let run = Sim.run_with_lanes ?replica_cost lanes g sched in
  let events = Array.of_list (List.rev r.events) in
  let trace =
    if Wfc_core.Schedule.is_replicated sched then
      Replicated { events; replicas = Wfc_core.Schedule.replica_counts sched }
    else Attempts events
  in
  (run, count_recorded trace)

let record_renewal ~rng ~failures ~downtime g sched =
  if Wfc_core.Schedule.is_replicated sched then
    invalid_arg
      "Trace_io.record_renewal: a replicated schedule records one event per \
       lane attempt (record_run), not a single renewal stream";
  (* a renewal source's countdown reads back its raw draws: the first
     uptime at creation, a fresh one after every repair *)
  let inner = Sim.renewal_source ~rng ~failures ~downtime in
  let ups = ref [ inner.Sim.time_to_failure () ] and downs = ref [] in
  let src =
    Sim.custom_source ~time_to_failure:inner.Sim.time_to_failure
      ~consume:inner.Sim.consume
      ~next_downtime:(fun () ->
        let d = inner.Sim.next_downtime () in
        downs := d :: !downs;
        d)
      ~after_failure:(fun () ->
        inner.Sim.after_failure ();
        ups := inner.Sim.time_to_failure () :: !ups)
  in
  let run = Sim.run_with_source src g sched in
  let trace =
    Renewal
      {
        uptimes = Array.of_list (List.rev !ups);
        downtimes = Array.of_list (List.rev !downs);
      }
  in
  (run, count_recorded trace)

let draw_renewal ~rng ~failures ~downtime ~min_uptime =
  if not (min_uptime > 0. && Float.is_finite min_uptime) then
    invalid_arg "Trace_io.draw_renewal: min_uptime must be positive and finite";
  let ups = ref [] and downs = ref [] in
  let cum = ref 0. in
  let draw_up () =
    let u = Wfc_platform.Distribution.sample failures rng in
    ups := u :: !ups;
    cum := !cum +. u
  in
  draw_up ();
  while !cum < min_uptime do
    downs := Wfc_platform.Distribution.sample downtime rng :: !downs;
    draw_up ()
  done;
  count_recorded
    (Renewal
       {
         uptimes = Array.of_list (List.rev !ups);
         downtimes = Array.of_list (List.rev !downs);
       })

(* An event log from Sim_trace.run is chronological and sequential: each
   Attempt is closed by the next Completion (survived — the draw itself is
   not logged, but on success it never enters the makespan arithmetic, so
   [infinity] replays identically) or Failure (whose [elapsed] is the exact
   draw). Downtime is the model's constant. *)
let of_events ~downtime events =
  if not (downtime >= 0.) then
    invalid_arg "Trace_io.of_events: negative downtime";
  let acc = ref [] and pending = ref false in
  List.iter
    (fun (e : Sim_trace.event) ->
      match e with
      | Sim_trace.Attempt _ -> pending := true
      | Completion _ ->
          if not !pending then
            invalid_arg "Trace_io.of_events: completion without an attempt";
          pending := false;
          acc := Survived infinity :: !acc
      | Failure { elapsed; _ } ->
          if not !pending then
            invalid_arg "Trace_io.of_events: failure without an attempt";
          pending := false;
          acc := Failed { after = elapsed; downtime } :: !acc)
    events;
  count_recorded (Attempts (Array.of_list (List.rev !acc)))

(* {1 Replay} *)

type replay_state = { source : Sim.source; exhausted : unit -> bool }

let replay_source t =
  match t with
  | Attempts evs | Replicated { events = evs; _ } ->
      let n = Array.length evs in
      let i = ref 0 in
      let exhausted = ref false in
      let diverge what =
        raise
          (Divergence (Printf.sprintf "attempt %d: %s" !i what))
      in
      {
        source =
          Sim.custom_source
            ~time_to_failure:(fun () ->
              if !i >= n then begin
                exhausted := true;
                infinity
              end
              else
                match evs.(!i) with
                | Survived v -> v
                | Failed { after; _ } -> after)
            ~consume:(fun _ ->
              if !i < n then begin
                (match evs.(!i) with
                | Survived _ -> ()
                | Failed _ -> diverge "segment survived a recorded failure");
                incr i
              end)
            ~next_downtime:(fun () ->
              if !i >= n then diverge "failure past the end of the trace"
              else
                match evs.(!i) with
                | Failed { downtime; _ } -> downtime
                | Survived _ -> diverge "segment failed on a recorded survival")
            ~after_failure:(fun () -> incr i);
        exhausted = (fun () -> !exhausted);
      }
  | Renewal { uptimes; downtimes } ->
      let ndown = Array.length downtimes in
      let idx = ref 0 in
      let remaining = ref (if Array.length uptimes = 0 then 0. else uptimes.(0)) in
      let exhausted = ref (Array.length uptimes = 0) in
      (* On the last recorded uptime no further failure can be served, so
         the platform is failure-free from there on; consuming past that
         final draw is what [exhausted] reports. *)
      let final () = !idx >= ndown in
      {
        source =
          Sim.custom_source
            ~time_to_failure:(fun () -> if final () then infinity else !remaining)
            ~consume:(fun dt ->
              remaining := !remaining -. dt;
              if final () && !remaining < 0. then exhausted := true)
            ~next_downtime:(fun () -> downtimes.(!idx))
            ~after_failure:(fun () ->
              incr idx;
              if !idx < Array.length uptimes then remaining := uptimes.(!idx));
        exhausted = (fun () -> !exhausted);
      }

let replay ?replica_cost t g sched =
  if Metrics.enabled () then Metrics.incr m_replays;
  (match t with
  | Replicated { replicas; _ } ->
      (* an attempt's events only make sense against the replica counts that
         produced them: one event per live copy, in lane order. A different
         count would silently misattribute events to the wrong copies, so
         refuse loudly. *)
      if Wfc_core.Schedule.replica_counts sched <> replicas then
        raise
          (Divergence
             "replayed schedule's replica counts differ from the recorded \
              ones")
  | Attempts _ | Renewal _ ->
      if Wfc_core.Schedule.is_replicated sched then
        raise
          (Divergence
             (Printf.sprintf
                "a %s trace records one failure lane and cannot drive a \
                 replicated schedule"
                (kind_name t))));
  (* the single cursor serves every lane: the executor polls lanes in
     recorded order *)
  let shared = (replay_source t).source in
  Sim.run_with_lanes ?replica_cost
    (Array.make (Wfc_core.Schedule.max_replica_count sched) shared)
    g sched

(* {1 Serialization} *)

let hex f = Printf.sprintf "%h" f

let to_string t =
  let buf = Buffer.create 1024 in
  let line j = Buffer.add_string buf (Json.to_string ~minify:true j ^ "\n") in
  let header =
    [
      ("format", Json.String "wfc-trace");
      ("version", Json.Number (float_of_int version));
      ("kind", Json.String (kind_name t));
    ]
  in
  let header =
    (* replica counts ride in the header — only for the replicated kind, so
       the plain header line stays byte-identical *)
    match t with
    | Replicated { replicas; _ } ->
        header
        @ [
            ( "replicas",
              Json.List
                (Array.to_list
                   (Array.map (fun r -> Json.Number (float_of_int r)) replicas))
            );
          ]
    | Attempts _ | Renewal _ -> header
  in
  line (Json.Assoc header);
  let attempt_line = function
    | Survived v -> line (Json.Assoc [ ("s", Json.String (hex v)) ])
    | Failed { after; downtime } ->
        line
          (Json.Assoc
             [
               ("f", Json.String (hex after)); ("d", Json.String (hex downtime));
             ])
  in
  (match t with
  | Attempts evs | Replicated { events = evs; _ } ->
      Array.iter attempt_line evs
  | Renewal { uptimes; downtimes } ->
      (* draw order: u0, then (d_i, u_{i+1}) per failure *)
      Array.iteri
        (fun i u ->
          if i > 0 then
            line (Json.Assoc [ ("d", Json.String (hex downtimes.(i - 1))) ]);
          line (Json.Assoc [ ("u", Json.String (hex u)) ]))
        uptimes);
  Buffer.contents buf

let ( let* ) = Json.( let* )

let float_field ~what ~finite ~nonneg name j =
  let* v = Json.member name j in
  let* s = Json.to_string_value v in
  match float_of_string_opt s with
  | Some f when not (Float.is_nan f) ->
      if finite && not (Float.is_finite f) then
        Error (Printf.sprintf "%s must be finite, got %S" what s)
      else if nonneg && not (f >= 0.) then
        Error (Printf.sprintf "%s must be non-negative, got %S" what s)
      else Ok f
  | _ -> Error (Printf.sprintf "unparseable %s %S" what s)

let parse_header line =
  let* j = Json.of_string line in
  let* fmt = Json.member "format" j in
  let* fmt = Json.to_string_value fmt in
  if fmt <> "wfc-trace" then Error (Printf.sprintf "unknown format %S" fmt)
  else
    let* v = Json.member "version" j in
    let* v = Json.to_int v in
    if v <> version then
      Error (Printf.sprintf "unsupported version %d (expected %d)" v version)
    else
      let* k = Json.member "kind" j in
      let* k = Json.to_string_value k in
      Ok (k, j)

let parse_replicas j =
  let* r = Json.member "replicas" j in
  let* l = Json.to_list r in
  let rec go acc = function
    | [] ->
        if acc = [] then Error "empty replica counts"
        else Ok (Array.of_list (List.rev acc))
    | x :: rest ->
        let* r = Json.to_int x in
        if r < 1 || r > Wfc_core.Schedule.max_replicas then
          Error
            (Printf.sprintf "replica count %d outside [1, %d]" r
               Wfc_core.Schedule.max_replicas)
        else go (r :: acc) rest
  in
  go [] l

let parse_attempt j =
  match Json.member "s" j with
  | Ok _ ->
      let* v = float_field ~what:"survival draw" ~finite:false ~nonneg:true "s" j in
      Ok (Survived v)
  | Error _ ->
      let* after =
        float_field ~what:"failure time" ~finite:true ~nonneg:true "f" j
      in
      let* downtime =
        float_field ~what:"downtime" ~finite:true ~nonneg:true "d" j
      in
      Ok (Failed { after; downtime })

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty trace file"
  | header :: events -> (
      let located i r =
        (* line 1 is the header *)
        Result.map_error (fun e -> Printf.sprintf "line %d: %s" (i + 2) e) r
      in
      let* kind, header_json =
        Result.map_error (fun e -> "line 1: " ^ e) (parse_header header)
      in
      let parse_attempts events =
        let rec go i acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | l :: rest ->
              let* ev =
                located i
                  (let* j = Json.of_string l in
                   parse_attempt j)
              in
              go (i + 1) (ev :: acc) rest
        in
        go 0 [] events
      in
      match kind with
      | "attempts" ->
          let* evs = parse_attempts events in
          if Metrics.enabled () then Metrics.incr m_loaded;
          Ok (Attempts evs)
      | "attempts-replicated" ->
          let* replicas =
            Result.map_error
              (fun e -> "line 1: " ^ e)
              (parse_replicas header_json)
          in
          let* evs = parse_attempts events in
          if Metrics.enabled () then Metrics.incr m_loaded;
          Ok (Replicated { events = evs; replicas })
      | "renewal" ->
          (* grammar: u (d u)* — validated by alternation *)
          let rec go i ~expect_up ups downs = function
            | [] ->
                if ups = [] then Error "renewal trace has no uptime draw"
                else if expect_up then
                  Error
                    "truncated renewal trace (ends on a downtime without the \
                     renewing uptime draw)"
                else
                  Ok
                    (Renewal
                       {
                         uptimes = Array.of_list (List.rev ups);
                         downtimes = Array.of_list (List.rev downs);
                       })
            | l :: rest ->
                let* j = located i (Json.of_string l) in
                if expect_up then
                  let* u =
                    located i
                      (float_field ~what:"uptime" ~finite:true ~nonneg:true "u"
                         j)
                  in
                  go (i + 1) ~expect_up:false (u :: ups) downs rest
                else if Result.is_ok (Json.member "d" j) then
                  let* d =
                    located i
                      (float_field ~what:"downtime" ~finite:true ~nonneg:true
                         "d" j)
                  in
                  go (i + 1) ~expect_up:true ups (d :: downs) rest
                else
                  Error
                    (Printf.sprintf "line %d: expected a downtime event"
                       (i + 2))
          in
          let* t = go 0 ~expect_up:true [] [] events in
          if Metrics.enabled () then Metrics.incr m_loaded;
          Ok t
      | k -> Error (Printf.sprintf "line 1: unknown trace kind %S" k))

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t));
  if Metrics.enabled () then Metrics.incr m_saved

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error e -> Error e
