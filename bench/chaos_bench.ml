(* Chaos soak guard: run hundreds of seeded fault-injection schedules
   against a live in-process daemon and write BENCH_chaos.json.

   Pure correctness guard (the numbers are a by-product):
   - every request that completes under chaos must be byte-identical to
     its chaos-free twin, the daemon must survive every schedule and leak
     zero warm engines — the crash-only serving contract;
   - a watchdog-armed server must turn a runaway request into a
     structured [timeout] error, and arming the watchdog must not perturb
     a single byte of responses that finish inside the budget — checked
     cold and warm across daemon-side domain counts 1 and 4.

   Run with: FIG=chaos dune exec bench/main.exe
   Knobs:    CHAOS_SEEDS  seeded schedules to run (default 200) *)

module Chaos = Wfc_serve.Chaos
module Server = Wfc_serve.Server
module Client = Wfc_serve.Client
module Pr = Wfc_serve.Protocol
module Codec = Wfc_serve.Codec
module Json = Wfc_io.Json

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string s with Failure _ -> default)
  | None -> default

(* ---- live daemon -------------------------------------------------------- *)

let with_daemon f =
  let addr = ref None in
  let m = Mutex.create () and c = Condition.create () in
  let th =
    Thread.create
      (fun () ->
        match
          Server.serve
            ~ready:(fun a ->
              Mutex.protect m (fun () ->
                  addr := Some a;
                  Condition.signal c))
            (Server.Tcp 0)
        with
        | Ok () -> ()
        | Error msg -> failwith ("daemon failed to start: " ^ msg))
      ()
  in
  Mutex.protect m (fun () ->
      while !addr = None do
        Condition.wait c m
      done);
  let port =
    match !addr with
    | Some a -> (
        match String.rindex_opt a ':' with
        | Some i ->
            int_of_string (String.sub a (i + 1) (String.length a - i - 1))
        | None -> failwith ("unparsable daemon address " ^ a))
    | None -> assert false
  in
  let target = Server.Tcp port in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect target with
      | Ok fd ->
          ignore (Client.exchange fd [ "shutdown" ]);
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | Error _ -> ());
      Thread.join th)
    (fun () -> f target)

(* ---- watchdog + byte-identity (in process, through Server.handle) ------- *)

let parse l =
  match Pr.request_of_line l with
  | Ok r -> r
  | Error m -> failwith (Printf.sprintf "bad bench request %S: %s" l m)

let bytes_of r = Codec.encode_response ~id:0L r

(* workload small enough to always finish well inside the generous budget *)
let identity_lines =
  [
    "solve family=montage n=60 mtbf=500 grid=3";
    "solve family=cybershake n=60 mtbf=200 grid=3";
    "simulate family=ligo n=50 mtbf=800 runs=50 seed=11";
    "solve family=montage n=60 mtbf=500 grid=3";
  ]

let drive config =
  let t = Server.create ~config () in
  List.map (fun l -> bytes_of (Server.handle t (parse l))) identity_lines

let watchdog_check () =
  (* a runaway request under a tiny budget must answer a structured
     timeout, not an exception and not a partial result *)
  let t =
    Server.create
      ~config:{ Server.default_config with Server.timeout = Some 0.001 }
      ()
  in
  let runaway = parse "solve family=montage n=400 mtbf=500 deadline=50" in
  let cancelled =
    match Server.handle t runaway with
    | Pr.Error { code = Pr.Timeout; _ } -> true
    | _ -> false
  in
  if not cancelled then begin
    print_endline "FAIL: watchdog did not cancel a runaway request";
    exit 1
  end;
  (* the watchdog must not perturb responses that finish inside budget:
     byte-identical with it off / on, cold / warm, domains 1 / 4 *)
  let base = Server.default_config in
  let variants =
    [
      ("no watchdog, cold", { base with Server.cache_size = 0 });
      ("no watchdog, warm", base);
      ("watchdog, warm", { base with Server.timeout = Some 30. });
      ( "watchdog, cold, domains=4",
        {
          base with
          Server.cache_size = 0;
          timeout = Some 30.;
          domains = 4;
          workers = 4;
        } );
    ]
  in
  let results = List.map (fun (name, cfg) -> (name, drive cfg)) variants in
  let _, reference = List.hd results in
  List.iter
    (fun (name, bytes) ->
      if bytes <> reference then begin
        Printf.printf "FAIL: %s responses differ from reference bytes\n" name;
        exit 1
      end)
    results;
  print_endline
    "  watchdog: runaway request -> structured timeout; in-budget responses \
     byte-identical cold/warm, watchdog on/off, domains 1|4"

(* ---- entry -------------------------------------------------------------- *)

let run () =
  print_endline "== chaos soak: crash-only serving invariants (FIG=chaos) ==";
  let nseeds = getenv_int "CHAOS_SEEDS" 200 in
  let seeds = List.init nseeds (fun i -> i) in
  let t0 = Unix.gettimeofday () in
  let r = with_daemon (fun target -> Chaos.soak ~target ~seeds ()) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf
    "  %d seeded schedules in %.1f s: %d completed, %d structured, %d torn\n"
    r.Chaos.runs elapsed r.Chaos.completed r.Chaos.structured r.Chaos.torn;
  if r.Chaos.mismatched > 0 then begin
    Printf.printf "FAIL: %d completed replies diverged from their chaos-free \
                   twins\n" r.Chaos.mismatched;
    exit 1
  end;
  if r.Chaos.leaked > 0 then begin
    Printf.printf "FAIL: %d warm engines still checked out after the soak\n"
      r.Chaos.leaked;
    exit 1
  end;
  if not r.Chaos.alive then begin
    print_endline "FAIL: daemon stopped answering during the soak";
    exit 1
  end;
  if r.Chaos.runs <> nseeds then begin
    Printf.printf "FAIL: only %d of %d schedules ran\n" r.Chaos.runs nseeds;
    exit 1
  end;
  watchdog_check ();
  let doc =
    Json.Assoc
      [
        ("bench", Json.String "chaos");
        ("seeds", Json.Number (float_of_int r.Chaos.runs));
        ("completed", Json.Number (float_of_int r.Chaos.completed));
        ("structured", Json.Number (float_of_int r.Chaos.structured));
        ("torn", Json.Number (float_of_int r.Chaos.torn));
        ("mismatched", Json.Number (float_of_int r.Chaos.mismatched));
        ("leaked", Json.Number (float_of_int r.Chaos.leaked));
        ("alive", Json.Bool r.Chaos.alive);
        ("watchdog_structured_timeout", Json.Bool true);
        ("byte_identical", Json.Bool true);
        ("elapsed_s", Json.Number elapsed);
      ]
  in
  let oc = open_out "BENCH_chaos.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  print_endline
    "PASS: zero mismatches, zero leaked engines, daemon alive; wrote \
     BENCH_chaos.json"
