(* The untraced end-to-end runs. Every number here comes from real
   processes: a `wfc serve` daemon driven over its Unix socket, or the
   `wfc corpus` CLI. *)

module Pr = Wfc_serve.Protocol
module Server = Wfc_serve.Server
module Corpus = Wfc_corpus.Corpus
module CM = Wfc_workflows.Cost_model

type env = { wfc : string; dir : string; seed : int; seconds : float }

type result = {
  phase : Stats.phase;
  setup_s : float;  (** median of the set-up repetitions *)
  peak_rss_mb : float;  (** of the process doing the work *)
  check_failures : string list;  (** failed post-run checks *)
}

exception Setup_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt
let get what = function Ok x -> x | Error msg -> fail "%s: %s" what msg
let now = Unix.gettimeofday
let setup_repeats = 7

(* Run set-up [setup_repeats] times and keep the last; [discard] tears
   down the earlier ones. *)
let repeated_setup ~discard setup =
  let runs =
    List.init setup_repeats (fun k ->
        let t0 = now () in
        let x = setup k in
        (x, now () -. t0))
  in
  List.iteri (fun k (x, _) -> if k < setup_repeats - 1 then discard x) runs;
  (fst (List.nth runs (setup_repeats - 1)), Stats.median (List.map snd runs))

(* The text-mode response block `wfc serve` writes for request [id]. *)
let text_block ~id = function
  | Pr.Error { code; message } ->
      Printf.sprintf "error %Ld %s %s\n" id (Pr.error_code_name code) message
  | resp ->
      String.concat ""
        ((Printf.sprintf "ok %Ld\n" id :: List.map (fun l -> l ^ "\n") (Pr.render_response resp))
        @ [ ".\n" ])

let exchange_or_fatal (d : Daemon.t) payload =
  match Daemon.exchange d.Daemon.sock payload with
  | Ok bytes -> Ok bytes
  | Error msg ->
      let state = if Daemon.alive d then "daemon still running" else "daemon exited" in
      Error (`Fatal (Printf.sprintf "%s: %s" state msg))

let stat_int rows name =
  Option.bind (List.assoc_opt name rows) int_of_string_opt

(* After every serve run: no engine left checked out, and the hit count the
   workload implies. *)
let cache_checks d ~hits =
  match Daemon.stats d with
  | Error msg -> [ "stats: " ^ msg ]
  | Ok rows ->
      let check name want =
        match stat_int rows name with
        | Some v when v = want -> []
        | v ->
            [
              Printf.sprintf "stats %s = %s, expected %d" name
                (Option.fold ~none:"missing" ~some:string_of_int v)
                want;
            ]
      in
      check "cache.outstanding" 0 @ check "cache.hits" hits

let start_daemon env name = get "start" (Daemon.start ~wfc:env.wfc ~dir:env.dir ~name)

let stop_daemon d =
  let e = Daemon.stop d in
  float_of_int e.Proc.maxrss_kb /. 1024.

(* ---- serve-warm -------------------------------------------------------- *)

let warm_requests seed =
  Array.map (fun s -> Inputs.request_of_line (Inputs.warm_line s)) (Inputs.warm_seeds seed)

(* Seed k always travels with request id k+1, so every answer for a seed is
   the same bytes as its priming answer. *)
let warm_payload reqs k =
  Daemon.binary_payload ~id:(Int64.of_int (k + 1)) reqs.(k)

let prime_warm d reqs =
  Array.mapi
    (fun k _ ->
      let bytes = get "priming" (Daemon.exchange d.Daemon.sock (warm_payload reqs k)) in
      (match Daemon.decode_frame bytes with
      | Ok (_, Pr.Solved _) -> ()
      | Ok (_, r) -> fail "priming answered %s" (String.concat " " (Pr.render_response r))
      | Error msg -> fail "priming: %s" msg);
      bytes)
    reqs

let serve_warm env =
  let reqs = warm_requests env.seed in
  let (d, primed), setup_s =
    repeated_setup
      ~discard:(fun (d, _) -> ignore (stop_daemon d))
      (fun k ->
        let d = start_daemon env (Printf.sprintf "warm%d" k) in
        (d, prime_warm d reqs))
  in
  let n = Array.length reqs in
  let phase =
    Stats.closed_loop ~clock:now ~seconds:env.seconds (fun i ->
        let k = i mod n in
        Result.bind (exchange_or_fatal d (warm_payload reqs k)) (fun bytes ->
            if bytes = primed.(k) then Ok ()
            else Error (`Mismatch "response differs from the priming answer")))
  in
  let checks = cache_checks d ~hits:(Stats.attempted phase.Stats.outcomes) in
  let peak_rss_mb = stop_daemon d in
  { phase; setup_s; peak_rss_mb; check_failures = checks }

(* ---- simulate-cold ----------------------------------------------------- *)

let simulate_cold env =
  let c = Inputs.cold env.seed in
  let line s = Inputs.cold_line s ^ "\n" in
  let warm_up d j =
    let bytes = get "warm-up" (Daemon.exchange d.Daemon.sock (line (Inputs.cold_warmup_seed c j))) in
    if not (String.starts_with ~prefix:"ok 1\n" bytes) then fail "warm-up answered %S" bytes
  in
  let d, setup_s =
    repeated_setup
      ~discard:(fun d -> ignore (stop_daemon d))
      (fun k ->
        let d = start_daemon env (Printf.sprintf "cold%d" k) in
        for j = 0 to Inputs.cold_warmups - 1 do
          warm_up d j
        done;
        d)
  in
  for j = Inputs.cold_warmups to Inputs.cold_warmups + Inputs.cold_fill - 1 do
    warm_up d j
  done;
  let answers = ref [] in
  let phase =
    Stats.closed_loop ~clock:now ~seconds:env.seconds (fun i ->
        Result.bind (exchange_or_fatal d (line (Inputs.cold_seed c i))) (fun bytes ->
            answers := bytes :: !answers;
            if String.starts_with ~prefix:"ok 1\n" bytes then Ok ()
            else Error (`Mismatch (String.trim bytes))))
  in
  let checks = cache_checks d ~hits:0 in
  let peak_rss_mb = stop_daemon d in
  (* outside the timed phase: each answer against in-process Server.handle
     with the cache off *)
  let srv = Server.create ~config:{ Server.default_config with cache_size = 0; workers = 1 } () in
  let answers = Array.of_list (List.rev !answers) in
  let outcomes =
    List.mapi
      (fun i o ->
        match o with
        | Stats.Done _ when i < Array.length answers ->
            let req = Inputs.request_of_line (Inputs.cold_line (Inputs.cold_seed c i)) in
            if text_block ~id:1L (Server.handle srv req) = answers.(i) then o
            else Stats.Failed "response differs from in-process Server.handle"
        | o -> o)
      phase.Stats.outcomes
  in
  { phase = { phase with Stats.outcomes }; setup_s; peak_rss_mb; check_failures = checks }

(* ---- corpus-sweep ------------------------------------------------------ *)

let exact_budget = 20_000

(* `wfc corpus`'s defaults with the benchmark's two flags. *)
let corpus_config =
  {
    Corpus.default_config with
    Corpus.search = Wfc_core.Heuristics.Exhaustive;
    exact_budget;
    domains = 1;
  }

let corpus_cost = CM.Proportional 0.1

let in_process_json dir =
  match Corpus.load_dir ~cost:corpus_cost dir with
  | Error msg -> Error msg
  | Ok (instances, skipped) ->
      let report = Corpus.sweep ~config:corpus_config ~skipped instances in
      Ok (Wfc_io.Json.to_string (Corpus.to_json report) ^ "\n")

type sweep = { json : string; stdout : string; exit : Proc.exit }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cli_sweep env ~corpus =
  let json = Filename.concat env.dir "report.json" in
  let out = Filename.concat env.dir "sweep.out" in
  let pid =
    Proc.spawn ~stdout:out env.wfc
      [ "corpus"; corpus; "--domains"; "1"; "--exact-budget"; string_of_int exact_budget;
        "--json"; json ]
  in
  let exit = Proc.wait_capped ~cap:120. pid in
  let slurp p = try read_file p with Sys_error _ -> "" in
  let r = { json = slurp json; stdout = slurp out; exit } in
  (try Sys.remove json with Sys_error _ -> ());
  r

let write_corpus env k =
  let corpus = Filename.concat env.dir (Printf.sprintf "corpus%d" k) in
  Unix.mkdir corpus 0o755;
  Inputs.write_corpus corpus (Inputs.corpus_files env.seed);
  corpus

(* Set-up writes the corpus and runs one untimed sweep over it: the
   reference every timed sweep must reproduce byte for byte. *)
let corpus_setup env k =
  let corpus = write_corpus env k in
  let reference = cli_sweep env ~corpus in
  if reference.exit.Proc.code <> 0 then fail "warm-up sweep exited %d" reference.exit.Proc.code;
  (corpus, reference)

let corpus_sweep env =
  let (corpus, reference), setup_s = repeated_setup ~discard:ignore (corpus_setup env) in
  let peak = ref 0 in
  let phase =
    Stats.closed_loop ~clock:now ~seconds:env.seconds (fun _ ->
        let r = cli_sweep env ~corpus in
        peak := max !peak r.exit.Proc.maxrss_kb;
        if r.exit.Proc.code <> 0 then
          Error (`Fatal (Printf.sprintf "wfc corpus exited %d" r.exit.Proc.code))
        else if r.json <> reference.json || r.stdout <> reference.stdout then
          Error (`Mismatch "report differs from the warm-up sweep")
        else Ok ())
  in
  let checks =
    match in_process_json corpus with
    | Ok json when json = reference.json -> []
    | Ok _ -> [ "CLI report differs from in-process Corpus.sweep" ]
    | Error msg -> [ "in-process load: " ^ msg ]
  in
  { phase; setup_s; peak_rss_mb = float_of_int !peak /. 1024.; check_failures = checks }
