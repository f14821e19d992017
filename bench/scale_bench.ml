(* Scale campaign for the flat kernel: Pegasus-family workflows up to
   n=2000 through the flat engine (full evaluation + flip throughput, with a
   fresh engine and the Evaluator oracle as references), the
   dominance-pruned parallel branch and bound at n~30, and a
   parallel-vs-single-domain optimality guard. Writes BENCH_scale.json.

   Searches report the kernel's own makespan, so its distance from the
   oracle is guarded, not just recorded: every size FAILs (exit 1) if the
   kernel strays more than [oracle_tolerance] relative from the Evaluator,
   on the all-off schedule or on the DF-CkptW winner the heuristic
   reports.

   Run with: FIG=scale dune exec bench/main.exe

   Knobs (for the cram smoke test, which needs a sub-second variant):
     SCALE_NMAX=200     cap the sweep sizes
     SCALE_EXACT_N=12   size of the exact branch-and-bound instance
     SCALE_DOMAINS=2    worker domains for the parallel search *)

open Wfc_core
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model

let model = FM.make ~lambda:1e-3 ()

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string s with Failure _ -> default)
  | None -> default

let instance family n =
  let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n ~seed:7) in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  (g, order)

type sweep_row = {
  family : string;
  n : int;
  flat_full_ms : float;  (** create + first full evaluation *)
  flat_flip_us : float;
  oracle_rel_err : float;
      (** {!Eval_engine.rel_diff} of flat and Evaluator on the all-off
          schedule *)
  ckptw_rel_err : float;
      (** the same distance for the DF-CkptW winner: its reported makespan
          against the oracle's value of its schedule *)
}

let oracle_tolerance = 1e-12

(* One size point: full-evaluation and flip throughput of the kernel, plus
   the bitwise warm==fresh guard and an oracle cross-check.
   The failure rate is scale-invariant: lambda * total_work = 50 at every
   size, so the recurrence stays in floating-point range (a fixed lambda
   overflows exp once total work passes ~709/lambda, e.g. Genome n=1000). *)
let sweep_point family n =
  let g, order = instance family n in
  let model = FM.make ~lambda:(50. /. Wfc_dag.Dag.total_weight g) () in
  let flat_full_ms =
    Timing.median (fun () ->
        Flat_engine.makespan (Flat_engine.create model g ~order))
    *. 1e3
  in
  let feng = Flat_engine.create model g ~order in
  let fm = Flat_engine.makespan feng in
  let oracle =
    Evaluator.expected_makespan model g
      (Schedule.make g ~order ~checkpointed:(Array.make n false))
  in
  let oracle_rel_err = Eval_engine.rel_diff fm oracle in
  let ckptw_rel_err =
    let o =
      Heuristics.run ~search:(Heuristics.Grid 16) model g
        ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight
    in
    let oracle = Evaluator.expected_makespan model g o.Heuristics.schedule in
    Eval_engine.rel_diff o.Heuristics.makespan oracle
  in
  (* a flip costs O(suffix area) ~ n^2, so scale the count down with n to
     keep the per-point budget roughly constant *)
  let flips = Int.max 16 (Int.min n (40_000 / n)) in
  let i = ref 0 in
  let flat_flip_us =
    Timing.median (fun () ->
        for _ = 1 to flips do
          ignore (Flat_engine.flip feng (!i * 17 mod n));
          incr i
        done)
    /. float_of_int flips *. 1e6
  in
  (* path-independence wall: after all those flips the warm kernel must
     score its flags bit-identically to a cold one, at every scale, not just
     the qcheck sizes *)
  let warm = Flat_engine.makespan feng in
  let cold =
    Flat_engine.makespan
      (Flat_engine.create ~flags:(Flat_engine.flags feng) model g ~order)
  in
  if not (Float.equal warm cold) then (
    Printf.printf "FAIL %s n=%d: warm %.17g <> fresh %.17g\n"
      (P.family_name family) n warm cold;
    exit 1);
  {
    family = P.family_name family;
    n;
    flat_full_ms;
    flat_flip_us;
    oracle_rel_err;
    ckptw_rel_err;
  }

type exact_row = {
  exact_n : int;
  domains : int;
  nodes : int;
  seconds : float;
  optimal : bool;
}

let bench_exact ~n ~domains =
  let g, order = instance P.Ligo n in
  let (sol, status), seconds =
    Timing.once (fun () ->
        Exact_solver.optimal_checkpoints_within ~domains ~max_nodes:50_000_000
          (Flat_engine.create model g ~order))
  in
  {
    exact_n = n;
    domains;
    nodes = sol.Exact_solver.nodes;
    seconds;
    optimal = status = `Optimal;
  }

(* The parallel split must not change the answer: same optimum (bitwise,
   both are the engine's value of their flags) from 1 and k domains. *)
let parallel_guard ~n ~domains =
  let g, order = instance P.Genome n in
  let run domains =
    (Exact_solver.optimal_checkpoints_within ~domains ~max_nodes:5_000_000
      (Flat_engine.create model g ~order)
    |> fst)
      .Exact_solver.makespan
  in
  let single = run 1 and multi = run domains in
  if Float.equal single multi then (
    Printf.printf "PASS parallel B&B matches single-domain (n=%d, %d domains)\n"
      n domains;
    true)
  else (
    Printf.printf "FAIL parallel B&B: %d domains %.17g <> single %.17g\n"
      domains multi single;
    false)

let json rows exact guard_ok =
  let open Wfc_io.Json in
  Assoc
    [
      ("benchmark", String "scale");
      ( "model",
        String
          "sweep: lambda=50/total_work, downtime=0, cost=0.1w; exact: \
           lambda=1e-3" );
      ( "sweep",
        List
          (Stdlib.List.map
             (fun r ->
               Assoc
                 [
                   ("family", String r.family);
                   ("n", Number (float_of_int r.n));
                   ("flat_full_ms", Number r.flat_full_ms);
                   ("flat_flip_us", Number r.flat_flip_us);
                   ("oracle_rel_err", Number r.oracle_rel_err);
                   ("ckptw_rel_err", Number r.ckptw_rel_err);
                 ])
             rows) );
      ( "exact",
        Assoc
          [
            ("family", String "Ligo");
            ("n", Number (float_of_int exact.exact_n));
            ("domains", Number (float_of_int exact.domains));
            ("nodes", Number (float_of_int exact.nodes));
            ("seconds", Number exact.seconds);
            ("optimal", Bool exact.optimal);
          ] );
      ("parallel_guard", Bool guard_ok);
    ]

let run () =
  let nmax = getenv_int "SCALE_NMAX" 2000 in
  let exact_n = getenv_int "SCALE_EXACT_N" 30 in
  let domains = getenv_int "SCALE_DOMAINS" 4 in
  print_endline "== flat kernel at scale: Pegasus families to n=2000 ==";
  let sizes = Stdlib.List.filter (fun n -> n <= nmax) [ 200; 500; 1000; 2000 ] in
  let sizes = if sizes = [] then [ nmax ] else sizes in
  let rows =
    Stdlib.List.concat_map
      (fun family ->
        Stdlib.List.filter_map
          (fun n ->
            if n < P.min_size family then None else Some (sweep_point family n))
          sizes)
      P.all
  in
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [
          "family"; "n"; "flat full"; "flat flip"; "vs oracle";
          "CkptW vs oracle";
        ]
  in
  Stdlib.List.iter
    (fun r ->
      Wfc_reporting.Table.add_row table
        [
          r.family;
          string_of_int r.n;
          Printf.sprintf "%.2f ms" r.flat_full_ms;
          Printf.sprintf "%.1f us" r.flat_flip_us;
          Printf.sprintf "%.1e" r.oracle_rel_err;
          Printf.sprintf "%.1e" r.ckptw_rel_err;
        ])
    rows;
  Wfc_reporting.Table.print table;
  Printf.printf "PASS flat == fresh engine (bitwise) on %d instances\n"
    (Stdlib.List.length rows);
  let far =
    Stdlib.List.filter
      (fun r ->
        not
          (r.oracle_rel_err <= oracle_tolerance
          && r.ckptw_rel_err <= oracle_tolerance))
      rows
  in
  Stdlib.List.iter
    (fun r ->
      Printf.printf "FAIL %s n=%d: flat is %.1e (all-off) / %.1e (CkptW) from \
                     the oracle, above %.0e\n"
        r.family r.n r.oracle_rel_err r.ckptw_rel_err oracle_tolerance)
    far;
  if far <> [] then exit 1;
  Printf.printf
    "PASS flat within %.0e of the oracle (all-off and CkptW winner) on %d \
     instances\n"
    oracle_tolerance (Stdlib.List.length rows);
  let guard_ok = parallel_guard ~n:(Int.min exact_n 14) ~domains in
  let exact = bench_exact ~n:exact_n ~domains in
  Printf.printf
    "exact B&B: Ligo n=%d, %d nodes, %.1f s, %s (%d domains, dominance+memo)\n"
    exact.exact_n exact.nodes exact.seconds
    (if exact.optimal then "Optimal" else "Budget_exhausted")
    exact.domains;
  if not guard_ok then exit 1;
  let path = "BENCH_scale.json" in
  let oc = open_out path in
  output_string oc (Wfc_io.Json.to_string (json rows exact guard_ok));
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path
