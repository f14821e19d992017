(* Protocol-level battery for the serving layer.

   Three load-bearing contracts:

   1. The binary codec is a bijection on well-formed values and NEVER
      raises on arbitrary bytes — a daemon must survive any client.
   2. A warm-cache solve is bit-identical to a cold one: same request
      through a cache-enabled server, a cache-disabled server, and again
      through the warm cache (hit path) must produce structurally equal
      responses, on every deadline tier and under interleaved eviction on a
      capacity-1 cache.
   3. The LRU's take/put checkout semantics hold their invariants
      (capacity bound, MRU ordering, eviction of the least recent), and
      the bounded pool admits exactly [depth] outstanding jobs. *)

module Pr = Wfc_serve.Protocol
module Codec = Wfc_serve.Codec
module Cache = Wfc_serve.Engine_cache
module Server = Wfc_serve.Server
module Key = Wfc_core.Engine_key
module EE = Wfc_core.Eval_engine
module H = Wfc_core.Heuristics
module Lin = Wfc_dag.Linearize
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model
module Pool = Wfc_platform.Domain_pool.Pool
open QCheck2

(* ---- generators -------------------------------------------------------- *)

let gen_family = Gen.oneofl P.extended
let gen_lin = Gen.oneofl Lin.[ Depth_first; Breadth_first; Random_first; Depth_first_blevel ]
let gen_ckpt = Gen.oneofl H.all_ckpt_strategies

let gen_cost =
  Gen.(
    oneof
      [ map (fun f -> CM.Proportional f) (float_range 0.01 1.);
        map (fun f -> CM.Constant f) (float_range 0.1 10.) ])

let gen_spec =
  Gen.(
    oneof
      [ (let* family = gen_family and* n = int_range 1 500
         and* seed = int_range 0 9999 and* cost = gen_cost in
         return (Pr.Generated { family; n; seed; cost }));
        (let* name = string_small and* text = string_small
         and* cost = gen_cost in
         return (Pr.Inline { name; text; cost }));
        (let* path = string_small and* cost = gen_cost in
         return (Pr.File { path; cost }));
      ])

let gen_solve_params =
  Gen.(
    let* workflow = gen_spec and* mtbf = float_range 1. 1e6
    and* downtime = float_range 0. 100. and* lin = gen_lin
    and* ckpt = gen_ckpt and* grid = int_range 0 64
    and* deadline = option (float_range 0.001 100.) in
    return
      { Pr.workflow; mtbf; downtime; lin; ckpt; grid; backend = EE.Flat;
        deadline })

let gen_request =
  Gen.(
    oneof
      [ return Pr.Ping;
        return Pr.Stats;
        return Pr.Shutdown;
        map (fun s -> Pr.Sleep s) (float_range 0. 10.);
        map (fun p -> Pr.Solve p) gen_solve_params;
        (let* params = gen_solve_params and* runs = int_range 1 100_000
         and* mcseed = int_range 0 9999 in
         return (Pr.Simulate { params; runs; mcseed }));
        (let* params = gen_solve_params and* true_mtbf = float_range 1. 1e6
         and* traces = int_range 1 1000 and* mcseed = int_range 0 9999 in
         return (Pr.Adapt { params; true_mtbf; traces; mcseed }));
        (let* dir = string_small
         and* ratios = list_size (int_range 1 5) (float_range 0.01 100.)
         and* grid = int_range 0 64 in
         return (Pr.Corpus { dir; ratios; grid }));
      ])

let gen_solved =
  Gen.(
    let* source = string_small and* n_tasks = int_range 1 1000
    and* heuristic = string_small and* tier = string_small
    and* makespan = float_range 0. 1e9 and* ratio = float_range 0. 100.
    and* n_ckpt = int_range 0 100
    and* ckpt_tasks = list_size (int_range 0 20) (int_range 0 999)
    and* evaluations = int_range 0 1_000_000 in
    return
      { Pr.source; n_tasks; heuristic; tier; makespan; ratio; n_ckpt;
        ckpt_tasks; evaluations })

let gen_error_code =
  Gen.oneofl Pr.[ Bad_request; Busy; Too_large; Internal; Stopping; Timeout ]

let gen_response =
  Gen.(
    oneof
      [ return Pr.Pong;
        return Pr.Bye;
        map (fun s -> Pr.Slept s) (float_range 0. 10.);
        map (fun s -> Pr.Solved s) gen_solved;
        (let* solved = gen_solved and* runs = int_range 1 100_000
         and* sim_mean = float_range 0. 1e9 and* ci_lo = float_range 0. 1e9
         and* ci_hi = float_range 0. 1e9
         and* failures_mean = float_range 0. 1e4 in
         return
           (Pr.Simulated
              { solved; runs; sim_mean; ci_lo; ci_hi; failures_mean }));
        (let* asource = string_small and* winner = string_small
         and* policies =
           list_size (int_range 0 6)
             (quad string_small (float_range 0. 1e6) (float_range 0. 1e6)
                (float_range 0. 1e6))
         in
         return (Pr.Adapted { asource; winner; policies }));
        (let* instances = int_range 0 100 and* scenarios = int_range 0 100
         and* text = string_small in
         return (Pr.Corpus_report { instances; scenarios; text }));
        map (fun rows -> Pr.Stats_report rows)
          (list_size (int_range 0 20) (pair string_small string_small));
        (let* code = gen_error_code and* message = string_small in
         return (Pr.Error { code; message }));
      ])

let gen_id = Gen.(map Int64.of_int (int_range 0 0x3FFFFFFF))

(* ---- 1. codec round-trips and framing fuzz ----------------------------- *)

let prop_request_roundtrip =
  Wfc_test_util.qtest ~count:500 "codec: request round-trips exactly"
    Gen.(pair gen_id gen_request)
    (fun (id, _) -> Printf.sprintf "id=%Ld <request>" id)
    (fun (id, req) ->
      let bytes = Codec.encode_request ~id req in
      match Codec.decode_request bytes with
      | Error msg -> Test.fail_reportf "decode failed: %s" msg
      | Ok (id', req') ->
          id' = id && req' = req
          && Codec.encode_request ~id req' = bytes)

let prop_response_roundtrip =
  Wfc_test_util.qtest ~count:500 "codec: response round-trips exactly"
    Gen.(pair gen_id gen_response)
    (fun (id, _) -> Printf.sprintf "id=%Ld <response>" id)
    (fun (id, resp) ->
      let bytes = Codec.encode_response ~id resp in
      match Codec.decode_response bytes with
      | Error msg -> Test.fail_reportf "decode failed: %s" msg
      | Ok (id', resp') ->
          id' = id && resp' = resp
          && Codec.encode_response ~id resp' = bytes)

(* Non-finite floats can't be compared structurally, but the IEEE bits
   must still survive the wire: re-encoding the decoded value reproduces
   the exact bytes. *)
let test_nan_roundtrip () =
  List.iter
    (fun v ->
      let req = Pr.Sleep v in
      let bytes = Codec.encode_request ~id:7L req in
      match Codec.decode_request bytes with
      | Error msg -> Alcotest.failf "decode failed on %h: %s" v msg
      | Ok (id, req') ->
          Alcotest.(check int64) "id" 7L id;
          Alcotest.(check string) "re-encoded bytes"
            bytes
            (Codec.encode_request ~id:7L req'))
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.; Float.min_float ]

let prop_decode_never_raises =
  Wfc_test_util.qtest ~count:2000 "codec: arbitrary bytes never raise"
    Gen.(string_size (int_range 0 300))
    String.escaped
    (fun junk ->
      (match Codec.decode_request junk with Ok _ | Error _ -> ());
      (match Codec.decode_response junk with Ok _ | Error _ -> ());
      (match Codec.read_frame (Codec.reader_of_string junk) with
      | Ok _ | Error _ -> ());
      true)

let prop_frame_roundtrip =
  Wfc_test_util.qtest ~count:300 "codec: framed payload reads back"
    Gen.(string_size (int_range 0 2000))
    String.escaped
    (fun payload ->
      let read = Codec.reader_of_string (Codec.frame payload) in
      match Codec.read_frame read with
      | Ok (Some p) -> p = payload && Codec.read_frame read = Ok None
      | _ -> false)

let test_frame_errors () =
  (* truncation mid-frame *)
  let framed = Codec.frame "hello" in
  let cut = String.sub framed 0 (String.length framed - 2) in
  (match Codec.read_frame (Codec.reader_of_string cut) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated frame must be an error");
  (* oversized declared length *)
  let big = "\x7F\xFF\xFF\xFF" in
  (match Codec.read_frame (Codec.reader_of_string big) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame must be an error");
  (* trailing garbage after a valid payload *)
  let bytes = Codec.encode_request ~id:1L Pr.Ping ^ "x" in
  match Codec.decode_request bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must be an error"

(* A binary request naming a removed engine (the naive oracle path or the
   incremental engine) decodes to a structured error, never to a request.
   Built by splicing the name into a well-formed payload, since the encoder
   can only write [flat]. *)
let test_removed_engine_binary () =
  let req =
    Result.get_ok (Pr.request_of_line "solve family=montage n=15 engine=flat")
  in
  let payload = Codec.encode_request ~id:3L req in
  (* u32 big-endian length, then the bytes *)
  let field name =
    Printf.sprintf "\000\000\000%c%s" (Char.chr (String.length name)) name
  in
  let flat = field "flat" in
  let at =
    let rec find i =
      if String.sub payload i (String.length flat) = flat then i
      else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun engine ->
      let spliced =
        String.sub payload 0 at ^ field engine
        ^ String.sub payload (at + String.length flat)
            (String.length payload - at - String.length flat)
      in
      match Codec.decode_request spliced with
      | Error msg ->
          Alcotest.(check string) "structured error"
            (Printf.sprintf "unknown engine %S" engine) msg
      | Ok _ -> Alcotest.failf "the %s engine must not decode" engine)
    [ "naive"; "incremental" ]

(* Mid-stream damage, exhaustively: a valid framed request torn at every
   byte offset must read back as a clean EOF (only at offset 0), a
   truncation error, or the full frame (only at the end) — never an
   exception, never a partial success. *)
let damaged_frame () =
  Codec.frame
    (Codec.encode_request ~id:9L
       (Result.get_ok (Pr.request_of_line "solve family=montage n=15 mtbf=100")))

let test_torn_at_every_offset () =
  let framed = damaged_frame () in
  let len = String.length framed in
  for cut = 0 to len do
    let prefix = String.sub framed 0 cut in
    match Codec.read_frame (Codec.reader_of_string prefix) with
    | Ok None ->
        if cut <> 0 then
          Alcotest.failf "cut at %d/%d read as a clean EOF" cut len
    | Ok (Some p) ->
        if cut <> len then
          Alcotest.failf "cut at %d/%d read as a whole frame" cut len;
        Alcotest.(check int) "payload length" (len - 4) (String.length p)
    | Error _ ->
        if cut = 0 || cut = len then
          Alcotest.failf "cut at %d/%d must not be an error" cut len
  done

(* Every single-bit flip of the same frame: the reader and decoder must
   return Ok or Error for all 8 * len damaged variants — completing the
   loop without an exception is the assertion. A flip may legitimately
   decode as a different valid request (there is no checksum); what it may
   never do is raise or hang. *)
let test_bitflip_every_byte () =
  let framed = damaged_frame () in
  for i = 0 to String.length framed - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string framed in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let read = Codec.reader_of_string (Bytes.to_string b) in
      match Codec.read_frame read with
      | Error _ | Ok None -> ()
      | Ok (Some p) -> (
          match Codec.decode_request p with Ok _ | Error _ -> ())
    done
  done

(* Text-mode parse sanity: the same parser feeds both the daemon's text
   loop and the binary client, so pin a few lines. *)
let test_text_parse () =
  (match Pr.request_of_line "ping" with
  | Ok Pr.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match Pr.request_of_line "solve family=ligo n=12 mtbf=250 engine=flat" with
  | Ok
      (Pr.Solve
         { workflow = Pr.Generated { family = P.Ligo; n = 12; _ };
           mtbf = 250.;
           backend = EE.Flat;
           _
         }) -> ()
  | _ -> Alcotest.fail "solve line");
  (match Pr.request_of_line "solve frobnicate=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must not parse");
  (* flat is the only engine: the removed naive and incremental engines'
     names are unknown engines *)
  List.iter
    (fun line ->
      match Pr.request_of_line line with
      | Error msg ->
          Alcotest.(check bool) (line ^ ": names the engine") true
            (String.starts_with ~prefix:"unknown engine" msg)
      | Ok _ -> Alcotest.failf "%s must not parse" line)
    [ "solve engine=naive"; "solve engine=incremental"; "solve engine=engine";
      "corpus dir=d engine=naive"; "corpus dir=d engine=incremental" ];
  (match Pr.request_of_line "launch-missiles" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown command must not parse");
  match Pr.validate (Pr.Solve { Pr.default_solve with mtbf = -1. }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative MTBF must not validate"

(* ---- 2. warm cache == cold cache, bit for bit -------------------------- *)

let gen_warm_case =
  Gen.(
    let* family = gen_family and* n = int_range 5 40
    and* seed = int_range 0 99 and* mtbf = float_range 10. 1000.
    and* lin = gen_lin and* ckpt = gen_ckpt
    and* grid = oneofl [ 0; 4; 8 ]
    (* 0.05 s = a 1000-node exact budget: enough to hit the exact tier on
       small instances without making the property run for minutes *)
    and* deadline = oneofl [ None; Some 0.001; Some 0.01; Some 0.05 ] in
    let n = max n (P.min_size family) in
    let workflow =
      Pr.Generated { family; n; seed; cost = CM.Proportional 0.1 }
    in
    return
      (Pr.Solve
         { Pr.default_solve with workflow; mtbf; lin; ckpt; grid; deadline }))

let print_warm_case = function
  | Pr.Solve
      { Pr.workflow = Pr.Generated { family; n; seed; _ }; mtbf; lin; ckpt;
        grid; deadline; _ } ->
      Printf.sprintf
        "%s n=%d seed=%d mtbf=%g lin=%s ckpt=%s grid=%d deadline=%s"
        (P.family_name family) n seed mtbf (Lin.strategy_name lin)
        (H.ckpt_strategy_name ckpt) grid
        (match deadline with None -> "-" | Some d -> string_of_float d)
  | _ -> "<other>"

let solve_twice server req = (Server.handle server req, Server.handle server req)

(* An answer to a generated-workflow request carries the kernel's own
   makespan of the checkpoint set it returns: bitwise a fresh engine's value
   of those flags (and within 1e-9 of the oracle). Other requests pass. *)
let reports_kernel_value req resp =
  match (req, resp) with
  | ( ( Pr.Solve
          ({ workflow = Pr.Generated { family; n; seed; cost }; _ } as p)
      | Pr.Simulate
          { params =
              { workflow = Pr.Generated { family; n; seed; cost }; _ } as p;
            _ } ),
      (Pr.Solved s | Pr.Simulated { solved = s; _ }) ) ->
      let g = CM.apply cost (P.generate family ~n ~seed) in
      let order = Lin.run p.lin g in
      let flags = Array.make (Wfc_dag.Dag.n_tasks g) false in
      List.iter (fun v -> flags.(v) <- true) s.ckpt_tasks;
      Wfc_test_util.reported_ok
        (FM.of_mtbf ~mtbf:p.mtbf ~downtime:p.downtime ())
        g
        (Wfc_core.Schedule.make g ~order ~checkpointed:flags)
        s.makespan
  | _ -> true

let prop_warm_equals_cold =
  Wfc_test_util.qtest ~count:30 "server: warm solve is bit-identical to cold"
    gen_warm_case print_warm_case
    (fun req ->
      let cold =
        Server.create ~config:{ Server.default_config with cache_size = 0 } ()
      in
      let warm = Server.create () in
      let r_cold = Server.handle cold req in
      let r_miss, r_hit = solve_twice warm req in
      if Pr.is_error r_cold then
        Test.fail_reportf "cold solve errored: %s"
          (String.concat "\n" (Pr.render_response r_cold));
      (* every tier runs on the checked-out engine, so every tier records
         its hit *)
      r_miss = r_cold && r_hit = r_cold
      && Pr.render_response r_hit = Pr.render_response r_cold
      && reports_kernel_value req r_cold
      && (Server.cache_stats warm).Cache.hits = 1)

(* A budget-exhausted exact tier falls back to heuristics. They must run on
   the request's own linearization: a fallback on another order would
   answer with its checkpoint set and makespan under the requested
   heuristic's name. This Ligo case once did exactly that. *)
let test_exact_fallback_keeps_order () =
  let req =
    Pr.Solve
      { Pr.default_solve with
        workflow =
          Pr.Generated
            { family = P.Ligo; n = 13; seed = 0; cost = CM.Proportional 0.1 };
        mtbf = 339.257;
        lin = Lin.Breadth_first;
        deadline = Some 0.05;
      }
  in
  let cold =
    Server.create ~config:{ Server.default_config with cache_size = 0 } ()
  in
  let r = Server.handle cold req in
  Alcotest.(check bool) "answers" false (Pr.is_error r);
  Alcotest.(check bool) "the makespan is the kernel's value of the returned \
                         checkpoints on the requested order" true
    (reports_kernel_value req r);
  Alcotest.(check bool) "warm = cold" true (Server.handle (Server.create ()) req = r)

let prop_eviction_churn_identical =
  Wfc_test_util.qtest ~count:10
    "server: capacity-1 eviction churn never changes bytes"
    Gen.(pair gen_warm_case gen_warm_case)
    (fun (a, b) ->
      Printf.sprintf "A=[%s] B=[%s]" (print_warm_case a) (print_warm_case b))
    (fun (req_a, req_b) ->
      let cold =
        Server.create ~config:{ Server.default_config with cache_size = 0 } ()
      in
      let tiny =
        Server.create ~config:{ Server.default_config with cache_size = 1 } ()
      in
      let a_cold = Server.handle cold req_a in
      let b_cold = Server.handle cold req_b in
      (* A warms, B evicts A (if keys differ), A rebuilds, B rebuilds … *)
      let seq =
        [ Server.handle tiny req_a; Server.handle tiny req_b;
          Server.handle tiny req_a; Server.handle tiny req_b;
          Server.handle tiny req_a ]
      in
      (Server.cache_stats tiny).Cache.size <= 1
      && List.for_all2
           (fun got want -> got = want)
           seq [ a_cold; b_cold; a_cold; b_cold; a_cold ])

let test_simulate_cached_identical () =
  (* montage keeps task weights (and so injected failures per run) small *)
  let mk () = Pr.request_of_line
      "simulate family=montage n=15 mtbf=100 runs=300 mcseed=5 engine=flat"
    |> Result.get_ok
  in
  let cold =
    Server.create ~config:{ Server.default_config with cache_size = 0 } ()
  in
  let warm = Server.create () in
  let want = Server.handle cold (mk ()) in
  let miss, hit = solve_twice warm (mk ()) in
  Alcotest.(check bool) "simulate miss == cold" true (miss = want);
  Alcotest.(check bool) "simulate hit == cold" true (hit = want);
  Alcotest.(check bool) "simulate reports the kernel's value" true
    (reports_kernel_value (mk ()) want)

(* The wire bytes of a response: exact IEEE bits, so a deterministic nan
   compares equal to itself. *)
let wire r = Codec.encode_response ~id:0L r

let cold_server () =
  Server.create ~config:{ Server.default_config with cache_size = 0 } ()

(* A warm engine starts from whatever flags and model the last request on
   its key left: here other checkpoint strategies, grids and deadline tiers
   ran first. The measured answer must not depend on that history. *)
let prop_mixed_history_identical =
  Wfc_test_util.qtest ~count:20
    "server: a hit after foreign ckpt/grid/deadline history is cold bytes"
    Gen.(
      pair gen_warm_case
        (list_size (int_range 1 3)
           (triple gen_ckpt (oneofl [ 0; 2; 4; 8 ])
              (oneofl [ None; Some 0.001; Some 0.01; Some 0.05 ]))))
    (fun (req, hist) ->
      Printf.sprintf "%s after [%s]" (print_warm_case req)
        (String.concat "; "
           (List.map
              (fun (ckpt, grid, deadline) ->
                Printf.sprintf "%s grid=%d deadline=%s"
                  (H.ckpt_strategy_name ckpt) grid
                  (match deadline with
                  | None -> "-"
                  | Some d -> string_of_float d))
              hist)))
    (fun (req, hist) ->
      match req with
      | Pr.Solve p ->
          let warm = Server.create () in
          List.iter
            (fun (ckpt, grid, deadline) ->
              ignore
                (Server.handle warm (Pr.Solve { p with ckpt; grid; deadline })))
            hist;
          let want = Server.handle (cold_server ()) req in
          let got = Server.handle warm req in
          wire got = wire want
          && Server.engines_outstanding warm = 0
      | _ -> false)

(* A spec-keyed hit takes the DAG from the cached engine instead of
   regenerating it: over random generated specs, random linearizations
   (RF included) and both cost models, it answers the bytes of a server
   that regenerates everything. *)
let prop_spec_hit_equals_regenerated =
  Wfc_test_util.qtest ~count:40
    "server: a spec-keyed hit answers the regenerated bytes"
    Gen.(
      let* family = gen_family and* n = int_range 5 60
      and* seed = int_range 0 9999 and* cost = gen_cost
      and* mtbf = float_range 10. 10_000. and* lin = gen_lin
      and* ckpt = gen_ckpt and* grid = oneofl [ 0; 4; 8 ]
      and* downtime = oneof [ return 0.; float_range 0. 60. ] in
      let n = max n (P.min_size family) in
      return
        { Pr.default_solve with
          workflow = Pr.Generated { family; n; seed; cost };
          mtbf; downtime; lin; ckpt; grid })
    (fun p ->
      Printf.sprintf "%s %s mtbf=%h downtime=%h lin=%s ckpt=%s grid=%d"
        (Pr.spec_source p.Pr.workflow)
        (match p.workflow with
        | Pr.Generated { cost; _ } -> CM.name cost
        | _ -> "-")
        p.mtbf p.downtime (Lin.strategy_name p.lin)
        (H.ckpt_strategy_name p.ckpt) p.grid)
    (fun p ->
      let req = Pr.Solve p in
      let want = Server.handle (cold_server ()) req in
      let warm = Server.create () in
      let miss = Server.handle warm req in
      let hit = Server.handle warm req in
      let s = Server.cache_stats warm in
      wire miss = wire want && wire hit = wire want
      && s.Cache.hits = 1 && s.Cache.misses = 1)

(* A generated spec and an inline copy of the same DAG share a content key,
   so on a capacity-1 cache they take one engine from each other: the
   generated request tags it with its spec, the inline one checks it back
   in untagged. Every answer stays the cold bytes. *)
let test_generated_inline_churn () =
  let family = P.Montage and n = 40 and seed = 7 in
  let cost = CM.Proportional 0.1 in
  let text =
    Wfc_io.Json.to_string
      (Wfc_io.Workflow_format.dag_to_json
         (CM.apply cost (P.generate family ~n ~seed)))
  in
  let gen = Pr.Solve { Pr.default_solve with
                       workflow = Pr.Generated { family; n; seed; cost };
                       mtbf = 300.; grid = 8 } in
  let inl = Pr.Solve { Pr.default_solve with
                       workflow = Pr.Inline { name = "m40.json"; text; cost };
                       mtbf = 300.; ckpt = H.Ckpt_cost } in
  let cold = cold_server () in
  let gen_cold = wire (Server.handle cold gen)
  and inl_cold = wire (Server.handle cold inl) in
  let tiny =
    Server.create ~config:{ Server.default_config with cache_size = 1 } ()
  in
  List.iteri
    (fun i (req, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "answer %d is the cold bytes" i)
        true
        (wire (Server.handle tiny req) = want))
    [ (gen, gen_cold); (inl, inl_cold); (gen, gen_cold); (gen, gen_cold);
      (inl, inl_cold); (inl, inl_cold); (gen, gen_cold) ];
  let s = Server.cache_stats tiny in
  Alcotest.(check int) "one engine build, then shared" 1 s.Cache.misses;
  Alcotest.(check int) "every later request hits" 6 s.Cache.hits;
  Alcotest.(check int) "one entry" 1 s.Cache.size

(* A warm generated hit re-derives nothing: no generation, cost model,
   linearization or DAG fingerprint, and the sweep takes its order from
   the engine. At Montage-200 those allocate well over 100k minor words
   together; the hit itself (the ranking, the schedule and the response)
   stays under the cap. *)
let test_warm_hit_allocation () =
  let req =
    Result.get_ok
      (Pr.request_of_line "solve family=montage n=200 seed=3 mtbf=500 grid=4")
  in
  let srv = Server.create () in
  for _ = 1 to 3 do
    ignore (Server.handle srv req)
  done;
  let rounds = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Server.handle srv req)
  done;
  let per_hit = (Gc.minor_words () -. before) /. float_of_int rounds in
  Alcotest.(check int) "every measured request hit" (rounds + 2)
    (Server.cache_stats srv).Cache.hits;
  if per_hit > 12_000. then
    Alcotest.failf "a warm hit allocates %.0f minor words (cap 12000)" per_hit

(* The daemon trusts a checked-out engine's order: [Heuristics.run] and the
   other tiers take it from the engine instead of re-linearizing, and the
   suite checks the order instead: over random request histories
   (generated and inline specs sharing content keys, every linearization
   RF included, cache capacities 0 to 3), every engine
   [Engine_cache.checkout] hands back, checked out and in the way the server
   does, is bound to [Linearize.run lin g] of its request; and the server
   answering the same history reports the kernel's value of its checkpoints
   on that order. *)
let gen_history_params =
  Gen.(
    (* a small space, so that requests collide on specs and content keys *)
    let seed = 1 in
    let* family = oneofl [ P.Montage; P.Ligo ] and* n = oneofl [ 12; 20 ]
    and* lin = gen_lin and* ckpt = gen_ckpt
    and* mtbf = oneofl [ 100.; 1000. ] and* grid = oneofl [ 0; 4 ]
    and* cost = oneofl [ CM.Proportional 0.1; CM.Constant 2. ]
    and* inline = bool in
    let workflow =
      if inline then
        let text =
          Wfc_io.Json.to_string
            (Wfc_io.Workflow_format.dag_to_json
               (CM.apply cost (P.generate family ~n ~seed)))
        in
        Pr.Inline { name = "w.json"; text; cost }
      else Pr.Generated { family; n; seed; cost }
    in
    return { Pr.default_solve with workflow; mtbf; lin; ckpt; grid })

(* what a request means, derived from scratch: its model, DAG and order *)
let derive (p : Pr.solve_params) =
  let model = FM.of_mtbf ~mtbf:p.mtbf ~downtime:p.downtime () in
  let g =
    match p.workflow with
    | Pr.Generated { family; n; seed; cost } ->
        CM.apply cost (P.generate family ~n ~seed)
    | Pr.Inline { name; text; cost } ->
        CM.ensure cost
          (Result.get_ok (Wfc_io.Workflow_io.load_string ~path:name text))
    | Pr.File _ -> invalid_arg "derive: file spec"
  in
  (model, g, Lin.run p.lin g)

let spec_of (p : Pr.solve_params) (model : FM.t) =
  match p.workflow with
  | Pr.Generated { family; n; seed; cost } ->
      Some
        { Cache.family; n; seed; cost; lin = p.lin;
          lambda = Int64.bits_of_float model.FM.lambda;
          downtime = Int64.bits_of_float model.FM.downtime }
  | _ -> None

let prop_checkout_bound_to_request =
  Wfc_test_util.qtest ~count:60
    "cache: every checked-out engine is bound to its request's order"
    Gen.(pair (int_range 0 3) (list_size (int_range 1 16) gen_history_params))
    (fun (capacity, history) ->
      Printf.sprintf "capacity=%d [%s]" capacity
        (String.concat "; "
           (List.map
              (fun (p : Pr.solve_params) ->
                Printf.sprintf "%s %s %s mtbf=%g"
                  (match p.workflow with
                  | Pr.Inline _ -> "inline"
                  | _ -> "generated")
                  (Pr.spec_source p.workflow) (Lin.strategy_name p.lin)
                  p.mtbf)
              history)))
    (fun (capacity, history) ->
      let cache = Cache.create ~capacity in
      let server =
        Server.create
          ~config:{ Server.default_config with cache_size = capacity }
          ()
      in
      List.for_all
        (fun p ->
          let model, g, order = derive p in
          let spec = spec_of p model in
          let key, cached =
            Cache.checkout ?spec cache (fun () ->
                Key.make EE.Flat model g ~order)
          in
          let engine =
            match cached with
            | Some e -> e
            | None -> Wfc_core.Flat_engine.create model g ~order
          in
          let bound = Wfc_core.Flat_engine.order engine = order in
          Cache.put ?spec cache key engine;
          let answered =
            match Server.handle server (Pr.Solve p) with
            | Pr.Solved s ->
                let flags = Array.make (Array.length order) false in
                List.iter (fun v -> flags.(v) <- true) s.ckpt_tasks;
                Wfc_test_util.reported_ok model g
                  (Wfc_core.Schedule.make g ~order ~checkpointed:flags)
                  s.makespan
            | _ -> false
          in
          bound && answered)
        history)

(* ---- 3. LRU invariants -------------------------------------------------- *)

let key i =
  { Key.dag = Int64.of_int i; order = 0L; lambda = 0L; downtime = 0L }

let dummy_handle =
  let g =
    Wfc_dag.Dag.of_weights
      ~checkpoint_cost:(fun _ _ -> 0.1)
      ~recovery_cost:(fun _ _ -> 0.1)
      ~weights:[| 1.; 1.; 1. |]
      ~edges:[ (0, 1); (1, 2) ] ()
  in
  Wfc_core.Flat_engine.create (FM.of_mtbf ~mtbf:100. ()) g ~order:[| 0; 1; 2 |]

let test_lru_basics () =
  let c = Cache.create ~capacity:2 in
  Cache.put c (key 1) dummy_handle;
  Cache.put c (key 2) dummy_handle;
  Alcotest.(check bool) "MRU order" true (Cache.keys c = [ key 2; key 1 ]);
  Cache.put c (key 3) dummy_handle;
  Alcotest.(check bool) "LRU evicted" true (Cache.keys c = [ key 3; key 2 ]);
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  (* take checks the entry OUT *)
  Alcotest.(check bool) "take hit" true (Cache.take c (key 2) <> None);
  Alcotest.(check bool) "taken entry is gone" true (Cache.keys c = [ key 3 ]);
  Alcotest.(check bool) "second take misses" true (Cache.take c (key 2) = None);
  (* put-back restores MRU position; duplicate keys collapse *)
  Cache.put c (key 2) dummy_handle;
  Cache.put c (key 2) dummy_handle;
  Alcotest.(check int) "dedup" 2 (Cache.size c);
  Alcotest.(check bool) "put-back is MRU" true
    (Cache.keys c = [ key 2; key 3 ]);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses

let test_lru_zero_and_negative () =
  let c = Cache.create ~capacity:0 in
  Cache.put c (key 1) dummy_handle;
  Alcotest.(check int) "capacity 0 stores nothing" 0 (Cache.size c);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Engine_cache.create: negative capacity") (fun () ->
      ignore (Cache.create ~capacity:(-1)))

(* Model-based: after an arbitrary put sequence, the cache holds exactly
   the last [capacity] distinct keys, most recent first. *)
let prop_lru_model =
  Wfc_test_util.qtest ~count:300 "cache: put sequence matches LRU model"
    Gen.(
      pair (int_range 1 5) (list_size (int_range 0 40) (int_range 0 9)))
    (fun (cap, puts) ->
      Printf.sprintf "cap=%d puts=[%s]" cap
        (String.concat ";" (List.map string_of_int puts)))
    (fun (cap, puts) ->
      let c = Cache.create ~capacity:cap in
      List.iter (fun i -> Cache.put c (key i) dummy_handle) puts;
      let expect =
        List.fold_left
          (fun acc i -> i :: List.filter (( <> ) i) acc)
          [] puts
        |> fun l -> List.filteri (fun i _ -> i < cap) l
      in
      Cache.keys c = List.map key expect && Cache.size c <= cap)

(* ---- 4. bounded-pool admission ------------------------------------------ *)

let test_pool_admission () =
  let pool = Pool.create ~workers:1 ~depth:2 in
  let gate = Atomic.make false in
  let ran = Atomic.make 0 in
  let job () =
    while not (Atomic.get gate) do
      Thread.yield ()
    done;
    Atomic.incr ran
  in
  Alcotest.(check bool) "first admitted" true (Pool.try_submit pool job);
  Alcotest.(check bool) "second admitted" true (Pool.try_submit pool job);
  Alcotest.(check bool) "third refused at depth" false
    (Pool.try_submit pool job);
  Alcotest.(check int) "outstanding = depth" 2 (Pool.outstanding pool);
  Atomic.set gate true;
  Pool.shutdown ~drain:true pool;
  Alcotest.(check int) "drained jobs all ran" 2 (Atomic.get ran);
  Alcotest.(check bool) "post-shutdown refused" false
    (Pool.try_submit pool job)

(* ---- 5. watchdog cancellation and checkout balance ---------------------- *)

module Cancel = Wfc_platform.Cancel

let test_cancel_expiry () =
  Alcotest.(check bool) "never is never cancelled" false
    (Cancel.cancelled Cancel.never);
  let c = Cancel.create () in
  Alcotest.(check bool) "fresh token live" false (Cancel.cancelled c);
  Cancel.cancel c;
  Alcotest.(check bool) "cancel latches" true (Cancel.cancelled c);
  let b = Cancel.create ~budget:0.005 () in
  Alcotest.(check bool) "budget not yet spent" false (Cancel.cancelled b);
  Unix.sleepf 0.02;
  Alcotest.(check bool) "expired budget cancels" true (Cancel.cancelled b);
  Alcotest.check_raises "check raises on a cancelled token" Cancel.Cancelled
    (fun () -> Cancel.check b)

(* A cancelled solve must answer a structured timeout, put its checked-out
   engine back (the Fun.protect leak fix), and leave the warm cache in a
   state where the SAME request later hits and still matches a cold server
   byte for byte — abort-only cancellation never poisons state. *)
let test_watchdog_cancel_no_leak () =
  let server = Server.create () in
  let req =
    Result.get_ok (Pr.request_of_line "solve family=montage n=15 mtbf=100")
  in
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  (match Server.handle ~cancel server req with
  | Pr.Error { code = Pr.Timeout; _ } -> ()
  | r ->
      Alcotest.failf "expected a timeout error, got: %s"
        (String.concat "\n" (Pr.render_response r)));
  Alcotest.(check int) "no engine outstanding after cancel" 0
    (Server.engines_outstanding server);
  let s = Server.cache_stats server in
  Alcotest.(check int) "cancelled checkout was put back" 1 s.Cache.puts;
  let cold =
    Server.create ~config:{ Server.default_config with cache_size = 0 } ()
  in
  let want = Server.handle cold req in
  let after = Server.handle server req in
  Alcotest.(check bool) "post-cancel solve == cold solve" true (after = want);
  let s = Server.cache_stats server in
  Alcotest.(check int) "engine survived the cancel warm" 1 s.Cache.hits;
  Alcotest.(check int) "puts balance every checkout" (s.Cache.hits + s.Cache.misses)
    s.Cache.puts;
  Alcotest.(check int) "still nothing outstanding" 0
    (Server.engines_outstanding server)

(* An almost-expired budget that trips mid-solve must also produce the
   structured timeout — the lazy-expiry path, not just the pre-cancelled
   one. The montage-400 local-search tier runs far longer than 1 ms on any
   hardware this test will meet. *)
let test_watchdog_budget_expiry () =
  let server = Server.create () in
  let req =
    Result.get_ok
      (Pr.request_of_line "solve family=montage n=400 mtbf=500 deadline=50")
  in
  let cancel = Cancel.create ~budget:0.001 () in
  match Server.handle ~cancel server req with
  | Pr.Error { code = Pr.Timeout; _ } ->
      Alcotest.(check int) "nothing outstanding" 0
        (Server.engines_outstanding server)
  | r ->
      Alcotest.failf "expected a timeout error, got: %s"
        (String.concat "\n" (Pr.render_response r))

(* Crash-only workers: a job that raises kills its worker domain, the
   supervisor restarts it (counted), and queued work still drains. *)
let test_pool_crash_restart () =
  let pool = Pool.create ~workers:1 ~depth:4 in
  Alcotest.(check int) "no restarts yet" 0 (Pool.restarts pool);
  Alcotest.(check bool) "crashing job admitted" true
    (Pool.try_submit pool (fun () -> failwith "boom"));
  let ran = Atomic.make false in
  Alcotest.(check bool) "follow-up admitted" true
    (Pool.try_submit pool (fun () -> Atomic.set ran true));
  Pool.shutdown ~drain:true pool;
  Alcotest.(check bool) "job after the crash still ran" true (Atomic.get ran);
  Alcotest.(check int) "restart counted" 1 (Pool.restarts pool)

(* ---- 6. deadline tiering pins ------------------------------------------- *)

let tier_of server line =
  match Server.handle server (Result.get_ok (Pr.request_of_line line)) with
  | Pr.Solved s -> s.Pr.tier
  | r -> Alcotest.failf "expected Solved, got: %s"
           (String.concat "\n" (Pr.render_response r))

let test_deadline_tiers () =
  let server = Server.create () in
  let base = "solve family=montage n=15 mtbf=100" in
  Alcotest.(check string) "no deadline" "heuristic" (tier_of server base);
  Alcotest.(check string) "tiny budget" "heuristic"
    (tier_of server (base ^ " deadline=0.001"));
  Alcotest.(check string) "small budget" "local-search"
    (tier_of server (base ^ " deadline=0.01"));
  Alcotest.(check string) "big budget" "exact"
    (tier_of server (base ^ " deadline=60"));
  (* above exact-max-n the exact tier is out of reach by construction *)
  Alcotest.(check string) "too many tasks for exact" "local-search"
    (tier_of server ("solve family=montage n=40 mtbf=100 deadline=60"))

(* ---- 7. stats is a view of the registry -------------------------------- *)

(* [stats] reads the process registry, which counts exactly under
   concurrent recording: four domains push a fixed mix of valid and
   invalid solves through one server, and the request, error and tier rows
   count every one. After the server's own rows come the registry's other
   metrics, here the kernel's. *)
let test_stats_view () =
  Wfc_test_util.with_obs @@ fun () ->
  let server = Server.create () in
  let parse line = Result.get_ok (Pr.request_of_line line) in
  let valid = parse "solve family=montage n=15 mtbf=100"
  and invalid = parse "solve mtbf=-5" in
  let mix = [ valid; invalid; valid; valid; invalid; valid ] in
  ignore
    (Wfc_platform.Domain_pool.run ~domains:4 (fun _ ->
         List.iter (fun req -> ignore (Server.handle server req)) mix));
  let rows =
    match Server.handle server Pr.Stats with
    | Pr.Stats_report rows -> rows
    | r ->
        Alcotest.failf "expected a stats report, got: %s"
          (String.concat "\n" (Pr.render_response r))
  in
  let row name = List.assoc_opt name rows in
  Alcotest.(check (option string)) "requests.solve" (Some "24")
    (row "requests.solve");
  Alcotest.(check (option string)) "errors.solve" (Some "8")
    (row "errors.solve");
  Alcotest.(check (option string)) "tier.heuristic" (Some "16")
    (row "tier.heuristic");
  Alcotest.(check bool) "flat.queries row" true (row "flat.queries" <> None)

let () =
  Alcotest.run "serve"
    [ ( "codec",
        [ prop_request_roundtrip; prop_response_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_nan_roundtrip;
          prop_decode_never_raises; prop_frame_roundtrip;
          Alcotest.test_case "framing errors" `Quick test_frame_errors;
          Alcotest.test_case "torn at every offset" `Quick
            test_torn_at_every_offset;
          Alcotest.test_case "bit flips never raise" `Quick
            test_bitflip_every_byte;
          Alcotest.test_case "text parse" `Quick test_text_parse;
          Alcotest.test_case "removed engine over binary" `Quick
            test_removed_engine_binary ] );
      ( "warm-cache",
        [ prop_warm_equals_cold; prop_eviction_churn_identical;
          Alcotest.test_case "simulate cached" `Quick
            test_simulate_cached_identical;
          Alcotest.test_case "exact fallback keeps the order" `Quick
            test_exact_fallback_keeps_order;
          prop_mixed_history_identical; prop_spec_hit_equals_regenerated;
          Alcotest.test_case "generated/inline churn" `Quick
            test_generated_inline_churn;
          Alcotest.test_case "warm hit allocation" `Quick
            test_warm_hit_allocation ] );
      ( "lru",
        [ Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "degenerate capacities" `Quick
            test_lru_zero_and_negative;
          prop_lru_model; prop_checkout_bound_to_request ] );
      ( "admission",
        [ Alcotest.test_case "bounded pool" `Quick test_pool_admission ] );
      ( "watchdog",
        [ Alcotest.test_case "cancel tokens" `Quick test_cancel_expiry;
          Alcotest.test_case "cancel leaks nothing" `Quick
            test_watchdog_cancel_no_leak;
          Alcotest.test_case "budget expiry mid-solve" `Quick
            test_watchdog_budget_expiry;
          Alcotest.test_case "crashed worker restarts" `Quick
            test_pool_crash_restart ] );
      ( "deadline",
        [ Alcotest.test_case "tier mapping" `Quick test_deadline_tiers ] );
      ( "stats",
        [ Alcotest.test_case "stats is a view of the registry" `Quick
            test_stats_view ] );
    ]
