(* Every input of every workload, derived from the workload seed alone. The
   program under test only ever sees these generated requests and files. *)

module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module Rng = Wfc_platform.Rng

(* ---- serve-warm: one request shape, four DAG seeds round-robin -------- *)

let warm_seeds seed =
  let rng = Rng.create (0x5eed + seed) in
  let rec draw acc =
    if List.length acc = 4 then List.rev acc
    else
      let s = 1 + Rng.int rng 1_000_000_000 in
      draw (if List.mem s acc then acc else s :: acc)
  in
  Array.of_list (draw [])

let warm_line s =
  Printf.sprintf "solve family=montage n=500 seed=%d mtbf=500 grid=4" s

(* ---- simulate-cold: a fresh DAG (and Monte Carlo) seed per request ----- *)

type cold = { base : int }

let cold seed = { base = 1_000 + Rng.int (Rng.create (0xc01d + seed)) 1_000_000_000 }

let cold_warmups = 3

(* Warm-up requests sent once set-up is over and before timing starts:
   twice the daemon's default engine-cache capacity (32), so the timed
   phase starts with a full cache that evicts on every insert, past the
   ramp in which the heap still grows. *)
let cold_fill = 64

(* Timed request [i] uses seed [base + i] (never repeated in a run);
   warm-up [j] (set-up's first, then the fill) uses [base - 1 - j], outside
   the timed set. *)
let cold_seed c i = c.base + i
let cold_warmup_seed c j = c.base - 1 - j

let cold_line s =
  Printf.sprintf
    "simulate family=ligo n=400 seed=%d mtbf=2000 grid=4 runs=100 mcseed=%d" s s

let request_of_line line =
  match Wfc_serve.Protocol.request_of_line line with
  | Ok r -> r
  | Error msg -> invalid_arg (Printf.sprintf "bench request %S: %s" line msg)

(* ---- corpus-sweep: 8 instances at n=60 over three formats, plus 3 at
   n=20 small enough for the exact column's branch and bound ------------- *)

type format = Dax | Wfcommons | Native

let corpus_plan =
  let fams = [ P.Montage; P.Ligo; P.Cybershake; P.Genome ] in
  let big =
    List.concat_map (fun f -> [ (f, 60, 'a'); (f, 60, 'b') ]) fams
  in
  let small = [ (P.Montage, 20, 'x'); (P.Ligo, 20, 'x'); (P.Genome, 20, 'x') ] in
  List.mapi
    (fun i (f, n, tag) -> (f, n, tag, [| Dax; Wfcommons; Native |].(i mod 3)))
    (big @ small)

(* (file name, contents) in a fixed order. DAX and WfCommons files carry
   raw runtimes only (the loader costs them at c = 0.1 w); native JSON files
   carry their own costs. *)
let corpus_files seed =
  let rng = Rng.create (0xc0de + seed) in
  List.map
    (fun (f, n, tag, format) ->
      let dag_seed = Rng.int rng 1_000_000_000 in
      let g = P.generate f ~n ~seed:dag_seed in
      let stem =
        Printf.sprintf "%s-%d-%c" (String.lowercase_ascii (P.family_name f)) n tag
      in
      match format with
      | Dax ->
          (stem ^ ".dax", Wfc_io.Xml.to_string (Wfc_io.Dax.to_xml ~name:stem g))
      | Wfcommons ->
          ( stem ^ ".wfc.json",
            Wfc_io.Json.to_string (Wfc_io.Wfcommons.to_json ~name:stem g) )
      | Native ->
          ( stem ^ ".json",
            Wfc_io.Json.to_string
              (Wfc_io.Workflow_format.dag_to_json ~name:stem
                 (CM.apply (CM.Proportional 0.1) g)) ))
    corpus_plan

let write_corpus dir files =
  List.iter
    (fun (name, text) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc text))
    files
