(* Identity of a warm evaluation engine.

   A warm {!Flat_engine} is bound to a (model, dag, order) triple, and the
   key adds the backend that asked for it (only [Flat] builds engines; the
   serving layer never caches for [Naive]); two requests may share a warm
   engine exactly when those four agree. The key captures each component
   as stable 64-bit digests — the DAG through {!Wfc_dag.Dag.fingerprint},
   the order through the same FNV-1a fold, the model through the raw IEEE
   bits of lambda and downtime (bitwise equality, the only equality that
   preserves bit-identical evaluation) — so keys are cheap to hash, compare
   and print, and never retain the DAG itself. *)

type t = {
  dag : int64;
  order : int64;
  lambda : int64;
  downtime : int64;
  backend : Eval_engine.backend;
}

let fnv_prime = 0x100000001b3L

let fold_int64 h x =
  let h = ref h in
  for shift = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.logand (Int64.shift_right_logical x (shift * 8)) 0xffL))
        fnv_prime
  done;
  !h

let order_fingerprint order =
  Array.fold_left
    (fun h v -> fold_int64 h (Int64.of_int v))
    0xcbf29ce484222325L order

let make backend (model : Wfc_platform.Failure_model.t) g ~order =
  {
    dag = Wfc_dag.Dag.fingerprint g;
    order = order_fingerprint order;
    lambda = Int64.bits_of_float model.Wfc_platform.Failure_model.lambda;
    downtime = Int64.bits_of_float model.Wfc_platform.Failure_model.downtime;
    backend;
  }

let equal a b =
  Int64.equal a.dag b.dag && Int64.equal a.order b.order
  && Int64.equal a.lambda b.lambda
  && Int64.equal a.downtime b.downtime
  && a.backend = b.backend

let hash k =
  let h = fold_int64 0xcbf29ce484222325L k.dag in
  let h = fold_int64 h k.order in
  let h = fold_int64 h k.lambda in
  let h = fold_int64 h k.downtime in
  let h =
    fold_int64 h
      (Int64.of_int
         (match k.backend with
         | Eval_engine.Naive -> 0
         | Eval_engine.Flat -> 2))
  in
  Int64.to_int (Int64.logand h 0x3fffffffffffffffL)

let to_string k =
  Printf.sprintf "%Lx-%Lx-%Lx-%Lx-%s" k.dag k.order k.lambda k.downtime
    (Eval_engine.backend_name k.backend)
