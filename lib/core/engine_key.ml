(* Identity of a warm evaluation engine.

   A warm {!Flat_engine} is bound to a (model, dag, order) triple; two
   requests may share a warm engine exactly when those three agree. The
   key captures each component as stable 64-bit digests — the DAG through
   {!Wfc_dag.Dag.fingerprint}, the order through the same FNV-1a fold, the
   model through the raw IEEE bits of lambda and downtime (bitwise
   equality, the only equality that preserves bit-identical evaluation) —
   so keys are cheap to hash, compare and print, and never retain the DAG
   itself. *)

type t = {
  dag : int64;
  order : int64;
  lambda : int64;
  downtime : int64;
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

let make Eval_engine.Flat (model : Wfc_platform.Failure_model.t) g ~order =
  {
    dag = Wfc_dag.Dag.fingerprint g;
    order =
      Array.fold_left
        (fun h v -> fold_int64 h (Int64.of_int v))
        0xcbf29ce484222325L order;
    lambda = Int64.bits_of_float model.Wfc_platform.Failure_model.lambda;
    downtime = Int64.bits_of_float model.Wfc_platform.Failure_model.downtime;
  }

let equal a b =
  Int64.equal a.dag b.dag && Int64.equal a.order b.order
  && Int64.equal a.lambda b.lambda
  && Int64.equal a.downtime b.downtime

let to_string k =
  Printf.sprintf "%Lx-%Lx-%Lx-%Lx" k.dag k.order k.lambda k.downtime
