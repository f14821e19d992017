type backend = Naive | Flat

let backend_name = function Naive -> "naive" | Flat -> "flat"

let backend_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Some Naive
  | "flat" -> Some Flat
  | _ -> None

let rel_diff a b =
  if Float.equal a b then 0.
  else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)

let backends_agree a b = rel_diff a b <= 1e-9

let handle ?flags backend model g ~order =
  match backend with
  | Naive -> invalid_arg "Eval_engine.handle: the naive backend has no engine"
  | Flat -> Flat_engine.create ?flags model g ~order
