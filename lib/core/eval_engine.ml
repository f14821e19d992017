type backend = Flat

let backend_name Flat = "flat"

let backend_of_string s =
  match String.lowercase_ascii s with "flat" -> Some Flat | _ -> None

let rel_diff a b =
  if Float.equal a b then 0.
  else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)

let handle ?flags Flat model g ~order = Flat_engine.create ?flags model g ~order
