module Rng = Wfc_platform.Rng
module Stats = Wfc_platform.Stats

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* Known answers: the first outputs for three seeds. Seed 0 mixes to state 0,
   so its stream is the published SplitMix64 reference sequence. Every
   generated DAG and simulated run depends on this stream, so it is pinned
   directly rather than through those outputs. *)
let test_known_answers () =
  List.iter
    (fun (seed, expected) ->
      let t = Rng.create seed in
      List.iter
        (fun want ->
          Alcotest.(check int64) (Printf.sprintf "seed %d" seed) want
            (Rng.bits64 t))
        expected)
    [
      ( 0,
        [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
          0xf88bb8a8724c81ecL ] );
      ( 42,
        [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
          0x0c4b6b24ef01890eL ] );
      ( -7,
        [ 0xa39b91cb5ecb1a80L; 0x22fc9fcabf787829L; 0xdac2b2a0e5be4a45L;
          0x61ae7471598c3088L ] );
    ]

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_split_independence () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* drawing from b must not change a's subsequent stream relative to a
     clone of its state *)
  let a' = Rng.copy a in
  for _ = 1 to 10 do
    ignore (Rng.bits64 b)
  done;
  Alcotest.(check int64) "parent unaffected by child draws" (Rng.bits64 a')
    (Rng.bits64 a)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "out of range"
  done;
  expect_invalid (fun () -> ignore (Rng.int rng 0));
  expect_invalid (fun () -> ignore (Rng.int rng (-3)))

let test_int_covers_all () =
  let rng = Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_uniform_range_and_mean () =
  let rng = Rng.create 9 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    let u = Rng.uniform rng in
    if u < 0. || u >= 1. then Alcotest.fail "uniform out of range";
    Stats.add s u
  done;
  Wfc_test_util.check_close ~eps:0.01 "mean ~ 1/2" 0.5 (Stats.mean s)

let test_float_bound () =
  let rng = Rng.create 10 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.5 in
    if x < 0. || x >= 3.5 then Alcotest.fail "float out of range"
  done

let test_exponential_mean () =
  let rng = Rng.create 11 in
  let s = Stats.create () in
  let rate = 0.25 in
  for _ = 1 to 100_000 do
    let x = Rng.exponential rng ~rate in
    if x < 0. then Alcotest.fail "negative exponential";
    Stats.add s x
  done;
  (* mean 4, stderr ~ 4/sqrt(1e5) ~ 0.0126; allow 5 sigma *)
  Wfc_test_util.check_close ~eps:0.02 "mean ~ 1/rate" 4. (Stats.mean s);
  expect_invalid (fun () -> ignore (Rng.exponential rng ~rate:0.))

let test_exponential_memoryless_quantile () =
  (* P(X > t) = e^{-rate t}; check the empirical survival at one point *)
  let rng = Rng.create 12 in
  let rate = 0.5 and t = 3. in
  let n = 100_000 in
  let above = ref 0 in
  for _ = 1 to n do
    if Rng.exponential rng ~rate > t then incr above
  done;
  Wfc_test_util.check_close ~eps:0.01 "survival"
    (Float.exp (-.rate *. t))
    (float_of_int !above /. float_of_int n)

let test_gaussian () =
  let rng = Rng.create 13 in
  let s = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add s (Rng.gaussian rng ~mean:10. ~stddev:2.)
  done;
  Wfc_test_util.check_close ~eps:0.01 "mean" 10. (Stats.mean s);
  Wfc_test_util.check_close ~eps:0.05 "stddev" 2. (Stats.stddev s);
  expect_invalid (fun () -> ignore (Rng.gaussian rng ~mean:0. ~stddev:(-1.)))

let test_truncated_gaussian () =
  let rng = Rng.create 14 in
  for _ = 1 to 10_000 do
    let x = Rng.truncated_gaussian rng ~mean:1. ~stddev:5. ~lo:0.5 in
    if x < 0.5 then Alcotest.fail "below truncation"
  done;
  expect_invalid (fun () ->
      ignore (Rng.truncated_gaussian rng ~mean:0. ~stddev:1. ~lo:1.))

let () =
  Alcotest.run "rng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "bits64 known answers" `Quick test_known_answers;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int covers all" `Quick test_int_covers_all;
          Alcotest.test_case "uniform" `Quick test_uniform_range_and_mean;
          Alcotest.test_case "float bound" `Quick test_float_bound;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "exponential survival" `Slow
            test_exponential_memoryless_quantile;
          Alcotest.test_case "gaussian" `Slow test_gaussian;
          Alcotest.test_case "truncated gaussian" `Quick test_truncated_gaussian;
        ] );
    ]
