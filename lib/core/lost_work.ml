type t = { lost : float array array (* lost.(k).(i), 0 <= k <= i < n *) }

let n_positions t = Array.length t.lost

(* One row k of the replay matrix: row.(i - k) <- W^i_k + R^i_k for
   i = k..n-1. [replayed] is scratch of length n, reset here: a task charged
   at some position is in memory for all later positions (no further failure
   until X_i ends). *)
let compute_row_into g ~order ~pos ~checkpointed ~weight ~recovery ~replayed ~k
    row =
  let n = Array.length order in
  Array.fill replayed 0 n false;
  for i = k to n - 1 do
    let acc = ref 0. in
    let rec visit v =
      Array.iter
        (fun u ->
          (* predecessors at positions >= k ran after the last failure, so
             their output is in memory *)
          if pos.(u) < k && not replayed.(u) then begin
            replayed.(u) <- true;
            if checkpointed.(u) then acc := !acc +. recovery.(u)
            else begin
              acc := !acc +. weight.(u);
              visit u
            end
          end)
        (Wfc_dag.Dag.preds_array g v)
    in
    visit order.(i);
    row.(i - k) <- !acc
  done

let compute ?weight g sched =
  let n = Schedule.n_tasks sched in
  let order = sched.Schedule.order in
  let pos = Array.make n (-1) in
  Array.iteri (fun p v -> pos.(v) <- p) order;
  let weight =
    match weight with
    | Some w ->
        if Array.length w <> n then
          invalid_arg "Lost_work.compute: weights have the wrong size";
        w
    | None -> Array.init n (fun v -> (Wfc_dag.Dag.task g v).Wfc_dag.Task.weight)
  in
  let recovery =
    Array.init n (fun v -> (Wfc_dag.Dag.task g v).Wfc_dag.Task.recovery_cost)
  in
  let checkpointed = sched.Schedule.checkpointed in
  let lost = Array.init n (fun k -> Array.make (n - k) 0.) in
  let replayed = Array.make n false in
  for k = 0 to n - 1 do
    compute_row_into g ~order ~pos ~checkpointed ~weight ~recovery ~replayed ~k
      lost.(k)
  done;
  { lost }

let row t k =
  if k < 0 || k >= n_positions t then
    invalid_arg (Printf.sprintf "Lost_work.row: invalid row %d" k);
  t.lost.(k)

let replay_time t ~last_fault:k ~position:i =
  let n = n_positions t in
  if k < -1 || i < 0 || i >= n || k > i then
    invalid_arg
      (Printf.sprintf "Lost_work.replay_time: invalid pair k=%d i=%d" k i);
  if k = -1 then 0. else t.lost.(k).(i - k)
