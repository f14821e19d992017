type event =
  | Attempt of {
      position : int;
      task : int;
      start : float;
      replay : float;
      work : float;
    }
  | Completion of { position : int; task : int; time : float; checkpointed : bool }
  | Failure of { position : int; task : int; time : float; elapsed : float }

(* Sim.run with an observer that logs each step. *)
let run ~rng model g sched =
  let events = ref [] in
  let emit e = events := e :: !events in
  let on_attempt ex =
    let position = Sim.position ex and task = Sim.task ex in
    emit
      (Attempt
         { position; task; start = Sim.start ex; replay = Sim.replay_time ex;
           work = Sim.segment ex })
  and on_success ex =
    let position = Sim.position ex and task = Sim.task ex in
    emit
      (Completion
         { position; task; time = Sim.time ex;
           checkpointed = Sim.checkpointing ex })
  and on_failure ex =
    let position = Sim.position ex and task = Sim.task ex in
    let elapsed = Sim.lost ex in
    emit (Failure { position; task; time = Sim.start ex +. elapsed; elapsed })
  in
  let ex = Sim.exec g sched in
  Sim.execute ~observer:{ Sim.on_attempt; on_success; on_failure } ex
    (Sim.model_lanes ~rng model sched);
  (Sim.result ex, List.rev !events)

let render_timeline ?(width = 72) events =
  if width < 8 then invalid_arg "Sim_trace.render_timeline: width too small";
  (* reconstruct attempt spans: each Attempt is closed by the next
     Completion or Failure (events are chronological and sequential) *)
  let spans = ref [] and pending = ref None and horizon = ref 0. in
  List.iter
    (fun e ->
      match (e, !pending) with
      | Attempt { position; task; start; _ }, _ ->
          pending := Some (position, task, start)
      | Completion { time; _ }, Some (p, t, start) ->
          spans := (p, t, start, time, `Ok) :: !spans;
          pending := None;
          horizon := Float.max !horizon time
      | Failure { time; _ }, Some (p, t, start) ->
          spans := (p, t, start, time, `Fail) :: !spans;
          pending := None;
          horizon := Float.max !horizon time
      | (Completion _ | Failure _), None -> ())
    events;
  let spans = List.rev !spans in
  if spans = [] then "(empty trace)\n"
  else begin
    let n_pos =
      1 + List.fold_left (fun acc (p, _, _, _, _) -> Int.max acc p) 0 spans
    in
    let task_of = Array.make n_pos 0 in
    let lanes = Array.init n_pos (fun _ -> Bytes.make width ' ') in
    let col time =
      Int.min (width - 1)
        (int_of_float (float_of_int width *. time /. Float.max 1e-9 !horizon))
    in
    List.iter
      (fun (p, t, start, stop, outcome) ->
        task_of.(p) <- t;
        let c0 = col start and c1 = Int.max (col start) (col stop) in
        let fill = match outcome with `Ok -> '=' | `Fail -> '.' in
        for c = c0 to c1 do
          Bytes.set lanes.(p) c fill
        done;
        if outcome = `Fail then Bytes.set lanes.(p) c1 'x')
      spans;
    let buf = Buffer.create (n_pos * (width + 16)) in
    Array.iteri
      (fun p lane ->
        Buffer.add_string buf
          (Printf.sprintf "pos %3d T%-4d |%s|\n" p task_of.(p)
             (Bytes.to_string lane)))
      lanes;
    Buffer.add_string buf
      (Printf.sprintf "%d spans over %.1f s\n" (List.length spans) !horizon);
    Buffer.contents buf
  end

let pp_event ppf = function
  | Attempt { position; task; start; replay; work } ->
      Format.fprintf ppf "[%8.1fs] ATTEMPT T%d (pos %d): %.1fs segment (%.1fs replay)"
        start task position work replay
  | Completion { position; task; time; checkpointed } ->
      Format.fprintf ppf "[%8.1fs] DONE    T%d (pos %d)%s" time task position
        (if checkpointed then " + checkpoint" else "")
  | Failure { position; task; time; elapsed } ->
      Format.fprintf ppf "[%8.1fs] FAIL    during T%d (pos %d), %.1fs lost" time
        task position elapsed
