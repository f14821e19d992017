(* Layer spans of the traced run.

   The benchmark's own code wraps each call into a layer with
   {!Wfc_obs.Trace.with_span}; every span carries its request id, its own id
   and its parent's id as args, so the exported Chrome trace groups a
   request's spans and self times can be computed exactly. Spans recorded
   by the library itself (no [sid] arg) stay in the Chrome trace but are
   not layers of this benchmark. *)

module Trace = Wfc_obs.Trace

type span = {
  sid : int;
  parent : int;  (** 0 = top level *)
  req : int;
  name : string;
  start : float;
  stop : float;
}

let next_sid = ref 0
let stack : int list ref = ref []
let current_req = ref 0

let with_req req f =
  current_req := req;
  f ()

let span name f =
  incr next_sid;
  let sid = !next_sid in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := sid :: !stack;
  Fun.protect
    ~finally:(fun () -> stack := List.tl !stack)
    (fun () ->
      Trace.with_span
        ~args:
          [
            ("req", string_of_int !current_req);
            ("sid", string_of_int sid);
            ("parent", string_of_int parent);
          ]
        name f)

(* [Trace] restarts its epoch whenever it is switched on, which would fold
   the traced passes of an interleaved run onto each other. The clock is
   pinned to the run's epoch for that instant, so all spans share one time
   base across the on/off toggles. *)
let epoch = ref 0.
let pinned = ref false

let () = Trace.set_clock (fun () -> if !pinned then !epoch else Unix.gettimeofday ())

let pinned_epoch f =
  pinned := true;
  Fun.protect ~finally:(fun () -> pinned := false) f

(* Drop everything recorded so far and start a new time base; tracing
   stays off until {!set_recording}. *)
let start () =
  next_sid := 0;
  stack := [];
  Trace.set_enabled false;
  epoch := Unix.gettimeofday ();
  pinned_epoch Trace.reset

let set_recording on =
  if on then pinned_epoch (fun () -> Trace.set_enabled true) else Trace.set_enabled false

let recorded () =
  List.filter_map
    (fun (e : Trace.event) ->
      let arg k = Option.map int_of_string (List.assoc_opt k e.Trace.args) in
      match (e.Trace.kind, arg "sid", arg "parent", arg "req") with
      | `Span, Some sid, Some parent, Some req ->
          Some
            {
              sid;
              parent;
              req;
              name = e.Trace.name;
              start = e.Trace.ts;
              stop = e.Trace.ts +. e.Trace.dur;
            }
      | _ -> None)
    (Trace.events ())

(* Length of the union of intervals, each clipped to [lo, hi]. Children can
   overlap (spans from different threads, or clock steps), so they are
   merged rather than summed. *)
let union_length ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's duration minus the part of it its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let covered =
        union_length ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.sid)
      in
      (s, s.stop -. s.start -. covered))
    spans
