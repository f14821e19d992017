let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let max_shards = 64

(* Domain ids grow monotonically over the process lifetime, so two live
   domains can share a shard only after 64 spawns; the cells are atomic, so
   even then no update is lost — collisions cost contention, not
   correctness. *)
let shard () = (Domain.self () :> int) land (max_shards - 1)

type counter = { c_cells : int Atomic.t array }
type gauge = { g_cell : float Atomic.t }

let n_buckets = 64

(* frexp: x = m * 2^e with m in [0.5, 1), so e-1 = floor(log2 x) and the
   bucket index e + 31 puts x = 1 at the lower edge of bucket 32. *)
let bucket_of x =
  if x < Float.ldexp 1. (-32) || Float.is_nan x then 0
  else
    let _, e = Float.frexp x in
    Int.min (n_buckets - 1) (Int.max 0 (e + 31))

let bucket_upper b = Float.ldexp 1. (b - 31)

type hist_shard = {
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type histogram = { h_shards : hist_shard option Atomic.t array }

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let register name make select =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match select m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Metrics: %S already registered as another kind" name))
      | None ->
          let v = make () in
          Hashtbl.add registry name v;
          match select v with Some v -> v | None -> assert false)

let counter name =
  register name
    (fun () -> C { c_cells = Array.init max_shards (fun _ -> Atomic.make 0) })
    (function C c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> G { g_cell = Atomic.make 0. })
    (function G g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () -> H { h_shards = Array.init max_shards (fun _ -> Atomic.make None) })
    (function H h -> Some h | _ -> None)

(* ---- recording -------------------------------------------------------- *)

let add c k =
  if Atomic.get enabled_flag && k <> 0 then
    ignore (Atomic.fetch_and_add c.c_cells.(shard ()) k)

let incr c = add c 1
let set g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v

(* CAS loop on the boxed float: compare_and_set is physical equality on the
   box we just read, so a lost race simply retries. *)
let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let hist_shard_of h =
  let slot = h.h_shards.(shard ()) in
  match Atomic.get slot with
  | Some s -> s
  | None ->
      let fresh =
        {
          h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.;
        }
      in
      if Atomic.compare_and_set slot None (Some fresh) then fresh
      else Option.get (Atomic.get slot)

let observe h x =
  if Atomic.get enabled_flag then begin
    let s = hist_shard_of h in
    Atomic.incr s.h_buckets.(bucket_of x);
    Atomic.incr s.h_count;
    atomic_add_float s.h_sum x
  end

let time h f =
  if Atomic.get enabled_flag then begin
    let t0 = Unix.gettimeofday () in
    let finally () = observe h (Unix.gettimeofday () -. t0) in
    Fun.protect ~finally f
  end
  else f ()

(* ---- reading ---------------------------------------------------------- *)

type hist_snapshot = { hcount : int; hsum : float; buckets : int array }

let hist_empty = { hcount = 0; hsum = 0.; buckets = Array.make n_buckets 0 }

let hist_merge a b =
  {
    hcount = a.hcount + b.hcount;
    hsum = a.hsum +. b.hsum;
    buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
  }

let hist_quantile s q =
  if s.hcount = 0 then 0.
  else begin
    let rank =
      Int.max 1 (int_of_float (Float.round (q *. float_of_int s.hcount)))
    in
    let acc = ref 0 and b = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + s.buckets.(i);
         if !acc >= rank then begin
           b := i;
           raise Exit
         end
       done;
       b := n_buckets - 1
     with Exit -> ());
    bucket_upper !b
  end

let hist_summary s =
  let mean = if s.hcount = 0 then 0. else s.hsum /. float_of_int s.hcount in
  Printf.sprintf "n=%d mean=%.4g p50<=%.4g p99<=%.4g" s.hcount mean
    (hist_quantile s 0.5) (hist_quantile s 0.99)

let counter_value c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.c_cells

let gauge_value g = Atomic.get g.g_cell

let hist_value h =
  Array.fold_left
    (fun acc slot ->
      match Atomic.get slot with
      | None -> acc
      | Some s ->
          hist_merge acc
            {
              hcount = Atomic.get s.h_count;
              hsum = Atomic.get s.h_sum;
              buckets = Array.map Atomic.get s.h_buckets;
            })
    hist_empty h.h_shards

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let snapshot () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter
        (fun name -> function
          | C c -> counters := (name, counter_value c) :: !counters
          | G g -> gauges := (name, gauge_value g) :: !gauges
          | H h -> histograms := (name, hist_value h) :: !histograms)
        registry);
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | C c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells
          | G g -> Atomic.set g.g_cell 0.
          | H h ->
              Array.iter
                (fun slot ->
                  match Atomic.get slot with
                  | None -> ()
                  | Some s ->
                      Array.iter (fun b -> Atomic.set b 0) s.h_buckets;
                      Atomic.set s.h_count 0;
                      Atomic.set s.h_sum 0.)
                h.h_shards)
        registry)
