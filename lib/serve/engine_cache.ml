(* Bounded LRU of warm evaluation engines, keyed by Engine_key.

   Checkout semantics: [take] REMOVES the entry it returns, and the server
   [put]s the engine back after the solve. An engine is mutable
   state, so two workers solving the same keyed workflow concurrently must
   not share one — the second taker simply misses and builds cold, and the
   later of the two check-ins wins the cache slot. [put] re-inserts at the
   MRU position, which is what gives take/put classic LRU recency.

   An entry checked in for a generated workflow also carries the request's
   spec key: the generator's arguments, the linearization and the model
   bits, which together determine the content key. [checkout] finds such
   an entry without deriving the content key at all; the spec rides on the
   entry, so the LRU stays the one bounded table.

   The entry list is a plain MRU-first list: capacities are small (tens to
   hundreds of engines, each holding O(n) arrays), so an O(cap) scan is
   cheaper to verify than an intrusive doubly-linked list and is nowhere
   near any hot path. *)

module Key = Wfc_core.Engine_key
module CM = Wfc_workflows.Cost_model

type spec = {
  family : Wfc_workflows.Pegasus.family;
  n : int;
  seed : int;
  cost : CM.t;
  lin : Wfc_dag.Linearize.strategy;
  lambda : int64;
  downtime : int64;
}

(* floats by their bits, as the content key compares the model *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let spec_equal a b =
  a.family = b.family && a.n = b.n && a.seed = b.seed && a.lin = b.lin
  && Int64.equal a.lambda b.lambda
  && Int64.equal a.downtime b.downtime
  &&
  match (a.cost, b.cost) with
  | CM.Proportional x, CM.Proportional y | CM.Constant x, CM.Constant y ->
      same_bits x y
  | _ -> false

type entry = {
  key : Key.t;
  spec : spec option;
  engine : Wfc_core.Flat_engine.t;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  mutable entries : entry list;  (* MRU first, length <= capacity *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable puts : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  puts : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Engine_cache.create: negative capacity";
  {
    mutex = Mutex.create ();
    capacity;
    entries = [];
    hits = 0;
    misses = 0;
    evictions = 0;
    puts = 0;
  }

let capacity (t : t) = t.capacity

(* Removes and returns the first entry satisfying [p]; the caller holds the
   mutex. *)
let remove_first (t : t) p =
  let rec split acc = function
    | [] -> None
    | e :: rest ->
        if p e then begin
          t.entries <- List.rev_append acc rest;
          Some e
        end
        else split (e :: acc) rest
  in
  split [] t.entries

let take (t : t) key =
  Mutex.protect t.mutex (fun () ->
      match remove_first t (fun e -> Key.equal e.key key) with
      | Some e ->
          t.hits <- t.hits + 1;
          Some e.engine
      | None ->
          t.misses <- t.misses + 1;
          None)

let checkout ?spec (t : t) key_of =
  let by_spec =
    match spec with
    | None -> None
    | Some s ->
        Mutex.protect t.mutex (fun () ->
            let found =
              remove_first t (fun e ->
                  match e.spec with Some s' -> spec_equal s s' | None -> false)
            in
            if Option.is_some found then t.hits <- t.hits + 1;
            found)
  in
  match by_spec with
  | Some e -> (e.key, Some e.engine)
  | None ->
      let key = key_of () in
      (key, take t key)

let put ?spec (t : t) key engine =
  if t.capacity > 0 then
    Mutex.protect t.mutex (fun () ->
        t.puts <- t.puts + 1;
        let without = List.filter (fun e -> not (Key.equal e.key key)) t.entries in
        let entries = { key; spec; engine } :: without in
        let rec trim n = function
          | [] -> []
          | kept :: rest ->
              if n < t.capacity then kept :: trim (n + 1) rest
              else begin
                t.evictions <- t.evictions + (1 + List.length rest);
                []
              end
        in
        t.entries <- trim 0 entries)

let keys (t : t) =
  Mutex.protect t.mutex (fun () -> List.map (fun e -> e.key) t.entries)

let size (t : t) = Mutex.protect t.mutex (fun () -> List.length t.entries)

let stats (t : t) =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        puts = t.puts;
        size = List.length t.entries;
        capacity = t.capacity;
      })
