(* Bounded LRU of warm evaluation engines, keyed by Engine_key.

   Checkout semantics: [take] REMOVES the entry it returns, and the server
   [put]s the engine back after the solve. An engine is mutable
   state, so two workers solving the same keyed workflow concurrently must
   not share one — the second taker simply misses and builds cold, and the
   later of the two check-ins wins the cache slot. [put] re-inserts at the
   MRU position, which is what gives take/put classic LRU recency.

   The entry list is a plain MRU-first assoc list: capacities are small
   (tens to hundreds of engines, each holding O(n) arrays), so an O(cap)
   scan is cheaper to verify than an intrusive doubly-linked list and is
   nowhere near any hot path. *)

module Key = Wfc_core.Engine_key

type entry = Key.t * Wfc_core.Flat_engine.t

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

let take (t : t) key =
  Mutex.protect t.mutex (fun () ->
      let rec split acc = function
        | [] -> None
        | ((k, h) :: rest : entry list) ->
            if Key.equal k key then begin
              t.entries <- List.rev_append acc rest;
              Some h
            end
            else split ((k, h) :: acc) rest
      in
      match split [] t.entries with
      | Some h ->
          t.hits <- t.hits + 1;
          Some h
      | None ->
          t.misses <- t.misses + 1;
          None)

let put (t : t) key engine =
  if t.capacity > 0 then
    Mutex.protect t.mutex (fun () ->
        t.puts <- t.puts + 1;
        let without = List.filter (fun (k, _) -> not (Key.equal k key)) t.entries in
        let entries = (key, engine) :: without in
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

let keys (t : t) = Mutex.protect t.mutex (fun () -> List.map fst t.entries)
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
