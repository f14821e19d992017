module FM = Wfc_platform.Failure_model
module Metrics = Wfc_obs.Metrics
module A1 = Bigarray.Array1

(* Kernel observability. Counters are staged in the engine and flushed once
   per [ensure] (never per row or per inner-loop iteration), so a disabled
   layer costs one atomic load and branch on the query path. *)
let m_queries = Metrics.counter "flat.queries"
let m_rows = Metrics.counter "flat.rows_rebuilt"
let m_expm1 = Metrics.counter "flat.expm1_calls"
let m_steps = Metrics.counter "flat.steps"
let m_flips = Metrics.counter "flat.flips"

type vec = FM.vec

(* Task ids, positions and journal offsets stored per replay-matrix entry
   or per journal slot: Θ(n²) of them on dense DAGs, so they are kept at
   32 bits (n is far below 2^31). Reads and writes unbox in native code. *)
type ivec = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

let ivec len = A1.create Bigarray.Int32 Bigarray.C_layout (Int.max 1 len)

(* Everything float lives on contiguous float64 buffers; everything the hot
   loops mutate that is not a buffer element is an immediate int or bool.
   Float scratch that must survive a loop iteration or a helper call sits in
   [scal] (float array stores are unboxed), int scratch in [iscal]: the
   non-flambda native compiler boxes float refs and closures, so the steady
   state flip path avoids both entirely. *)
type t = {
  mutable model : FM.t;
  g : Wfc_dag.Dag.t;
  n : int;
  order : int array; (* position -> task *)
  pos : int array; (* task -> position *)
  preds : int array array; (* borrowed adjacency, by task *)
  succs : int array array;
  (* predecessor lists flattened into one CSR pair: task v's preds, in the
     same order as [preds.(v)], occupy pre_flat.[pre_off.(v), pre_off.(v+1)).
     The replay DFS walks this instead of the array-of-arrays to keep its
     inner loop free of double indirection and length loads. *)
  pre_off : int array; (* length n + 1 *)
  pre_flat : int array;
  weight : float array; (* by task, effective: surcharged for replicas *)
  replicas : int array; (* by task *)
  replica_cost : float;
  ckpt_cost : float array;
  recovery : float array;
  (* per-task lambda caches: expm1 (lambda * (w [+ c])) and
     exp (-lambda * (w [+ c])), both flag variants, rebuilt by set_model *)
  am1_on : float array;
  am1_off : float array;
  ewc_on : float array;
  ewc_off : float array;
  flags : bool array; (* by task, current (possibly uncommitted) *)
  committed : bool array;
  (* replay matrix in transposed skyline storage. Column i (the entries
     (k, i) the step-i loop reads) keeps only rows [col_lo mp_pos i, i]:
     the step skips the structural-zero head below that, and every entry
     the rebuild writes lies inside it (see [mp_pos]). Entry (k, i) sits at
     coloff.(i) + k, where coloff.(i) is the column's virtual base (its
     skyline offset minus its first row), so the step-i inner loop over
     fault rows k walks one contiguous span. [u]/[x] cache
     expm1 (-+ lambda * lost) per entry, computed at row-rebuild time: the
     step loop itself runs transcendental-free. *)
  lt : vec;
  u : vec;
  x : vec;
  e_rf : vec; (* by row i: exp (lambda * lost (i, i)) *)
  coloff : int array; (* virtual column bases *)
  row_dirty : bool array;
  mutable trans_valid : bool; (* u/x/e_rf match the current lambda *)
  (* Structural sparsity of the replay matrix. Entry (k, i) is trivially
     zero when every direct predecessor of the task at position [i] sits at
     a position [>= k]: the replay DFS then finds nothing and marks nothing,
     whatever the flags. The condition is flag-independent, so those entries
     hold their create-time zeros forever and both the rebuild and the step
     loop can skip them without reading them. [mp_pos.(i)] is the min
     position over direct preds of the task at position [i] ([max_int] when
     it has none): entry (k, i) is trivial iff [k <= mp_pos.(i)]. The
     non-trivial entries of each row are laid out as a CSR so a rebuild
     walks exactly the entries that can ever be non-zero. *)
  mp_pos : int array; (* by position *)
  nz_off : int array; (* length n + 1 *)
  nz_col : ivec; (* columns i of row k, ascending, at nz_off.(k).. *)
  replayed : int array; (* DFS scratch: task visited iff slot = dfs_epoch *)
  mutable dfs_epoch : int;
  (* Selective rebuild. Each row keeps a journal of its last DFS: the tasks
     visited, in visit order ([vl]/[vl_len]), and where each CSR entry's
     segment starts ([es], indexed by CSR slot). A dirty row consults the
     change log for the flags that toggled since it was last rebuilt
     ([row_wm] is its watermark into [chg_log], -1 forces a full pass):

     - if none of the pending tasks appear in the journal, the row's old
       traversal never consulted their flags, so re-running it would make
       the same descent decisions and produce the same bits — the rebuild
       is skipped without reading the matrix (and by the same fixed-point
       argument the pending tasks stay invisible afterwards);
     - otherwise the first entry that visited a pending task is located via
       the journal; entries before it never consulted the pending flags
       (first-visit of a task is independent of that task's own flag), so
       their values, marks and journal segments are replayed from the
       journal and the DFS restarts mid-row.

     The log is reset whenever every row is clean (the steady flip/query
     state), and saturates into full rebuilds if it overflows. *)
  vl : ivec array; (* row k: tasks visited by the last DFS, in order *)
  vl_len : int array;
  es : ivec; (* per CSR slot: offset of the entry's segment in vl *)
  chg_log : int array;
  chg_scratch : int array; (* rebuild_row's pending filter, log-sized *)
  mutable chg_len : int;
  mutable log_sat : bool;
  mutable n_dirty : int;
  row_wm : int array;
  (* V(x): no row k > V(x) can visit x during the replay DFS, under the
     current flags. A task is visited either as the DFS start of its own
     position (rows k <= pos x) or by recursion from a visited successor
     when it is not checkpointed. Flipping the flag of [v] therefore only
     changes rows k in (pos v, max over successors of V], because both v's
     own charge and any recursion through v into its ancestors require v to
     be charged. *)
  reach : int array;
  mutable reach_dirty : int;
      (* highest position whose reach entry may be stale (-1 = clean).
         set_flag_at only records staleness here: the branch-and-bound never
         reads reach, so it must not pay for refreshing it. apply_flip heals
         up to the watermark before consulting charge_bound. *)
  (* evaluator state: positions [0, eval_valid) are up to date.
     pex.(k) = exp (-lambda * seg(k)) where seg(k) is the separating work of
     fault row k, as in Evaluator — kept as a running product so advancing a
     row costs no transcendental *)
  pex : vec;
  (* evaluation-restart snapshots of the [pex] prefix, kept sparse: only
     positions that are multiples of 8 get a slot (snapoff.(i), length
     max 0 (i-1)); a restart at p restores the nearest snapshot at or below
     p and replays the few deterministic steps in between, which rewrite
     bit-identical values. Steps at non-snapshot positions direct their
     fused snapshot stores into the [snap_null] scratch line so the hot
     loops stay branch-free. *)
  snap : vec;
  snap_null : vec;
  snapoff : int array;
  snap_start : vec;
  fp : vec;
  pp : vec;
  ms : vec; (* length n + 1 *)
  stack_v : int array; (* iterative-DFS stacks, length n + 1 *)
  stack_i : int array;
  scal : float array; (* 0: pfresh; 1: e_xi; 2: sum_p; 3: DFS acc *)
  iscal : int array; (* 0: DFS stack ptr; 1: int acc; 2: journal cursor *)
  mutable eval_valid : int;
  (* the position whose start-of-step state [pex]/[scal.(0)] currently
     holds; always >= eval_valid. A snapshot restore is only needed (and
     only sound) when rewinding, i.e. eval_valid < cursor *)
  mutable cursor : int;
  (* span of uncommitted flips: positions > pend_lo may hold dirty state *)
  mutable pend_lo : int;
  mutable pend_hi : int;
  (* counter staging, flushed per ensure when metrics are enabled *)
  mutable c_rows : int;
  mutable c_expm1 : int;
  mutable c_steps : int;
}

(* First stored row of column i: the step reads rows above
   min mp_pos.(i) (i - 2), and the rebuild writes rows above mp_pos.(i). *)
let col_lo mp_pos i = Int.max 0 (Int.min mp_pos.(i) (i - 2) + 1)

let vec len =
  let v = A1.create Bigarray.Float64 Bigarray.C_layout (Int.max 1 len) in
  A1.fill v 0.;
  v

(* Only the unrolled step reads these, at one copy, where the effective
   weight is the raw one: a replica move leaves them valid. *)
let refresh_tables t =
  let lambda = t.model.FM.lambda in
  if lambda > 0. then
    for v = 0 to t.n - 1 do
      let w = (Wfc_dag.Dag.task t.g v).Wfc_dag.Task.weight in
      let wc = w +. t.ckpt_cost.(v) in
      t.am1_off.(v) <- Float.expm1 (lambda *. w);
      t.am1_on.(v) <- Float.expm1 (lambda *. wc);
      t.ewc_off.(v) <- Float.exp (-.lambda *. w);
      t.ewc_on.(v) <- Float.exp (-.lambda *. wc)
    done

(* Recompute V(x) for positions [0, upto]. Reach flows strictly backward
   (a task's bound only reads its successors' bounds, all at later
   positions), so a flag toggle at position p leaves every bound after p
   untouched and the refresh can stop there. *)
let refresh_reach_below t upto =
  let reach = t.reach in
  for p = upto downto 0 do
    let xv = t.order.(p) in
    (* xv's own slot doubles as the max accumulator: every successor sits at
       a later position, so its slot was finalized earlier in this pass *)
    reach.(xv) <- p;
    if not t.flags.(xv) then begin
      let ss = t.succs.(xv) in
      for q = 0 to Array.length ss - 1 do
        let y = Array.unsafe_get ss q in
        if reach.(y) > reach.(xv) then reach.(xv) <- reach.(y)
      done
    end
  done

let refresh_reach t = refresh_reach_below t (t.n - 1)

let check_replica r =
  if r < 1 || r > Schedule.max_replicas then
    invalid_arg "Flat_engine: replica count out of range"

let create ?flags ?replicas ?(replica_cost = Replication.default_cost) model g
    ~order =
  if not (Wfc_dag.Dag.is_linearization g order) then
    invalid_arg "Flat_engine.create: order is not a linearization";
  let n = Array.length order in
  let pos = Array.make n (-1) in
  Array.iteri (fun p v -> pos.(v) <- p) order;
  let task v = Wfc_dag.Dag.task g v in
  let flags =
    match flags with
    | None -> Array.make n false
    | Some f ->
        if Array.length f <> n then
          invalid_arg "Flat_engine.create: flags have the wrong size";
        Array.copy f
  in
  let replicas =
    match replicas with None -> Array.make n 1 | Some r -> Array.copy r
  in
  if Array.length replicas <> n then
    invalid_arg "Flat_engine.create: replicas have the wrong size";
  Array.iter check_replica replicas;
  let snapoff = Array.make (n + 1) 0 in
  for i = 1 to n do
    snapoff.(i) <-
      snapoff.(i - 1)
      + (if (i - 1) land 7 = 0 then Int.max 0 (i - 2) else 0)
  done;
  let mp_pos =
    Array.init n (fun i ->
        Array.fold_left
          (fun acc u -> Int.min acc pos.(u))
          max_int
          (Wfc_dag.Dag.preds_array g order.(i)))
  in
  let coloff = Array.make n 0 in
  let nslots = ref 0 in
  for i = 0 to n - 1 do
    let lo = col_lo mp_pos i in
    coloff.(i) <- !nslots - lo;
    nslots := !nslots + (i - lo + 1)
  done;
  let nslots = !nslots in
  (* CSR of the non-trivial entries: column i appears in rows
     mp_pos.(i) + 1 .. i, filled with i ascending so each row list is
     sorted by column. *)
  let nz_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    if mp_pos.(i) < i then
      for k = mp_pos.(i) + 1 to i do
        nz_off.(k + 1) <- nz_off.(k + 1) + 1
      done
  done;
  for k = 0 to n - 1 do
    nz_off.(k + 1) <- nz_off.(k) + nz_off.(k + 1)
  done;
  let nz_col = ivec nz_off.(n) in
  let fill = Array.copy nz_off in
  for i = 0 to n - 1 do
    if mp_pos.(i) < i then
      for k = mp_pos.(i) + 1 to i do
        A1.set nz_col fill.(k) (Int32.of_int i);
        fill.(k) <- fill.(k) + 1
      done
  done;
  let preds = Array.init n (Wfc_dag.Dag.preds_array g) in
  let pre_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    pre_off.(v + 1) <- pre_off.(v) + Array.length preds.(v)
  done;
  let pre_flat = Array.make (Int.max 1 pre_off.(n)) 0 in
  for v = 0 to n - 1 do
    Array.blit preds.(v) 0 pre_flat pre_off.(v) (Array.length preds.(v))
  done;
  let t =
    {
      model;
      g;
      n;
      order;
      pos;
      preds;
      succs = Array.init n (Wfc_dag.Dag.succs_array g);
      pre_off;
      pre_flat;
      weight =
        Array.init n (fun v ->
            Replication.effective_weight ~cost:replica_cost
              ~weight:(task v).Wfc_dag.Task.weight ~r:replicas.(v));
      replicas;
      replica_cost;
      ckpt_cost = Array.init n (fun v -> (task v).Wfc_dag.Task.checkpoint_cost);
      recovery = Array.init n (fun v -> (task v).Wfc_dag.Task.recovery_cost);
      am1_on = Array.make n 0.;
      am1_off = Array.make n 0.;
      ewc_on = Array.make n 0.;
      ewc_off = Array.make n 0.;
      flags;
      committed = Array.copy flags;
      lt = vec nslots;
      u = vec nslots;
      x = vec nslots;
      (* exp (lambda * 0) for the zero matrix the lt buffer starts as, so the
         unchanged-diagonal skip in rebuild_row is correct from the first
         build on *)
      e_rf = (let v = vec n in A1.fill v 1.; v);
      coloff;
      row_dirty = Array.make n true;
      trans_valid = true;
      mp_pos;
      nz_off;
      nz_col;
      replayed = Array.make n (-1);
      dfs_epoch = 0;
      vl = Array.init n ivec;
      vl_len = Array.make n 0;
      es = ivec nz_off.(n);
      chg_log = Array.make 64 0;
      chg_scratch = Array.make 64 0;
      chg_len = 0;
      log_sat = false;
      n_dirty = n;
      row_wm = Array.make n (-1);
      reach = Array.make n 0;
      reach_dirty = -1;
      pex = vec (Int.max 1 (n - 1));
      snap = vec snapoff.(n);
      snap_null = vec n;
      snapoff;
      snap_start = vec n;
      fp = vec n;
      pp = vec n;
      ms = vec (n + 1);
      stack_v = Array.make (n + 1) 0;
      stack_i = Array.make (n + 1) 0;
      scal = Array.make 4 0.;
      iscal = Array.make 3 0;
      eval_valid = 0;
      cursor = 0;
      pend_lo = n;
      pend_hi = -1;
      c_rows = 0;
      c_expm1 = 0;
      c_steps = 0;
    }
  in
  refresh_tables t;
  refresh_reach t;
  A1.fill t.pex 1.;
  t.scal.(0) <- 1.;
  t

let dag t = t.g
let order t = Array.copy t.order
let flags t = Array.copy t.flags
let replicas t = Array.copy t.replicas

let checkpoint_count t =
  let c = ref 0 in
  for v = 0 to t.n - 1 do
    if t.flags.(v) then incr c
  done;
  !c

let model t = t.model

let set_model t model =
  if model <> t.model then begin
    t.model <- model;
    refresh_tables t;
    t.trans_valid <- false;
    t.eval_valid <- 0
  end

(* ---- visit-row bound ---------------------------------------------------- *)

let charge_bound t v =
  let iscal = t.iscal in
  iscal.(1) <- t.pos.(v);
  let ss = t.succs.(v) in
  for q = 0 to Array.length ss - 1 do
    let y = Array.unsafe_get ss q in
    if t.reach.(y) > iscal.(1) then iscal.(1) <- t.reach.(y)
  done;
  iscal.(1)

(* The change log restarts from zero only when every row is clean, i.e. no
   pending window still references an older slot. Called ONCE at the top of
   each mutation entry point, before any [log_change] of that mutation —
   a bulk [set_flags] logs many toggles against the same fresh log. *)
let log_begin t =
  if t.n_dirty = 0 then begin
    t.chg_len <- 0;
    t.log_sat <- false
  end

(* Record one flag toggle (append-only; [log_begin] handles the reset). *)
let log_change t v =
  if not t.log_sat then begin
    if t.chg_len >= Array.length t.chg_log then t.log_sat <- true
    else begin
      t.chg_log.(t.chg_len) <- v;
      t.chg_len <- t.chg_len + 1
    end
  end

(* [wm] is the log index of the first change this mark announces; newly
   dirty rows start their pending window there, already-dirty rows keep the
   earlier watermark. -1 forces a full rebuild (saturated or unlogged). *)
let mark t ~p ~hi ~wm =
  let wm = if t.log_sat then -1 else wm in
  for k = p + 1 to hi do
    if not t.row_dirty.(k) then begin
      t.row_dirty.(k) <- true;
      t.n_dirty <- t.n_dirty + 1;
      t.row_wm.(k) <- wm
    end
    else if wm = -1 then t.row_wm.(k) <- -1
  done;
  if p < t.eval_valid then t.eval_valid <- p;
  if p < t.pend_lo then t.pend_lo <- p;
  if hi > t.pend_hi then t.pend_hi <- hi

(* ---- rows -------------------------------------------------------------- *)

(* One replay row, recomputed in place. The DFS is the iterative image of
   Lost_work.compute's: predecessors are scanned in preds order, a
   non-checkpointed charge descends immediately (pre-order), so the float
   additions happen in the exact order of the recursive version and the row
   is bit-identical to it. Two flip-path shortcuts keep the recompute cheap
   without touching a single bit of the results:

   - an entry whose every direct predecessor sits at a position [>= k]
     replays nothing and marks nothing whatever the flags, so the sweep
     visits only the static CSR of non-trivial entries ([nz_off]/[nz_col],
     built once at create from [mp_pos]);
   - replay sums are non-negative pre-order float sums, so a recomputed
     value that compares equal to the cached one is the same bits (the
     matrix never holds [-0.]), and the expm1 transforms of an unchanged
     entry — pure functions of those bits — are still valid: only entries
     that actually changed pay transcendental calls.

   Every entry written here lies in its column's skyline: a non-trivial
   entry (k, i) has k > mp_pos.(i) >= col_lo mp_pos i - 1. *)
(* Fused pending-scan / prefix-replay pass: walk the journal from offset
   [o] looking for the first occurrence of a pending task, marking every
   entry passed over as already-visited under epoch [ep]. On a hit the
   prefix [0, hit) is exactly the replay prefix (up to the segment-boundary
   overshoot rebuild_row unmarks); on a miss the row is unchanged and the
   stray marks die with the epoch. One journal load serves both the scan
   and the replay. The one- and two-pending cases (single flip; local-search
   revert + next trial) are specialized so the compare rides registers. *)
let rec scan_mark1 (vl : ivec) (rp : int array) ep v1 o len =
  if o >= len then len
  else
    let u = Int32.to_int (A1.unsafe_get vl o) in
    if u = v1 then o
    else begin
      Array.unsafe_set rp u ep;
      scan_mark1 vl rp ep v1 (o + 1) len
    end

let rec scan_mark2 (vl : ivec) (rp : int array) ep v1 v2 o len =
  if o >= len then len
  else
    let u = Int32.to_int (A1.unsafe_get vl o) in
    if u = v1 || u = v2 then o
    else begin
      Array.unsafe_set rp u ep;
      scan_mark2 vl rp ep v1 v2 (o + 1) len
    end

let rec memb (ps : int array) u j pc =
  j < pc && (Array.unsafe_get ps j = u || memb ps u (j + 1) pc)

let rec scan_markn (vl : ivec) (rp : int array) ep (ps : int array) pc o len =
  if o >= len then len
  else
    let u = Int32.to_int (A1.unsafe_get vl o) in
    if memb ps u 0 pc then o
    else begin
      Array.unsafe_set rp u ep;
      scan_markn vl rp ep ps pc (o + 1) len
    end

(* CSR slot in [e, b1) whose journal segment contains offset o *)
let rec seg_of (es : ivec) e b1 o =
  if e + 1 < b1 && Int32.to_int (A1.unsafe_get es (e + 1)) <= o then
    seg_of es (e + 1) b1 o
  else e

(* Pre-order replay DFS over the flattened predecessor CSR. [pi, pend) is
   the span of predecessors still to scan for the current node; suspended
   spans live in stack_i (resume offset) / stack_v (span end). Every
   argument is an int, so classic-mode ocamlopt compiles the self tail
   calls into a register loop with no allocation. The charge accumulates
   in scal.(3) and visits append to [vl] through the iscal.(2) cursor, in
   the exact order of the recursive Lost_work version: a predecessor is
   charged when first reached, and a non-checkpointed one is descended
   into immediately, before its later siblings. *)
let rec dfs t (pf : int array) (pos : int array) (rp : int array)
    (vl : ivec) k ep pi pend sp =
  if pi >= pend then begin
    if sp > 0 then
      let sp = sp - 1 in
      dfs t pf pos rp vl k ep
        (Array.unsafe_get t.stack_i sp)
        (Array.unsafe_get t.stack_v sp)
        sp
  end
  else
    let uu = Array.unsafe_get pf pi in
    let pi = pi + 1 in
    if Array.unsafe_get pos uu < k && Array.unsafe_get rp uu <> ep then begin
      Array.unsafe_set rp uu ep;
      let c = Array.unsafe_get t.iscal 2 in
      A1.unsafe_set vl c (Int32.of_int uu);
      Array.unsafe_set t.iscal 2 (c + 1);
      if Array.unsafe_get t.flags uu then begin
        Array.unsafe_set t.scal 3
          (Array.unsafe_get t.scal 3 +. Array.unsafe_get t.recovery uu);
        dfs t pf pos rp vl k ep pi pend sp
      end
      else begin
        Array.unsafe_set t.scal 3
          (Array.unsafe_get t.scal 3 +. Array.unsafe_get t.weight uu);
        Array.unsafe_set t.stack_i sp pi;
        Array.unsafe_set t.stack_v sp pend;
        dfs t pf pos rp vl k ep
          (Array.unsafe_get t.pre_off uu)
          (Array.unsafe_get t.pre_off (uu + 1))
          (sp + 1)
      end
    end
    else dfs t pf pos rp vl k ep pi pend sp

let rebuild_row t k =
  let b0 = t.nz_off.(k) and b1 = t.nz_off.(k + 1) in
  let wm = t.row_wm.(k) in
  let replayed = t.replayed in
  let ep = t.dfs_epoch + 1 in
  t.dfs_epoch <- ep;
  (* CSR slot the DFS must restart from ([b1]: row unchanged), and the
     journal length whose marks already carry epoch [ep] from the fused
     scan; rebuild_row trims the overshoot past the restart segment. *)
  let start, marked =
    if wm < 0 then (b0, 0)
    else begin
      let len = t.vl_len.(k) in
      let vl = t.vl.(k) and pos = t.pos and chg = t.chg_log in
      (* pending toggles visible to this row; tasks at positions >= k can
         never appear in its journal *)
      let ps = t.chg_scratch in
      let pc = ref 0 in
      for c = wm to t.chg_len - 1 do
        let v = Array.unsafe_get chg c in
        if Array.unsafe_get pos v < k then begin
          ps.(!pc) <- v;
          incr pc
        end
      done;
      let o =
        match !pc with
        | 0 -> len
        | 1 -> scan_mark1 vl replayed ep ps.(0) 0 len
        | 2 -> scan_mark2 vl replayed ep ps.(0) ps.(1) 0 len
        | pc -> scan_markn vl replayed ep ps pc 0 len
      in
      if o >= len then (b1, 0) else (seg_of t.es b0 b1 o, o)
    end
  in
  if start < b1 then begin
    let order = t.order
    and pos = t.pos
    and pre_off = t.pre_off
    and pre_flat = t.pre_flat
    and coloff = t.coloff
    and nz_col = t.nz_col
    and es = t.es
    and vl = t.vl.(k)
    and scal = t.scal
    and iscal = t.iscal
    and lt = t.lt
    and uvec = t.u
    and xvec = t.x in
    let lambda = t.model.FM.lambda in
    (* entries before [start] never consulted a pending flag, so their visit
       marks (and values) carry over. The fused scan already wrote epoch
       marks up to the hit offset; a full pass ([wm] < 0) marks the prefix
       here, a partial one only needs the overshoot into the restart
       segment unmarked (the restart re-visits those tasks itself). *)
    let pre =
      if start = b0 then 0 else Int32.to_int (A1.unsafe_get es start)
    in
    if marked = 0 then
      for o = 0 to pre - 1 do
        Array.unsafe_set replayed (Int32.to_int (A1.unsafe_get vl o)) ep
      done
    else
      for o = pre to marked - 1 do
        Array.unsafe_set replayed
          (Int32.to_int (A1.unsafe_get vl o))
          (ep - 1)
      done;
    iscal.(2) <- pre;
    for idx = start to b1 - 1 do
      let i = Int32.to_int (A1.unsafe_get nz_col idx) in
      A1.unsafe_set es idx (Int32.of_int iscal.(2));
      scal.(3) <- 0.;
      let rt = Array.unsafe_get order i in
      dfs t pre_flat pos replayed vl k ep
        (Array.unsafe_get pre_off rt)
        (Array.unsafe_get pre_off (rt + 1))
        0;
      let s = coloff.(i) + k in
      let nv = scal.(3) in
      if not (nv = A1.unsafe_get lt s) then begin
        if lambda > 0. then begin
          A1.unsafe_set uvec s (Float.expm1 (-.lambda *. nv));
          A1.unsafe_set xvec s (Float.expm1 (lambda *. nv));
          t.c_expm1 <- t.c_expm1 + 2;
          if i = k then A1.unsafe_set t.e_rf k (Float.exp (lambda *. nv))
        end;
        A1.unsafe_set lt s nv
      end
    done;
    t.vl_len.(k) <- iscal.(2);
    t.c_rows <- t.c_rows + 1
  end

(* Rebinding lambda keeps every replay value: one batched sweep over the
   whole skyline refreshes the cached transforms. *)
let refresh_trans t =
  let nslots = A1.dim t.lt in
  FM.expm1_span t.model ~lost:t.lt ~u:t.u ~x:t.x ~lo:0 ~len:nslots;
  t.c_expm1 <- t.c_expm1 + (2 * nslots);
  let lambda = t.model.FM.lambda in
  for i = 0 to t.n - 1 do
    A1.unsafe_set t.e_rf i
      (Float.exp (lambda *. A1.unsafe_get t.lt (t.coloff.(i) + i)))
  done;
  t.trans_valid <- true

(* ---- evaluator steps --------------------------------------------------- *)

let restore t p =
  if p = 0 then begin
    for j = 0 to A1.dim t.pex - 1 do
      A1.unsafe_set t.pex j 1.
    done;
    t.scal.(0) <- 1.
  end
  else begin
    let sb = t.snapoff.(p) in
    for j = 0 to p - 2 do
      A1.unsafe_set t.pex j (A1.unsafe_get t.snap (sb + j))
    done;
    t.scal.(0) <- A1.unsafe_get t.snap_start p
  end

(* One position of the Theorem 3 recurrence, algebraically equal to the
   oracle's loop body (Replication.recurrence at one replica per task) but
   with the expectation rearranged so each fault row needs a single
   transcendental:

     E[t(l + w; c; rf - l)] = K e^{lambda rf} (expm1 (lambda (w+c))
                                               - expm1 (-lambda l))

   for l <= rf (the common case; both summands are non-negative, so the form
   is cancellation-free for any lambda), with K = 1/lambda + D. The row
   probability reuses the same expm1: advancing a row multiplies its
   exp (-lambda * seg) by exp (-lambda * (l + w + c)), and exp (-lambda * l)
   is (expm1 (-lambda * l)) + 1 in the l <= rf branch and
   1 / (expm1 (lambda * l) + 1) in the other. Those transforms are read from
   the per-entry caches, so the loop itself does no transcendental work; the
   results agree with the oracle up to floating-point rearrangement (pinned
   at 1e-9 by the differential suites). *)
let step t i =
  let real_snap = i land 7 = 0 in
  let snap = if real_snap then t.snap else t.snap_null in
  let sb = if real_snap then t.snapoff.(i) else 0 in
  A1.unsafe_set t.snap_start i t.scal.(0);
  let v = t.order.(i) in
  let lambda = t.model.FM.lambda in
  if lambda = 0. then begin
    for j = 0 to i - 2 do
      A1.unsafe_set snap (sb + j) (A1.unsafe_get t.pex j)
    done;
    let wc =
      t.weight.(v) +. (if t.flags.(v) then t.ckpt_cost.(v) else 0.)
    in
    if i >= 1 then A1.unsafe_set t.fp (i - 1) 0.;
    A1.unsafe_set t.pp i wc;
    A1.unsafe_set t.ms (i + 1) (A1.unsafe_get t.ms i +. wc)
  end
  else begin
    let kk = (1. /. lambda) +. t.model.FM.downtime in
    let ob = t.coloff.(i) in
    let rf = A1.unsafe_get t.lt (ob + i) in
    let on = t.flags.(v) in
    let am1 = if on then t.am1_on.(v) else t.am1_off.(v) in
    let ewc = if on then t.ewc_on.(v) else t.ewc_off.(v) in
    let base = kk *. A1.unsafe_get t.e_rf i in
    let a = am1 +. 1. in
    (* The inner loops are written branch-free where the math allows it,
       without changing a bit of the result:
       - every accumulator and every [pex]/[fp] entry is a non-negative
         float and never [-0.], so adding a [+0.] term produced by a zero
         probability is the identity on the exact bits the conditional
         version computes ([s +. +0. = s] whenever [s] is not [-0.]);
       - a zero-lost entry has cached [u = -0.], and the [u] branch then
         degenerates bit-for-bit to the zero-lost shortcut
         ([am1 -. -0. = am1], [(u +. 1.) = 1.], [px *. 1. = px]), so the
         [l = 0] test is redundant and the tail is a two-way branch.
       Both loops are unrolled by four so the two accumulation chains ride
       registers through each block ([let]-bound floats stay unboxed) and
       round-trip through [scal] once per block instead of once per entry;
       the addition order is exactly that of the scalar loop. The snapshot
       copy of the pre-step [pex] is fused into both loops, and entries
       [k <= mp_pos.(i)] are structurally zero, so the contiguous head
       needs no triangle loads at all. *)
    let bam = base *. am1 in
    let scal = t.scal in
    let pf = scal.(0) in
    scal.(1) <- (if pf > 0. then pf *. bam else 0.);
    scal.(2) <- pf;
    let pex = t.pex
    and fpv = t.fp
    and lt = t.lt
    and uv = t.u
    and xv = t.x in
    let h = Int.min t.mp_pos.(i) (i - 2) in
    let hb = (h + 1) / 4 in
    for b = 0 to hb - 1 do
      let k = 4 * b in
      let s1 = scal.(1) and s2 = scal.(2) in
      let px0 = A1.unsafe_get pex k in
      A1.unsafe_set snap (sb + k) px0;
      let p0 = px0 *. A1.unsafe_get fpv k in
      let s2 = s2 +. p0 in
      let s1 = s1 +. (p0 *. bam) in
      A1.unsafe_set pex k (px0 *. ewc);
      let px1 = A1.unsafe_get pex (k + 1) in
      A1.unsafe_set snap (sb + k + 1) px1;
      let p1 = px1 *. A1.unsafe_get fpv (k + 1) in
      let s2 = s2 +. p1 in
      let s1 = s1 +. (p1 *. bam) in
      A1.unsafe_set pex (k + 1) (px1 *. ewc);
      let px2 = A1.unsafe_get pex (k + 2) in
      A1.unsafe_set snap (sb + k + 2) px2;
      let p2 = px2 *. A1.unsafe_get fpv (k + 2) in
      let s2 = s2 +. p2 in
      let s1 = s1 +. (p2 *. bam) in
      A1.unsafe_set pex (k + 2) (px2 *. ewc);
      let px3 = A1.unsafe_get pex (k + 3) in
      A1.unsafe_set snap (sb + k + 3) px3;
      let p3 = px3 *. A1.unsafe_get fpv (k + 3) in
      let s2 = s2 +. p3 in
      let s1 = s1 +. (p3 *. bam) in
      A1.unsafe_set pex (k + 3) (px3 *. ewc);
      scal.(1) <- s1;
      scal.(2) <- s2
    done;
    for k = 4 * hb to h do
      let px = A1.unsafe_get pex k in
      A1.unsafe_set snap (sb + k) px;
      let p = px *. A1.unsafe_get fpv k in
      scal.(2) <- scal.(2) +. p;
      scal.(1) <- scal.(1) +. (p *. bam);
      A1.unsafe_set pex k (px *. ewc)
    done;
    let t0 = h + 1 in
    let tb = (i - 1 - t0) / 4 in
    for b = 0 to tb - 1 do
      let k = t0 + (4 * b) in
      let s1 = scal.(1) and s2 = scal.(2) in
      let px0 = A1.unsafe_get pex k in
      A1.unsafe_set snap (sb + k) px0;
      let p0 = px0 *. A1.unsafe_get fpv k in
      let s2 = s2 +. p0 in
      let s1 =
        if A1.unsafe_get lt (ob + k) <= rf then begin
          let u = A1.unsafe_get uv (ob + k) in
          A1.unsafe_set pex k (px0 *. (u +. 1.) *. ewc);
          s1 +. (p0 *. (base *. (am1 -. u)))
        end
        else begin
          let x = A1.unsafe_get xv (ob + k) in
          A1.unsafe_set pex k (px0 *. ewc /. (x +. 1.));
          s1 +. (p0 *. (kk *. ((x *. a) +. am1)))
        end
      in
      let px1 = A1.unsafe_get pex (k + 1) in
      A1.unsafe_set snap (sb + k + 1) px1;
      let p1 = px1 *. A1.unsafe_get fpv (k + 1) in
      let s2 = s2 +. p1 in
      let s1 =
        if A1.unsafe_get lt (ob + k + 1) <= rf then begin
          let u = A1.unsafe_get uv (ob + k + 1) in
          A1.unsafe_set pex (k + 1) (px1 *. (u +. 1.) *. ewc);
          s1 +. (p1 *. (base *. (am1 -. u)))
        end
        else begin
          let x = A1.unsafe_get xv (ob + k + 1) in
          A1.unsafe_set pex (k + 1) (px1 *. ewc /. (x +. 1.));
          s1 +. (p1 *. (kk *. ((x *. a) +. am1)))
        end
      in
      let px2 = A1.unsafe_get pex (k + 2) in
      A1.unsafe_set snap (sb + k + 2) px2;
      let p2 = px2 *. A1.unsafe_get fpv (k + 2) in
      let s2 = s2 +. p2 in
      let s1 =
        if A1.unsafe_get lt (ob + k + 2) <= rf then begin
          let u = A1.unsafe_get uv (ob + k + 2) in
          A1.unsafe_set pex (k + 2) (px2 *. (u +. 1.) *. ewc);
          s1 +. (p2 *. (base *. (am1 -. u)))
        end
        else begin
          let x = A1.unsafe_get xv (ob + k + 2) in
          A1.unsafe_set pex (k + 2) (px2 *. ewc /. (x +. 1.));
          s1 +. (p2 *. (kk *. ((x *. a) +. am1)))
        end
      in
      let px3 = A1.unsafe_get pex (k + 3) in
      A1.unsafe_set snap (sb + k + 3) px3;
      let p3 = px3 *. A1.unsafe_get fpv (k + 3) in
      let s2 = s2 +. p3 in
      let s1 =
        if A1.unsafe_get lt (ob + k + 3) <= rf then begin
          let u = A1.unsafe_get uv (ob + k + 3) in
          A1.unsafe_set pex (k + 3) (px3 *. (u +. 1.) *. ewc);
          s1 +. (p3 *. (base *. (am1 -. u)))
        end
        else begin
          let x = A1.unsafe_get xv (ob + k + 3) in
          A1.unsafe_set pex (k + 3) (px3 *. ewc /. (x +. 1.));
          s1 +. (p3 *. (kk *. ((x *. a) +. am1)))
        end
      in
      scal.(1) <- s1;
      scal.(2) <- s2
    done;
    for k = t0 + (4 * tb) to i - 2 do
      let px = A1.unsafe_get pex k in
      A1.unsafe_set snap (sb + k) px;
      let p = px *. A1.unsafe_get fpv k in
      scal.(2) <- scal.(2) +. p;
      if A1.unsafe_get lt (ob + k) <= rf then begin
        let u = A1.unsafe_get uv (ob + k) in
        scal.(1) <- scal.(1) +. (p *. (base *. (am1 -. u)));
        A1.unsafe_set pex k (px *. (u +. 1.) *. ewc)
      end
      else begin
        let x = A1.unsafe_get xv (ob + k) in
        scal.(1) <- scal.(1) +. (p *. (kk *. ((x *. a) +. am1)));
        A1.unsafe_set pex k (px *. ewc /. (x +. 1.))
      end
    done;
    if i >= 1 then begin
      let p_last = Float.max 0. (1. -. scal.(2)) in
      A1.unsafe_set fpv (i - 1) p_last;
      let l = A1.unsafe_get lt (ob + i - 1) in
      if l <= rf then begin
        let u = A1.unsafe_get uv (ob + i - 1) in
        if p_last > 0. then
          scal.(1) <- scal.(1) +. (p_last *. (base *. (am1 -. u)));
        A1.unsafe_set pex (i - 1) ((u +. 1.) *. ewc)
      end
      else begin
        let x = A1.unsafe_get xv (ob + i - 1) in
        if p_last > 0. then
          scal.(1) <- scal.(1) +. (p_last *. (kk *. ((x *. a) +. am1)));
        A1.unsafe_set pex (i - 1) (ewc /. (x +. 1.))
      end
    end;
    A1.unsafe_set t.pp i scal.(1);
    A1.unsafe_set t.ms (i + 1) (A1.unsafe_get t.ms i +. scal.(1));
    scal.(0) <- pf *. ewc
  end

(* A position whose task runs r > 1 copies, at lambda > 0: the oracle's
   loop body (Replication.recurrence) as one scalar loop. Each fault row
   pays one replicated attempt expectation and advances its survival by the
   attempt's; the rows already charge surcharged replays. *)
let replicated_step t i =
  let lambda = t.model.FM.lambda in
  let snap, sb =
    if i land 7 = 0 then (t.snap, t.snapoff.(i)) else (t.snap_null, 0)
  in
  A1.unsafe_set t.snap_start i t.scal.(0);
  let v = t.order.(i) in
  let r = t.replicas.(v) and w = t.weight.(v) in
  let c = if t.flags.(v) then t.ckpt_cost.(v) else 0. in
  let ob = t.coloff.(i) and h = Int.min t.mp_pos.(i) (i - 2) in
  let rf = A1.unsafe_get t.lt (ob + i) in
  let attempt l =
    Replication.expected_attempt_time ~lambda ~downtime:t.model.FM.downtime ~r
      ~work:(l +. w) ~checkpoint:c ~recovery:(Float.max 0. (rf -. l))
  in
  let survival len =
    let q = Replication.attempt_failure_probability ~lambda ~r len in
    Replication.attempt_survival ~lambda ~r len q
  in
  let pf = t.scal.(0) in
  let e_xi = ref 0. and sum_p = ref pf in
  (* fault row k (-1: no fault yet) at probability p, survival px so far *)
  let row k px p =
    let l = if k < 0 || k <= h then 0. else A1.unsafe_get t.lt (ob + k) in
    if p > 0. then e_xi := !e_xi +. (p *. attempt l);
    if k >= 0 then A1.unsafe_set t.pex k (px *. survival (l +. w +. c))
  in
  row (-1) 1. pf;
  for k = 0 to i - 2 do
    let px = A1.unsafe_get t.pex k in
    A1.unsafe_set snap (sb + k) px;
    let p = px *. A1.unsafe_get t.fp k in
    sum_p := !sum_p +. p;
    row k px p
  done;
  if i >= 1 then begin
    A1.unsafe_set t.fp (i - 1) (Float.max 0. (1. -. !sum_p));
    row (i - 1) 1. (A1.unsafe_get t.fp (i - 1))
  end;
  A1.unsafe_set t.pp i !e_xi;
  A1.unsafe_set t.ms (i + 1) (A1.unsafe_get t.ms i +. !e_xi);
  t.scal.(0) <- pf *. survival (w +. c)

let flush_counters t =
  Metrics.incr m_queries;
  Metrics.add m_rows t.c_rows;
  Metrics.add m_expm1 t.c_expm1;
  Metrics.add m_steps t.c_steps;
  t.c_rows <- 0;
  t.c_expm1 <- 0;
  t.c_steps <- 0

let ensure t upto =
  if t.eval_valid < upto then begin
    if (not t.trans_valid) && t.model.FM.lambda > 0. then refresh_trans t;
    let limit = upto - 1 in
    for k = 0 to limit do
      if t.row_dirty.(k) then begin
        rebuild_row t k;
        t.row_dirty.(k) <- false;
        t.n_dirty <- t.n_dirty - 1
      end
    done;
    let from =
      if t.eval_valid < t.cursor then begin
        (* rewound: restore the nearest snapshot at or below the restart
           position and replay forward; the replayed steps recompute the
           exact bits they wrote last time (their rows are clean) *)
        let q = t.eval_valid land lnot 7 in
        restore t q;
        q
      end
      else t.eval_valid
    in
    t.c_steps <- t.c_steps + (upto - from);
    for i = from to limit do
      if t.replicas.(t.order.(i)) = 1 || t.model.FM.lambda = 0. then step t i
      else replicated_step t i
    done;
    t.eval_valid <- upto;
    t.cursor <- upto;
    if Metrics.enabled () then flush_counters t
  end
  else if Metrics.enabled () then flush_counters t

(* ---- queries ----------------------------------------------------------- *)

let makespan t =
  ensure t t.n;
  A1.unsafe_get t.ms t.n

let current_makespan t = A1.unsafe_get t.ms t.n

let prefix_makespan t ~upto =
  if upto < 0 || upto > t.n then
    invalid_arg "Flat_engine.prefix_makespan: position out of range";
  ensure t upto;
  A1.unsafe_get t.ms upto

let suffix_makespan t ~from =
  if from < 0 || from > t.n then
    invalid_arg "Flat_engine.suffix_makespan: position out of range";
  ensure t t.n;
  A1.unsafe_get t.ms t.n -. A1.unsafe_get t.ms from

let per_position t =
  ensure t t.n;
  Array.init t.n (A1.unsafe_get t.pp)

let fault_probability t =
  ensure t t.n;
  if t.n >= 1 then begin
    let scal = t.scal in
    scal.(2) <- scal.(0);
    for k = 0 to t.n - 2 do
      scal.(2) <- scal.(2) +. (A1.unsafe_get t.pex k *. A1.unsafe_get t.fp k)
    done;
    A1.unsafe_set t.fp (t.n - 1) (Float.max 0. (1. -. scal.(2)))
  end;
  Array.init t.n (A1.unsafe_get t.fp)

let lost_entry t ~last_fault:k ~position:i =
  if k < 0 || i < k || i >= t.n then
    invalid_arg
      (Printf.sprintf "Flat_engine.lost_entry: invalid pair k=%d i=%d" k i);
  ensure t (i + 1);
  (* rows below the column's skyline are structural zeros *)
  if k < col_lo t.mp_pos i then 0. else A1.get t.lt (t.coloff.(i) + k)

(* ---- mutations --------------------------------------------------------- *)

let apply_flip t v =
  t.flags.(v) <- not t.flags.(v);
  let p = t.pos.(v) in
  refresh_reach_below t (if t.reach_dirty > p then t.reach_dirty else p);
  t.reach_dirty <- -1;
  log_begin t;
  log_change t v;
  mark t ~p:t.pos.(v) ~hi:(charge_bound t v) ~wm:(t.chg_len - 1)

let flip t v =
  if v < 0 || v >= t.n then invalid_arg "Flat_engine.flip: no such task";
  Metrics.incr m_flips;
  apply_flip t v;
  makespan t

let flip_quiet t v =
  if v < 0 || v >= t.n then invalid_arg "Flat_engine.flip_quiet: no such task";
  Metrics.incr m_flips;
  apply_flip t v;
  ensure t t.n

let set_flag_at t ~pos:p b =
  if p < 0 || p >= t.n then
    invalid_arg "Flat_engine.set_flag_at: position out of range";
  let v = t.order.(p) in
  if t.flags.(v) <> b then begin
    t.flags.(v) <- b;
    if p > t.reach_dirty then t.reach_dirty <- p;
    log_begin t;
    log_change t v;
    mark t ~p ~hi:(t.n - 1) ~wm:(t.chg_len - 1)
  end

let set_flags t target =
  if Array.length target <> t.n then
    invalid_arg "Flat_engine.set_flags: flags have the wrong size";
  let diffs = ref 0 in
  for v = 0 to t.n - 1 do
    if target.(v) <> t.flags.(v) then incr diffs
  done;
  if !diffs > 4 then begin
    let lo = ref t.n in
    let wm0 = ref (-1) in
    log_begin t;
    for v = 0 to t.n - 1 do
      if target.(v) <> t.flags.(v) then begin
        t.flags.(v) <- target.(v);
        log_change t v;
        if !wm0 < 0 then wm0 := t.chg_len - 1;
        if t.pos.(v) < !lo then lo := t.pos.(v)
      end
    done;
    refresh_reach t;
    t.reach_dirty <- -1;
    mark t ~p:!lo ~hi:(t.n - 1) ~wm:!wm0
  end
  else
    for v = 0 to t.n - 1 do
      if target.(v) <> t.flags.(v) then apply_flip t v
    done

(* A replica count reprices its task's weight wherever a replay charges it,
   which is the window a flip of the task marks, and re-steps its position
   on. Logged like a toggle, so the journal rebuild applies. *)
let set_replicas t v r =
  if v < 0 || v >= t.n then invalid_arg "Flat_engine.set_replicas: no such task";
  check_replica r;
  if r <> t.replicas.(v) then begin
    t.replicas.(v) <- r;
    t.weight.(v) <-
      Replication.effective_weight ~cost:t.replica_cost
        ~weight:(Wfc_dag.Dag.task t.g v).Wfc_dag.Task.weight ~r;
    refresh_reach_below t t.reach_dirty;
    t.reach_dirty <- -1;
    log_begin t;
    log_change t v;
    mark t ~p:t.pos.(v) ~hi:(charge_bound t v) ~wm:(t.chg_len - 1)
  end

let commit t =
  Array.blit t.flags 0 t.committed 0 t.n;
  t.pend_lo <- t.n;
  t.pend_hi <- -1

let rollback t =
  if t.pend_lo < t.n then begin
    Array.blit t.committed 0 t.flags 0 t.n;
    refresh_reach t;
    t.reach_dirty <- -1;
    (* reverted flags are not logged individually: force full rebuilds *)
    mark t ~p:t.pend_lo ~hi:t.pend_hi ~wm:(-1);
    t.pend_lo <- t.n;
    t.pend_hi <- -1
  end

let bind ?engine ?flags ?replicas ?(replica_cost = Replication.default_cost)
    model g ~order =
  match engine with
  | None -> create ?flags ?replicas ~replica_cost model g ~order
  | Some t ->
      if t.order <> order then
        invalid_arg "Flat_engine.bind: engine bound to another order";
      if replica_cost <> t.replica_cost then
        invalid_arg "Flat_engine.bind: engine priced at another replica cost";
      set_model t model;
      Option.iter (set_flags t) flags;
      for v = 0 to t.n - 1 do
        set_replicas t v (match replicas with Some a -> a.(v) | None -> 1)
      done;
      t
