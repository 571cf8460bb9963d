(** Iteration-aware executor cache, one instance per program run.

    The paper's common-result rewrite (§V-A) hoists loop-invariant
    inputs into temps materialized once before the loop — but the
    executor still rebuilt the hash-join build table over those temps on
    every iteration, and re-interpreted every expression tree per row.
    This module finishes the optimization inside the engine:

    - {e join builds}, {e semi/anti-join membership sets} and
      {e IN-subquery sets} are memoized under a key combining the
      producing plan subtree, the key expressions, and the
      {b generation} of every source the subtree reads
      ({!Catalog.temp_generation} for temps, {!Table.version} for base
      tables). Loop-invariant sides keep their generation across
      iterations and hit; the iterative temp is rebound (fresh
      generation) each iteration, so its entries miss naturally —
      generations make stale hits impossible by construction.
    - {e compiled expressions} ({!Eval.compile} closures) are memoized
      by the bound-expression value itself, so a filter or join key
      inside a 50-iteration loop is compiled once, not 50 times.
    - {e join and aggregate sites} ({!join_site}, {!agg_site}) remember
      their previous call: a single-Int-key probe whose key columns are
      unchanged reuses its selection vectors, the gathers through them
      and the aggregate's source-row numbering (join-index reuse).

    Each entry stores a {!Stats.clone_logical} snapshot of the logical
    counters its build accrued; a hit replays that snapshot into the
    caller's stats, so cache-on and cache-off runs report identical
    logical counters ({!Stats.logical_equal}) and differ only in wall
    time and the cache counters themselves.

    Concurrency: only the compiled-expression table is consulted from
    worker domains (the distributed per-partition paths), so only it is
    mutex-guarded. The build/set memos are touched exclusively by the
    single-threaded program executor — and their miss thunks recurse
    into nested cache lookups, so guarding them with the same lock would
    deadlock. Sites likewise belong to the program executor alone. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Relation = Dbspinner_storage.Relation
module Colbatch = Dbspinner_storage.Colbatch
module Keyhash = Dbspinner_storage.Keyhash
module Bound_expr = Dbspinner_plan.Bound_expr
module Logical = Dbspinner_plan.Logical

(** One relation a cached plan subtree reads, identified by name plus
    its generation/version at build time. Names are lowercased
    (catalog-normal form). *)
type source = { src_temp : bool; src_name : string; src_gen : int }

type build_key = {
  bk_sources : source list;  (** sorted, deduplicated *)
  bk_plan : Logical.t;  (** the build-side plan subtree *)
  bk_keys : Bound_expr.t list;  (** build-side key expressions *)
}

type set_key = {
  sk_sources : source list;
  sk_plan : Logical.t;  (** the subquery plan subtree *)
  sk_keyed : bool;  (** IN (membership set built) vs EXISTS (emptiness only) *)
}

(** Slot addressing of an {!int_mirror}. [Direct] serves a narrow key
    range by offset: key [k] lives in slot [k - lo] when
    [lo <= k <= hi], with no hashing and no probing. [Hashed] is
    multiplicative hashing with linear probing over a power-of-two
    table at most half full; [keys.(s)] is slot [s]'s key and an empty
    row range marks a free slot (real keys own at least one row). *)
type int_layout =
  | Direct of { lo : int; hi : int }
  | Hashed of { mask : int; keys : int array }

(** Flat (CSR) int-keyed mirror of a build table: one array of
    build-row indices grouped per key. Slot [s] owns
    [im_rows.(im_start.(s)) .. im_rows.(im_start.(s + 1) - 1)], most
    recent first (descending build index — the boxed table's bucket
    order). *)
type int_mirror = {
  im_layout : int_layout;
  im_start : int array;  (** slot count + 1 offsets into [im_rows] *)
  im_rows : int array;
}

(** A hash-join build table: the built relation plus buckets of
    [(row index, row)] keyed by the key-expression values. The boxed
    table is behind a memoizing thunk: the columnar probe serves
    single-Int-key joins entirely from {!int_mirror} and never boxes
    the build side. The thunk is safe to force from worker domains
    (atomic memo, pure builder — a racy double build is wasted work,
    not corruption). The [right_matched] tracking array for outer
    joins is deliberately NOT here — it is per-probe state and is
    allocated by each probe call. *)
type join_build = {
  jb_rel : Relation.t;
  jb_table : unit -> (int * Row.t) list Row.Tbl.t;
  mutable jb_int : int_mirror option option;
      (** lazily built flat mirror of the build keys for
          single-Int-key builds; [None] = not yet examined,
          [Some None] = ineligible (multi-column or non-Int keys),
          [Some (Some m)] = mirror. Written once by the coordinator
          before any parallel probe fan-out, read-only afterwards. *)
}

(** An IN / EXISTS subquery result digest (see
    {!Operators.subquery_filter} for the null-aware semantics the
    fields feed). [ss_members] is only populated when the key was
    built with [sk_keyed = true]. *)
type sub_set = {
  ss_empty : bool;
  ss_has_null : bool;
  ss_members : Keyhash.t;  (** column 0 of the subquery, NULLs included *)
}

(** A join site's previous single-Int-key columnar probe: both key
    columns, the mirror built over the build key, and the output
    vectors. *)
type probe_memo = {
  pm_probe_key : Colbatch.col;
  pm_build_key : Colbatch.col;
  pm_mirror : int_mirror;
  pm_lsel : int array;
  pm_rsel : int array;
  pm_padded : bool;  (** [pm_rsel] holds a pad *)
}

(** Per-join-site state: the previous probe, and what each side's
    output gather remembers. *)
type join_site = {
  mutable js_probe : probe_memo option;
  mutable js_left : Colbatch.reuse;
  mutable js_right : Colbatch.reuse;
}

(** An aggregate's source-row numbering for one chain of selection
    vectors: each input row's position among the distinct source rows,
    the source row behind each position, and whether a pad is among
    them. *)
type source_memo = {
  sm_chain : int array list;
  sm_pos : int array;
  sm_csel : int array;
  sm_pad : bool;
}

type agg_site = { mutable as_source : source_memo option }

type 'a entry = {
  value : 'a;
  replay : Stats.t;  (** logical counters the build accrued *)
  built_s : float;  (** wall seconds the build took *)
}

type t = {
  lock : Mutex.t;  (** guards [compiled] and [compiled_vec]; see module doc *)
  compiled : (Bound_expr.t, Row.t -> Value.t) Hashtbl.t;
  compiled_vec : (Bound_expr.t, Vec_eval.kernel) Hashtbl.t;
  builds : (build_key, join_build entry) Hashtbl.t;
  sets : (set_key, sub_set entry) Hashtbl.t;
  mutable join_sites : (Logical.t * join_site) list;
      (** by plan node, compared physically: a loop body's step plan
          is one value evaluated every iteration *)
  mutable agg_sites : (Logical.t * agg_site) list;
}

let create () =
  {
    lock = Mutex.create ();
    compiled = Hashtbl.create 64;
    compiled_vec = Hashtbl.create 64;
    builds = Hashtbl.create 16;
    sets = Hashtbl.create 16;
    join_sites = [];
    agg_sites = [];
  }

(* Generic memoization with stats replay. On a miss the build runs
   against a private Stats.t so we can snapshot exactly what it did;
   the snapshot (with cache/wall fields zeroed) is replayed into the
   caller on every hit, keeping logical counters identical to a
   cache-off run. *)
let memo tbl ~(stats : Stats.t) key build =
  match Hashtbl.find_opt tbl key with
  | Some e ->
    stats.Stats.cache_hits <- stats.Stats.cache_hits + 1;
    Stats.add ~into:stats e.replay;
    stats.Stats.build_ms_saved <-
      stats.Stats.build_ms_saved +. (e.built_s *. 1000.);
    e.value
  | None ->
    stats.Stats.cache_misses <- stats.Stats.cache_misses + 1;
    let local = Stats.create () in
    let t0 = Unix.gettimeofday () in
    let value = build local in
    let built_s = Unix.gettimeofday () -. t0 in
    Stats.add ~into:stats local;
    Hashtbl.replace tbl key
      { value; replay = Stats.clone_logical local; built_s };
    value

let join_build t ~stats key build = memo t.builds ~stats key build
let sub_set t ~stats key build = memo t.sets ~stats key build

(** Fetch (or compile and insert) the closure for an expression. Called
    once per operator call, including from concurrent partition domains,
    hence the lock; holding it across the compile is safe because
    {!Eval.compile} is pure and never re-enters the cache. *)
let compiled t ~(stats : Stats.t) (e : Bound_expr.t) : Row.t -> Value.t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  match Hashtbl.find_opt t.compiled e with
  | Some f ->
    stats.Stats.cache_hits <- stats.Stats.cache_hits + 1;
    f
  | None ->
    stats.Stats.cache_misses <- stats.Stats.cache_misses + 1;
    let f = Eval.compile e in
    Hashtbl.replace t.compiled e f;
    f

(** Columnar twin of {!compiled}: memoized {!Vec_eval.compile} kernels.
    A separate table because an expression used by both engines (e.g.
    row-based build keys next to a columnar probe) needs both forms.
    Cache hit/miss counts are outside {!Stats.logical_equal}, so the
    columnar path counting differently from the row path is fine. *)
let compiled_kernel t ~(stats : Stats.t) (e : Bound_expr.t) : Vec_eval.kernel =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  match Hashtbl.find_opt t.compiled_vec e with
  | Some k ->
    stats.Stats.cache_hits <- stats.Stats.cache_hits + 1;
    k
  | None ->
    stats.Stats.cache_misses <- stats.Stats.cache_misses + 1;
    let k = Vec_eval.compile e in
    Hashtbl.replace t.compiled_vec e k;
    k

let compiled_pred t ~stats (e : Bound_expr.t) : Row.t -> bool =
  let f = compiled t ~stats e in
  fun row ->
    match f row with
    | Value.Bool b -> b
    | Value.Null -> false
    | _ -> raise (Eval.Runtime_error "predicate did not evaluate to a boolean")

(** Drop every build/set entry that read the named temp. Generations
    already guarantee correctness (a rebound temp gets a fresh
    generation, so stale entries can never hit again); this is memory
    hygiene, preventing one dead build table per iteration from
    accumulating for the lifetime of the run. *)
let invalidate_temp t name =
  let name = String.lowercase_ascii name in
  let reads_temp sources =
    List.exists (fun s -> s.src_temp && String.equal s.src_name name) sources
  in
  let stale_builds =
    Hashtbl.fold
      (fun k _ acc -> if reads_temp k.bk_sources then k :: acc else acc)
      t.builds []
  in
  List.iter (Hashtbl.remove t.builds) stale_builds;
  let stale_sets =
    Hashtbl.fold
      (fun k _ acc -> if reads_temp k.sk_sources then k :: acc else acc)
      t.sets []
  in
  List.iter (Hashtbl.remove t.sets) stale_sets

(* Find or add the state of plan node [plan] in an assoc list keyed
   physically. *)
let site sites plan make =
  match List.assq_opt plan sites with
  | Some s -> (s, sites)
  | None ->
    let s = make () in
    (s, (plan, s) :: sites)

let join_site t plan =
  let s, sites =
    site t.join_sites plan (fun () ->
        { js_probe = None; js_left = Colbatch.no_reuse; js_right = Colbatch.no_reuse })
  in
  t.join_sites <- sites;
  s

let agg_site t plan =
  let s, sites = site t.agg_sites plan (fun () -> { as_source = None }) in
  t.agg_sites <- sites;
  s

(** Whether some join site's memo holds [sel] (physically): a vector a
    probe returned and may return again. *)
let holds_vector t sel =
  List.exists
    (fun (_, s) ->
      match s.js_probe with
      | Some pm -> pm.pm_lsel == sel || pm.pm_rsel == sel
      | None -> false)
    t.join_sites

let join_sites t = List.map snd t.join_sites
let agg_sites t = List.map snd t.agg_sites
