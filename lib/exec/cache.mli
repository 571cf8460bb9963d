(** Iteration-aware executor cache, one instance per program run:
    memoizes hash-join build tables, semi/anti-join membership sets and
    IN-subquery sets keyed by [(source generations, plan subtree, key
    expressions)], plus {!Eval.compile} closures keyed by the
    expression. Loop-invariant inputs keep their generation across
    iterations and hit; the iterative temp is rebound with a fresh
    generation each iteration and misses naturally. Hits replay the
    build's logical {!Stats} counters, so cache-on and cache-off runs
    are {!Stats.logical_equal}.

    It also holds per-site state for join-index reuse: each join and
    aggregate plan node remembers its previous call ({!join_site},
    {!agg_site}), so a loop-body probe whose key columns come back
    unchanged returns the same selection vectors, and what was gathered
    or numbered through them is not redone. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Relation = Dbspinner_storage.Relation
module Colbatch = Dbspinner_storage.Colbatch
module Bound_expr = Dbspinner_plan.Bound_expr
module Logical = Dbspinner_plan.Logical

(** One relation a cached plan subtree reads: lowercased name plus the
    {!Catalog.temp_generation} (temps) or {!Table.version} (base
    tables) observed at build time. *)
type source = { src_temp : bool; src_name : string; src_gen : int }

type build_key = {
  bk_sources : source list;  (** sorted, deduplicated *)
  bk_plan : Logical.t;
  bk_keys : Bound_expr.t list;
}

type set_key = {
  sk_sources : source list;
  sk_plan : Logical.t;
  sk_keyed : bool;  (** IN (membership set built) vs EXISTS *)
}

(** Slot addressing of an {!int_mirror}, chosen from the build key
    column alone. [Direct] is used when the non-NULL keys span a narrow
    range ([hi - lo < 2 * count + 16], count = non-NULL build rows,
    computed without overflow): key [k] lives in slot [k - lo] when
    [lo <= k <= hi], with no hashing and no probing, so the slot table
    never exceeds [2 * count + 17] words. Otherwise [Hashed]:
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

(** A hash-join build table: built relation plus buckets of
    [(row index, row)] keyed by key-expression values. The boxed table
    is behind a memoizing thunk — single-Int-key columnar probes serve
    every lookup from {!int_mirror} and never force it; the thunk is
    safe to force from worker domains. Outer-join matched-row tracking
    is per-probe state and lives with the probe, not here. *)
type join_build = {
  jb_rel : Relation.t;
  jb_table : unit -> (int * Row.t) list Row.Tbl.t;
  mutable jb_int : int_mirror option option;
      (** lazily built flat mirror of [jb_table] (one row-index array,
          no per-key lists), usable only when every build key is a
          single non-NULL [Value.Int] (so boxed and unboxed lookups
          agree; cross-type Int/Float key equality is impossible
          against an all-Int build side). [None] = not yet examined,
          [Some None] = ineligible, [Some (Some m)] = mirror. Cached
          with the build, so a loop-invariant build keeps it across
          iterations. The coordinator populates it before any parallel
          probe fan-out; worker domains only read it. *)
}

(** Digest of an IN / EXISTS subquery result; [ss_members] is only
    populated for keyed (IN) lookups. *)
type sub_set = {
  ss_empty : bool;
  ss_has_null : bool;
  ss_members : (Value.t, unit) Hashtbl.t;
}

(** A join site's previous single-Int-key columnar probe (see
    {!Operators.hash_join_probe}): both key columns, the mirror built
    over the build key, and the output selection vectors. *)
type probe_memo = {
  pm_probe_key : Colbatch.col;
  pm_build_key : Colbatch.col;
  pm_mirror : int_mirror;
  pm_lsel : int array;
  pm_rsel : int array;
  pm_padded : bool;  (** [pm_rsel] holds a pad *)
}

(** Per-join-site state: the previous probe, and what each side's
    output gather remembers ({!Colbatch.gather_pad_reusing}). *)
type join_site = {
  mutable js_probe : probe_memo option;
  mutable js_left : Colbatch.reuse;
  mutable js_right : Colbatch.reuse;
}

(** An aggregate's source-row numbering for one chain of selection
    vectors ({!Colbatch.gather_chain}): each input row's position among
    the distinct source rows, the source row behind each position, and
    whether a pad is among them. Never mutate the arrays. *)
type source_memo = {
  sm_chain : int array list;
  sm_pos : int array;
  sm_csel : int array;
  sm_pad : bool;
}

type agg_site = { mutable as_source : source_memo option }

type t

val create : unit -> t

(** The state of the join plan node [plan] (found by physical
    equality, added on first use). Program-executor callers only. *)
val join_site : t -> Logical.t -> join_site

(** The state of the aggregate plan node [plan]; as {!join_site}. *)
val agg_site : t -> Logical.t -> agg_site

(** Whether some join site's probe memo holds the vector [sel]
    (physically): a vector a probe returned and may return again. *)
val holds_vector : t -> int array -> bool

(** The sites created so far, for tests of what the memo retains. *)
val join_sites : t -> join_site list

val agg_sites : t -> agg_site list

(** [join_build t ~stats key build] returns the cached build table for
    [key], or runs [build] against a private stats instance, accruing
    its counters (and a {!Stats.clone_logical} replay snapshot) before
    caching. Single-threaded (program executor) callers only. *)
val join_build : t -> stats:Stats.t -> build_key -> (Stats.t -> join_build) -> join_build

(** Same contract as {!join_build}, for subquery sets. *)
val sub_set : t -> stats:Stats.t -> set_key -> (Stats.t -> sub_set) -> sub_set

(** Fetch (or compile and insert) the {!Eval.compile} closure for an
    expression; counts a cache hit or miss into [stats]. Safe to call
    from concurrent partition domains. *)
val compiled : t -> stats:Stats.t -> Bound_expr.t -> Row.t -> Value.t

(** Predicate variant ({!Eval.eval_pred} semantics: NULL rejects). *)
val compiled_pred : t -> stats:Stats.t -> Bound_expr.t -> Row.t -> bool

(** Columnar twin of {!compiled}: fetch (or compile and insert) the
    {!Vec_eval.compile} kernel for an expression. Safe to call from
    concurrent partition domains. *)
val compiled_kernel : t -> stats:Stats.t -> Bound_expr.t -> Vec_eval.kernel

(** Drop build/set entries that read the named temp. Pure memory
    hygiene — generations already prevent stale hits — so that
    per-iteration build tables of the iterative temp do not accumulate
    for the lifetime of the run. *)
val invalidate_temp : t -> string -> unit
