(** Physical relational operators over materialized relations. Joins
    are hash joins whenever an equi-conjunct can be extracted from the
    condition, with a nested-loop fallback; NULL join keys never
    match.

    [filter], [project] and the hash-join probe accept an optional
    [?parallel] context ({!Parallel.ctx}) and split inputs above the
    context's chunk threshold across the Domain pool; chunk outputs
    and counters merge in chunk order, so results and logical stats
    are identical to the sequential path.

    Long-running operators ([filter], [project], joins, [aggregate])
    accept optional [?guards] and run a periodic {!Guards.tick} probe
    inside their row loops (every {!Guards.probe_interval} rows), so a
    single giant statement honors timeouts, budgets and interrupts
    without waiting for the next materialize boundary.

    [filter], [project], the hash-join probe and [aggregate] also take
    [?columnar]: evaluate {!Vec_eval} kernels over the input's column
    batch under selection vectors instead of materializing row lists.
    The columnar paths are bit-identical to the row paths — same rows,
    same order, same logical stats ({!Stats.logical_equal}) and same
    errors. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Bound_expr = Dbspinner_plan.Bound_expr
module Logical = Dbspinner_plan.Logical

(** Hashtable keyed by rows (used across the executor and MPP layer). *)
module Row_tbl : Hashtbl.S with type key = Row.t

(** Resolve an expression to a per-row closure: fetched from the cache
    ({!Eval.compile}d once per program run) when one is given, else the
    tree-walking interpreter. Resolution happens once per operator
    call, outside the per-row loop. *)
val compiled_val : ?cache:Cache.t -> stats:Stats.t -> Bound_expr.t -> Row.t -> Value.t

(** Predicate variant ({!Eval.eval_pred} semantics: NULL rejects). *)
val compiled_pred : ?cache:Cache.t -> stats:Stats.t -> Bound_expr.t -> Row.t -> bool

val filter :
  ?parallel:Parallel.ctx ->
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  stats:Stats.t ->
  Bound_expr.t ->
  Relation.t ->
  Relation.t

val project :
  ?parallel:Parallel.ctx ->
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  stats:Stats.t ->
  (Bound_expr.t * string) list ->
  Relation.t ->
  Relation.t
val distinct : stats:Stats.t -> Relation.t -> Relation.t

(** Stable sort by [(expr, descending)] keys; NULLs sort first
    ascending. *)
val sort :
  ?cache:Cache.t -> stats:Stats.t -> (Bound_expr.t * bool) list -> Relation.t -> Relation.t

val limit : stats:Stats.t -> int -> Relation.t -> Relation.t

(** Drop the first [n] rows. *)
val offset : stats:Stats.t -> int -> Relation.t -> Relation.t
val union_all : stats:Stats.t -> Relation.t -> Relation.t -> Relation.t

(** INTERSECT [ALL]: bag semantics take minimum multiplicities; set
    semantics emit each common row once. *)
val intersect : stats:Stats.t -> all:bool -> Relation.t -> Relation.t -> Relation.t

(** EXCEPT [ALL]: bag semantics subtract multiplicities. *)
val except : stats:Stats.t -> all:bool -> Relation.t -> Relation.t -> Relation.t

(** Digest a subquery result for IN / EXISTS filtering; the membership
    set is only built when [need_members]. Cacheable: depends only on
    the subquery relation. *)
val make_sub_set : stats:Stats.t -> need_members:bool -> Relation.t -> Cache.sub_set

(** IN / EXISTS filtering over a prepared {!make_sub_set} digest, with
    SQL's null-aware NOT IN semantics. [key = None] is the EXISTS
    form. *)
val subquery_filter_with_set :
  ?cache:Cache.t ->
  stats:Stats.t ->
  anti:bool ->
  key:Bound_expr.t option ->
  Relation.t ->
  Cache.sub_set ->
  Relation.t

(** Uncorrelated IN / EXISTS subquery predicates as semi / anti joins:
    {!make_sub_set} composed with {!subquery_filter_with_set}. *)
val subquery_filter :
  ?cache:Cache.t ->
  stats:Stats.t ->
  anti:bool ->
  key:Bound_expr.t option ->
  Relation.t ->
  Relation.t ->
  Relation.t

(** Split a join condition (over the concatenated row) into hashable
    equi-key pairs [(left expr, right expr over the right row)] and a
    residual conjunct list. *)
val split_equi_condition :
  left_arity:int -> Bound_expr.t -> (Bound_expr.t * Bound_expr.t) list * Bound_expr.t list

(** Build the hash table for {!hash_join_probe} over the right side,
    given the right-side key expressions. Split out so the executor can
    memoize loop-invariant builds (see {!Cache}). *)
val make_join_build :
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  stats:Stats.t ->
  Bound_expr.t list ->
  Relation.t ->
  Cache.join_build

(** Probe a {!make_join_build} table with the left rows; [residual]
    filters combined rows. Chunk-parallel over the left rows.

    [site] is the join plan node's state in the per-run {!Cache}. With
    it, a columnar inner or left-outer probe on one key, whose probe
    and build key columns are both unboxed ints, returns the previous
    call's selection vectors when both columns are
    {!Colbatch.same_int_column} to that call's (counted in
    {!Stats.probe_reuses}; every logical counter is applied as a probe
    applies it), and its output gathers reuse earlier calls' cells
    ({!Colbatch.gather_pad_reusing}). Rows, row order and logical
    stats are those of a probe without [site]. *)
val hash_join_probe :
  ?parallel:Parallel.ctx ->
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  ?site:Cache.join_site ->
  stats:Stats.t ->
  Logical.join_kind ->
  (Bound_expr.t * Bound_expr.t) list ->
  Bound_expr.t list ->
  Cache.join_build ->
  Relation.t ->
  Schema.t ->
  Relation.t

(** Hash join over extracted keys: {!make_join_build} composed with
    {!hash_join_probe}. *)
val hash_join :
  ?parallel:Parallel.ctx ->
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  stats:Stats.t ->
  Logical.join_kind ->
  (Bound_expr.t * Bound_expr.t) list ->
  Bound_expr.t list ->
  Relation.t ->
  Relation.t ->
  Schema.t ->
  Relation.t

(** Nested-loop join for arbitrary (or absent) conditions. *)
val nested_loop_join :
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  stats:Stats.t ->
  Logical.join_kind ->
  Bound_expr.t option ->
  Relation.t ->
  Relation.t ->
  Schema.t ->
  Relation.t

(** Dispatch: hash join when an equi-key exists, else nested loop. *)
val join :
  ?parallel:Parallel.ctx ->
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  stats:Stats.t ->
  Logical.join_kind ->
  Bound_expr.t option ->
  Relation.t ->
  Relation.t ->
  Schema.t ->
  Relation.t

(** Hash aggregation; grouped output is keys then aggregates, in first-
    appearance group order. A global aggregate over an empty input
    yields one default row.

    [site] is the aggregate plan node's state in [cache]. With both,
    the columnar path reuses the previous call's source-row numbering
    when its input gathers the source through the physically same
    chain of selection vectors, and keeps a numbering only for a chain
    of vectors some join site holds ({!Cache.holds_vector}). *)
val aggregate :
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  ?site:Cache.agg_site ->
  stats:Stats.t ->
  keys:Bound_expr.t list ->
  aggs:Logical.agg list ->
  Relation.t ->
  Schema.t ->
  Relation.t
