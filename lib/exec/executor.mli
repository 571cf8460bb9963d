(** The executor: evaluates logical plans against the catalog and runs
    step programs — the runtime half of the paper's §VI, including the
    [loop] operator's Metadata / Data / Delta termination modes and the
    O(1) [rename]. *)

module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program

exception Execution_error of string

(** The checked index of a keyed relation's key column: each key
    once, none NULL. It serves every relation whose key column is
    physically the column it was built over. *)
type key_index

(** [key_index rel ~key_idx] — the index of column [key_idx] of [rel].
    @raise Execution_error with the §II text of {!assert_unique_key}
    when a key is NULL or repeated. *)
val key_index : Relation.t -> key_idx:int -> key_index

(** Evaluate one logical plan. Scans resolve through the catalog with
    temps shadowing base tables. [?parallel] enables chunk-parallel
    filter/project/hash-probe; results and logical stats counters are
    identical to sequential execution. [?guards] threads periodic
    in-operator probes ({!Guards.tick}) through the long row loops so a
    single giant statement honors timeouts and interrupts.
    [?columnar] routes filter/project/hash-probe/aggregate through the
    vectorized batch paths ({!Vec_eval} kernels over
    {!Dbspinner_storage.Colbatch} columns under selection vectors);
    results and logical stats are bit-identical to the row engine.

    [?index] serves two shapes over a scan whose relation it indexes
    (any other scan, or a relation whose key column is another
    physical column, runs as without it):
    - [SemiJoin (IN $k) (Scan cte) sub], [k] the index's key column,
      looks [sub]'s keys up ({!Operators.index_semijoin});
    - an inner or left-outer join whose right input is [Scan cte] or
      [Filter (p, Scan cte)] and whose only equi-key is the CTE key
      probes the index ({!Operators.index_join}).
    Rows and their order are those of the plan run without it. A
    program passes it only to a semi-naive iteration's restricted
    plan.
    @raise Execution_error on missing relations or runtime failures. *)
val run_plan :
  ?parallel:Parallel.ctx ->
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  ?index:key_index ->
  stats:Stats.t ->
  Catalog.t ->
  Logical.t ->
  Relation.t

(** The §II duplicate-row-key check: fails when the named temp has
    duplicate or NULL keys in column [key_idx], naming its first
    offending row in row order. Keys compare under
    {!Dbspinner_storage.Value.equal}, so [Int 1] and [Float 1.0] are
    duplicates, as they are under SQL [=].
    @raise Execution_error with a message directing the user to resolve
    duplicates via aggregation. *)
val assert_unique_key : Catalog.t -> temp:string -> key_idx:int -> unit

(** [stitch ~key_idx ~affected ~restricted ~cur ~prev_work] — a
    semi-naive iteration's work output: in [cur]'s key order (column
    [key_idx]), each affected key's rows of [restricted], in their
    order, and every other key's row of [prev_work]. [affected] lists
    the affected keys in column 0. When [prev_work] lists [cur]'s keys
    position by position, unaffected rows are copied by position;
    otherwise each key of [cur] is taken once, at its first row, from
    [prev_work]'s first row with that key, if any. Keys compare under
    {!Value.equal}. The result is one gather over [prev_work] and
    [restricted] and has [prev_work]'s schema. *)
val stitch :
  key_idx:int ->
  affected:Relation.t ->
  restricted:Relation.t ->
  cur:Relation.t ->
  prev_work:Relation.t ->
  Relation.t

(** {2 The step-program interpreter}

    One interpreter runs every step program: the loop state, the
    termination check, the semi-naive [Delta_materialize] protocol, the
    keyed [Merge], the key check and the trace spans are written once,
    here. A backend
    says only where temps live and how a plan runs into one: the
    single-node backend ({!run_program}) keeps them in the catalog, the
    simulated distributed executor ([Distributed] in [lib/mpp]) keeps
    them partitioned on its workers.
    The interpreter runs one step at a time, so a caller can wrap each
    step (fault context, checkpoint after [Loop_end], retry). *)

(** Where a program's temps of type ['t] live. [eval] runs a plan into
    a temp; [gather] and [scatter] convert to and from one
    {!Relation.t} (the diff, stitch, merge, key check and termination
    checks read gathered relations); [find] returns [None] for an unbound
    name; [rename] raises {!Catalog.Unknown_table} when [from_] is
    unbound. *)
type 't backend = {
  eval : Logical.t -> 't;
  find : string -> 't option;
  bind : string -> 't -> unit;
  rename : from_:string -> into:string -> unit;
  drop : string -> unit;
  gather : 't -> Relation.t;
  scatter : Relation.t -> 't;
  cardinality : 't -> int;
  recursive_cte :
    name:string ->
    work_name:string ->
    base:Logical.t ->
    step_plan:Logical.t ->
    union_all:bool ->
    max_recursion:int ->
    unit;
}

(** A program in progress: the program counter, the loop states and
    the result, over one backend. *)
type 't machine

(** Begin a program at its first step. [stats], [guards] and [trace]
    are those {!run_program} documents; the Program span's clock starts
    here. [eval_indexed ix plan] runs a semi-naive iteration's
    restricted plan with the CTE's carried index ({!run_plan}'s
    [?index]); without it, that plan runs through the backend's
    [eval]. *)
val start :
  ?eval_indexed:(key_index -> Logical.t -> 't) ->
  't backend ->
  stats:Stats.t ->
  guards:Guards.t ->
  ?trace:Dbspinner_obs.Trace.t ->
  Program.t ->
  't machine

(** True once the program counter has run past the last step. *)
val halted : 't machine -> bool

(** Index of the step {!step} runs next. *)
val pc : 't machine -> int

(** Highest iteration count over the program's loops so far. *)
val iteration : 't machine -> int

(** Run the step at {!pc}, emit its Step span (and an Iteration span at
    [Loop_end]) and advance the program counter. An exception leaves
    no span and the counter where it was.
    @raise Execution_error as {!run_program} documents, whichever the
    backend. *)
val step : 't machine -> unit

(** The program counter and copies of the loop states (iteration
    counters, snapshots, delta baselines, trace marks). The backend's
    temps are the caller's to save. *)
type checkpoint

val checkpoint : 't machine -> checkpoint
val restore : 't machine -> checkpoint -> unit

(** Emit the Operator and Program spans and return the result: [result]
    when given (a caller that finished the program some other way),
    else the one the [Return] step produced.
    @raise Execution_error when no [Return] step ran. *)
val finish : ?result:Relation.t -> 't machine -> Relation.t

(** Run a step program to completion on the interpreter, with the
    temps in the catalog, and return the final relation. Temps created
    by the program are left in the catalog (the engine clears them per
    statement). [guards] are checked at materialize and loop
    boundaries, plus periodic in-operator probes every
    {!Guards.probe_interval} rows inside long operator loops.

    [Delta_materialize] steps run semi-naive (delta-driven) evaluation:
    the CTE version is diffed against the previous iteration's, only
    rows whose key is affected by the change are re-evaluated through
    the restricted plan, and untouched keys reuse the previous work
    output — producing a relation bit-identical to the full plan's.
    The first iteration (no previous version) and iterations where most
    keys changed fall back to the full plan ([Stats.full_reevals]).
    @raise Execution_error on runtime failures, including the
    iteration-guard trip for non-converging loops
    @raise Guards.Resource_exhausted when a deadline or row budget is
    crossed.

    [use_cache] (default true) enables a per-run iteration-aware
    {!Cache}: loop-invariant join builds and subquery digests are
    memoized under source generations, and expressions are closure-
    compiled once per run. Results and logical stats are identical
    either way; only wall time and the cache counters differ.

    [columnar] (default true) routes the hot operators through the
    vectorized batch paths; see {!run_plan}. Results and logical stats
    are identical to the row engine.

    [trace], when given, records one {!Dbspinner_obs.Trace} span per
    executed step, per loop iteration (with CTE cardinality, delta and
    cumulative-update gauges — the convergence timeline), per operator
    family with accrued wall time, and per program. Tracing does no
    work at all when absent, and only pure reads when present, so
    traced and untraced runs are [Stats.logical_equal]. *)
val run_program :
  ?parallel:Parallel.ctx ->
  ?stats:Stats.t ->
  ?guards:Guards.t ->
  ?use_cache:bool ->
  ?columnar:bool ->
  ?trace:Dbspinner_obs.Trace.t ->
  Catalog.t ->
  Program.t ->
  Relation.t

(** Convenience: run with a fresh {!Stats.t} and return it. *)
val run_program_with_stats :
  ?parallel:Parallel.ctx ->
  ?guards:Guards.t ->
  ?use_cache:bool ->
  ?columnar:bool ->
  ?trace:Dbspinner_obs.Trace.t ->
  Catalog.t ->
  Program.t ->
  Relation.t * Stats.t
