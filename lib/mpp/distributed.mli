(** Simulated shared-nothing execution: relations live as worker
    partitions, equi-joins and grouped aggregations repartition by key,
    order-sensitive operators gather; rows crossing workers are
    counted. Per-partition operator work runs {e concurrently} across a
    {!Dbspinner_exec.Parallel} Domain pool (shuffle/gather barriers are
    preserved; per-partition stats merge in partition order, so
    counters stay deterministic; a fault raised inside a domain is
    re-raised at the barrier). Contract (property-tested): for every
    plan the result bag equals single-node execution — including under
    injected transient faults, which {!run_program} survives via
    iteration-granular checkpoints, bounded retries and single-node
    fallback. *)

module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Logical = Dbspinner_plan.Logical
module Stats = Dbspinner_exec.Stats
module Guards = Dbspinner_exec.Guards
module Parallel = Dbspinner_exec.Parallel

(** What a distributed run did beyond the logical {!Stats.t}: its
    exchange volume and, for {!run_program}, its fault recovery.
    Invariants (property-tested): [faults_injected = retries +
    fallbacks] and [recoveries <= retries]. *)
type run_stats = {
  mutable rows_shuffled : int;  (** rows that moved between workers *)
  mutable exchanges : int;  (** exchange operations performed *)
  mutable faults_injected : int;  (** transient faults caught *)
  mutable retries : int;  (** restarts from a checkpoint after a fault *)
  mutable checkpoints_taken : int;  (** loop checkpoints taken *)
  mutable recoveries : int;  (** restarts from a loop checkpoint *)
  mutable fallbacks : int;  (** degradations to single-node execution *)
  mutable backoff_steps : int;
      (** cumulative deterministic backoff units accrued across retries
          (simulated, not slept) *)
}

(** Execute [plan] across [workers] simulated workers (default 4);
    returns the gathered result and the exchange volume (the fault
    counters stay 0). [columnar] (default true) runs the per-partition
    work through the vectorized engine. [fault] injects transient
    faults at exchanges and per-partition operators; plan-level
    execution has no checkpoints, so injected faults propagate to the
    caller as {!Fault.Transient_fault}.
    @raise Invalid_argument when [workers <= 0]. *)
val run_plan :
  ?workers:int ->
  ?pool:Parallel.t ->
  ?fault:Fault.plan ->
  ?use_cache:bool ->
  ?columnar:bool ->
  Catalog.t ->
  Logical.t ->
  Relation.t * run_stats

module Program = Dbspinner_plan.Program

(** Execute a whole step program on the executor's step interpreter
    ({!Dbspinner_exec.Executor.step}) over a backend that keeps
    materialized temps partitioned on the workers: [Rename] swaps
    partition sets, and the interpreter's gathers (diff, stitch, key
    and termination checks) are not counted as shuffles. Loop,
    termination, delta, error and trace semantics are therefore those
    of {!Dbspinner_exec.Executor.run_program}.

    What this adds is fault tolerance: on a {!Fault.Transient_fault}
    from [fault], execution restarts from the last checkpoint (program
    start, then after every completed loop iteration), retrying up to
    [max_retries] (default 3) consecutive times with deterministic
    backoff accounting before degrading gracefully to single-node
    execution. Recovery activity is counted in the returned
    {!run_stats}; a fallback run emits the single-node trace spans.
    {!Guards.Resource_exhausted} is never retried.

    [use_cache] (default true) shares one compiled-expression cache
    across all partition domains; the generation-keyed build memo does
    not apply to partitioned temps. [columnar] (default true) runs the
    per-partition work through the vectorized engine, and the
    single-node fallback inherits it. Neither changes results or
    logical stats.
    @raise Dbspinner_exec.Executor.Execution_error for recursive CTEs
    (["distributed execution: ..."]) and the interpreter's own errors
    @raise Guards.Resource_exhausted when a deadline or row budget is
    crossed
    @raise Invalid_argument when [workers <= 0] or [max_retries < 0]. *)
val run_program :
  ?workers:int ->
  ?pool:Parallel.t ->
  ?fault:Fault.plan ->
  ?max_retries:int ->
  ?guards:Guards.t ->
  ?stats:Stats.t ->
  ?use_cache:bool ->
  ?columnar:bool ->
  ?trace:Dbspinner_obs.Trace.t ->
  Catalog.t ->
  Program.t ->
  Relation.t * run_stats
