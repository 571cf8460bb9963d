(** Per-execution counters. Benchmarks and tests use these to verify
    that an optimization actually changed the work performed, not just
    the wall time. The fault/recovery counters are filled in by the
    distributed executor's checkpoint-recovery machinery.

    Integer counters are {e logical}: deterministic for a given plan
    and input, even under parallel execution (per-task private
    instances are merged in task order). The [op_wall] buckets are
    measured wall time and excluded from {!logical_equal}. *)

(** Operator families timed into {!t.op_wall} via {!timed}. *)
type op =
  | Op_scan
  | Op_filter
  | Op_project
  | Op_join
  | Op_aggregate
  | Op_sort
  | Op_distinct
  | Op_setop  (** union / intersect / except / subquery filters *)

type t = {
  mutable rows_scanned : int;
  mutable rows_filtered : int;  (** rows evaluated by filter operators *)
  mutable rows_projected : int;  (** rows produced by projections *)
  mutable rows_joined : int;  (** rows produced by join operators *)
  mutable join_probes : int;  (** probe-side rows processed *)
  mutable rows_aggregated : int;  (** rows consumed by aggregations *)
  mutable rows_materialized : int;
  mutable materializations : int;
  mutable renames : int;
  mutable loop_iterations : int;
  mutable statements : int;  (** statements executed (baselines > 1) *)
  mutable dml_rows_touched : int;  (** rows written by INSERT/UPDATE/DELETE *)
  mutable faults_injected : int;  (** transient faults raised by Fault.plan *)
  mutable retries : int;  (** iteration re-executions after a fault *)
  mutable checkpoints_taken : int;  (** loop checkpoints persisted *)
  mutable recoveries : int;  (** successful restarts from a checkpoint *)
  mutable fallbacks : int;  (** degradations to single-node execution *)
  mutable backoff_steps : int;
      (** cumulative deterministic backoff units accrued across retries
          (simulated, not slept) *)
  mutable delta_rows_evaluated : int;
      (** working-table rows produced by restricted (delta-driven)
          re-evaluation instead of a full pass over the CTE *)
  mutable full_reevals : int;
      (** full loop-body re-evaluations inside delta-eligible loops
          (first iteration, large deltas, post-recovery restarts) *)
  mutable cache_hits : int;  (** executor-cache lookups served from cache *)
  mutable cache_misses : int;  (** executor-cache lookups that built fresh *)
  mutable probe_reuses : int;
      (** join probes answered from the previous call's selection
          vectors because both key columns were unchanged; a cache
          counter, outside {!logical_equal} like [cache_hits] *)
  mutable build_ms_saved : float;
      (** wall milliseconds of build work avoided by cache hits
          (measured, not deterministic) *)
  op_wall : float array;
      (** seconds spent per operator family, indexed by {!op_index};
          CPU seconds (summed across domains) under parallel execution *)
}

val create : unit -> t
val reset : t -> unit

(** [add ~into src] accumulates [src] into [into] (wall-time buckets
    included). *)
val add : into:t -> t -> unit

(** Full snapshot, wall-time buckets included. The tracer records one
    before a step/iteration and diffs afterwards with
    {!trace_counters}. *)
val copy : t -> t

(** Counter deltas since [since], packaged for a trace span. Pure reads;
    never perturbs either instance. *)
val trace_counters : since:t -> t -> Dbspinner_obs.Trace.counters

(** Copy with only the logical counters retained: [op_wall] and the
    cache counters are zeroed. The executor cache stores one of these
    per entry so a hit can replay the build's logical work. *)
val clone_logical : t -> t

(** Equality of the deterministic logical counters; [op_wall] and the
    cache counters are ignored (cache-on vs cache-off runs must compare
    equal). Used by seq-vs-parallel and cache equivalence tests. *)
val logical_equal : t -> t -> bool

val op_index : op -> int
val op_name : op -> string
val all_ops : op list

(** [timed t op f] runs [f ()], accruing its elapsed wall time into
    [t]'s bucket for [op] (also on exception). *)
val timed : t -> op -> (unit -> 'a) -> 'a

val pp : Format.formatter -> t -> unit
val to_string : t -> string
