(** Per-execution counters. Benchmarks and tests use these to verify
    that an optimization really changed the work done (e.g. the
    common-result rewrite reduces join row volume; the rename path
    eliminates merge materializations). The fault/recovery counters are
    filled in by the distributed executor so benchmarks can measure
    recovery overhead (faults survived, checkpoints taken, fallbacks to
    single-node execution).

    Two kinds of fields live here:

    - {e logical} integer counters, deterministic for a given plan and
      input (and, under parallel execution, merged from per-task
      private instances in task order so totals stay deterministic);
    - {e wall-time} buckets ([op_wall]), one per operator family, so
      EXPLAIN ANALYZE can show where time goes. Times are measured,
      not deterministic, and under parallel execution they sum CPU
      seconds across domains. {!logical_equal} ignores them. *)

(** Operator families timed into {!t.op_wall}. *)
type op =
  | Op_scan
  | Op_filter
  | Op_project
  | Op_join
  | Op_aggregate
  | Op_sort
  | Op_distinct
  | Op_setop  (** union / intersect / except / subquery filters *)

let op_count = 8

let op_index = function
  | Op_scan -> 0
  | Op_filter -> 1
  | Op_project -> 2
  | Op_join -> 3
  | Op_aggregate -> 4
  | Op_sort -> 5
  | Op_distinct -> 6
  | Op_setop -> 7

let op_name = function
  | Op_scan -> "scan"
  | Op_filter -> "filter"
  | Op_project -> "project"
  | Op_join -> "join"
  | Op_aggregate -> "aggregate"
  | Op_sort -> "sort"
  | Op_distinct -> "distinct"
  | Op_setop -> "setop"

let all_ops =
  [
    Op_scan; Op_filter; Op_project; Op_join; Op_aggregate; Op_sort; Op_distinct;
    Op_setop;
  ]

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
          (measured at miss time, so not deterministic) *)
  op_wall : float array;
      (** seconds spent per operator family, indexed by {!op_index};
          CPU seconds (summed across domains) under parallel execution *)
}

let create () =
  {
    rows_scanned = 0;
    rows_filtered = 0;
    rows_projected = 0;
    rows_joined = 0;
    join_probes = 0;
    rows_aggregated = 0;
    rows_materialized = 0;
    materializations = 0;
    renames = 0;
    loop_iterations = 0;
    statements = 0;
    dml_rows_touched = 0;
    faults_injected = 0;
    retries = 0;
    checkpoints_taken = 0;
    recoveries = 0;
    fallbacks = 0;
    backoff_steps = 0;
    delta_rows_evaluated = 0;
    full_reevals = 0;
    cache_hits = 0;
    cache_misses = 0;
    probe_reuses = 0;
    build_ms_saved = 0.0;
    op_wall = Array.make op_count 0.0;
  }

let reset t =
  t.rows_scanned <- 0;
  t.rows_filtered <- 0;
  t.rows_projected <- 0;
  t.rows_joined <- 0;
  t.join_probes <- 0;
  t.rows_aggregated <- 0;
  t.rows_materialized <- 0;
  t.materializations <- 0;
  t.renames <- 0;
  t.loop_iterations <- 0;
  t.statements <- 0;
  t.dml_rows_touched <- 0;
  t.faults_injected <- 0;
  t.retries <- 0;
  t.checkpoints_taken <- 0;
  t.recoveries <- 0;
  t.fallbacks <- 0;
  t.backoff_steps <- 0;
  t.delta_rows_evaluated <- 0;
  t.full_reevals <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.probe_reuses <- 0;
  t.build_ms_saved <- 0.0;
  Array.fill t.op_wall 0 op_count 0.0

let add ~into (src : t) =
  into.rows_scanned <- into.rows_scanned + src.rows_scanned;
  into.rows_filtered <- into.rows_filtered + src.rows_filtered;
  into.rows_projected <- into.rows_projected + src.rows_projected;
  into.rows_joined <- into.rows_joined + src.rows_joined;
  into.join_probes <- into.join_probes + src.join_probes;
  into.rows_aggregated <- into.rows_aggregated + src.rows_aggregated;
  into.rows_materialized <- into.rows_materialized + src.rows_materialized;
  into.materializations <- into.materializations + src.materializations;
  into.renames <- into.renames + src.renames;
  into.loop_iterations <- into.loop_iterations + src.loop_iterations;
  into.statements <- into.statements + src.statements;
  into.dml_rows_touched <- into.dml_rows_touched + src.dml_rows_touched;
  into.faults_injected <- into.faults_injected + src.faults_injected;
  into.retries <- into.retries + src.retries;
  into.checkpoints_taken <- into.checkpoints_taken + src.checkpoints_taken;
  into.recoveries <- into.recoveries + src.recoveries;
  into.fallbacks <- into.fallbacks + src.fallbacks;
  into.backoff_steps <- into.backoff_steps + src.backoff_steps;
  into.delta_rows_evaluated <-
    into.delta_rows_evaluated + src.delta_rows_evaluated;
  into.full_reevals <- into.full_reevals + src.full_reevals;
  into.cache_hits <- into.cache_hits + src.cache_hits;
  into.cache_misses <- into.cache_misses + src.cache_misses;
  into.probe_reuses <- into.probe_reuses + src.probe_reuses;
  into.build_ms_saved <- into.build_ms_saved +. src.build_ms_saved;
  for i = 0 to op_count - 1 do
    into.op_wall.(i) <- into.op_wall.(i) +. src.op_wall.(i)
  done

(** Full snapshot, wall-time buckets included. The tracer records one of
    these before a step/iteration and diffs against the live instance
    afterwards to attribute counter deltas to the span. *)
let copy (src : t) =
  let c = create () in
  add ~into:c src;
  c

(** Counter deltas since [since], packaged for a trace span. Pure reads
    of both instances — attributing work to a span never perturbs the
    stats themselves. *)
let trace_counters ~(since : t) (now : t) : Dbspinner_obs.Trace.counters =
  {
    Dbspinner_obs.Trace.c_rows_scanned = now.rows_scanned - since.rows_scanned;
    c_rows_joined = now.rows_joined - since.rows_joined;
    c_rows_materialized = now.rows_materialized - since.rows_materialized;
    c_cache_hits = now.cache_hits - since.cache_hits;
    c_cache_misses = now.cache_misses - since.cache_misses;
    c_faults = now.faults_injected - since.faults_injected;
    c_retries = now.retries - since.retries;
    c_recoveries = now.recoveries - since.recoveries;
  }

(** Snapshot of the logical counters only: wall-time buckets and the
    cache counters are zeroed. Used by the executor cache to record what
    a build {e logically} did, so a later hit can replay those counters
    without double-counting its own hit/miss bookkeeping. *)
let clone_logical (src : t) =
  let c = create () in
  add ~into:c src;
  Array.fill c.op_wall 0 op_count 0.0;
  c.cache_hits <- 0;
  c.cache_misses <- 0;
  c.probe_reuses <- 0;
  c.build_ms_saved <- 0.0;
  c

(** Equality of the deterministic logical counters; wall-time buckets
    and cache counters are excluded (wall time varies run to run; cache
    counters depend on whether the cache is enabled, and cache-on vs
    cache-off runs must compare logically equal). Used by the
    seq-vs-parallel and cache-on-vs-off equivalence tests. *)
let logical_equal a b =
  a.rows_scanned = b.rows_scanned
  && a.rows_filtered = b.rows_filtered
  && a.rows_projected = b.rows_projected
  && a.rows_joined = b.rows_joined
  && a.join_probes = b.join_probes
  && a.rows_aggregated = b.rows_aggregated
  && a.rows_materialized = b.rows_materialized
  && a.materializations = b.materializations
  && a.renames = b.renames
  && a.loop_iterations = b.loop_iterations
  && a.statements = b.statements
  && a.dml_rows_touched = b.dml_rows_touched
  && a.faults_injected = b.faults_injected
  && a.retries = b.retries
  && a.checkpoints_taken = b.checkpoints_taken
  && a.recoveries = b.recoveries
  && a.fallbacks = b.fallbacks
  && a.backoff_steps = b.backoff_steps
  && a.delta_rows_evaluated = b.delta_rows_evaluated
  && a.full_reevals = b.full_reevals

(** [timed t op f] runs [f ()], accruing its elapsed wall time into
    [t]'s bucket for [op] (also on exception). *)
let timed t op f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let i = op_index op in
      t.op_wall.(i) <- t.op_wall.(i) +. (Unix.gettimeofday () -. t0))
    f

let pp fmt t =
  Format.fprintf fmt
    "scanned=%d filtered=%d projected=%d joined=%d probes=%d aggregated=%d \
     materialized=%d(%d ops) renames=%d iterations=%d statements=%d dml_rows=%d"
    t.rows_scanned t.rows_filtered t.rows_projected t.rows_joined t.join_probes
    t.rows_aggregated t.rows_materialized t.materializations t.renames
    t.loop_iterations t.statements t.dml_rows_touched;
  (* Recovery counters only appear once something faulted, so the
     common no-fault output stays short. *)
  if
    t.faults_injected > 0 || t.retries > 0 || t.checkpoints_taken > 0
    || t.recoveries > 0 || t.fallbacks > 0
  then
    Format.fprintf fmt
      " faults=%d retries=%d checkpoints=%d recoveries=%d fallbacks=%d \
       backoff=%d"
      t.faults_injected t.retries t.checkpoints_taken t.recoveries t.fallbacks
      t.backoff_steps;
  (* Delta counters only appear once a delta-eligible loop ran. *)
  if t.delta_rows_evaluated > 0 || t.full_reevals > 0 then
    Format.fprintf fmt " delta_rows_evaluated=%d full_reevals=%d"
      t.delta_rows_evaluated t.full_reevals;
  (* Cache counters only appear when the executor cache saw traffic. *)
  if t.cache_hits > 0 || t.cache_misses > 0 then
    Format.fprintf fmt
      " cache_hits=%d cache_misses=%d probe_reuses=%d build_ms_saved=%.1f"
      t.cache_hits t.cache_misses t.probe_reuses t.build_ms_saved;
  (* Per-operator wall-time buckets, only once something was timed. *)
  if Array.exists (fun s -> s > 0.0) t.op_wall then begin
    Format.fprintf fmt "@\n  op wall time:";
    List.iter
      (fun op ->
        let s = t.op_wall.(op_index op) in
        if s > 0.0 then Format.fprintf fmt " %s=%.4fs" (op_name op) s)
      all_ops
  end

let to_string t = Format.asprintf "%a" pp t
