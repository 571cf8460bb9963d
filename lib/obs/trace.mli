(** Iteration-aware trace collector.

    A trace is a bounded ring buffer of {!span}s describing one or more
    program executions: one [Step] span per executed program step, one
    [Iteration] span per loop-body pass (carrying the convergence gauges
    — CTE cardinality, delta, cumulative updates), one [Operator] span
    per operator family that accumulated wall time, and one [Program]
    span wrapping the whole run.

    Overhead contract: when no trace is installed the executors take a
    [None] fast path and allocate nothing; when tracing is on, spans are
    built only from pure reads (counter snapshots, [Relation.cardinality],
    [Relation.delta_count]) so traced and untraced runs remain
    [Stats.logical_equal]. *)

type counters = {
  c_rows_scanned : int;
  c_rows_joined : int;
  c_rows_materialized : int;
  c_cache_hits : int;
  c_cache_misses : int;
}
(** Stats deltas attributed to one span. *)

val zero_counters : counters

type kind =
  | Program  (** one whole program execution *)
  | Step  (** one program step (materialize, rename, ...) *)
  | Iteration  (** one pass over a loop body *)
  | Operator  (** wall time accumulated by one operator family *)

val kind_to_string : kind -> string

type span = {
  seq : int;  (** global emission order, monotonically increasing *)
  kind : kind;
  label : string;
  loop_id : int;  (** program counter of the loop's [Loop_end]; -1 if n/a *)
  iteration : int;  (** 1-based iteration number; 0 if n/a *)
  rows : int;  (** CTE/result cardinality; -1 if n/a *)
  delta : int;  (** changed rows this iteration; -1 if unknown *)
  cum_updates : int;  (** running update total for [Max_updates]; -1 if n/a *)
  wall_ms : float;
  counters : counters;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer holding the last [capacity] spans (default 8192). *)

val emit :
  t ->
  kind:kind ->
  label:string ->
  ?loop_id:int ->
  ?iteration:int ->
  ?rows:int ->
  ?delta:int ->
  ?cum_updates:int ->
  wall_ms:float ->
  counters:counters ->
  unit ->
  unit

val next_seq : t -> int
(** Sequence number the next emitted span will receive. Record this
    before a run to slice that run's spans out afterwards. *)

val dropped : t -> int
(** Number of spans evicted by ring-buffer wraparound. *)

val spans : ?min_seq:int -> t -> span list
(** Retained spans in emission order, optionally from [min_seq] on. *)

val iteration_spans : ?min_seq:int -> t -> span list

val span_to_json : span -> string
(** One-line JSON object (an NDJSON trace event). *)

val to_ndjson : ?min_seq:int -> t -> string
(** Newline-terminated NDJSON of the retained spans. *)

val render_timeline : ?min_seq:int -> t -> string
(** Human-readable per-loop convergence table:
    iteration x (rows, delta, cumulative updates, wall ms, cache
    hits/misses). Empty string when there are no iteration spans. *)

val validate_event : string -> (unit, string) result
(** Check one NDJSON line against the trace event schema. *)
