(** Pure helpers of the benchmark: order statistics, ratios with their
    base, the server's [STATS] body, the benchmark's own spans and the
    JSON result line. *)

(** {2 Order statistics} *)

(** @raise Invalid_argument on an empty list. *)
val median : float list -> float

(** [(q1, q2, q3)] by the rule of Python's
    [statistics.quantiles(xs, n=4)] (method "exclusive").
    @raise Invalid_argument below two samples. *)
val quartiles : float list -> float * float * float

(** Nearest-rank percentile, [p] in [0, 100].
    @raise Invalid_argument on an empty list. *)
val percentile : float list -> float -> float

(** The highest of p99.9, p99, p95, p90, p75 and p50 with at least ten
    of [n] samples beyond it; [None] when [n < 20]. *)
val tail_percentile : int -> float option

(** Geometric mean of positive values.
    @raise Invalid_argument on an empty list. *)
val geomean : float list -> float

(** {2 Ratios} *)

type ratio = {
  num : float;
  den : float;
}

val ratio : float -> float -> ratio

(** [num / den], or 0 when [den = 0]. *)
val ratio_value : ratio -> float

(** ["0.7500 (3/4)"]; ["n/a (0/0)"] on an empty base. *)
val ratio_to_string : ratio -> string

(** {2 Server STATS} *)

type server_stats = {
  queries_ok : int;
  queries_err : int;
  queries_read : int;
  queries_write : int;
  rejected : int;
  p50_ms : float;
  p99_ms : float;
  snapshot_version : int;
  plan_hits : int;
  plan_misses : int;
  fsync_policy : string;
  wal_records : int;
  wal_bytes : int;
  wal_fsyncs : int;
  checkpoints : int;
}

(** From the association list [Client.stats] returns.
    @raise Failure on a missing or malformed key. *)
val stats_of_assoc : (string * string) list -> server_stats

(** {2 Spans} *)

type span = {
  id : int;
  name : string;
  start_s : float;
  stop_s : float;
  parent : int;  (** enclosing span id, -1 at a root *)
  stmt : int;  (** statement the span belongs to *)
}

val duration : span -> float

(** In-memory span collector. *)
type recorder

val recorder : unit -> recorder

(** [with_span r ?parent ~stmt name f] times [f id]; the span is kept
    even when [f] raises. *)
val with_span :
  recorder -> ?parent:int -> stmt:int -> string -> (int -> 'a) -> 'a

(** Recorded spans in id order. *)
val spans : recorder -> span list

(** One NDJSON line. *)
val span_to_json : span -> string

val span_of_json : string -> (span, string) result

(** Parse NDJSON text (blank lines ignored). *)
val spans_of_ndjson : string -> (span list, string) result

(** {2 Result line} *)

(** Integral values print without a fraction, others with 17
    significant digits.
    @raise Invalid_argument on NaN or infinity. *)
val json_number : float -> string

(** The benchmark's last output line; metrics are
    [(name, value, unit)]. *)
val result_line :
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * float * string) list ->
  string
