(** Immutable materialized relations: a schema plus tuples held as a
    row array, a typed column batch, or both (each view is materialized
    lazily from the other and memoized). All executor operators consume
    and produce relations. *)

type t

(** @raise Invalid_argument when a row's arity differs from the
    schema's. *)
val make : Schema.t -> Row.t array -> t

(** Unchecked constructor for trusted operator outputs: the caller
    guarantees every row already matches the schema arity (rows taken
    from validated relations). Skips {!make}'s O(n) re-validation;
    external/CSV ingestion must keep using {!make}. *)
val make_trusted : Schema.t -> Row.t array -> t

(** Trusted columnar constructor (columnar operator outputs): the
    batch's arity must match the schema's. The row view is only built
    if a consumer asks for it. *)
val of_batch : Schema.t -> Colbatch.t -> t

val of_lists : Schema.t -> Value.t list list -> t
val empty : Schema.t -> t
val schema : t -> Schema.t

(** The row view — the compatibility shim: materialized from the
    columnar view on first use and memoized. *)
val rows : t -> Row.t array

(** The columnar view: converted from rows on first use and memoized.
    Safe under concurrent use (a racy double conversion only wastes
    work). *)
val columnar : t -> Colbatch.t

val cardinality : t -> int
val is_empty : t -> bool
val iter : (Row.t -> unit) -> t -> unit
val fold : ('a -> Row.t -> 'a) -> 'a -> t -> 'a

(** One column as a value array.
    @raise Invalid_argument when the column does not exist. *)
val column : t -> string -> Value.t array

(** Bag (multiset) equality: same rows with the same multiplicities,
    in any order. The equality used by tests, since SQL results are
    bags. *)
val equal_bag : t -> t -> bool

(** [delta_count ~key_idx prev next] — number of rows that changed
    between two versions keyed by column [key_idx]: rows whose payload
    differs, plus insertions, plus deletions. Assumes unique keys.
    Drives the Delta termination condition and update counting. *)
val delta_count : key_idx:int -> t -> t -> int

(** [changed_rows ~key_idx prev next] — the rows behind
    {!delta_count}: every [next] row whose key is new or whose payload
    differs, plus the {e previous} version of changed and vanished
    keys (so delta-driven evaluation can chase join partners a row
    used to reach as well as the ones it reaches now). Schema is
    [next]'s. *)
val changed_rows : key_idx:int -> t -> t -> t

(** [changed_rows_bounded ~key_idx ~cutoff prev next] is
    [Some (changed_rows prev next)] when fewer than [cutoff] distinct
    keys changed, and [None] as soon as the distinct-changed-key count
    reaches [cutoff] — early exit, before building any row list. The
    semi-naive cutoff probe: full-churn iterations abandon the diff
    partway through the scan instead of materializing a relation of
    every old+new pair only to discard it. [cutoff >= 1]. *)
val changed_rows_bounded : key_idx:int -> cutoff:int -> t -> t -> t option

(** Copy with rows sorted by {!Row.compare} (canonical order for
    comparisons). *)
val sorted : t -> t

val pp : Format.formatter -> t -> unit

(** Aligned ASCII rendering, truncated to [max_rows] (default 50). *)
val to_table_string : ?max_rows:int -> t -> string
