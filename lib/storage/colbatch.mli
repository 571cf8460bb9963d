(** Typed column batches — the columnar twin of a [Row.t array].

    A batch stores each column as an unboxed typed array (int / float /
    string / bool) with a NULL bitmap when the column is monomorphic,
    falling back to a boxed [Value.t] array for mixed columns. The
    columnar operators evaluate expressions a column at a time over
    these arrays; {!gather} turns a selection vector back into a dense
    batch, so published batches never alias filtered views.

    Columns materialize lazily: {!gather}, {!gather_pad}, {!slice} and
    {!concat} defer their per-column copies until the column is first
    read via {!col}, and a gather of a still-unforced gather composes
    the two selection vectors into a single copy from the base arrays.
    Columns no downstream operator reads are never built. Forcing is
    memoized and safe to race across domains (pure builders). *)

type data =
  | D_int of int array
  | D_float of float array
  | D_bool of bool array
  | D_str of string array
  | D_value of Value.t array  (** mixed/unknown; NULLs inline, no bitmap *)

type col = {
  data : data;
  nulls : bool array option;
      (** NULL bitmap for typed arrays (masked slots hold placeholder
          values); [None] means no NULLs or [D_value] *)
}

(** A batch: a row count plus lazily-forced columns. *)
type t

val length : t -> int
val arity : t -> int

(** [col t i] — column [i], forcing (and memoizing) its
    materialization. *)
val col : t -> int -> col

val make : len:int -> col array -> t

(** Whether cell [i] of the column is NULL. *)
val is_null_at : col -> int -> bool

(** Boxed read of one cell (NULL-aware). *)
val get : col -> int -> Value.t

(** [value_at t j i] — boxed cell of column [j], row [i]. *)
val value_at : t -> int -> int -> Value.t

(** Classify a boxed column into the tightest typed representation.
    All-NULL and mixed Int/Float columns stay boxed ([D_value]) to
    preserve exact value identity. *)
val of_values : Value.t array -> col

(** Boxed column without the classification pass. *)
val of_values_raw : Value.t array -> col

val to_values : col -> Value.t array

(** Column-wise conversion of a row array; [arity] governs empty
    inputs. *)
val of_rows : arity:int -> Row.t array -> t

val to_rows : t -> Row.t array

(** A column holding [v] repeated [len] times (compiled literals). *)
val const : Value.t -> int -> col

(** Dense gather: keep exactly the rows listed in [sel], in order. *)
val gather : t -> int array -> t

(** Gather where a negative index produces an all-NULL cell — the
    outer-join padding path. [has_neg] must be exact when given: it
    says whether [sel] holds any negative index, sparing the scan. *)
val gather_pad : ?has_neg:bool -> t -> int array -> t

(** [gather_chain t cols] — where columns [cols] of [t] come from,
    when each is a lazy gather ({!gather}, {!gather_pad}) through the
    physically same chain of selection vectors over eagerly built root
    columns ({!make}, {!of_rows}) of one length: [Some (root, sels)],
    where column [j] of [root] is the root of column [j] of [t] (for
    [j] in [cols]; other columns of [root] are unread placeholders) and
    [sels] is the chain, innermost first. Only how [t] was built
    matters, never which columns were already forced. [None] for an
    empty [cols], a column that is no gather, differing chains, a thunk
    root (slice, concat) or roots of unequal length. The vectors are
    the gathers' own: compare them with [==], never mutate them. *)
val gather_chain : t -> int list -> (t * int array list) option

(** The selection equivalent to gathering through a non-empty chain,
    innermost first (a one-vector chain is returned as is).
    @raise Invalid_argument on an empty chain. *)
val compose_chain : int array list -> int array

(** What one gather site remembers of its previous call (see
    {!gather_pad_reusing}). Holds the previous selection vector and the
    output cells it keeps, never the gathered batch. *)
type reuse

(** The state of a site that has not gathered yet. *)
val no_reuse : reuse

(** [gather_pad_reusing r ~has_neg t sel] is [gather_pad ~has_neg t
    sel], except that a column whose base cell the previous call
    gathered through the physically same [sel] may come back as that
    call's very cell — forced already if someone read it. A cell is
    kept for the next call only when its base was gathered by the
    previous call as well (a base seen two calls running, such as a
    loop-invariant table's column), so a per-iteration column is never
    held. Returns the batch and the state for the next call. *)
val gather_pad_reusing : reuse -> has_neg:bool -> t -> int array -> t * reuse

(** Number of output cells a {!reuse} keeps. *)
val kept_cells : reuse -> int

(** Whether two columns are the same int column cell for cell: both
    [D_int], with equal values and equal NULL masks (masked slots'
    placeholders included, which can only turn an equal pair into a
    miss). Physically equal arrays answer at once; otherwise the
    comparison stops at the first difference. Any other representation
    answers [false], so [Int 3] never matches [Float 3.0]. *)
val same_int_column : col -> col -> bool

(** [slice t lo len] — contiguous row range as a fresh batch (returns
    [t] itself for the full range). *)
val slice : t -> int -> int -> t

(** Side-by-side composition (join outputs): columns of [a] then [b];
    both must have equal length. *)
val hstack : t -> t -> t

(** Vertical concatenation of chunk outputs of equal arity;
    representation mismatches degrade that column to boxed values. *)
val concat : t array -> t

(** Cell equality under {!Value.equal} semantics, with typed fast
    paths. *)
val cell_equal : col -> int -> col -> int -> bool

(** Positional row equality across two batches of equal arity, under
    {!Value.equal} semantics. *)
val rows_equal_at : t -> int -> t -> int -> bool
