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
