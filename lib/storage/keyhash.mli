(** The typed hashing kernel over {!Colbatch} key columns: DISTINCT,
    the set operators, IN-sets, grouping, the delta diff and the
    semi-naive stitch all number or look up rows through it.

    Key equality is {!Value.equal} applied column by column, whatever
    each column's representation ([D_int], [D_float], [D_str],
    [D_bool] or boxed [D_value]):

    - [Int 3] matches [Float 3.0];
    - a masked NULL matches an inline [Value.Null], and NULL matches
      nothing else;
    - all NaNs match each other, and [0.0] matches [-0.0];
    - strings and bools match only their own kind.

    Hash codes agree wherever that equality does. Groups are numbered
    in first-appearance order. *)

(** How a table keyed by one int column is laid out: the first [n]
    cells of an int column (NULL-masked cells left out) are [Dense]
    when their range spans at most [2 * count + 16] slots, so a table
    addressed by [key - lo] stays linear in the input, and [Sparse]
    otherwise. No live cell at all is [Dense { lo = 0; hi = -1 }]. *)
type int_layout = Dense of { lo : int; hi : int } | Sparse of { count : int }

val int_layout : int array -> bool array option -> int -> int_layout

(** Multiplicative mix of an int into a hash code whose low bits spread
    sequential keys apart under linear probing. *)
val mix_int : int -> int

(** A hashed set of key rows: the distinct rows of some key columns,
    each numbered by first appearance. *)
type t

(** [build ?tick cols n] numbers the [n] rows of [cols] (all of length
    at least [n]). [tick k] counts [k] rows against the guards, once
    per 4096-row block. With no columns every row is one group (none
    over an empty input). *)
val build : ?tick:(int -> unit) -> Colbatch.col array -> int -> t

(** Number of distinct rows (groups). *)
val groups : t -> int

(** The group of every build row. *)
val ids : t -> int array

(** The first build row of every group, in group order. *)
val reps : t -> int array

(** [group_ids ?tick cols n] is [(ids t, reps t)] of [build ?tick cols
    n], except that with no columns there is exactly one group even
    over an empty input (a global aggregate's default row). *)
val group_ids :
  ?tick:(int -> unit) -> Colbatch.col array -> int -> int array * int array

(** [row_equal a b i j] — whether row [i] of columns [a] equals row
    [j] of columns [b], column by column under the equality above. The
    comparators are specialized once per call of [row_equal a b].
    @raise Invalid_argument when [a] and [b] differ in column count. *)
val row_equal : Colbatch.col array -> Colbatch.col array -> int -> int -> bool

(** [prober t cols] looks rows of [cols] up in [t]: the returned
    function maps a row index of [cols] to the group of the equal build
    row, or [-1]. [cols] must have as many columns as the build, in
    any representation.
    @raise Invalid_argument on a column-count mismatch. *)
val prober : t -> Colbatch.col array -> int -> int

(** [probe t cols n] is [prober t cols] over rows [0 .. n - 1]. *)
val probe : t -> Colbatch.col array -> int -> int array
