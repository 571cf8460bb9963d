(** The typed hashing kernel over {!Colbatch} key columns.

    Rows are compared column by column under {!Value.equal}, whatever
    each column's representation: [Int 3] in a [D_int] column matches
    [Float 3.0] in a [D_float] or boxed column, a masked NULL matches
    an inline [Value.Null] (and nothing else), all NaNs match each
    other and both zeros match each other. Hash codes agree wherever
    that equality does: an integral float in the int range hashes as
    the int it equals, every other float by its bits (one code for all
    NaNs), and a boxed cell by the code of its typed twin.

    Groups are numbered in first-appearance order. A single int column
    whose keys span a narrow range is addressed directly, with no
    hashing: the node ids of a graph take this path. Any other key goes
    through an open-addressing table of row hashes, sized by the groups
    seen so far rather than by the row count, doubling at half load.
    The join's int mirror ([Operators]) makes the same direct-or-hashed
    choice through {!int_layout} and hashes with {!mix_int}. *)

(* Hash code of a NULL key slot; any constant works, since cell
   equality separates it from a colliding value. *)
let null_code = 0x2F0B3A55

(* Multiplier mixing per-column codes into a row hash. *)
let hash_mul = 0x2545F4914F6CDD1D

let mix_int k =
  let h = k * hash_mul in
  h lxor (h lsr 29)

(* An integral float within the int range hashes as the int it equals
   (so [Int 3] and [Float 3.0] share a code, and so do both zeros);
   all NaNs share one code. [int_of_float] of a fraction, NaN or an
   out-of-range float yields some other int (and makes no C call), so
   the round trip is the integrality test. *)
let float_code f =
  let i = int_of_float f in
  if Float.of_int i = f then i
  else if Float.is_nan f then 0x7FF8000000000000
  else Int64.to_int (Int64.bits_of_float f)

let value_code (v : Value.t) =
  match v with
  | Value.Null -> null_code
  | Value.Int i -> i
  | Value.Float f -> float_code f
  | Value.Str s -> Hashtbl.hash s
  | Value.Bool b -> Bool.to_int b

(* Per-cell hash code of one column. *)
let cell_code (c : Colbatch.col) : int -> int =
  let code =
    match c.Colbatch.data with
    | Colbatch.D_int a -> fun r -> a.(r)
    | Colbatch.D_bool a -> fun r -> Bool.to_int a.(r)
    | Colbatch.D_float a -> fun r -> float_code a.(r)
    | Colbatch.D_str a -> fun r -> Hashtbl.hash a.(r)
    | Colbatch.D_value a -> fun r -> value_code a.(r)
  in
  match c.Colbatch.nulls with
  | None -> code
  | Some m -> fun r -> if m.(r) then null_code else code r

(* Cell equality between row [i] of [a] and row [j] of [b] under
   {!Value.equal}. Same-kind typed columns compare natively (floats
   under [Float.compare]); any other pair compares boxed cells. *)
let cell_eq (a : Colbatch.col) (b : Colbatch.col) : int -> int -> bool =
  let typed eq =
    match a.Colbatch.nulls, b.Colbatch.nulls with
    | None, None -> eq
    | ma, mb ->
      let null m k = match m with Some m -> m.(k) | None -> false in
      fun i j ->
        let ni = null ma i and nj = null mb j in
        if ni || nj then ni && nj else eq i j
  in
  match a.Colbatch.data, b.Colbatch.data with
  | Colbatch.D_int x, Colbatch.D_int y -> typed (fun i j -> x.(i) = y.(j))
  | Colbatch.D_float x, Colbatch.D_float y ->
    typed (fun i j -> Float.compare x.(i) y.(j) = 0)
  | Colbatch.D_str x, Colbatch.D_str y ->
    typed (fun i j -> String.equal x.(i) y.(j))
  | Colbatch.D_bool x, Colbatch.D_bool y ->
    typed (fun i j -> Bool.equal x.(i) y.(j))
  | Colbatch.D_value x, Colbatch.D_value y ->
    fun i j ->
      let u = x.(i) and v = y.(j) in
      u == v || Value.equal u v
  | _ -> fun i j -> Value.equal (Colbatch.get a i) (Colbatch.get b j)

(* Row hash over the per-column codes. One and two columns (the common
   shapes) are unrolled. *)
let row_hash (cols : Colbatch.col array) : int -> int =
  match Array.map cell_code cols with
  | [||] -> fun _ -> 0
  | [| c0 |] -> fun r -> mix_int (c0 r)
  | [| c0; c1 |] -> fun r -> mix_int ((c0 r * hash_mul) + c1 r)
  | codes ->
    fun r ->
      let h = ref 0 in
      for i = 0 to Array.length codes - 1 do
        h := (!h * hash_mul) + codes.(i) r
      done;
      mix_int !h

let row_equal (a : Colbatch.col array) (b : Colbatch.col array) :
    int -> int -> bool =
  match Array.map2 cell_eq a b with
  | [||] -> fun _ _ -> true
  | [| e0 |] -> e0
  | [| e0; e1 |] -> fun i j -> e0 i j && e1 i j
  | eqs ->
    let n = Array.length eqs in
    fun i j ->
      let rec all k = k = n || (eqs.(k) i j && all (k + 1)) in
      all 0

type table =
  | Direct of { lo : int; hi : int; slot : int array; null_group : int }
      (** one int column whose keys span a narrow range: key [k] is
          group [slot.(k - lo)] ([-1] when absent), NULL is
          [null_group] *)
  | Hashed of { slots : int array; hashes : int array }
      (** open addressing: group per slot ([-1] when free), and each
          group's row hash *)

type t = {
  cols : Colbatch.col array;
  table : table;
  reps : int array;  (** first row of each group *)
  ids : int array;  (** group of each row *)
}

type int_layout = Dense of { lo : int; hi : int } | Sparse of { count : int }

let int_layout (a : int array) nulls n =
  let live r = match nulls with Some m -> not m.(r) | None -> true in
  let count = ref 0 and lo = ref max_int and hi = ref min_int in
  for r = 0 to n - 1 do
    if live r then begin
      let k = a.(r) in
      incr count;
      if k < !lo then lo := k;
      if k > !hi then hi := k
    end
  done;
  (* [hi - lo] wraps negative exactly when the true span overflows. *)
  let span = !hi - !lo in
  if !count = 0 then Dense { lo = 0; hi = -1 }
  else if span >= 0 && span < (2 * !count) + 16 then
    Dense { lo = !lo; hi = !hi }
  else Sparse { count = !count }

let build_direct ~tick (a : int array) nulls n lo hi =
  let slot = Array.make (hi - lo + 1) (-1) in
  (* At most one group per slot, plus NULL's. *)
  let ids = Array.make n 0 and reps = Array.make (min n (hi - lo + 2)) 0 in
  let ng = ref 0 and null_group = ref (-1) in
  let fresh r =
    let g = !ng in
    reps.(g) <- r;
    ng := g + 1;
    g
  in
  for r = 0 to n - 1 do
    if r land 4095 = 0 then tick (min 4096 (n - r));
    let is_null = match nulls with Some m -> m.(r) | None -> false in
    ids.(r) <-
      (if is_null then begin
         if !null_group < 0 then null_group := fresh r;
         !null_group
       end
       else
         let s = a.(r) - lo in
         let g = slot.(s) in
         if g >= 0 then g
         else begin
           let g = fresh r in
           slot.(s) <- g;
           g
         end)
  done;
  (Direct { lo; hi; slot; null_group = !null_group }, Array.sub reps 0 !ng, ids)

let build_hashed ~tick (cols : Colbatch.col array) n =
  let ids = Array.make n 0 in
  let hash = row_hash cols in
  let eq = row_equal cols cols in
  let slots = ref (Array.make 64 (-1)) in
  let reps = ref (Array.make 32 0) in
  let hashes = ref (Array.make 32 0) in
  let ng = ref 0 in
  let grow () =
    let cap = 2 * Array.length !slots in
    let sl = Array.make cap (-1) in
    for g = 0 to !ng - 1 do
      let i = ref (!hashes.(g) land (cap - 1)) in
      while sl.(!i) <> -1 do
        i := (!i + 1) land (cap - 1)
      done;
      sl.(!i) <- g
    done;
    let extend a =
      let b = Array.make (cap / 2) 0 in
      Array.blit a 0 b 0 !ng;
      b
    in
    slots := sl;
    reps := extend !reps;
    hashes := extend !hashes
  in
  for r = 0 to n - 1 do
    if r land 4095 = 0 then tick (min 4096 (n - r));
    (* A row equal to its predecessor takes its group without hashing:
       join outputs arrive clustered by probe row. *)
    if r > 0 && eq (r - 1) r then ids.(r) <- ids.(r - 1)
    else begin
      let h = hash r in
      let sl = !slots in
      let mask = Array.length sl - 1 in
      let idx = ref (h land mask) in
      let g = ref (-1) in
      while !g < 0 do
        let e = sl.(!idx) in
        if e = -1 then begin
          let e = !ng in
          sl.(!idx) <- e;
          !reps.(e) <- r;
          !hashes.(e) <- h;
          ng := e + 1;
          g := e;
          if 2 * !ng >= Array.length sl then grow ()
        end
        else if !hashes.(e) = h && eq !reps.(e) r then g := e
        else idx := (!idx + 1) land mask
      done;
      ids.(r) <- !g
    end
  done;
  ( Hashed { slots = !slots; hashes = Array.sub !hashes 0 !ng },
    Array.sub !reps 0 !ng,
    ids )

let build ?(tick = ignore) (cols : Colbatch.col array) n : t =
  let table, reps, ids =
    match cols with
    | [| { Colbatch.data = Colbatch.D_int a; nulls } |] -> (
      match int_layout a nulls n with
      | Dense { lo; hi } -> build_direct ~tick a nulls n lo hi
      | Sparse _ -> build_hashed ~tick cols n)
    | _ -> build_hashed ~tick cols n
  in
  { cols; table; reps; ids }

let groups t = Array.length t.reps
let ids t = t.ids
let reps t = t.reps

let group_ids ?tick cols n =
  if Array.length cols = 0 then begin
    Option.iter (fun f -> f n) tick;
    (Array.make n 0, [| 0 |])
  end
  else
    let t = build ?tick cols n in
    (t.ids, t.reps)

(* Lookup of the cells of [c] in a single-int-column table, given the
   group of an int key: a cell equal to an int key is that int, or an
   integral float in the int range. *)
let int_prober ~int_key ~null_group (c : Colbatch.col) : int -> int =
  let float_key f =
    let i = int_of_float f in
    if Float.of_int i = f then int_key i else -1
  in
  let find =
    match c.Colbatch.data with
    | Colbatch.D_int x -> fun j -> int_key x.(j)
    | Colbatch.D_float x -> fun j -> float_key x.(j)
    | Colbatch.D_value x -> (
      fun j ->
        match x.(j) with
        | Value.Null -> null_group
        | Value.Int k -> int_key k
        | Value.Float f -> float_key f
        | Value.Str _ | Value.Bool _ -> -1)
    | Colbatch.D_str _ | Colbatch.D_bool _ -> fun _ -> -1
  in
  match c.Colbatch.nulls with
  | None -> find
  | Some m -> fun j -> if m.(j) then null_group else find j

let prober t (cols : Colbatch.col array) : int -> int =
  if Array.length cols <> Array.length t.cols then
    invalid_arg "Keyhash.prober: column count differs from the build's";
  match t.table with
  | Direct { lo; hi; slot; null_group } ->
    let int_key k = if k >= lo && k <= hi then slot.(k - lo) else -1 in
    int_prober ~int_key ~null_group cols.(0)
  | Hashed { slots; hashes } ->
    let hash = row_hash cols in
    let eq = row_equal t.cols cols in
    let reps = t.reps in
    let mask = Array.length slots - 1 in
    fun j ->
      let h = hash j in
      let rec find idx =
        let e = slots.(idx) in
        if e = -1 then -1
        else if hashes.(e) = h && eq reps.(e) j then e
        else find ((idx + 1) land mask)
      in
      find (h land mask)

let probe t cols n =
  let find = prober t cols in
  let out = Array.make n (-1) in
  for j = 0 to n - 1 do
    out.(j) <- find j
  done;
  out
