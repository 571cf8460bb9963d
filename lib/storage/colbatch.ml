(** A typed column batch: the columnar twin of a [Row.t array].

    Each column stores its cells in an unboxed typed array when every
    non-NULL cell shares one runtime type (int / float / string /
    bool), with NULLs tracked in a side bitmap (a [bool array]; masked
    slots hold an arbitrary placeholder). Columns mixing numeric types
    — or anything the classifier cannot pin down — fall back to a
    boxed [Value.t array] with NULLs stored inline.

    Columns are materialized {e lazily}: {!gather}, {!gather_pad},
    {!slice} and {!concat} record how to build each output column and
    only run the copy when the column is first read. A column a
    downstream operator never touches (an unused join attribute, say)
    is never gathered at all, and a gather of a still-unforced gather
    composes the two selection vectors into one — so a two-join
    pipeline pays a single gather per column it actually reads, from
    the original base arrays. Memo cells are [Atomic.t] because
    batches are shared across domains (chunk-parallel and distributed
    executors): a racy double force only duplicates pure work, never
    publishes a half-built column.

    Batches are still {e dense at rest} in the logical sense:
    selection vectors never escape a batch, and every forced column is
    a fresh dense array — laziness changes when the copy happens, not
    what it produces. *)

type data =
  | D_int of int array
  | D_float of float array
  | D_bool of bool array
  | D_str of string array
  | D_value of Value.t array  (** mixed/unknown; NULLs inline, no bitmap *)

type col = {
  data : data;
  nulls : bool array option;
      (** NULL bitmap for typed arrays; [None] means no NULLs (or
          [D_value], which carries them inline) *)
}

(** One lazily-materialized column. [src] says how to build it; [memo]
    caches the result. [S_gather] keeps enough structure for the force
    path to flatten gather-of-gather chains by composing selection
    vectors. *)
type cell = { memo : col option Atomic.t; src : src }

and src =
  | S_col of col  (** a column built eagerly ({!make}, {!of_rows}) *)
  | S_thunk of (unit -> col)  (** arbitrary pure builder *)
  | S_gather of cell * int array * bool
      (** [(base, sel, has_neg)]: pad-gather of another cell; [-1]
          entries in [sel] yield NULL cells *)

type t = {
  len : int;  (** row count; authoritative even at arity 0 *)
  cells : cell array;
}

let cell_of_col c = { memo = Atomic.make (Some c); src = S_col c }

let cell_of_thunk f = { memo = Atomic.make None; src = S_thunk f }

let length t = t.len
let arity t = Array.length t.cells
let make ~len cols = { len; cells = Array.map cell_of_col cols }

let data_length = function
  | D_int a -> Array.length a
  | D_float a -> Array.length a
  | D_bool a -> Array.length a
  | D_str a -> Array.length a
  | D_value a -> Array.length a

let is_null_at c i =
  match c.nulls with
  | Some m -> m.(i)
  | None -> ( match c.data with D_value a -> a.(i) = Value.Null | _ -> false)

(** Boxed read of one cell (NULL-aware). *)
let get c i =
  match c.nulls with
  | Some m when m.(i) -> Value.Null
  | _ -> (
    match c.data with
    | D_int a -> Value.Int a.(i)
    | D_float a -> Value.Float a.(i)
    | D_bool a -> Value.Bool a.(i)
    | D_str a -> Value.Str a.(i)
    | D_value a -> a.(i))

(* ------------------------------------------------------------------ *)
(* Gather primitives (over forced columns)                             *)

let gather_pad_col ~has_neg c (sel : int array) : col =
  let n = Array.length sel in
  match c.data with
  | D_value a ->
    {
      data =
        D_value
          (Array.map (fun i -> if i < 0 then Value.Null else a.(i)) sel);
      nulls = None;
    }
  | _ ->
    let mask =
      match c.nulls with
      | Some src ->
        let m = Array.make n false in
        for k = 0 to n - 1 do
          let i = sel.(k) in
          m.(k) <- i < 0 || src.(i)
        done;
        Some m
      | None ->
        if not has_neg then None
        else begin
          let m = Array.make n false in
          for k = 0 to n - 1 do
            m.(k) <- sel.(k) < 0
          done;
          Some m
        end
    in
    (* Seed with the pad placeholder, then overwrite real slots — one
       pass, no per-element closure. *)
    let pick : 'a. 'a array -> 'a -> 'a array =
     fun a fill ->
      let out = Array.make n fill in
      for k = 0 to n - 1 do
        let i = sel.(k) in
        if i >= 0 then out.(k) <- a.(i)
      done;
      out
    in
    let data =
      match c.data with
      | D_int a -> D_int (pick a 0)
      | D_float a -> D_float (pick a 0.0)
      | D_bool a -> D_bool (pick a false)
      | D_str a -> D_str (pick a "")
      | D_value _ -> assert false
    in
    { data; nulls = mask }

(** [compose inner outer] is the selection vector equivalent to
    gathering with [inner] and then with [outer]; a pad ([-1]) at
    either level stays a pad. Returns the vector and its has_neg. *)
let compose (inner : int array) (outer : int array) : int array * bool =
  let n = Array.length outer in
  let out = Array.make n 0 in
  let has_neg = ref false in
  for k = 0 to n - 1 do
    let i = outer.(k) in
    let j = if i < 0 then -1 else inner.(i) in
    if j < 0 then has_neg := true;
    out.(k) <- j
  done;
  (out, !has_neg)

(** Force a cell: run its builder and memoize. Unforced gather chains
    are flattened first — [gather sel2 (gather sel1 base)] becomes one
    [gather (compose sel1 sel2) base] — so intermediate join outputs
    are never materialized on behalf of downstream gathers. Safe to
    race from multiple domains: builders are pure, so a duplicate
    force just wastes the copy. *)
let rec force (cell : cell) : col =
  match Atomic.get cell.memo with
  | Some c -> c
  | None ->
    let c =
      match cell.src with
      | S_col c -> c
      | S_thunk f -> f ()
      | S_gather (base, sel, has_neg) -> resolve_gather base sel has_neg
    in
    Atomic.set cell.memo (Some c);
    c

and resolve_gather base sel has_neg : col =
  match Atomic.get base.memo with
  | Some bc -> gather_pad_col ~has_neg bc sel
  | None -> (
    match base.src with
    | S_gather (b2, s2, _) ->
      let sel', has_neg' = compose s2 sel in
      resolve_gather b2 sel' has_neg'
    | S_col _ | S_thunk _ -> gather_pad_col ~has_neg (force base) sel)

let col t i = force t.cells.(i)
let value_at t j i = get (col t j) i

(* ------------------------------------------------------------------ *)
(* Classification: Value array -> typed column                         *)

(** Classify a boxed column into the tightest typed representation.
    All-NULL columns stay boxed (there is no type to commit to — the
    "all-null column" edge case). Mixed Int/Float columns also stay
    boxed: packing an [Int] into a float array would erase its intness
    and break bit-identical results against the row engine. *)
let of_values (vals : Value.t array) : col =
  let n = Array.length vals in
  let ints = ref 0 and floats = ref 0 and strs = ref 0 in
  let bools = ref 0 and nulls = ref 0 in
  for i = 0 to n - 1 do
    match vals.(i) with
    | Value.Null -> incr nulls
    | Value.Int _ -> incr ints
    | Value.Float _ -> incr floats
    | Value.Str _ -> incr strs
    | Value.Bool _ -> incr bools
  done;
  let non_null = n - !nulls in
  let mask () =
    if !nulls = 0 then None
    else Some (Array.map (fun v -> v = Value.Null) vals)
  in
  if non_null = 0 then { data = D_value vals; nulls = None }
  else if !ints = non_null then
    {
      data =
        D_int
          (Array.map (function Value.Int i -> i | _ -> 0) vals);
      nulls = mask ();
    }
  else if !floats = non_null then
    {
      data =
        D_float
          (Array.map (function Value.Float f -> f | _ -> 0.0) vals);
      nulls = mask ();
    }
  else if !strs = non_null then
    {
      data =
        D_str (Array.map (function Value.Str s -> s | _ -> "") vals);
      nulls = mask ();
    }
  else if !bools = non_null then
    {
      data =
        D_bool
          (Array.map (function Value.Bool b -> b | _ -> false) vals);
      nulls = mask ();
    }
  else { data = D_value vals; nulls = None }

(** Untyped boxed column, no classification pass (used for operator
    outputs that are already known to be mixed). *)
let of_values_raw vals = { data = D_value vals; nulls = None }

let to_values c =
  let n = data_length c.data in
  Array.init n (fun i -> get c i)

(* ------------------------------------------------------------------ *)
(* Row conversion                                                      *)

let of_rows ~arity (rows : Row.t array) : t =
  let n = Array.length rows in
  let cells =
    Array.init arity (fun j ->
        cell_of_col (of_values (Array.init n (fun i -> rows.(i).(j)))))
  in
  { len = n; cells }

let to_rows t : Row.t array =
  let ar = arity t in
  let cols = Array.init ar (col t) in
  Array.init t.len (fun i -> Array.init ar (fun j -> get cols.(j) i))

(** A column holding [v] repeated [len] times (compiled literals). *)
let const v len : col =
  match (v : Value.t) with
  | Value.Int i -> { data = D_int (Array.make len i); nulls = None }
  | Value.Float f -> { data = D_float (Array.make len f); nulls = None }
  | Value.Str s -> { data = D_str (Array.make len s); nulls = None }
  | Value.Bool b -> { data = D_bool (Array.make len b); nulls = None }
  | Value.Null -> { data = D_value (Array.make len Value.Null); nulls = None }

(* ------------------------------------------------------------------ *)
(* Gather / slice / concat (lazy column plumbing)                      *)

let gather_cells t sel has_neg =
  {
    len = Array.length sel;
    cells =
      Array.map (fun cell -> { memo = Atomic.make None; src = S_gather (cell, sel, has_neg) }) t.cells;
  }

(** Dense gather: keep exactly the rows listed in [sel], in order.
    Columns materialize on first read. *)
let gather t (sel : int array) : t = gather_cells t sel false

(** Gather where a negative index produces an all-NULL cell — the
    outer-join padding path. [has_neg], when the caller already knows
    it, says whether [sel] holds any pad; otherwise [sel] is scanned.
    Columns materialize on first read. *)
let gather_pad ?has_neg t (sel : int array) : t =
  let has_neg =
    match has_neg with
    | Some b -> b
    | None -> Array.exists (fun i -> i < 0) sel
  in
  gather_cells t sel has_neg

(** Where columns [cols] of [t] come from, when each is a lazy gather
    through one chain of selection vectors over eagerly built root
    columns of one length. Returns [(root, sel)]: [root] has the roots'
    length, with the root of column [j] at index [j] for each [j] in
    [cols] (other indices hold unread all-NULL placeholders), and cell
    [i] of column [j] of [t] is cell [sel.(i)] of that root, or NULL
    where [sel.(i) = -1]. [sel] may be shared with [t]: never mutate
    it.

    Only [src] links are walked, never memo cells, so the answer
    depends on how [t] was built, not on which of its columns some
    reader already forced. [None] when [cols] is empty, when a column
    is no gather, when two chains differ at some level (selections are
    compared physically), when a root is a thunk (a {!slice}, a
    {!concat} or a deferred builder), or when the roots' lengths
    differ. *)
let gather_source t (cols : int list) : (t * int array) option =
  (* A cell's selections, innermost first, and its root column. *)
  let rec walk sels cell =
    match cell.src with
    | S_gather (base, sel, _) -> walk (sel :: sels) base
    | S_col c -> Some (sels, c)
    | S_thunk _ -> None
  in
  let walked = List.map (fun j -> (j, walk [] t.cells.(j))) cols in
  match walked with
  | (_, Some ((inner :: outer as sels), root0)) :: _ ->
    let len = data_length root0.data in
    let same = function
      | _, Some (s, r) -> List.equal ( == ) s sels && data_length r.data = len
      | _, None -> false
    in
    if not (List.for_all same walked) then None
    else begin
      let cells =
        Array.init (arity t) (fun _ ->
            cell_of_thunk (fun () -> const Value.Null len))
      in
      List.iter
        (function j, Some (_, r) -> cells.(j) <- cell_of_col r | _ -> ())
        walked;
      let sel = List.fold_left (fun acc s -> fst (compose acc s)) inner outer in
      Some ({ len; cells }, sel)
    end
  | _ -> None

let slice_col c lo len : col =
  let data =
    match c.data with
    | D_int a -> D_int (Array.sub a lo len)
    | D_float a -> D_float (Array.sub a lo len)
    | D_bool a -> D_bool (Array.sub a lo len)
    | D_str a -> D_str (Array.sub a lo len)
    | D_value a -> D_value (Array.sub a lo len)
  in
  { data; nulls = Option.map (fun m -> Array.sub m lo len) c.nulls }

(** [slice t lo len] — contiguous row range (returns [t] itself for
    the full range); column copies happen on first read. *)
let slice t lo len : t =
  if lo = 0 && len = t.len then t
  else
    {
      len;
      cells =
        Array.map
          (fun cell -> cell_of_thunk (fun () -> slice_col (force cell) lo len))
          t.cells;
    }

(** Side-by-side composition (join outputs): columns of [a] then [b];
    both must have equal length. Shares cells, copies nothing. *)
let hstack a b : t = { len = a.len; cells = Array.append a.cells b.cells }

let concat_masks parts lens total =
  if Array.for_all (fun (c : col) -> c.nulls = None) parts then None
  else begin
    let m = Array.make total false in
    let off = ref 0 in
    Array.iteri
      (fun k (c : col) ->
        (match c.nulls with
        | Some src -> Array.blit src 0 m !off lens.(k)
        | None -> ());
        off := !off + lens.(k))
      parts;
    Some m
  end

let concat_cols (parts : col array) (lens : int array) total : col =
  let same_kind =
    Array.length parts > 0
    &&
    let kind = function
      | D_int _ -> 0
      | D_float _ -> 1
      | D_bool _ -> 2
      | D_str _ -> 3
      | D_value _ -> 4
    in
    let k0 = kind parts.(0).data in
    Array.for_all (fun c -> kind c.data = k0) parts
  in
  if same_kind then begin
    let data =
      match parts.(0).data with
      | D_int _ ->
        D_int
          (Array.concat
             (Array.to_list
                (Array.map
                   (fun c ->
                     match c.data with D_int a -> a | _ -> assert false)
                   parts)))
      | D_float _ ->
        D_float
          (Array.concat
             (Array.to_list
                (Array.map
                   (fun c ->
                     match c.data with D_float a -> a | _ -> assert false)
                   parts)))
      | D_bool _ ->
        D_bool
          (Array.concat
             (Array.to_list
                (Array.map
                   (fun c ->
                     match c.data with D_bool a -> a | _ -> assert false)
                   parts)))
      | D_str _ ->
        D_str
          (Array.concat
             (Array.to_list
                (Array.map
                   (fun c ->
                     match c.data with D_str a -> a | _ -> assert false)
                   parts)))
      | D_value _ ->
        D_value
          (Array.concat
             (Array.to_list
                (Array.map
                   (fun c ->
                     match c.data with D_value a -> a | _ -> assert false)
                   parts)))
    in
    { data; nulls = concat_masks parts lens total }
  end
  else begin
    (* Chunks disagreed on representation (possible when a scalar
       fallback classified per chunk): box everything. *)
    let out = Array.make total Value.Null in
    let off = ref 0 in
    Array.iteri
      (fun k c ->
        for i = 0 to lens.(k) - 1 do
          out.(!off + i) <- get c i
        done;
        off := !off + lens.(k))
      parts;
    { data = D_value out; nulls = None }
  end

(** Vertical concatenation of chunk outputs. All batches must share one
    arity; representation mismatches between chunks degrade that column
    to boxed values. Columns materialize (forcing the chunk columns)
    on first read. *)
let concat (parts : t array) : t =
  match Array.length parts with
  | 0 -> { len = 0; cells = [||] }
  | 1 -> parts.(0)
  | _ ->
    let lens = Array.map (fun p -> p.len) parts in
    let total = Array.fold_left ( + ) 0 lens in
    let ar = arity parts.(0) in
    {
      len = total;
      cells =
        Array.init ar (fun j ->
            cell_of_thunk (fun () ->
                concat_cols
                  (Array.map (fun p -> col p j) parts)
                  lens total));
    }

(* ------------------------------------------------------------------ *)
(* Cell comparison (columnar diff fast paths)                          *)

let cell_equal (a : col) i (b : col) j =
  match (a.data, b.data) with
  | D_int xa, D_int xb ->
    let na = is_null_at a i and nb = is_null_at b j in
    if na || nb then na && nb else Int.equal xa.(i) xb.(j)
  | D_float xa, D_float xb ->
    let na = is_null_at a i and nb = is_null_at b j in
    if na || nb then na && nb else Float.compare xa.(i) xb.(j) = 0
  | D_str xa, D_str xb ->
    let na = is_null_at a i and nb = is_null_at b j in
    if na || nb then na && nb else String.equal xa.(i) xb.(j)
  | D_bool xa, D_bool xb ->
    let na = is_null_at a i and nb = is_null_at b j in
    if na || nb then na && nb else Bool.equal xa.(i) xb.(j)
  | _ -> Value.equal (get a i) (get b j)

(** Positional row equality across two batches of equal arity, under
    {!Value.equal} semantics (so [Int 1] equals [Float 1.0] even when
    the columns classified differently). *)
let rows_equal_at a i b j =
  let ar = arity a in
  let ok = ref true in
  let c = ref 0 in
  while !ok && !c < ar do
    if not (cell_equal (col a !c) i (col b !c) j) then ok := false;
    incr c
  done;
  !ok
