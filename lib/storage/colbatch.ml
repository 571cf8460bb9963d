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
    vectors. [id] is unique per cell, so a {!reuse} can recognize a
    base cell across calls without holding on to it. *)
type cell = { id : int; memo : col option Atomic.t; src : src }

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

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1
let cell_of_src memo src = { id = fresh_id (); memo = Atomic.make memo; src }
let cell_of_col c = cell_of_src (Some c) (S_col c)
let cell_of_thunk f = cell_of_src None (S_thunk f)
let gather_cell base sel has_neg =
  cell_of_src None (S_gather (base, sel, has_neg))

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
  | None -> ( match c.data with D_value a -> Value.is_null a.(i) | _ -> false)

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
let cols t = Array.map force t.cells
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
    if !nulls = 0 then None else Some (Array.map Value.is_null vals)
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
  let cs = cols t in
  Array.init t.len (fun i -> Array.map (fun c -> get c i) cs)

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
    cells = Array.map (fun cell -> gather_cell cell sel has_neg) t.cells;
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
    columns of one length. Returns [(root, sels)]: [root] has the
    roots' length, with the root of column [j] at index [j] for each
    [j] in [cols] (other indices hold unread all-NULL placeholders),
    and [sels] is the chain, innermost first — the physical vectors
    the gathers hold, so callers may compare them with [==] but must
    never mutate them.

    Only [src] links are walked, never memo cells, so the answer
    depends on how [t] was built, not on which of its columns some
    reader already forced. [None] when [cols] is empty, when a column
    is no gather, when two chains differ at some level (selections are
    compared physically), when a root is a thunk (a {!slice}, a
    {!concat} or a deferred builder), or when the roots' lengths
    differ. *)
let gather_chain t (cols : int list) : (t * int array list) option =
  (* A cell's selections, innermost first, and its root column. *)
  let rec walk sels cell =
    match cell.src with
    | S_gather (base, sel, _) -> walk (sel :: sels) base
    | S_col c -> Some (sels, c)
    | S_thunk _ -> None
  in
  let walked = List.map (fun j -> (j, walk [] t.cells.(j))) cols in
  match walked with
  | (_, Some ((_ :: _ as sels), root0)) :: _ ->
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
      Some ({ len; cells }, sels)
    end
  | _ -> None

(** The selection vector equivalent to gathering through [sels],
    innermost first (non-empty). A one-vector chain returns that
    vector itself. *)
let compose_chain = function
  | [] -> invalid_arg "Colbatch.compose_chain: empty chain"
  | inner :: outer ->
    List.fold_left (fun acc s -> fst (compose acc s)) inner outer

(* ------------------------------------------------------------------ *)
(* Gather reuse across calls                                           *)

(** What one gather site remembers of its previous call: the selection
    vector, the ids of the cells it gathered, and the output cells it
    keeps, by base id. Only ids are kept of the bases, so a base that
    dies (a per-iteration column) is not held alive. *)
type reuse = {
  ru_sel : int array;
  ru_seen : int array;
  ru_kept : (int * cell) list;
}

let no_reuse = { ru_sel = [||]; ru_seen = [||]; ru_kept = [] }

(** [gather_pad_reusing r ~has_neg t sel] is [gather_pad ~has_neg t
    sel] that hands back, for each column, the very cell of an earlier
    call when that call gathered the same base cell through the
    physically same [sel] — so a column forced once stays forced. An
    output cell is kept for the next call only when [sel] is the
    previous call's and its base was gathered by the previous call too
    (a base seen two calls running, such as a loop-invariant table's
    column); a base seen once is gathered afresh and not kept. Cells
    are immutable apart from their memo, and equal base and [sel] give
    an equal column, so the result is exactly [gather_pad]'s. *)
let gather_pad_reusing (r : reuse) ~has_neg t (sel : int array) : t * reuse =
  let same = r.ru_sel == sel in
  let kept = ref [] in
  let cells =
    Array.map
      (fun (base : cell) ->
        let reused =
          if same then List.assoc_opt base.id r.ru_kept else None
        in
        match reused with
        | Some c ->
          kept := (base.id, c) :: !kept;
          c
        | None ->
          let c = gather_cell base sel has_neg in
          if same && Array.mem base.id r.ru_seen then
            kept := (base.id, c) :: !kept;
          c)
      t.cells
  in
  ( { len = Array.length sel; cells },
    {
      ru_sel = sel;
      ru_seen = Array.map (fun (c : cell) -> c.id) t.cells;
      ru_kept = !kept;
    } )

let kept_cells r = List.length r.ru_kept

(** Whether two columns are the same int column cell for cell: both
    [D_int], with equal values and equal NULL masks (masked slots'
    placeholders included). Physically equal arrays answer at once;
    otherwise the comparison stops at the first difference. Any other
    representation answers [false]. *)
let same_int_column (a : col) (b : col) =
  (match (a.nulls, b.nulls) with
  | None, None -> true
  | Some m, Some m' -> m == m' || m = m'
  | _ -> false)
  &&
  match (a.data, b.data) with
  | D_int x, D_int y -> x == y || x = y
  | _ -> false

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
  (* Empty chunks contribute no cells, so their representation must not
     degrade the others'. *)
  let parts =
    match List.filter (fun p -> p.len > 0) (Array.to_list parts) with
    | [] when Array.length parts > 0 -> [| parts.(0) |]
    | nonempty -> Array.of_list nonempty
  in
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

let gather2_col (a : col) (b : col) la (sel : int array) : col =
  let nulls =
    match a.nulls, b.nulls with
    | None, None -> None
    | _ ->
      let m = Array.make (Array.length sel) false in
      Array.iteri
        (fun k i ->
          m.(k) <- (if i < la then is_null_at a i else is_null_at b (i - la)))
        sel;
      Some m
  in
  (* A gather over [xa ++ xb] without building it. *)
  let pick2 : 'a. 'a array -> 'a array -> 'a array =
   fun xa xb -> Array.map (fun i -> if i < la then xa.(i) else xb.(i - la)) sel
  in
  match a.data, b.data with
  | D_int xa, D_int xb -> { data = D_int (pick2 xa xb); nulls }
  | D_float xa, D_float xb -> { data = D_float (pick2 xa xb); nulls }
  | D_bool xa, D_bool xb -> { data = D_bool (pick2 xa xb); nulls }
  | D_str xa, D_str xb -> { data = D_str (pick2 xa xb); nulls }
  | _ ->
    (* Boxed, or kinds that differ ([concat] boxes them too). *)
    {
      data =
        D_value
          (Array.map (fun i -> if i < la then get a i else get b (i - la)) sel);
      nulls = None;
    }

(** [gather2 a b sel] is [gather (concat [| a; b |]) sel] without
    building the concatenation: index [i < length a] picks row [i] of
    [a], and [length a + j] picks row [j] of [b]. Unlike {!gather} it
    builds every column at once, so the result holds no reference to
    [a] or [b]: the semi-naive stitch gathers each iteration's output
    from the previous one, and lazy cells would keep every earlier
    version alive. *)
let gather2 a b (sel : int array) : t =
  let la = a.len in
  let col j =
    if b.len = 0 then gather_pad_col ~has_neg:false (force a.cells.(j)) sel
    else if la = 0 then gather_pad_col ~has_neg:false (force b.cells.(j)) sel
    else gather2_col (force a.cells.(j)) (force b.cells.(j)) la sel
  in
  make ~len:(Array.length sel) (Array.init (arity a) col)
