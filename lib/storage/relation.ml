(** An immutable materialized relation: a schema plus its tuples.

    All executor operators consume and produce relations; the paper's
    engine likewise materializes intermediate results of iterative CTEs
    (§IV: "iterative CTEs mostly materialize intermediate results").

    Since the columnar core landed, a relation holds its tuples in
    either (or both) of two interchangeable views: a [Row.t array] and
    a typed {!Colbatch.t}. Constructors install one view; the other is
    materialized lazily on first demand and then memoized, so a
    columnar pipeline never pays for rows it does not read and the
    row-view shim keeps every legacy consumer working unchanged. The
    memo cells are [Atomic.t] because distributed partitions share
    relations across domains: a racy double conversion only wastes
    work, never publishes a half-built array. *)

type t = {
  schema : Schema.t;
  card : int;
  rows_v : Row.t array option Atomic.t;
  cols_v : Colbatch.t option Atomic.t;
}

(* At least one view is always present; constructors guarantee it. *)

let make schema rows =
  Array.iter
    (fun r ->
      if Array.length r <> Schema.arity schema then
        invalid_arg
          (Printf.sprintf "Relation.make: row arity %d <> schema arity %d"
             (Array.length r) (Schema.arity schema)))
    rows;
  {
    schema;
    card = Array.length rows;
    rows_v = Atomic.make (Some rows);
    cols_v = Atomic.make None;
  }

(** Trusted constructor for operator outputs whose rows are built from
    already-validated relations: skips the O(n) per-row arity check of
    {!make}. External ingestion (CSV, DML, VALUES) must keep using
    {!make}. *)
let make_trusted schema rows =
  {
    schema;
    card = Array.length rows;
    rows_v = Atomic.make (Some rows);
    cols_v = Atomic.make None;
  }

(** Trusted columnar constructor: the batch's arity must match the
    schema's (operator outputs are built from validated inputs). *)
let of_batch schema batch =
  {
    schema;
    card = Colbatch.length batch;
    rows_v = Atomic.make None;
    cols_v = Atomic.make (Some batch);
  }

let of_lists schema rows = make schema (Array.of_list (List.map Row.of_list rows))
let empty schema = make_trusted schema [||]
let schema t = t.schema
let cardinality t = t.card
let is_empty t = t.card = 0

(** The row view, materializing (and memoizing) it from the columnar
    view on first use. *)
let rows t =
  match Atomic.get t.rows_v with
  | Some r -> r
  | None ->
    let r =
      match Atomic.get t.cols_v with
      | Some b -> Colbatch.to_rows b
      | None -> [||] (* unreachable: some view always exists *)
    in
    Atomic.set t.rows_v (Some r);
    r

(** The columnar view, converting (and memoizing) from rows on first
    use. *)
let columnar t =
  match Atomic.get t.cols_v with
  | Some b -> b
  | None ->
    let b =
      match Atomic.get t.rows_v with
      | Some r -> Colbatch.of_rows ~arity:(Schema.arity t.schema) r
      | None -> Colbatch.make ~len:0 [||]
    in
    Atomic.set t.cols_v (Some b);
    b

let iter f t = Array.iter f (rows t)
let fold f init t = Array.fold_left f init (rows t)

(** [column t name] extracts one column as a value array. *)
let column t name =
  let i = Schema.find_exn t.schema name in
  match Atomic.get t.cols_v with
  | Some b when Atomic.get t.rows_v = None -> Colbatch.to_values (Colbatch.col b i)
  | _ -> Array.map (fun r -> r.(i)) (rows t)

(** Structural equality as a {e bag} of rows (order-insensitive):
    relations are sets/bags in SQL, so tests compare with this. *)
let equal_bag a b =
  Schema.arity a.schema = Schema.arity b.schema
  && cardinality a = cardinality b
  &&
  let sa = Array.copy (rows a) and sb = Array.copy (rows b) in
  Array.sort Row.compare sa;
  Array.sort Row.compare sb;
  Array.for_all2 Row.equal sa sb

(* ------------------------------------------------------------------ *)
(* Versioned diffing (Delta termination + semi-naive evaluation)       *)

(** Row equality across the two versions' batches under
    {!Value.equal} ([prev] row [i] against [next] row [j]); rows of
    differing arity never match. *)
let rows_equal pb nb =
  if Colbatch.arity pb <> Colbatch.arity nb then fun _ _ -> false
  else Keyhash.row_equal (Colbatch.cols pb) (Colbatch.cols nb)

(** Positional fast path precondition: same cardinality and the same
    key sequence, position by position. Iterative loops keep key order
    stable, so this is the common case. *)
let keys_aligned ~key_idx pb nb =
  Colbatch.length pb = Colbatch.length nb
  &&
  let eq =
    Keyhash.row_equal
      [| Colbatch.col pb key_idx |]
      [| Colbatch.col nb key_idx |]
  in
  let n = Colbatch.length nb in
  let i = ref 0 in
  while !i < n && eq !i !i do
    incr i
  done;
  !i = n

(* The unaligned diff: both versions' keys numbered together under
   {!Value.equal}, so equal keys share a group across the versions.
   Returns each [prev] row's group, each [next] row's group, and the
   last [prev] row of every group ([-1] for keys only [next] has). *)
let key_groups ~key_idx pb nb =
  let np = Colbatch.length pb and nn = Colbatch.length nb in
  let key b =
    Colbatch.make ~len:(Colbatch.length b) [| Colbatch.col b key_idx |]
  in
  let keys = Colbatch.concat [| key pb; key nb |] in
  let t = Keyhash.build [| Colbatch.col keys 0 |] (np + nn) in
  let ids = Keyhash.ids t in
  let last = Array.make (Keyhash.groups t) (-1) in
  for r = 0 to np - 1 do
    last.(ids.(r)) <- r
  done;
  (Array.sub ids 0 np, Array.sub ids np nn, last)

(** Rows changed between two versions keyed by column [key_idx]; used
    by the Delta termination condition and by tests. Counts rows whose
    key is present in both but whose payload differs, plus rows present
    in only one side. *)
let delta_count ~key_idx (prev : t) (next : t) =
  let pb = columnar prev and nb = columnar next in
  let eq = rows_equal pb nb in
  let changed = ref 0 in
  if keys_aligned ~key_idx pb nb then begin
    (* Lockstep count: no hashing — this runs once per iteration over
       the whole CTE. *)
    for i = 0 to Colbatch.length nb - 1 do
      if not (eq i i) then incr changed
    done;
    !changed
  end
  else begin
    let _, next_ids, last = key_groups ~key_idx pb nb in
    let seen = ref 0 in
    Array.iteri
      (fun r g ->
        let old = last.(g) in
        if old >= 0 then begin
          incr seen;
          if not (eq old r) then incr changed
        end
        else incr changed)
      next_ids;
    (* Rows that vanished also count as changed. *)
    !changed + (Colbatch.length pb - !seen)
  end

(* A growable selection vector. *)
type sel_buf = { mutable buf : int array; mutable len : int }

let sel_buf () = { buf = Array.make 64 0; len = 0 }

let push sb i =
  if sb.len = Array.length sb.buf then begin
    let b = Array.make (2 * sb.len) 0 in
    Array.blit sb.buf 0 b 0 sb.len;
    sb.buf <- b
  end;
  sb.buf.(sb.len) <- i;
  sb.len <- sb.len + 1

let sel_of sb = Array.sub sb.buf 0 sb.len

(* The unaligned diff as a selection over [prev ++ next] (a [next] row
   [r] is index [np + r]): in [next] order, each row whose key is new
   or whose payload differs from the last [prev] row of its key,
   followed by that [prev] row; then, in [prev] order, the rows whose
   key [next] lacks. Stops with [None] once [cutoff] distinct keys
   changed. *)
let unaligned_changes ~key_idx ~cutoff pb nb =
  let np = Colbatch.length pb and nn = Colbatch.length nb in
  let eq = rows_equal pb nb in
  let prev_ids, next_ids, last = key_groups ~key_idx pb nb in
  let ng = Array.length last in
  let in_next = Array.make ng false and changed = Array.make ng false in
  let keys = ref 0 in
  let mark g =
    if not changed.(g) then begin
      changed.(g) <- true;
      incr keys
    end
  in
  let sb = sel_buf () in
  let r = ref 0 in
  while !keys < cutoff && !r < nn do
    let g = next_ids.(!r) in
    in_next.(g) <- true;
    let old = last.(g) in
    if old < 0 then begin
      mark g;
      push sb (np + !r)
    end
    else if not (eq old !r) then begin
      mark g;
      push sb (np + !r);
      push sb old
    end;
    incr r
  done;
  (* [in_next] is complete whenever this loop runs: the first one
     stopped early only at the cutoff. *)
  let r = ref 0 in
  while !keys < cutoff && !r < np do
    let g = prev_ids.(!r) in
    if not in_next.(g) then begin
      mark g;
      push sb !r
    end;
    incr r
  done;
  if !keys >= cutoff then None else Some (sel_of sb)

(* The aligned diff as a selection over [prev ++ next]: each differing
   position [i] as its [next] row then its [prev] row. Stops with
   [None] once [cutoff] positions differ. *)
let aligned_changes ~cutoff pb nb =
  let np = Colbatch.length pb in
  let eq = rows_equal pb nb in
  let sb = sel_buf () in
  let changed = ref 0 and i = ref 0 in
  while !changed < cutoff && !i < np do
    if not (eq !i !i) then begin
      incr changed;
      push sb (np + !i);
      push sb !i
    end;
    incr i
  done;
  if !changed >= cutoff then None else Some (sel_of sb)

(** [changed_rows_bounded ~key_idx ~cutoff prev next] is
    [Some (changed_rows prev next)] when fewer than [cutoff] distinct
    keys changed, and [None] otherwise. This is the semi-naive cutoff
    probe: the scan stops the moment the count reaches [cutoff], so
    PageRank-style full-churn iterations abandon the diff roughly
    halfway through. When the key sequence is stable (the steady state
    of an iterative loop, whose keys are unique per the executor's
    unique-key check), each differing position is one changed key and
    nothing is hashed. [cutoff] must be at least 1. *)
let changed_rows_bounded ~key_idx ~cutoff (prev : t) (next : t) =
  let pb = columnar prev and nb = columnar next in
  let sel =
    if keys_aligned ~key_idx pb nb then aligned_changes ~cutoff pb nb
    else unaligned_changes ~key_idx ~cutoff pb nb
  in
  Option.map (fun sel -> of_batch next.schema (Colbatch.gather2 pb nb sel)) sel

(** The rows behind {!delta_count}: every [next] row whose key is new or
    whose payload differs from [prev], plus the {e previous} version of
    changed and vanished keys. Returning both versions lets semi-naive
    evaluation chase join partners a changed row used to reach as well
    as the ones it reaches now. Schema is taken from [next]. The rows
    are one gather over the two versions' batches. *)
let changed_rows ~key_idx prev next =
  Option.get (changed_rows_bounded ~key_idx ~cutoff:max_int prev next)

let sorted t =
  let rs = Array.copy (rows t) in
  Array.sort Row.compare rs;
  make_trusted t.schema rs

let pp fmt t =
  Format.fprintf fmt "%a [%d rows]" Schema.pp t.schema (cardinality t);
  Array.iteri
    (fun i r -> if i < 20 then Format.fprintf fmt "@\n  %a" Row.pp r)
    (rows t);
  if cardinality t > 20 then Format.fprintf fmt "@\n  ..."

(** Render as an aligned ASCII table (CLI output). *)
let to_table_string ?(max_rows = 50) t =
  let headers = Array.of_list (Schema.column_names t.schema) in
  let shown = min max_rows (cardinality t) in
  let rs = rows t in
  let cells = Array.init shown (fun i -> Array.map Value.to_string rs.(i)) in
  let widths =
    Array.mapi
      (fun c h ->
        Array.fold_left (fun w row -> max w (String.length row.(c)))
          (String.length h) cells)
      headers
  in
  let buf = Buffer.create 256 in
  let line ch =
    Array.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) ch)) widths;
    Buffer.add_string buf "+\n"
  in
  let render row =
    Array.iteri
      (fun c cell ->
        Buffer.add_string buf (Printf.sprintf "| %-*s " widths.(c) cell))
      row;
    Buffer.add_string buf "|\n"
  in
  line '-';
  render headers;
  line '-';
  Array.iter render cells;
  line '-';
  if cardinality t > shown then
    Buffer.add_string buf
      (Printf.sprintf "(%d more rows)\n" (cardinality t - shown));
  Buffer.add_string buf (Printf.sprintf "(%d rows)\n" (cardinality t));
  Buffer.contents buf
