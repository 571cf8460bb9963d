(** Shared fixtures and Alcotest testables for the suite. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Column_type = Dbspinner_storage.Column_type
module Colbatch = Dbspinner_storage.Colbatch

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let row_testable : Row.t Alcotest.testable =
  Alcotest.testable Row.pp Row.equal

(** Relations compared as bags (order-insensitive). *)
let relation_testable : Relation.t Alcotest.testable =
  Alcotest.testable Relation.pp Relation.equal_bag

let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.Str s
let vb b = Value.Bool b
let vnull = Value.Null

(** Shorthand relation constructor from column names and value rows. *)
let rel names rows : Relation.t =
  Relation.of_lists (Schema.of_names names) rows

(** Engine preloaded with a tiny, hand-checkable 4-node graph:
    1->2 (1.0), 2->3 (2.0), 3->1 (3.0), 1->3 (4.0), 4->1 (0.5).
    Node degrees and shortest paths are easy to verify by hand. *)
let tiny_graph_engine () =
  let engine = Dbspinner.Engine.create () in
  (match
     Dbspinner.Engine.execute engine
       "CREATE TABLE edges (src INT, dst INT, weight FLOAT)"
   with
  | Dbspinner.Engine.Executed -> ()
  | _ -> failwith "setup failed");
  (match
     Dbspinner.Engine.execute engine
       "INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 2.0), (3, 1, 3.0), (1, \
        3, 4.0), (4, 1, 0.5)"
   with
  | Dbspinner.Engine.Affected 5 -> ()
  | _ -> failwith "setup failed");
  engine

(** Engine with a small people/orders pair of tables for join tests. *)
let shop_engine () =
  let engine = Dbspinner.Engine.create () in
  ignore
    (Dbspinner.Engine.execute engine
       "CREATE TABLE people (id INT PRIMARY KEY, name VARCHAR, age INT)");
  ignore
    (Dbspinner.Engine.execute engine
       "INSERT INTO people VALUES (1, 'ada', 36), (2, 'bob', 25), (3, 'cy', \
        52), (4, 'dee', 25)");
  ignore
    (Dbspinner.Engine.execute engine
       "CREATE TABLE orders (id INT PRIMARY KEY, person_id INT, total FLOAT)");
  ignore
    (Dbspinner.Engine.execute engine
       "INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.5), (12, 2, 3.0), \
        (13, 9, 1.0)");
  engine

let query engine sql = Dbspinner.Engine.query engine sql

(** Assert that a query returns the expected bag of rows. *)
let check_query ?(msg = "query result") engine sql expected_names expected_rows
    =
  Alcotest.check relation_testable msg
    (rel expected_names expected_rows)
    (query engine sql)

(** Bag equality with relative numeric tolerance — for comparing plans
    that legitimately reorder float additions (join reordering,
    distributed aggregation). Rows are canonically sorted first. *)
let approx_equal_bag ?(tolerance = 1e-9) a b =
  let close x y =
    Float.abs (x -. y) <= tolerance *. (1.0 +. Float.abs x +. Float.abs y)
  in
  Relation.cardinality a = Relation.cardinality b
  &&
  let sa = Relation.sorted a and sb = Relation.sorted b in
  Array.for_all2
    (fun (ra : Row.t) rb ->
      Array.for_all2
        (fun va vb ->
          match (va : Value.t), (vb : Value.t) with
          | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
            close (Value.to_float va) (Value.to_float vb)
          | _ -> Value.equal va vb)
        ra rb)
    (Relation.rows sa) (Relation.rows sb)

(** Index of the first occurrence of [needle] in [haystack]
    (case-sensitive), or [None]. *)
let find_substring haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > hn then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then Some 0 else go 0

let contains haystack needle =
  let h = String.lowercase_ascii haystack and n = String.lowercase_ascii needle in
  let hn = String.length h and nn = String.length n in
  let rec go i = i + nn <= hn && (String.sub h i nn = n || go (i + 1)) in
  nn = 0 || go 0

(** Assert that evaluating [sql] raises an engine error whose message
    contains [substring]. *)
let check_error ?(substring = "") engine sql =
  match Dbspinner.Engine.execute engine sql with
  | _ -> Alcotest.failf "expected an error for: %s" sql
  | exception Dbspinner.Errors.Error (_, msg) ->
    if substring <> "" && not (contains msg substring) then
      Alcotest.failf "error message %S does not mention %S" msg substring

(* ------------------------------------------------------------------ *)
(* The kv fixture: iterative loops over t (a, b) with a naive oracle   *)

(** Engine holding [t (a INT, b INT)] filled with [rows]; a [None]
    [b] is a NULL. *)
let kv_engine_nullable rows =
  let e = Dbspinner.Engine.create () in
  ignore (Dbspinner.Engine.execute e "CREATE TABLE t (a INT, b INT)");
  if rows <> [] then
    ignore
      (Dbspinner.Engine.execute e
         (Printf.sprintf "INSERT INTO t VALUES %s"
            (String.concat ", "
               (List.map
                  (fun (a, b) ->
                    Printf.sprintf "(%d, %s)" a
                      (Option.fold ~none:"NULL" ~some:string_of_int b))
                  rows))));
  e

let kv_engine rows =
  kv_engine_nullable (List.map (fun (a, b) -> (a, Some b)) rows)

(** An iterative loop over [t]: R0 is the MIN of [b] per [a]; each
    round maps every row (or, with [where], the rows it selects) to
    [key_expr, step_expr]. A [key_expr] other than [k] keeps the loop
    out of semi-naive evaluation, so it re-evaluates in full. *)
let kv_sql ?(key_expr = "k") ?(where = "") ~step_expr ~until () =
  Printf.sprintf
    {|WITH ITERATIVE r (k, v) AS (
  SELECT a, MIN(b) FROM t WHERE a IS NOT NULL GROUP BY a
ITERATE SELECT %s, %s FROM r%s
UNTIL %s )
SELECT k, v FROM r|}
    key_expr step_expr
    (if where = "" then "" else " WHERE " ^ where)
    until

(** Naive reference for [kv_sql] over NULL-free rows, written without
    the engine: R0 is the MIN of [b] per [a]; each round applies [step]
    to the rows that pass [where] (the merge path) or to every row when
    there is no WHERE clause (the full update), keeping the old value
    elsewhere. *)
let kv_reference rows ~step ~where ~rounds =
  let r0 =
    List.fold_left
      (fun acc (a, b) ->
        match List.assoc_opt a acc with
        | Some m when m <= b -> acc
        | _ -> (a, b) :: List.remove_assoc a acc)
      [] rows
  in
  let round r =
    List.map
      (fun (k, v) ->
        match where with
        | Some keep when not (keep k v) -> (k, v)
        | _ -> (k, step k v))
      r
  in
  let rec go n r = if n = 0 then r else go (n - 1) (round r) in
  rel [ "k"; "v" ] (List.map (fun (k, v) -> [ vi k; vi v ]) (go rounds r0))

(** Cell identity, stricter than {!Value.equal}: the constructor must
    match (Int 3 is not Float 3.0) and floats compare by bits, so -0.0
    and 0.0 differ; NaNs are one value. *)
let same_value (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Float x, Value.Float y ->
    (Float.is_nan x && Float.is_nan y)
    || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

(** Row equality under {!Value.equal}, the engine's key equality. *)
let row_eq (a : Value.t array) b =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

let same_rows (a : Value.t array list) (b : Value.t array list) =
  List.length a = List.length b
  && List.for_all2
       (fun r s -> Array.length r = Array.length s && Array.for_all2 same_value r s)
       a b

let show_rows rows =
  String.concat "\n"
    (List.map
       (fun r -> String.concat " | " (Array.to_list (Array.map Value.to_string r)))
       rows)

(** How a test relation holds its cells: typed columns (classified, so
    NULLs are masked), boxed columns (NULLs inline), or rows only. *)
type form = Typed | Boxed | Rows

let forms = [ Typed; Boxed; Rows ]

let form_label = function Typed -> "typed" | Boxed -> "boxed" | Rows -> "rows"

let relation_of form arity (rows : Value.t array list) =
  let schema = Schema.of_names (List.init arity (Printf.sprintf "c%d")) in
  let rows = Array.of_list rows in
  match form with
  | Rows -> Relation.make schema rows
  | Typed | Boxed ->
    let col j =
      let vals = Array.map (fun r -> r.(j)) rows in
      if form = Typed then Colbatch.of_values vals else Colbatch.of_values_raw vals
    in
    Relation.of_batch schema
      (Colbatch.make ~len:(Array.length rows) (Array.init arity col))
