(** Vectorized columnar execution: the columnar engine must be
    bit-identical to the row engine — same relations, same
    [Stats.logical_equal] counters — across the sequential,
    chunk-parallel, cached, delta and distributed executors, including
    the NULL-heavy corners the column bitmaps encode (all-NULL
    columns, NULL join keys, NULLs inside aggregates). *)

module Engine = Dbspinner.Engine
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Parser = Dbspinner_sql.Parser
module Catalog = Dbspinner_storage.Catalog
module Relation = Dbspinner_storage.Relation
module Table = Dbspinner_storage.Table
module Value = Dbspinner_storage.Value
module Colbatch = Dbspinner_storage.Colbatch
module Stats = Dbspinner_exec.Stats
module Operators = Dbspinner_exec.Operators
module Cache = Dbspinner_exec.Cache
module Schema = Dbspinner_storage.Schema
module Logical = Dbspinner_plan.Logical
module Bound_expr = Dbspinner_plan.Bound_expr
module Ast = Dbspinner_sql.Ast
module Executor = Dbspinner_exec.Executor
module Parallel = Dbspinner_exec.Parallel
module Distributed = Dbspinner_mpp.Distributed
module Graph_gen = Dbspinner_graph.Graph_gen
module Loader = Dbspinner_workload.Loader
module Queries = Dbspinner_workload.Queries
open Helpers

let delta_off = { Options.default with Options.use_delta = false }

let lookup e name =
  Option.map Table.schema (Catalog.find_table_opt (Engine.catalog e) name)

let compile ?(options = Options.default) e sql =
  Iterative_rewrite.compile ~options ~lookup:(lookup e)
    (Parser.parse_query sql)

(** Run on a clean temp namespace with fresh stats. *)
let run ?parallel ?use_cache ~columnar e program =
  Catalog.clear_temps (Engine.catalog e);
  Executor.run_program_with_stats ?parallel ?use_cache ~columnar
    (Engine.catalog e) program

(** The core contract, asserted everywhere below: same rows, same
    logical counters, with the columnar toggle the only difference. *)
let check_modes ?options ~msg e sql =
  let p = compile ?options e sql in
  let r_row, s_row = run ~columnar:false e p in
  let r_col, s_col = run ~columnar:true e p in
  Alcotest.check relation_testable (msg ^ ": rows") r_row r_col;
  Alcotest.(check bool)
    (msg ^ ": logical_equal") true
    (Stats.logical_equal s_row s_col);
  r_col

(* ------------------------------------------------------------------ *)
(* Colbatch unit tests: the bitmap corners, independent of SQL         *)

let test_colbatch_all_null () =
  let c = Colbatch.of_values [| Value.Null; Value.Null; Value.Null |] in
  for i = 0 to 2 do
    Alcotest.(check bool) "is_null_at" true (Colbatch.is_null_at c i);
    Alcotest.check value_testable "get" Value.Null (Colbatch.get c i)
  done;
  Alcotest.(check int) "roundtrip width" 3
    (Array.length (Colbatch.to_values c))

let test_colbatch_masked_roundtrip () =
  (* Int-with-NULLs classifies to a typed column with a bitmap; the
     boxed view must reproduce the original values exactly. *)
  let vals = [| Value.Int 4; Value.Null; Value.Int (-7); Value.Null |] in
  let c = Colbatch.of_values vals in
  Array.iteri
    (fun i v -> Alcotest.check value_testable "cell" v (Colbatch.get c i))
    vals;
  Alcotest.(check bool) "masked" true (Colbatch.is_null_at c 1);
  Alcotest.(check bool) "unmasked" false (Colbatch.is_null_at c 2)

let test_colbatch_gather_pad () =
  let b =
    Colbatch.make ~len:3
      [| Colbatch.of_values [| Value.Int 1; Value.Int 2; Value.Int 3 |];
         Colbatch.of_values [| Value.Str "a"; Value.Null; Value.Str "c" |]
      |]
  in
  (* -1 is the outer-join pad: an all-NULL row. *)
  let g = Colbatch.gather_pad b [| 2; -1; 1; -1 |] in
  Alcotest.(check int) "length" 4 (Colbatch.length g);
  Alcotest.check value_testable "picked int" (Value.Int 3)
    (Colbatch.value_at g 0 0);
  Alcotest.check value_testable "pad int" Value.Null (Colbatch.value_at g 0 1);
  Alcotest.check value_testable "pad str" Value.Null (Colbatch.value_at g 1 3);
  Alcotest.check value_testable "carried null" Value.Null
    (Colbatch.value_at g 1 2);
  Alcotest.check value_testable "picked str" (Value.Str "c")
    (Colbatch.value_at g 1 0)

let test_colbatch_gather_of_gather () =
  (* A gather of an unforced gather composes selection vectors; the
     values must match gathering twice eagerly. *)
  let base =
    Colbatch.make ~len:5
      [| Colbatch.of_values
           [| Value.Int 10; Value.Int 11; Value.Int 12; Value.Int 13;
              Value.Int 14
           |]
      |]
  in
  let g1 = Colbatch.gather base [| 4; 2; 0; 2 |] in
  let g2 = Colbatch.gather_pad g1 [| 3; -1; 0 |] in
  Alcotest.check value_testable "composed pick" (Value.Int 12)
    (Colbatch.value_at g2 0 0);
  Alcotest.check value_testable "composed pad" Value.Null
    (Colbatch.value_at g2 0 1);
  Alcotest.check value_testable "composed head" (Value.Int 14)
    (Colbatch.value_at g2 0 2)

(** {!Colbatch.gather_chain} with the chain composed: the root, and the
    selection taking each row of [b] to its root row (-1 = pad). *)
let gather_source b cols =
  Option.map
    (fun (root, chain) -> (root, Colbatch.compose_chain chain))
    (Colbatch.gather_chain b cols)

(* [gather_source] against the gathers themselves: cell [i] of each
   named column is the root's cell [sel.(i)], or NULL at a pad. *)
let check_source ~msg b cols =
  match gather_source b cols with
  | None -> Alcotest.failf "%s: no source" msg
  | Some (root, sel) ->
    Alcotest.(check int) (msg ^ ": selection length") (Colbatch.length b)
      (Array.length sel);
    List.iter
      (fun j ->
        Array.iteri
          (fun i s ->
            Alcotest.check value_testable
              (Printf.sprintf "%s: column %d row %d" msg j i)
              (Colbatch.value_at b j i)
              (if s < 0 then Value.Null else Colbatch.value_at root j s))
          sel)
      cols;
    (root, sel)

let source_root () =
  Colbatch.make ~len:5
    [| Colbatch.of_values [| vi 10; vi 11; vnull; vi 13; vi 14 |];
       Colbatch.of_values_raw [| vs "a"; vf 1.5; vi 2; vnull; vs "e" |];
       Colbatch.of_values [| vf 0.5; vf 1.5; vf 2.5; vf 3.5; vf 4.5 |] |]

let test_gather_source_selection () =
  let root = source_root () in
  let g1 = Colbatch.gather_pad root [| 4; -1; 2; 0; 2 |] in
  let _, sel = check_source ~msg:"one level" g1 [ 0; 1; 2 ] in
  Alcotest.(check (array int)) "one level selection" [| 4; -1; 2; 0; 2 |] sel;
  (* A join puts another batch beside [g1]; a filter gathers again. *)
  let other =
    Colbatch.make ~len:5 [| Colbatch.of_values (Array.make 5 (vi 0)) |]
  in
  let g2 =
    Colbatch.gather_pad (Colbatch.hstack g1 other) [| 0; 4; -1; 1; 3; 3 |]
  in
  let g3 = Colbatch.gather g2 [| 5; 0; 2; 3 |] in
  let _, sel = check_source ~msg:"three levels" g3 [ 0; 2 ] in
  Alcotest.(check (array int)) "composed selection" [| 0; 4; -1; -1 |] sel;
  let _, sel = check_source ~msg:"beside" g2 [ 3 ] in
  Alcotest.(check (array int)) "the other side's chain"
    [| 0; 4; -1; 1; 3; 3 |] sel

let test_gather_source_none () =
  let root = source_root () in
  let none msg b cols =
    Alcotest.(check bool) msg true
      (Option.is_none (gather_source b cols))
  in
  let sel = [| 1; 0; -1 |] in
  none "no columns" (Colbatch.gather root sel) [];
  none "no gather" root [ 0 ];
  let a = Colbatch.gather_pad root sel in
  let b = Colbatch.gather_pad root (Array.copy sel) in
  none "equal but distinct selections" (Colbatch.hstack a b) [ 0; 3 ];
  let deeper =
    Colbatch.gather (Colbatch.gather root [| 0; 1; 2 |]) [| 0; 1; 2 |]
  in
  none "chains of unequal depth" (Colbatch.hstack a deeper) [ 1; 3 ];
  none "slice root" (Colbatch.gather_pad (Colbatch.slice root 1 3) sel) [ 0 ];
  none "concat root"
    (Colbatch.gather_pad (Colbatch.concat [| root; root |]) sel) [ 0 ];
  let short = Colbatch.make ~len:2 [| Colbatch.of_values [| vi 1; vi 2 |] |] in
  let shared = [| 1; -1 |] in
  none "roots of unequal length"
    (Colbatch.hstack (Colbatch.gather_pad root shared)
       (Colbatch.gather_pad short shared))
    [ 0; 3 ]

let test_gather_source_forced () =
  (* Forcing columns, or the intermediate gather they compose through,
     memoizes them; the answer must not move. *)
  let build () =
    let root = source_root () in
    let g1 = Colbatch.gather_pad root [| 3; -1; 1; 1 |] in
    let g2 = Colbatch.gather_pad g1 [| 2; 0; 1; 2; -1 |] in
    let mixed =
      Colbatch.hstack g2 (Colbatch.gather_pad g1 [| 0; 0; 0; 0; 0 |])
    in
    (g1, g2, mixed)
  in
  let answer b cols =
    Option.map (fun (r, sel) -> (Colbatch.length r, sel))
      (gather_source b cols)
  in
  let _, g2, mixed = build () in
  let lazy_g2 = answer g2 [ 0; 1 ] and lazy_mixed = answer mixed [ 0; 3 ] in
  let g1, g2, mixed = build () in
  for j = 0 to 2 do
    ignore (Colbatch.col g1 j);
    ignore (Colbatch.col g2 j);
    ignore (Colbatch.col mixed (j + 3))
  done;
  Alcotest.(check (option (pair int (array int)))) "same source" lazy_g2
    (answer g2 [ 0; 1 ]);
  Alcotest.(check (option (pair int (array int)))) "same fallback" lazy_mixed
    (answer mixed [ 0; 3 ]);
  Alcotest.(check bool) "found" true (Option.is_some lazy_g2);
  Alcotest.(check bool) "not found" true (Option.is_none lazy_mixed);
  ignore (check_source ~msg:"forced" g2 [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* NULL semantics through SQL, row vs columnar                         *)

let null_engine () =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE t (k INT, v INT)");
  ignore
    (Engine.execute e
       "INSERT INTO t VALUES (1, 10), (1, NULL), (2, NULL), (NULL, 5), (2, \
        20), (NULL, NULL), (3, NULL)");
  ignore (Engine.execute e "CREATE TABLE u (k INT, w INT)");
  ignore
    (Engine.execute e
       "INSERT INTO u VALUES (1, 100), (NULL, 200), (2, 300), (2, NULL)");
  e

let test_all_null_column () =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE a (x INT, y INT)");
  ignore
    (Engine.execute e "INSERT INTO a VALUES (1, NULL), (2, NULL), (3, NULL)");
  let r =
    check_modes ~msg:"all-null projection" e
      "SELECT y, x + 1 FROM a WHERE y IS NULL"
  in
  Alcotest.(check int) "all rows kept" 3 (Relation.cardinality r);
  let r =
    check_modes ~msg:"all-null aggregate" e
      "SELECT COUNT(y), SUM(y), MIN(y) FROM a"
  in
  Alcotest.check row_testable "count 0, sums NULL"
    [| Value.Int 0; Value.Null; Value.Null |]
    (Relation.rows r).(0)

let test_null_join_keys () =
  let e = null_engine () in
  (* NULL keys match nothing on either side. *)
  let r =
    check_modes ~msg:"inner join" e
      "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.k"
  in
  Array.iter
    (fun (row : Dbspinner_storage.Row.t) ->
      Alcotest.(check bool) "no NULL key survives an inner join" false
        (Value.is_null row.(0)))
    (Relation.rows r);
  ignore
    (check_modes ~msg:"left join pads NULL keys" e
       "SELECT t.k, u.w FROM t LEFT JOIN u ON t.k = u.k");
  ignore
    (check_modes ~msg:"right join" e
       "SELECT t.k, u.k, u.w FROM t RIGHT JOIN u ON t.k = u.k");
  ignore
    (check_modes ~msg:"full join" e
       "SELECT t.k, u.k FROM t FULL OUTER JOIN u ON t.k = u.k")

let test_null_aggregates () =
  let e = null_engine () in
  let r =
    check_modes ~msg:"grouped aggregates over NULLs" e
      "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t \
       GROUP BY k"
  in
  (* Group k=3 has only NULL v: COUNT(v)=0 and every fold is NULL. *)
  let found = ref false in
  Array.iter
    (fun (row : Dbspinner_storage.Row.t) ->
      if Value.equal row.(0) (Value.Int 3) then begin
        found := true;
        Alcotest.check row_testable "k=3 group"
          [| Value.Int 3; Value.Int 1; Value.Int 0; Value.Null; Value.Null;
             Value.Null; Value.Null
          |]
          row
      end)
    (Relation.rows r);
  Alcotest.(check bool) "k=3 group present" true !found

(* ------------------------------------------------------------------ *)
(* Grouping oracle: the columnar aggregate against a naive reference   *)

(** Naive list-based GROUP BY over column positions: groups by
    {!Value.equal} in first-appearance order, keeps each group's
    first-seen key, and folds each aggregate's non-NULL inputs in row
    order ([Value.add] sums, strict-compare MIN/MAX, DISTINCT keeps the
    first of equal values). A global aggregate over no rows has one
    group. *)
let naive_aggregate ~keys ~aggs (rows : Value.t array list) : Value.t array list
    =
  let groups = ref [] in
  List.iter
    (fun row ->
      let key = List.map (fun k -> row.(k)) keys in
      match
        List.find_opt (fun (k, _) -> List.for_all2 Value.equal k key) !groups
      with
      | Some (_, members) -> members := row :: !members
      | None -> groups := (key, ref [ row ]) :: !groups)
    rows;
  let groups =
    match List.rev !groups with
    | [] when keys = [] -> [ ([], ref []) ]
    | gs -> gs
  in
  let fold (kind, distinct, arg) members =
    let vals =
      List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> r.(arg)) members)
    in
    let vals =
      if not distinct then vals
      else
        List.rev
          (List.fold_left
             (fun seen v -> if List.exists (Value.equal v) seen then seen else v :: seen)
             [] vals)
    in
    let pick better = function
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun m x -> if better x m then x else m) v rest
    in
    let sum = function
      | [] -> Value.Null
      | v :: rest -> List.fold_left Value.add v rest
    in
    match (kind : Ast.agg_kind) with
    | Ast.Count_star -> Value.Int (List.length members)
    | Ast.Count -> Value.Int (List.length vals)
    | Ast.Sum -> sum vals
    | Ast.Min -> pick (fun x m -> Value.compare x m < 0) vals
    | Ast.Max -> pick (fun x m -> Value.compare x m > 0) vals
    | Ast.Avg ->
      if vals = [] then Value.Null
      else
        Value.Float
          (Value.to_float (sum vals) /. float_of_int (List.length vals))
  in
  List.map
    (fun (key, members) ->
      let members = List.rev !members in
      Array.of_list (key @ List.map (fun a -> fold a members) aggs))
    groups

(** Cell identity, stricter than {!Value.equal}: the constructor must
    match (Int 3 is not Float 3.0) and floats compare by bits, so -0.0
    and 0.0 differ; NaNs are one value. *)
let same_value (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Float x, Value.Float y ->
    (Float.is_nan x && Float.is_nan y)
    || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

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

(** Run the columnar aggregate over explicit columns (their
    representation — typed, masked or boxed — is the caller's) and the
    naive reference over the same cells. *)
let columnar_rows ~(keys : Bound_expr.t list) ~aggs batch =
  let input =
    Relation.of_batch
      (Schema.of_names
         (List.init (Colbatch.arity batch) (Printf.sprintf "c%d")))
      batch
  in
  let out_schema =
    Schema.of_names
      (List.init (List.length keys + List.length aggs) (Printf.sprintf "o%d"))
  in
  let got =
    Operators.aggregate ~columnar:true ~stats:(Stats.create ()) ~keys
      ~aggs:
        (List.map
           (fun (kind, distinct, arg) ->
             {
               Logical.agg_kind = kind;
               agg_distinct = distinct;
               agg_arg = Bound_expr.B_col arg;
             })
           aggs)
      input out_schema
  in
  Array.to_list (Relation.rows got)

let oracle_pair ~keys ~aggs (cols : Colbatch.col array) n =
  let got =
    columnar_rows
      ~keys:(List.map (fun k -> Bound_expr.B_col k) keys)
      ~aggs (Colbatch.make ~len:n cols)
  in
  let rows = List.init n (fun i -> Array.map (fun c -> Colbatch.get c i) cols) in
  (got, naive_aggregate ~keys ~aggs rows)

let check_oracle ~msg ?expect ~keys ~aggs cols n =
  let got, want = oracle_pair ~keys ~aggs cols n in
  if not (same_rows got want) then
    Alcotest.failf "%s: columnar\n%s\nreference\n%s" msg (show_rows got)
      (show_rows want);
  Option.iter
    (fun e ->
      if not (same_rows got e) then
        Alcotest.failf "%s: got\n%s\nexpected\n%s" msg (show_rows got)
          (show_rows e))
    expect

let boxed vals = Colbatch.of_values_raw vals

let test_oracle_mixed_key () =
  (* Int 3 and Float 3.0 are one group; the first-seen cell is the
     emitted key, whichever type it has. *)
  let k = boxed [| vi 3; vf 3.0; vi 1; vf 1.0; vf 3.0; vf 2.5 |] in
  let v = Colbatch.of_values [| vi 10; vi 20; vi 30; vi 40; vi 50; vi 60 |] in
  check_oracle ~msg:"int first"
    ~expect:
      [ [| vi 3; vi 3; vi 80 |]; [| vi 1; vi 2; vi 70 |]; [| vf 2.5; vi 1; vi 60 |] ]
    ~keys:[ 0 ]
    ~aggs:[ (Ast.Count_star, false, 0); (Ast.Sum, false, 1) ]
    [| k; v |] 6;
  let k = boxed [| vf 3.0; vi 3; vi 7 |] in
  check_oracle ~msg:"float first"
    ~expect:[ [| vf 3.0; vi 2 |]; [| vi 7; vi 1 |] ]
    ~keys:[ 0 ] ~aggs:[ (Ast.Count_star, false, 0) ]
    [| k |] 3

let test_oracle_null_keys () =
  (* Masked NULLs (typed column) and inline NULLs (boxed column) each
     form one group, distinct from every value. *)
  let masked = Colbatch.of_values [| vnull; vi 0; vnull; vi 0; vi 5 |] in
  Alcotest.(check bool) "typed with mask" true (masked.Colbatch.nulls <> None);
  let inline = boxed [| vi 0; vnull; vf 0.0; vnull; vs "x" |] in
  let v = Colbatch.of_values [| vi 1; vi 2; vi 3; vi 4; vi 5 |] in
  let aggs = [ (Ast.Count_star, false, 0); (Ast.Sum, false, 2) ] in
  check_oracle ~msg:"masked"
    ~expect:[ [| vnull; vi 2; vi 4 |]; [| vi 0; vi 2; vi 6 |]; [| vi 5; vi 1; vi 5 |] ]
    ~keys:[ 0 ] ~aggs [| masked; inline; v |] 5;
  check_oracle ~msg:"inline"
    ~expect:[ [| vi 0; vi 2; vi 4 |]; [| vnull; vi 2; vi 6 |]; [| vs "x"; vi 1; vi 5 |] ]
    ~keys:[ 1 ] ~aggs [| masked; inline; v |] 5;
  check_oracle ~msg:"masked and inline together" ~keys:[ 0; 1 ] ~aggs
    [| masked; inline; v |] 5

let test_oracle_float_keys () =
  (* All NaNs are one key; -0.0 and 0.0 are one key, emitted as the
     first seen. *)
  let k =
    Colbatch.of_values
      [| vf Float.nan; vf (-0.0); vf 1.0; vf 0.0; vf (-.Float.nan); vf 1.0 |]
  in
  let v = Colbatch.of_values [| vf 0.5; vf 1.5; vf 2.5; vf 3.5; vf 4.5; vf (-0.0) |] in
  check_oracle ~msg:"nan and zeros"
    ~expect:
      [ [| vf Float.nan; vi 2; vf 5.0; vf 0.5 |];
        [| vf (-0.0); vi 2; vf 5.0; vf 1.5 |];
        [| vf 1.0; vi 2; vf 2.5; vf (-0.0) |] ]
    ~keys:[ 0 ]
    ~aggs:[ (Ast.Count_star, false, 0); (Ast.Sum, false, 1); (Ast.Min, false, 1) ]
    [| k; v |] 6;
  (* The same keys boxed, mixed with an Int 0 that joins the zero
     group. *)
  let kb = boxed [| vf 0.0; vi 0; vf (-0.0); vf Float.nan; vf Float.nan |] in
  check_oracle ~msg:"boxed zeros"
    ~expect:[ [| vf 0.0; vi 3 |]; [| vf Float.nan; vi 2 |] ]
    ~keys:[ 0 ] ~aggs:[ (Ast.Count_star, false, 0) ]
    [| kb |] 5

let test_oracle_three_keys () =
  let a = Colbatch.of_values [| vi 1; vi 1; vi 1; vi 2; vi 1; vi 1 |] in
  let b = Colbatch.of_values [| vs "x"; vs "y"; vs "x"; vs "x"; vs "x"; vs "y" |] in
  let c = boxed [| vi 5; vf 5.0; vf 5.0; vi 5; vnull; vi 6 |] in
  let v = Colbatch.of_values [| vf 1.0; vf 2.0; vf 3.0; vf 4.0; vf 5.0; vnull |] in
  check_oracle ~msg:"three keys"
    ~expect:
      [ [| vi 1; vs "x"; vi 5; vi 2; vf 3.0 |];
        [| vi 1; vs "y"; vf 5.0; vi 1; vf 2.0 |];
        [| vi 2; vs "x"; vi 5; vi 1; vf 4.0 |];
        [| vi 1; vs "x"; vnull; vi 1; vf 5.0 |];
        [| vi 1; vs "y"; vi 6; vi 0; vnull |] ]
    ~keys:[ 0; 1; 2 ]
    ~aggs:[ (Ast.Count, false, 3); (Ast.Max, false, 3) ]
    [| a; b; c; v |] 6

let test_oracle_distinct_boxed () =
  (* DISTINCT over a boxed argument: Int 2 and Float 2.0 are one
     value, and the first seen is the one summed. *)
  let k = Colbatch.of_values [| vi 1; vi 1; vi 1; vi 1; vi 2 |] in
  let v = boxed [| vi 2; vf 2.0; vf 0.5; vnull; vf 2.0 |] in
  check_oracle ~msg:"distinct"
    ~expect:[ [| vi 1; vi 2; vf 2.5; vi 3 |]; [| vi 2; vi 1; vf 2.0; vi 1 |] ]
    ~keys:[ 0 ]
    ~aggs:
      [ (Ast.Count, true, 1); (Ast.Sum, true, 1); (Ast.Count, false, 1) ]
    [| k; v |] 5

let test_oracle_mixed_sum () =
  (* SUM over mixed Int/Float stays Int until the first Float, then
     Float — Value.add's promotion, in row order. *)
  let k = Colbatch.of_values [| vi 1; vi 1; vi 2; vi 2; vi 1 |] in
  let v = boxed [| vi 1; vi 2; vi 4; vnull; vf 0.5 |] in
  check_oracle ~msg:"mixed sum"
    ~expect:
      [ [| vi 1; vf 3.5; vf (3.5 /. 3.0); vf 0.5; vi 2 |];
        [| vi 2; vi 4; vf 4.0; vi 4; vi 4 |] ]
    ~keys:[ 0 ]
    ~aggs:
      [ (Ast.Sum, false, 1); (Ast.Avg, false, 1); (Ast.Min, false, 1);
        (Ast.Max, false, 1) ]
    [| k; v |] 5

let test_oracle_many_groups () =
  (* Thousands of groups regrow the group table several times and cross
     the guard-tick block size; clustered runs exercise the
     same-as-previous-row shortcut. *)
  let rng = Random.State.make [| 13 |] in
  let n = 6000 in
  let a = Array.make n vnull and b = Array.make n vnull in
  let v = Array.make n vnull in
  for r = 0 to n - 1 do
    (* runs of 1-3 equal keys, then a jump *)
    let base = if r > 0 && Random.State.int rng 3 > 0 then r - 1 else r in
    let k = if base = r then Random.State.int rng 1500 else -1 in
    a.(r) <- (if k < 0 then a.(base) else vi (k mod 700));
    b.(r) <-
      (if k < 0 then b.(base)
       else if k mod 5 = 0 then vnull
       else if k mod 2 = 0 then vf (float_of_int (k / 700))
       else vi (k / 700));
    v.(r) <- vf (float_of_int (Random.State.int rng 100) /. 8.0)
  done;
  let cols = [| Colbatch.of_values a; boxed b; Colbatch.of_values v |] in
  check_oracle ~msg:"many groups" ~keys:[ 0; 1 ]
    ~aggs:[ (Ast.Count_star, false, 0); (Ast.Sum, false, 2); (Ast.Max, false, 2) ]
    cols n;
  check_oracle ~msg:"many groups, one key" ~keys:[ 0 ]
    ~aggs:[ (Ast.Min, false, 1); (Ast.Avg, false, 2) ]
    cols n

let test_string_min_max () =
  (* MIN, MAX and COUNT never add their inputs, so strings and bools are
     fine arguments on both paths; only SUM and AVG need numbers. *)
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE p (k INT, n VARCHAR, b BOOLEAN)");
  ignore
    (Engine.execute e
       "INSERT INTO p VALUES (1, 'b', TRUE), (1, 'a', FALSE), (2, NULL, \
        NULL), (1, 'b', NULL)");
  let r =
    check_modes ~msg:"string and bool MIN/MAX" e
      "SELECT k, MIN(n), MAX(n), COUNT(DISTINCT n), MIN(b), MAX(b) FROM p \
       GROUP BY k"
  in
  Alcotest.check row_testable "k=1"
    [| vi 1; vs "a"; vs "b"; vi 2; vb false; vb true |]
    (Relation.rows r).(0);
  Alcotest.check row_testable "k=2 (all NULL)"
    [| vi 2; vnull; vnull; vi 0; vnull; vnull |]
    (Relation.rows r).(1)

let test_oracle_empty () =
  let empty_int = Colbatch.of_values [||] in
  let empty_box = boxed [||] in
  let aggs =
    [ (Ast.Count_star, false, 0); (Ast.Count, false, 0); (Ast.Sum, false, 0);
      (Ast.Avg, false, 1); (Ast.Min, true, 1) ]
  in
  check_oracle ~msg:"global"
    ~expect:[ [| vi 0; vi 0; vnull; vnull; vnull |] ]
    ~keys:[] ~aggs [| empty_int; empty_box |] 0;
  check_oracle ~msg:"grouped" ~expect:[] ~keys:[ 0 ] ~aggs
    [| empty_int; empty_box |] 0

(* Random relations against the naive reference: key and argument
   columns drawn from typed, masked, mixed-numeric and fully mixed
   domains (sometimes forced boxed), random key lists (repeats
   allowed) and random aggregate lists. Rows, group order and cell
   types must all match. SUM/AVG only read numeric columns, as the
   binder would require. *)
let prop_grouping_oracle =
  let open QCheck2 in
  let ints = [ vnull; vi 0; vi 1; vi 2; vi 3 ] in
  let floats =
    [ vnull; vf 0.0; vf (-0.0); vf 1.0; vf 2.5; vf 3.0; vf Float.nan ]
  in
  let others = [ vnull; vs "a"; vs "b"; vb true; vb false ] in
  let domains =
    [ (true, ints); (true, floats); (true, ints @ floats);
      (false, [ vnull; vs "a"; vs "b" ]); (false, [ vnull; vb true; vb false ]);
      (false, ints @ floats @ others) ]
  in
  let gen =
    Gen.(
      let* n = int_range 0 25 in
      let* ncols = int_range 1 4 in
      let* cols =
        list_repeat ncols
          (let* numeric, dom = oneofl domains in
           let* raw = bool in
           let* vals = array_repeat n (oneofl dom) in
           return (numeric, raw, vals))
      in
      let cols = Array.of_list cols in
      let* keys = list_size (int_range 0 3) (int_range 0 (ncols - 1)) in
      let* aggs =
        list_size (int_range 0 4)
          (let* kind =
             oneofl
               [ Ast.Count_star; Ast.Count; Ast.Sum; Ast.Avg; Ast.Min; Ast.Max ]
           in
           let* distinct = bool in
           let* arg = int_range 0 (ncols - 1) in
           let numeric, _, _ = cols.(arg) in
           let kind =
             match kind with
             | (Ast.Sum | Ast.Avg) when not numeric -> Ast.Max
             | k -> k
           in
           return (kind, distinct, arg))
      in
      return (n, cols, keys, aggs))
  in
  let print (n, cols, keys, aggs) =
    Printf.sprintf "%d rows; columns:\n%s\nkeys [%s]; aggs [%s]" n
      (String.concat "\n"
         (Array.to_list
            (Array.map
               (fun (_, raw, vals) ->
                 (if raw then "boxed " else "")
                 ^ String.concat ", "
                     (Array.to_list (Array.map Value.to_string vals)))
               cols)))
      (String.concat "; " (List.map string_of_int keys))
      (String.concat "; "
         (List.map
            (fun (kind, distinct, arg) ->
              Printf.sprintf "%s%s(c%d)"
                (match (kind : Ast.agg_kind) with
                | Ast.Count_star -> "COUNT*"
                | Ast.Count -> "COUNT"
                | Ast.Sum -> "SUM"
                | Ast.Avg -> "AVG"
                | Ast.Min -> "MIN"
                | Ast.Max -> "MAX")
                (if distinct then " DISTINCT" else "")
                arg)
            aggs))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:400 ~name:"columnar aggregate = naive grouping reference"
       ~print gen (fun (n, cols, keys, aggs) ->
         let cols =
           Array.map
             (fun (_, raw, vals) ->
               if raw then Colbatch.of_values_raw vals else Colbatch.of_values vals)
             cols
         in
         let got, want = oracle_pair ~keys ~aggs cols n in
         same_rows got want
         || Test.fail_reportf "columnar\n%s\nreference\n%s" (show_rows got)
              (show_rows want)))

(* ------------------------------------------------------------------ *)
(* Source-row grouping: the aggregate over inputs gathered from a root  *)
(* batch, as the CTE reaches a loop body's GROUP BY after its joins     *)

(** [levels] nested pad-gathers over a root batch of [cols]. *)
let gathered ~len cols levels =
  List.fold_left
    (fun b sel -> Colbatch.gather_pad b sel)
    (Colbatch.make ~len cols) levels

(** Whether the aggregate groups [batch] by source row: every column
    the keys read gathers one root through one chain, and the batch is
    no shorter than the root. *)
let by_source ~keys batch =
  match
    gather_source batch (List.concat_map Bound_expr.columns_of keys)
  with
  | Some (root, _) -> Colbatch.length root <= Colbatch.length batch
  | None -> false

(** The columnar aggregate over [batch] against the naive reference over
    its rows, with the key expressions evaluated by the row
    interpreter. [path] is whether the batch must take the source-row
    path. *)
let check_source_oracle ~msg ?expect ~path ~keys ~aggs batch =
  Alcotest.(check bool) (msg ^ ": grouped by source row") path
    (by_source ~keys batch);
  let got = columnar_rows ~keys ~aggs batch in
  let ar = Colbatch.arity batch in
  let key_fns = List.map Dbspinner_exec.Eval.compile keys in
  let rows =
    List.map
      (fun r -> Array.append r (Array.of_list (List.map (fun f -> f r) key_fns)))
      (Array.to_list (Colbatch.to_rows batch))
  in
  let want =
    naive_aggregate ~keys:(List.mapi (fun i _ -> ar + i) keys) ~aggs rows
  in
  if not (same_rows got want) then
    Alcotest.failf "%s: columnar\n%s\nreference\n%s" msg (show_rows got)
      (show_rows want);
  Option.iter
    (fun e ->
      if not (same_rows got e) then
        Alcotest.failf "%s: got\n%s\nexpected\n%s" msg (show_rows got)
          (show_rows e))
    expect

let col k = Bound_expr.B_col k

let test_source_pads () =
  (* A LEFT JOIN's pads and a source row whose key is NULL form one
     group; source rows 0 and 3 share key 1 and merge. *)
  let cols =
    [| Colbatch.of_values [| vi 1; vi 2; vnull; vi 1 |];
       Colbatch.of_values [| vi 10; vi 20; vi 30; vi 40 |] |]
  in
  let aggs =
    [ (Ast.Count_star, false, 0); (Ast.Sum, false, 1); (Ast.Count, false, 1) ]
  in
  let lvl1 = [| 0; -1; 2; 1; -1; 3; 2 |] in
  check_source_oracle ~msg:"one level" ~path:true ~keys:[ col 0 ] ~aggs
    ~expect:
      [ [| vi 1; vi 2; vi 50; vi 2 |]; [| vnull; vi 4; vi 60; vi 2 |];
        [| vi 2; vi 1; vi 20; vi 1 |] ]
    (gathered ~len:4 cols [ lvl1 ]);
  let lvl2 = [| 6; 1; 1; -1; 0; 5; 3; 3; 2 |] and lvl3 = [| 8; 0; 3; 2; 5 |] in
  check_source_oracle ~msg:"two levels" ~path:true ~keys:[ col 0 ] ~aggs
    (gathered ~len:4 cols [ lvl1; lvl2 ]);
  check_source_oracle ~msg:"three levels" ~path:true ~keys:[ col 0; col 1 ]
    ~aggs
    (gathered ~len:4 cols [ lvl1; lvl2; lvl3 ]);
  check_source_oracle ~msg:"only pads" ~path:true ~keys:[ col 0 ] ~aggs
    ~expect:[ [| vnull; vi 5; vnull; vi 0 |] ]
    (gathered ~len:4 cols [ Array.make 5 (-1) ])

let test_source_equal_keys () =
  (* The paper's key shape, node and rank + delta: source rows 0 and 2
     are equal, so their fan-outs fall in one group. *)
  let cols =
    [| Colbatch.of_values [| vi 7; vi 8; vi 7 |];
       Colbatch.of_values [| vf 1.0; vf 2.0; vf 1.0 |];
       Colbatch.of_values [| vf 0.5; vf 0.25; vf 0.5 |] |]
  in
  let keys = [ col 0; Bound_expr.B_binop (Ast.Add, col 1, col 2) ] in
  check_source_oracle ~msg:"equal source rows" ~path:true ~keys
    ~aggs:[ (Ast.Count_star, false, 0); (Ast.Sum, false, 2) ]
    ~expect:
      [ [| vi 7; vf 1.5; vi 5; vf 2.5 |]; [| vi 8; vf 2.25; vi 1; vf 0.25 |] ]
    (gathered ~len:3 cols [ [| 2; 2; 0; 1; 0; 2 |] ])

let test_source_mixed_numeric () =
  (* Int 3 and Float 3.0 from two source rows are one key; the first
     row in the input decides which is emitted. *)
  let cols = [| boxed [| vi 3; vf 3.0; vi 5 |] |] in
  let aggs = [ (Ast.Count_star, false, 0) ] in
  check_source_oracle ~msg:"float first" ~path:true ~keys:[ col 0 ] ~aggs
    ~expect:[ [| vf 3.0; vi 4 |]; [| vi 5; vi 1 |] ]
    (gathered ~len:3 cols [ [| 1; 0; 1; 2; 0 |] ]);
  check_source_oracle ~msg:"int first" ~path:true ~keys:[ col 0 ] ~aggs
    ~expect:[ [| vi 3; vi 3 |]; [| vi 5; vi 1 |] ]
    (gathered ~len:3 cols [ [| 0; 2; 1; 1 |] ])

let test_source_division () =
  (* Keys are evaluated only on source rows the input holds: a zero
     divisor on a dropped row raises nothing, and on a kept row raises
     what the whole-batch path raises over the same cells. *)
  let cols =
    [| Colbatch.of_values [| vi 1; vi 0; vi 2; vi 4 |];
       Colbatch.of_values [| vi 5; vi 6; vi 7; vi 8 |] |]
  in
  let keys = [ Bound_expr.B_binop (Ast.Div, Bound_expr.B_lit (vi 1), col 0) ] in
  let aggs = [ (Ast.Sum, false, 1) ] in
  check_source_oracle ~msg:"zero dropped" ~path:true ~keys ~aggs
    ~expect:
      [ [| vf 0.5; vi 14 |]; [| vi 1; vi 5 |]; [| vf 0.25; vi 8 |];
        [| vnull; vnull |] ]
    (gathered ~len:4 cols [ [| 2; 0; 3; -1; 2 |] ]);
  let kept = gathered ~len:4 cols [ [| 2; 0; 1; 3; 1; 0; 2 |] ] in
  Alcotest.(check bool) "kept: grouped by source row" true
    (by_source ~keys kept);
  let raised b =
    match columnar_rows ~keys ~aggs b with
    | _ -> "no error"
    | exception e -> Printexc.to_string e
  in
  let got = raised kept in
  let whole =
    Colbatch.make ~len:(Colbatch.length kept)
      (Array.init (Colbatch.arity kept) (Colbatch.col kept))
  in
  let want = raised whole in
  Alcotest.(check bool) "the whole-batch path raises" true (want <> "no error");
  Alcotest.(check string) "zero kept" want got

let test_source_fallback () =
  (* Keys from both sides of a join read two chains, and a filtered
     input shorter than its source keeps the whole-batch path; the
     answers agree with the reference either way. *)
  let left =
    Colbatch.make ~len:3
      [| Colbatch.of_values [| vi 1; vi 2; vi 1 |];
         Colbatch.of_values [| vf 0.5; vf 1.5; vf 2.5 |] |]
  in
  let right =
    Colbatch.make ~len:2
      [| boxed [| vs "x"; vi 9 |]; Colbatch.of_values [| vi 4; vnull |] |]
  in
  let joined =
    Colbatch.hstack
      (Colbatch.gather_pad left [| 0; 0; 1; 2; 2 |])
      (Colbatch.gather_pad right [| 0; 1; -1; 1; 0 |])
  in
  let aggs = [ (Ast.Count_star, false, 0); (Ast.Sum, false, 1) ] in
  check_source_oracle ~msg:"both sides" ~path:false ~keys:[ col 0; col 2 ]
    ~aggs joined;
  check_source_oracle ~msg:"left side only" ~path:true ~keys:[ col 0; col 1 ]
    ~aggs joined;
  check_source_oracle ~msg:"right side only" ~path:true ~keys:[ col 3 ] ~aggs
    joined;
  check_source_oracle ~msg:"shorter than the source" ~path:false
    ~keys:[ col 0 ] ~aggs
    (Colbatch.gather_pad left [| 2; 0 |])

(* Random chains of 1-3 pad-gathers over a small root, some columns
   forced beforehand, against the naive reference. Every key column
   shares the one chain, so whenever the input is no shorter than the
   root, the source-row path runs. *)
let prop_source_oracle =
  let open QCheck2 in
  let domains =
    [ [ vnull; vi 0; vi 1; vi 2 ]; [ vnull; vf 0.0; vf (-0.0); vf 1.5; vi 1 ];
      [ vnull; vs "a"; vs "b"; vi 2 ] ]
  in
  let gen =
    Gen.(
      let* len = int_range 0 6 in
      let* ncols = int_range 1 3 in
      let* cols =
        list_repeat ncols
          (let* dom = oneofl domains in
           array_repeat len (oneofl dom))
      in
      let* depth = int_range 1 3 in
      let rec levels prev k =
        if k = 0 then return []
        else
          let* n = int_range 0 20 in
          let* sel =
            array_repeat n
              (if prev = 0 then return (-1)
               else frequency [ (1, return (-1)); (4, int_range 0 (prev - 1)) ])
          in
          let* rest = levels n (k - 1) in
          return (sel :: rest)
      in
      let* levels = levels len depth in
      let* keys = list_size (int_range 1 3) (int_range 0 (ncols - 1)) in
      let* aggs =
        list_size (int_range 0 3)
          (let* kind = oneofl [ Ast.Count_star; Ast.Count; Ast.Min; Ast.Max ] in
           let* distinct = bool in
           let* arg = int_range 0 (ncols - 1) in
           return (kind, distinct, arg))
      in
      let* force = bool in
      return (len, cols, levels, keys, aggs, force))
  in
  let print (len, cols, levels, keys, aggs, force) =
    let ints a =
      String.concat ", " (Array.to_list (Array.map string_of_int a))
    in
    Printf.sprintf "root of %d rows:\n%s\nlevels:\n%s\nkeys [%s]; %d aggs%s" len
      (String.concat "\n"
         (List.map
            (fun vals ->
              String.concat ", "
                (Array.to_list (Array.map Value.to_string vals)))
            cols))
      (String.concat "\n" (List.map ints levels))
      (String.concat "; " (List.map string_of_int keys))
      (List.length aggs)
      (if force then "; forced" else "")
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:400 ~name:"source-row aggregate = naive reference" ~print
       gen (fun (len, cols, levels, keys, aggs, force) ->
         let batch =
           gathered ~len
             (Array.of_list (List.map Colbatch.of_values cols))
             levels
         in
         if force then
           for j = 0 to Colbatch.arity batch - 1 do
             ignore (Colbatch.col batch j)
           done;
         let keys = List.map col keys in
         let ar = Colbatch.arity batch in
         let got = columnar_rows ~keys ~aggs batch in
         let rows = Array.to_list (Colbatch.to_rows batch) in
         let rows =
           List.map
             (fun r ->
               Array.append r
                 (Array.of_list
                    (List.map (fun k -> Dbspinner_exec.Eval.eval r k) keys)))
             rows
         in
         let want =
           naive_aggregate ~keys:(List.mapi (fun i _ -> ar + i) keys) ~aggs rows
         in
         Option.is_some (gather_source batch (List.init ar Fun.id))
         && (same_rows got want
            || Test.fail_reportf "columnar\n%s\nreference\n%s" (show_rows got)
                 (show_rows want))))

(* ------------------------------------------------------------------ *)
(* Join oracle: the columnar hash probe against an order-exact         *)
(* reference over the same cells                                       *)

(** Reference equi-join on one key column, as [(left, right)] index
    pairs with [-1] for a pad: left rows in order; within a left row,
    the matching right rows in descending right index; an unmatched
    left row padded in place (left/full); unmatched right rows appended
    in ascending right index (right/full). NULL keys match nothing. *)
let naive_join kind (lkeys : Value.t array) (rkeys : Value.t array) =
  let nr = Array.length rkeys in
  let rmatched = Array.make nr false in
  let out = ref [] in
  let pad_left, pad_right =
    match kind with
    | Logical.Left_outer -> (true, false)
    | Logical.Right_outer -> (false, true)
    | Logical.Full_outer -> (true, true)
    | Logical.Inner | Logical.Cross -> (false, false)
  in
  Array.iteri
    (fun l lk ->
      let hit = ref false in
      for r = nr - 1 downto 0 do
        let rk = rkeys.(r) in
        if (not (Value.is_null lk)) && (not (Value.is_null rk)) && Value.equal lk rk
        then begin
          hit := true;
          rmatched.(r) <- true;
          out := (l, r) :: !out
        end
      done;
      if (not !hit) && pad_left then out := (l, -1) :: !out)
    lkeys;
  if pad_right then
    Array.iteri (fun r m -> if not m then out := (-1, r) :: !out) rmatched;
  List.rev !out

(** A two-column relation: the key cells (classified, so Int keys with
    NULLs become a masked typed column) and the row index as payload. *)
let keyed_relation prefix (keys : Value.t array) =
  let n = Array.length keys in
  Relation.of_batch
    (Schema.of_names [ prefix ^ "k"; prefix ^ "i" ])
    (Colbatch.make ~len:n
       [| Colbatch.of_values keys; Colbatch.of_values (Array.init n (fun i -> Value.Int i)) |])

let join_kinds =
  [ Logical.Inner; Logical.Left_outer; Logical.Right_outer; Logical.Full_outer ]

let kind_label = function
  | Logical.Inner -> "inner"
  | Logical.Left_outer -> "left"
  | Logical.Right_outer -> "right"
  | Logical.Full_outer -> "full"
  | Logical.Cross -> "cross"

(** Run [Operators.join ~columnar:true] sequentially and chunk-parallel
    for every join kind and compare rows (order and cell types),
    [join_probes] and [rows_joined] with {!naive_join}. *)
let check_join_oracle ~msg lkeys rkeys =
  let left = keyed_relation "l" lkeys and right = keyed_relation "r" rkeys in
  let schema = Schema.append (Relation.schema left) (Relation.schema right) in
  let cond = Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2) in
  let cells keys idx =
    if idx < 0 then [| Value.Null; Value.Null |] else [| keys.(idx); Value.Int idx |]
  in
  List.iter
    (fun kind ->
      let want =
        List.map
          (fun (l, r) -> Array.append (cells lkeys l) (cells rkeys r))
          (naive_join kind lkeys rkeys)
      in
      List.iter
        (fun (mode, parallel) ->
          let msg = Printf.sprintf "%s (%s, %s)" msg (kind_label kind) mode in
          let stats = Stats.create () in
          let got =
            Operators.join ?parallel ~columnar:true ~stats kind (Some cond) left
              right schema
          in
          let got = Array.to_list (Relation.rows got) in
          if not (same_rows got want) then
            Alcotest.failf "%s: columnar\n%s\nreference\n%s" msg (show_rows got)
              (show_rows want);
          Alcotest.(check int)
            (msg ^ ": join_probes") (Array.length lkeys) stats.Stats.join_probes;
          Alcotest.(check int)
            (msg ^ ": rows_joined") (List.length want) stats.Stats.rows_joined)
        [
          ("sequential", None);
          ("parallel", Parallel.context ~chunk_rows:4 ~workers:2 ());
        ])
    join_kinds

(** The slot layout the probe builds for an Int build column. *)
let build_layout rkeys =
  let build =
    Operators.make_join_build ~stats:(Stats.create ()) [ Bound_expr.B_col 0 ]
      (keyed_relation "r" rkeys)
  in
  let probe = keyed_relation "l" [| Value.Int 0 |] in
  ignore
    (Operators.hash_join_probe ~columnar:true ~stats:(Stats.create ())
       Logical.Inner
       [ (Bound_expr.B_col 0, Bound_expr.B_col 0) ]
       [] build probe
       (Schema.append (Relation.schema probe) (Relation.schema build.Cache.jb_rel)));
  match build.Cache.jb_int with
  | Some (Some { Cache.im_layout = Cache.Direct _; _ }) -> `Direct
  | Some (Some { Cache.im_layout = Cache.Hashed _; _ }) -> `Hashed
  | Some None | None -> `None

let check_layout ~msg want rkeys =
  let name = function `Direct -> "direct" | `Hashed -> "hashed" | `None -> "none" in
  Alcotest.(check string) (msg ^ ": layout") (name want) (name (build_layout rkeys))

let ints f n = Array.init n (fun i -> Value.Int (f i))

let test_join_dense () =
  let rkeys = ints (fun i -> i * 13 mod 35) 50 in
  check_layout ~msg:"dense" `Direct rkeys;
  check_join_oracle ~msg:"dense" (ints (fun i -> i * 7 mod 40) 60) rkeys

let test_join_sparse () =
  let rkeys = ints (fun i -> i mod 17 * 1_000_003) 40 in
  check_layout ~msg:"sparse" `Hashed rkeys;
  check_join_oracle ~msg:"sparse" (ints (fun i -> i mod 23 * 1_000_003) 50) rkeys

let test_join_negative () =
  let rkeys = ints (fun i -> -(i * 5 mod 37) - 1) 30 in
  check_layout ~msg:"negative" `Direct rkeys;
  check_join_oracle ~msg:"negative" (ints (fun i -> (i * 3 mod 61) - 50) 40) rkeys

let test_join_extremes () =
  (* max_int - min_int overflows: the span check must not wrap into
     the direct layout. *)
  let ext = [| min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1 |] in
  let rkeys = ints (fun i -> ext.(i mod Array.length ext)) 20 in
  check_layout ~msg:"min_int/max_int" `Hashed rkeys;
  check_join_oracle ~msg:"min_int/max_int"
    (ints (fun i -> if i mod 3 = 0 then 2 else ext.(i * 5 mod Array.length ext)) 15)
    rkeys

let test_join_fanout () =
  let rkeys = ints (fun i -> i mod 3) 500 in
  check_layout ~msg:"fan-out" `Direct rkeys;
  check_join_oracle ~msg:"fan-out" (ints (fun i -> i mod 5) 20) rkeys

let test_join_null_keys () =
  let with_nulls every f n =
    Array.init n (fun i -> if i mod every = 0 then Value.Null else Value.Int (f i))
  in
  let rkeys = with_nulls 4 (fun i -> i mod 7) 30 in
  check_layout ~msg:"masked build" `Direct rkeys;
  check_join_oracle ~msg:"masked probe and build" (with_nulls 3 (fun i -> i mod 9) 25) rkeys;
  check_join_oracle ~msg:"masked probe" (with_nulls 2 (fun i -> i mod 9) 25)
    (ints (fun i -> i mod 7) 30);
  check_join_oracle ~msg:"all-NULL build" (ints (fun i -> i) 5)
    (Array.make 6 Value.Null)

let test_join_empty () =
  check_join_oracle ~msg:"empty build" (ints (fun i -> i) 5) [||];
  check_join_oracle ~msg:"empty probe" [||] (ints (fun i -> i mod 3) 6);
  check_join_oracle ~msg:"both empty" [||] [||]

let test_join_float_probe () =
  (* 3.0 matches Int 3; 0.5 matches nothing. *)
  let lkeys = [| Value.Float 3.0; Value.Float 0.5; Value.Float (-2.0); Value.Float 3.0 |] in
  let rkeys = ints (fun i -> (i mod 6) - 2) 12 in
  check_join_oracle ~msg:"float probe" lkeys rkeys;
  let joined lk =
    let left = keyed_relation "l" [| lk |] and right = keyed_relation "r" rkeys in
    Relation.cardinality
      (Operators.join ~columnar:true ~stats:(Stats.create ()) Logical.Inner
         (Some (Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2)))
         left right
         (Schema.append (Relation.schema left) (Relation.schema right)))
  in
  Alcotest.(check int) "3.0 matches both Int 3 rows" 2 (joined (Value.Float 3.0));
  Alcotest.(check int) "0.5 matches nothing" 0 (joined (Value.Float 0.5))

(* Join-index reuse: two probes at one join site. The second call must
   reuse the first call's vectors exactly when both key columns are
   cell-for-cell unchanged, and either way agree with the order-exact
   reference join. *)

(** Probe [lkeys] against [rkeys] through [site] with the columnar
    probe, check rows, [join_probes] and [rows_joined] against
    {!naive_join}, and return the probe reuses the call counted. *)
let probe_at_site ~msg ?parallel site kind lkeys rkeys =
  let left = keyed_relation "l" lkeys and right = keyed_relation "r" rkeys in
  let schema = Schema.append (Relation.schema left) (Relation.schema right) in
  let build =
    Operators.make_join_build ~stats:(Stats.create ()) [ Bound_expr.B_col 0 ] right
  in
  let stats = Stats.create () in
  let got =
    Operators.hash_join_probe ?parallel ~columnar:true ~site ~stats kind
      [ (Bound_expr.B_col 0, Bound_expr.B_col 0) ]
      [] build left schema
  in
  let cells keys idx =
    if idx < 0 then [| Value.Null; Value.Null |] else [| keys.(idx); Value.Int idx |]
  in
  let want =
    List.map
      (fun (l, r) -> Array.append (cells lkeys l) (cells rkeys r))
      (naive_join kind lkeys rkeys)
  in
  let got = Array.to_list (Relation.rows got) in
  if not (same_rows got want) then
    Alcotest.failf "%s: columnar\n%s\nreference\n%s" msg (show_rows got)
      (show_rows want);
  Alcotest.(check int)
    (msg ^ ": join_probes") (Array.length lkeys) stats.Stats.join_probes;
  Alcotest.(check int)
    (msg ^ ": rows_joined") (List.length want) stats.Stats.rows_joined;
  stats.Stats.probe_reuses

(** A join site of its own, in a cache of its own. *)
let fresh_site () =
  Cache.join_site (Cache.create ()) (Logical.L_values (keyed_relation "s" [||]))

let site_vectors (site : Cache.join_site) =
  match site.Cache.js_probe with
  | Some pm -> Some (pm.Cache.pm_lsel, pm.Cache.pm_rsel)
  | None -> None

let reuse_modes =
  [ ("sequential", None); ("parallel", Parallel.context ~chunk_rows:4 ~workers:2 ()) ]

(** Probe [(l1, r1)] then [(l2, r2)] at one fresh site, for inner and
    left-outer joins in both modes: the second call reuses iff [hit],
    and then returns the physically same vectors. *)
let check_reuse ~msg ~hit (l1, r1) (l2, r2) =
  List.iter
    (fun kind ->
      List.iter
        (fun (mode, parallel) ->
          let msg = Printf.sprintf "%s (%s, %s)" msg (kind_label kind) mode in
          let site = fresh_site () in
          let first = probe_at_site ~msg:(msg ^ ": first") ?parallel site kind l1 r1 in
          Alcotest.(check int) (msg ^ ": first call never reuses") 0 first;
          let before = site_vectors site in
          let second = probe_at_site ~msg:(msg ^ ": second") ?parallel site kind l2 r2 in
          Alcotest.(check int) (msg ^ ": reuses") (if hit then 1 else 0) second;
          let same =
            match before, site_vectors site with
            | Some (l, r), Some (l', r') -> l == l' && r == r'
            | _ -> false
          in
          Alcotest.(check bool) (msg ^ ": same vectors") hit same)
        reuse_modes)
    [ Logical.Inner; Logical.Left_outer ]

let reuse_probe = ints (fun i -> i * 7 mod 40) 60
let reuse_build = ints (fun i -> i * 13 mod 35) 50

let with_cell keys i v =
  let keys = Array.copy keys in
  keys.(i) <- v;
  keys

let test_reuse_hit () =
  (* Fresh but equal relations: the O(n) comparison path. *)
  check_reuse ~msg:"unchanged keys" ~hit:true
    (reuse_probe, reuse_build)
    (Array.copy reuse_probe, Array.copy reuse_build);
  let masked = with_cell reuse_probe 5 Value.Null in
  check_reuse ~msg:"unchanged masked keys" ~hit:true (masked, reuse_build)
    (Array.copy masked, reuse_build)

let test_reuse_probe_changes () =
  let rev = Array.of_list (List.rev (Array.to_list reuse_probe)) in
  check_reuse ~msg:"probe permuted" ~hit:false (reuse_probe, reuse_build)
    (rev, reuse_build);
  check_reuse ~msg:"probe value changed" ~hit:false (reuse_probe, reuse_build)
    (with_cell reuse_probe 17 (Value.Int 99), reuse_build);
  check_reuse ~msg:"probe gains a NULL" ~hit:false (reuse_probe, reuse_build)
    (with_cell reuse_probe 3 Value.Null, reuse_build);
  (* Int 3 -> Float 3.0 matches the same build rows, but the column is
     no longer an unboxed int column. *)
  let ints3 = with_cell reuse_probe 0 (Value.Int 3) in
  check_reuse ~msg:"probe representation" ~hit:false (ints3, reuse_build)
    (with_cell ints3 0 (Value.Float 3.0), reuse_build)

let test_reuse_build_changes () =
  check_reuse ~msg:"build value changed" ~hit:false (reuse_probe, reuse_build)
    (reuse_probe, with_cell reuse_build 9 (Value.Int 21));
  check_reuse ~msg:"build permuted" ~hit:false (reuse_probe, reuse_build)
    (reuse_probe, Array.of_list (List.rev (Array.to_list reuse_build)));
  check_reuse ~msg:"build gains a NULL" ~hit:false (reuse_probe, reuse_build)
    (reuse_probe, with_cell reuse_build 0 Value.Null)

let test_reuse_outer_kinds () =
  (* Right and full outer joins keep today's probe: no reuse. *)
  List.iter
    (fun kind ->
      let site = fresh_site () in
      let msg = "unchanged keys (" ^ kind_label kind ^ ")" in
      for _ = 1 to 2 do
        Alcotest.(check int) (msg ^ ": reuses") 0
          (probe_at_site ~msg site kind reuse_probe reuse_build)
      done)
    [ Logical.Right_outer; Logical.Full_outer ]

(* ------------------------------------------------------------------ *)
(* Cross-executor equivalence on a paper workload                      *)

let test_executors_agree () =
  let g =
    Graph_gen.chain_with_shortcuts ~seed:7 ~num_nodes:120 ~shortcut_every:10
  in
  let e = Loader.engine_for g in
  let sql = Queries.sssp ~source:0 ~iterations:10 () in
  let p = compile ~options:delta_off e sql in
  let p_delta = compile e sql in
  let r_row, s_row = run ~columnar:false e p in
  let check ~msg (r, s) =
    Alcotest.check relation_testable (msg ^ ": rows") r_row r;
    Alcotest.(check bool)
      (msg ^ ": logical_equal") true
      (Stats.logical_equal s_row s)
  in
  check ~msg:"sequential columnar" (run ~columnar:true e p);
  let parallel = Parallel.context ~chunk_rows:16 ~workers:4 () in
  check ~msg:"chunk-parallel columnar" (run ?parallel ~columnar:true e p);
  check ~msg:"uncached columnar" (run ~use_cache:false ~columnar:true e p);
  (* Delta mode changes the delta counters by design; rows must agree
     and the two columnar toggles must stay logical_equal. *)
  let rd_row, sd_row = run ~columnar:false e p_delta in
  let rd_col, sd_col = run ~columnar:true e p_delta in
  Alcotest.check relation_testable "delta rows (row vs columnar)" rd_row rd_col;
  Alcotest.check relation_testable "delta rows (vs delta-off)" r_row rd_col;
  Alcotest.(check bool) "delta logical_equal" true
    (Stats.logical_equal sd_row sd_col);
  let dist ~columnar =
    Catalog.clear_temps (Engine.catalog e);
    let stats = Stats.create () in
    let rel, _ =
      Distributed.run_program ~workers:4 ~stats ~columnar (Engine.catalog e) p
    in
    (rel, stats)
  in
  let rx_row, sx_row = dist ~columnar:false in
  let rx_col, sx_col = dist ~columnar:true in
  Alcotest.(check bool) "distributed rows (row vs columnar)" true
    (approx_equal_bag rx_row rx_col);
  Alcotest.(check bool) "distributed rows (vs sequential)" true
    (approx_equal_bag r_row rx_col);
  Alcotest.(check bool) "distributed logical_equal" true
    (Stats.logical_equal sx_row sx_col)

(* ------------------------------------------------------------------ *)
(* Property: random iterative programs agree, NULLs included           *)

let kv_engine rows =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE t (a INT, b INT)");
  if rows <> [] then
    ignore
      (Engine.execute e
         (Printf.sprintf "INSERT INTO t VALUES %s"
            (String.concat ", "
               (List.map
                  (fun (a, b) ->
                    Printf.sprintf "(%d, %s)" a
                      (match b with
                      | None -> "NULL"
                      | Some b -> string_of_int b))
                  rows))));
  e

let kv_sql ?(where = "") ~step_expr ~until () =
  Printf.sprintf
    {|WITH ITERATIVE r (k, v) AS (
  SELECT a, MIN(b) FROM t WHERE a IS NOT NULL GROUP BY a
ITERATE SELECT k, %s FROM r%s
UNTIL %s )
SELECT k, v FROM r|}
    step_expr
    (if where = "" then "" else " WHERE " ^ where)
    until

let prop_columnar_on_off =
  let open QCheck2 in
  let rows_gen =
    Gen.(
      list_size (int_range 0 15)
        (pair (int_range 0 6) (option (int_range (-8) 8))))
  in
  let query_gen =
    Gen.(
      let* step_expr =
        oneofl
          [ "v + 1"; "v + k"; "LEAST(v, k)"; "v"; "v * 2";
            "COALESCE(v, 0) + 1"; "GREATEST(v, 0 - k)"
          ]
      in
      let* where = oneofl [ ""; "v < 5"; "k > 2"; "v > k"; "v IS NOT NULL" ] in
      let* rounds = int_range 1 5 in
      return (step_expr, where, rounds))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"columnar on = columnar off on random iterative programs"
       ~print:(fun (rows, (step_expr, where, rounds)) ->
         Printf.sprintf "%s over %d rows"
           (kv_sql ~where ~step_expr
              ~until:(Printf.sprintf "%d ITERATIONS" rounds)
              ())
           (List.length rows))
       (Gen.pair rows_gen query_gen)
       (fun (rows, (step_expr, where, rounds)) ->
         let e = kv_engine rows in
         let sql =
           kv_sql ~where ~step_expr
             ~until:(Printf.sprintf "%d ITERATIONS" rounds)
             ()
         in
         let p = compile e sql in
         let r_row, s_row = run ~columnar:false e p in
         let r_col, s_col = run ~columnar:true e p in
         if not (Relation.equal_bag r_row r_col) then
           QCheck2.Test.fail_reportf "rows differ:\nrow:\n%s\ncolumnar:\n%s"
             (Relation.to_table_string r_row)
             (Relation.to_table_string r_col)
         else if not (Stats.logical_equal s_row s_col) then
           QCheck2.Test.fail_reportf "logical stats differ:\n%s\nvs\n%s"
             (Stats.to_string s_row) (Stats.to_string s_col)
         else true))

(* ------------------------------------------------------------------ *)
(* Property: loop-body joins against a naive reference loop            *)

(** The loop body joins the CTE to the invariant table [e] and back to
    itself, the paper's PR shape; [key_expr] keeps, permutes (a
    bijection on the generated keys 0..6) or rewrites the key. *)
let join_loop_sql ~key_expr ~rounds =
  Printf.sprintf
    {|WITH ITERATIVE r (k, v) AS (
  SELECT a, MIN(b) FROM t WHERE a IS NOT NULL GROUP BY a
ITERATE SELECT %s, r.v + COALESCE(SUM(r2.v * e.w), 0)
  FROM r LEFT JOIN e ON r.k = e.dst LEFT JOIN r AS r2 ON r2.k = e.src
  GROUP BY %s, r.v
UNTIL %d ITERATIONS )
SELECT k, v FROM r|}
    key_expr key_expr rounds

(** Row-at-a-time reference for {!join_loop_sql}: R0 takes each key's
    MIN over its non-NULL values; each round adds, to every row, the
    products of its in-neighbours' values with the edge weights (NULL
    values contribute nothing, no contribution adds 0), keeps a NULL
    value NULL, and maps the key by [step]. *)
let join_loop_reference rows edges ~step ~rounds =
  let r0 =
    List.fold_left
      (fun acc (a, b) ->
        let prev = List.assoc_opt a acc in
        let m =
          match prev, b with
          | Some (Some p), Some b -> Some (min p b)
          | Some p, None -> p
          | (None | Some None), b -> b
        in
        (a, m) :: List.remove_assoc a acc)
      [] rows
  in
  let round state =
    List.map
      (fun (k, v) ->
        let inc =
          List.fold_left
            (fun acc (s, d, w) ->
              if d <> k then acc
              else
                match List.assoc_opt s state with
                | Some (Some v2) -> acc + (v2 * w)
                | _ -> acc)
            0 edges
        in
        (step k, Option.map (fun v -> v + inc) v))
      state
  in
  let rec go n r = if n = 0 then r else go (n - 1) (round r) in
  rel [ "k"; "v" ]
    (List.map
       (fun (k, v) -> [ vi k; Option.fold ~none:Value.Null ~some:vi v ])
       (go rounds r0))

let prop_join_loop_reference =
  let open QCheck2 in
  let rows_gen =
    Gen.(list_size (int_range 0 12) (pair (int_range 0 6) (option (int_range (-8) 8))))
  in
  let edges_gen =
    Gen.(
      list_size (int_range 0 12)
        (triple (int_range 0 6) (int_range 0 6) (int_range 1 3)))
  in
  let steps =
    [
      ("r.k", Fun.id);
      ("MOD(r.k + 3, 7)", fun k -> (k + 3) mod 7);
      ("r.k + 7", fun k -> k + 7);
    ]
  in
  let gen =
    Gen.(
      quad rows_gen edges_gen (int_range 0 (List.length steps - 1)) (int_range 1 5))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"loop-body joins = naive reference loop at 1 and 2 workers"
       ~print:(fun (rows, edges, s, rounds) ->
         Printf.sprintf "%s over %d rows, edges [%s]"
           (join_loop_sql ~key_expr:(fst (List.nth steps s)) ~rounds)
           (List.length rows)
           (String.concat "; "
              (List.map (fun (a, b, w) -> Printf.sprintf "%d->%d:%d" a b w) edges)))
       gen
       (fun (rows, edges, s, rounds) ->
         let key_expr, step = List.nth steps s in
         let e = kv_engine rows in
         ignore (Engine.execute e "CREATE TABLE e (src INT, dst INT, w INT)");
         if edges <> [] then
           ignore
             (Engine.execute e
                (Printf.sprintf "INSERT INTO e VALUES %s"
                   (String.concat ", "
                      (List.map
                         (fun (a, b, w) -> Printf.sprintf "(%d, %d, %d)" a b w)
                         edges))));
         let p = compile e (join_loop_sql ~key_expr ~rounds) in
         let expected = join_loop_reference rows edges ~step ~rounds in
         let r1, s1 = run ~columnar:true e p in
         let parallel = Parallel.context ~chunk_rows:2 ~workers:2 () in
         let r2, s2 = run ?parallel ~columnar:true e p in
         List.iter
           (fun (name, r) ->
             if not (Relation.equal_bag r expected) then
               QCheck2.Test.fail_reportf "%s: rows differ:\ngot:\n%s\nreference:\n%s"
                 name (Relation.to_table_string r)
                 (Relation.to_table_string expected))
           [ ("1 worker", r1); ("2 workers", r2) ];
         if not (Stats.logical_equal s1 s2) then
           QCheck2.Test.fail_reportf "logical stats differ across workers:\n%s\nvs\n%s"
             (Stats.to_string s1) (Stats.to_string s2);
         true))

let () =
  Alcotest.run "columnar"
    [
      ( "colbatch",
        [
          Alcotest.test_case "all-null-column" `Quick test_colbatch_all_null;
          Alcotest.test_case "masked-roundtrip" `Quick
            test_colbatch_masked_roundtrip;
          Alcotest.test_case "gather-pad" `Quick test_colbatch_gather_pad;
          Alcotest.test_case "gather-of-gather" `Quick
            test_colbatch_gather_of_gather;
          Alcotest.test_case "gather-source-selection" `Quick
            test_gather_source_selection;
          Alcotest.test_case "gather-source-none" `Quick test_gather_source_none;
          Alcotest.test_case "gather-source-forced" `Quick
            test_gather_source_forced;
        ] );
      ( "nulls",
        [
          Alcotest.test_case "all-null-column-sql" `Quick test_all_null_column;
          Alcotest.test_case "null-join-keys" `Quick test_null_join_keys;
          Alcotest.test_case "null-aggregates" `Quick test_null_aggregates;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "mixed-int-float-key" `Quick test_oracle_mixed_key;
          Alcotest.test_case "null-keys" `Quick test_oracle_null_keys;
          Alcotest.test_case "nan-and-zero-keys" `Quick test_oracle_float_keys;
          Alcotest.test_case "three-column-keys" `Quick test_oracle_three_keys;
          Alcotest.test_case "distinct-boxed-args" `Quick
            test_oracle_distinct_boxed;
          Alcotest.test_case "mixed-sum" `Quick test_oracle_mixed_sum;
          Alcotest.test_case "many-groups" `Quick test_oracle_many_groups;
          Alcotest.test_case "string-min-max" `Quick test_string_min_max;
          Alcotest.test_case "empty-input" `Quick test_oracle_empty;
        ] );
      ( "source-row",
        [
          Alcotest.test_case "pads-and-null-keys" `Quick test_source_pads;
          Alcotest.test_case "equal-source-rows" `Quick test_source_equal_keys;
          Alcotest.test_case "int-and-float-key" `Quick
            test_source_mixed_numeric;
          Alcotest.test_case "division-by-zero" `Quick test_source_division;
          Alcotest.test_case "two-chains-fallback" `Quick test_source_fallback;
          prop_source_oracle;
        ] );
      ( "join-probe",
        [
          Alcotest.test_case "dense-keys" `Quick test_join_dense;
          Alcotest.test_case "sparse-keys" `Quick test_join_sparse;
          Alcotest.test_case "negative-keys" `Quick test_join_negative;
          Alcotest.test_case "min-int-max-int" `Quick test_join_extremes;
          Alcotest.test_case "duplicate-fan-out" `Quick test_join_fanout;
          Alcotest.test_case "null-keys" `Quick test_join_null_keys;
          Alcotest.test_case "empty-sides" `Quick test_join_empty;
          Alcotest.test_case "float-probe-int-build" `Quick test_join_float_probe;
          Alcotest.test_case "reuse-unchanged-keys" `Quick test_reuse_hit;
          Alcotest.test_case "reuse-probe-key-changes" `Quick test_reuse_probe_changes;
          Alcotest.test_case "reuse-build-key-changes" `Quick test_reuse_build_changes;
          Alcotest.test_case "reuse-not-for-right-full" `Quick test_reuse_outer_kinds;
        ] );
      ( "executors",
        [ Alcotest.test_case "five-executors-agree" `Quick test_executors_agree ] );
      ( "properties",
        [ prop_columnar_on_off; prop_grouping_oracle; prop_join_loop_reference ] );
    ]
