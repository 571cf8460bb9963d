(** Unit tests for the execution layer: the expression interpreter's
    three-valued logic and scalar functions, the physical operators,
    and the step-program executor (loop, rename, snapshots,
    terminations, recursive CTEs). *)

module Value = Dbspinner_storage.Value
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Ast = Dbspinner_sql.Ast
module Bound_expr = Dbspinner_plan.Bound_expr
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Binder = Dbspinner_plan.Binder
module Parser = Dbspinner_sql.Parser
module Eval = Dbspinner_exec.Eval
module Operators = Dbspinner_exec.Operators
module Executor = Dbspinner_exec.Executor
module Stats = Dbspinner_exec.Stats
open Helpers

(** Evaluate a standalone SQL expression over an empty row. *)
let eval_sql sql =
  Eval.eval [||] (Binder.bind_scalar [||] (Parser.parse_expression sql))

let check_eval msg expected sql =
  Alcotest.check value_testable msg expected (eval_sql sql)

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

let test_three_valued_logic () =
  check_eval "null = null is unknown" vnull "NULL = NULL";
  check_eval "null <> 1 is unknown" vnull "NULL <> 1";
  check_eval "false and null" (vb false) "FALSE AND NULL";
  check_eval "true and null" vnull "TRUE AND NULL";
  check_eval "true or null" (vb true) "TRUE OR NULL";
  check_eval "false or null" vnull "FALSE OR NULL";
  check_eval "not null" vnull "NOT NULL";
  check_eval "null is null" (vb true) "NULL IS NULL";
  check_eval "1 is not null" (vb true) "1 IS NOT NULL"

let test_in_semantics () =
  check_eval "match" (vb true) "2 IN (1, 2)";
  check_eval "no match" (vb false) "3 IN (1, 2)";
  check_eval "no match with null member" vnull "3 IN (1, NULL)";
  check_eval "match despite null member" (vb true) "1 IN (1, NULL)";
  check_eval "null subject" vnull "NULL IN (1, 2)";
  check_eval "not in with null member" vnull "3 NOT IN (1, NULL)"

let test_between_and_like () =
  check_eval "between inclusive" (vb true) "2 BETWEEN 2 AND 3";
  check_eval "between null bound" vnull "2 BETWEEN NULL AND 3";
  check_eval "like percent" (vb true) "'hello' LIKE 'he%'";
  check_eval "like underscore" (vb true) "'cat' LIKE 'c_t'";
  check_eval "like no match" (vb false) "'cat' LIKE 'c_'";
  check_eval "not like" (vb true) "'cat' NOT LIKE 'dog%'";
  check_eval "like on null" vnull "NULL LIKE 'x%'"

let test_scalar_functions () =
  check_eval "coalesce picks first non-null" (vi 2) "COALESCE(NULL, 2, 3)";
  check_eval "coalesce all null" vnull "COALESCE(NULL, NULL)";
  check_eval "least skips nulls" (vi 1) "LEAST(3, NULL, 1)";
  check_eval "greatest" (vi 3) "GREATEST(3, NULL, 1)";
  check_eval "ceiling of float" (vf 3.0) "CEILING(2.1)";
  check_eval "ceiling of int is identity" (vi 7) "CEILING(7)";
  check_eval "floor" (vf 2.0) "FLOOR(2.9)";
  check_eval "round to digits" (vf 2.35) "ROUND(2.345678, 2)";
  check_eval "abs int" (vi 4) "ABS(-4)";
  check_eval "sqrt" (vf 3.0) "SQRT(9)";
  check_eval "power" (vf 8.0) "POWER(2, 3)";
  check_eval "sign" (vi (-1)) "SIGN(-0.5)";
  check_eval "nullif equal" vnull "NULLIF(5, 5)";
  check_eval "nullif different" (vi 5) "NULLIF(5, 6)";
  check_eval "upper" (vs "ABC") "UPPER('abc')";
  check_eval "length" (vi 3) "LENGTH('abc')";
  check_eval "substr" (vs "ell") "SUBSTR('hello', 2, 3)";
  check_eval "substr to end" (vs "llo") "SUBSTR('hello', 3)"

let test_cast_and_case () =
  check_eval "cast truncates" (vi 2) "CAST(2.9 AS INT)";
  check_eval "cast widens" (vf 2.0) "CAST(2 AS FLOAT)";
  check_eval "cast to string" (vs "2") "CAST(2 AS VARCHAR)";
  check_eval "cast null" vnull "CAST(NULL AS INT)";
  check_eval "case first match" (vs "one") "CASE WHEN 1 = 1 THEN 'one' WHEN 1 = 1 THEN 'dup' END";
  check_eval "case no match no else" vnull "CASE WHEN 1 = 2 THEN 'x' END";
  check_eval "case null condition skipped" (vs "e")
    "CASE WHEN NULL THEN 'x' ELSE 'e' END"

let test_arithmetic_null_propagation () =
  check_eval "add null" vnull "1 + NULL";
  check_eval "mixed promotes" (vf 3.5) "1 + 2.5";
  check_eval "concat" (vs "ab") "'a' || 'b'";
  check_eval "concat null" vnull "'a' || NULL";
  check_eval "unary minus" (vi (-3)) "-(1 + 2)"

let test_eval_pred () =
  let p sql = Eval.eval_pred [||] (Binder.bind_scalar [||] (Parser.parse_expression sql)) in
  Alcotest.(check bool) "true keeps" true (p "1 = 1");
  Alcotest.(check bool) "false drops" false (p "1 = 2");
  Alcotest.(check bool) "unknown drops" false (p "NULL = 1")

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)

let stats () = Stats.create ()

let test_joins_all_kinds () =
  let left = rel [ "id"; "v" ] [ [ vi 1; vs "a" ]; [ vi 2; vs "b" ]; [ vi 3; vs "c" ] ] in
  let right = rel [ "id"; "w" ] [ [ vi 2; vs "x" ]; [ vi 3; vs "y" ]; [ vi 4; vs "z" ] ] in
  let schema = Schema.append (Relation.schema left) (Relation.schema right) in
  let cond = Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2) in
  let join kind = Operators.join ~stats:(stats ()) kind (Some cond) left right schema in
  Alcotest.check relation_testable "inner"
    (rel [ "id"; "v"; "id"; "w" ]
       [ [ vi 2; vs "b"; vi 2; vs "x" ]; [ vi 3; vs "c"; vi 3; vs "y" ] ])
    (join Logical.Inner);
  Alcotest.check relation_testable "left outer"
    (rel [ "id"; "v"; "id"; "w" ]
       [
         [ vi 1; vs "a"; vnull; vnull ];
         [ vi 2; vs "b"; vi 2; vs "x" ];
         [ vi 3; vs "c"; vi 3; vs "y" ];
       ])
    (join Logical.Left_outer);
  Alcotest.check relation_testable "right outer"
    (rel [ "id"; "v"; "id"; "w" ]
       [
         [ vi 2; vs "b"; vi 2; vs "x" ];
         [ vi 3; vs "c"; vi 3; vs "y" ];
         [ vnull; vnull; vi 4; vs "z" ];
       ])
    (join Logical.Right_outer);
  Alcotest.check relation_testable "full outer"
    (rel [ "id"; "v"; "id"; "w" ]
       [
         [ vi 1; vs "a"; vnull; vnull ];
         [ vi 2; vs "b"; vi 2; vs "x" ];
         [ vi 3; vs "c"; vi 3; vs "y" ];
         [ vnull; vnull; vi 4; vs "z" ];
       ])
    (join Logical.Full_outer);
  Alcotest.(check int) "cross product size" 9
    (Relation.cardinality
       (Operators.join ~stats:(stats ()) Logical.Cross None left right schema))

let test_join_null_keys_never_match () =
  let left = rel [ "k" ] [ [ vnull ]; [ vi 1 ] ] in
  let right = rel [ "k" ] [ [ vnull ]; [ vi 1 ] ] in
  let schema = Schema.of_names [ "k"; "k" ] in
  let cond = Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 1) in
  Alcotest.check relation_testable "only non-null matches"
    (rel [ "k"; "k" ] [ [ vi 1; vi 1 ] ])
    (Operators.join ~stats:(stats ()) Logical.Inner (Some cond) left right schema);
  Alcotest.check relation_testable "left outer pads null keys"
    (rel [ "k"; "k" ] [ [ vnull; vnull ]; [ vi 1; vi 1 ] ])
    (Operators.join ~stats:(stats ()) Logical.Left_outer (Some cond) left right
       schema)

let test_join_residual_condition () =
  (* Equi key plus non-equi residual: hash path with filtering. *)
  let left = rel [ "k"; "v" ] [ [ vi 1; vi 10 ]; [ vi 1; vi 30 ] ] in
  let right = rel [ "k"; "lim" ] [ [ vi 1; vi 20 ] ] in
  let schema = Schema.of_names [ "k"; "v"; "k"; "lim" ] in
  let cond =
    Bound_expr.B_binop
      ( Ast.And,
        Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2),
        Bound_expr.B_binop (Ast.Lt, Bound_expr.B_col 1, Bound_expr.B_col 3) )
  in
  Alcotest.check relation_testable "residual filters"
    (rel [ "k"; "v"; "k"; "lim" ] [ [ vi 1; vi 10; vi 1; vi 20 ] ])
    (Operators.join ~stats:(stats ()) Logical.Inner (Some cond) left right schema)

let test_nested_loop_non_equi () =
  let left = rel [ "a" ] [ [ vi 1 ]; [ vi 5 ] ] in
  let right = rel [ "b" ] [ [ vi 3 ] ] in
  let schema = Schema.of_names [ "a"; "b" ] in
  let cond = Bound_expr.B_binop (Ast.Lt, Bound_expr.B_col 0, Bound_expr.B_col 1) in
  Alcotest.check relation_testable "non-equi inner"
    (rel [ "a"; "b" ] [ [ vi 1; vi 3 ] ])
    (Operators.join ~stats:(stats ()) Logical.Inner (Some cond) left right schema);
  Alcotest.check relation_testable "non-equi left outer"
    (rel [ "a"; "b" ] [ [ vi 1; vi 3 ]; [ vi 5; vnull ] ])
    (Operators.join ~stats:(stats ()) Logical.Left_outer (Some cond) left right
       schema)

let test_aggregate_kinds () =
  let input =
    rel [ "g"; "v" ]
      [
        [ vi 1; vi 10 ];
        [ vi 1; vi 20 ];
        [ vi 1; vnull ];
        [ vi 2; vi 5 ];
      ]
  in
  let keys = [ Bound_expr.B_col 0 ] in
  let agg kind arg =
    { Logical.agg_kind = kind; agg_distinct = false; agg_arg = arg }
  in
  let schema = Schema.of_names [ "g"; "cnt"; "cnt_star"; "sum"; "avg"; "mn"; "mx" ] in
  let out =
    Operators.aggregate ~stats:(stats ()) ~keys
      ~aggs:
        [
          agg Ast.Count (Bound_expr.B_col 1);
          agg Ast.Count_star (Bound_expr.B_lit vnull);
          agg Ast.Sum (Bound_expr.B_col 1);
          agg Ast.Avg (Bound_expr.B_col 1);
          agg Ast.Min (Bound_expr.B_col 1);
          agg Ast.Max (Bound_expr.B_col 1);
        ]
      input schema
  in
  Alcotest.check relation_testable "grouped aggregates"
    (rel
       [ "g"; "cnt"; "cnt_star"; "sum"; "avg"; "mn"; "mx" ]
       [
         [ vi 1; vi 2; vi 3; vi 30; vf 15.0; vi 10; vi 20 ];
         [ vi 2; vi 1; vi 1; vi 5; vf 5.0; vi 5; vi 5 ];
       ])
    out

let test_aggregate_empty_input () =
  let empty = rel [ "v" ] [] in
  let agg kind =
    { Logical.agg_kind = kind; agg_distinct = false; agg_arg = Bound_expr.B_col 0 }
  in
  let out =
    Operators.aggregate ~stats:(stats ()) ~keys:[]
      ~aggs:[ agg Ast.Count; agg Ast.Sum; agg Ast.Min ]
      empty
      (Schema.of_names [ "cnt"; "sum"; "mn" ])
  in
  Alcotest.check relation_testable "global aggregate defaults"
    (rel [ "cnt"; "sum"; "mn" ] [ [ vi 0; vnull; vnull ] ])
    out;
  (* Grouped aggregate over empty input: no groups, no rows. *)
  let grouped =
    Operators.aggregate ~stats:(stats ()) ~keys:[ Bound_expr.B_col 0 ]
      ~aggs:[ agg Ast.Count ] empty
      (Schema.of_names [ "g"; "cnt" ])
  in
  Alcotest.(check int) "no groups" 0 (Relation.cardinality grouped)

let test_aggregate_distinct () =
  let input = rel [ "v" ] [ [ vi 1 ]; [ vi 1 ]; [ vi 2 ]; [ vnull ] ] in
  let out =
    Operators.aggregate ~stats:(stats ()) ~keys:[]
      ~aggs:
        [
          {
            Logical.agg_kind = Ast.Count;
            agg_distinct = true;
            agg_arg = Bound_expr.B_col 0;
          };
          {
            Logical.agg_kind = Ast.Sum;
            agg_distinct = true;
            agg_arg = Bound_expr.B_col 0;
          };
        ]
      input
      (Schema.of_names [ "cnt"; "sum" ])
  in
  Alcotest.check relation_testable "distinct aggregates"
    (rel [ "cnt"; "sum" ] [ [ vi 2; vi 3 ] ])
    out

let test_sort_limit_distinct () =
  let input = rel [ "v" ] [ [ vi 3 ]; [ vi 1 ]; [ vnull ]; [ vi 2 ]; [ vi 1 ] ] in
  let sorted =
    Operators.sort ~stats:(stats ()) [ (Bound_expr.B_col 0, false) ] input
  in
  Alcotest.(check (list (list value_testable)))
    "nulls first ascending"
    [ [ vnull ]; [ vi 1 ]; [ vi 1 ]; [ vi 2 ]; [ vi 3 ] ]
    (List.map Array.to_list (Array.to_list (Relation.rows sorted)));
  let top2 = Operators.limit ~stats:(stats ()) 2 sorted in
  Alcotest.(check int) "limit" 2 (Relation.cardinality top2);
  let distinct = Operators.distinct ~stats:(stats ()) input in
  Alcotest.(check int) "distinct" 4 (Relation.cardinality distinct)

(* ------------------------------------------------------------------ *)
(* Programs: loop, rename, terminations                                *)

(** Build a program that iterates [counter <- counter + 1] starting at
    0 with the given termination, returning the final value. *)
let counter_program termination =
  let schema = Schema.of_names [ "k"; "n" ] in
  let base =
    Logical.values (rel [ "k"; "n" ] [ [ vi 1; vi 0 ] ])
  in
  let step =
    Logical.project
      [ (Bound_expr.B_col 0, "k");
        (Bound_expr.B_binop (Ast.Add, Bound_expr.B_col 1, Bound_expr.B_lit (vi 1)), "n");
      ]
      (Logical.scan ~name:"c" ~schema)
  in
  Program.make
    [
      Program.Materialize { target = "c"; plan = base };
      Program.Init_loop { loop_id = 0; termination; cte = "c"; key_idx = 0; guard = 1000 };
      Program.Snapshot { loop_id = 0 };
      Program.Materialize { target = "c#work"; plan = step };
      Program.Rename { from_ = "c#work"; into = "c" };
      Program.Loop_end { loop_id = 0; body_start = 2 };
      Program.Return (Logical.scan ~name:"c" ~schema);
    ]
    ~result_schema:schema

let run_counter termination =
  let catalog = Catalog.create () in
  let rel, stats = Executor.run_program_with_stats catalog (counter_program termination) in
  match (Relation.rows rel).(0) with
  | [| _; Value.Int n |] -> (n, stats)
  | _ -> Alcotest.fail "unexpected row"

let test_loop_metadata_iterations () =
  let n, stats = run_counter (Program.Max_iterations 7) in
  Alcotest.(check int) "seven increments" 7 n;
  Alcotest.(check int) "seven loop iterations" 7 stats.Stats.loop_iterations;
  Alcotest.(check int) "one rename per iteration" 7 stats.Stats.renames

let test_loop_metadata_updates () =
  (* Each iteration updates exactly one row, so 3 UPDATES = 3 rounds. *)
  let n, _ = run_counter (Program.Max_updates 3) in
  Alcotest.(check int) "three updates" 3 n

let test_loop_data_any () =
  let pred = Bound_expr.B_binop (Ast.Ge, Bound_expr.B_col 1, Bound_expr.B_lit (vi 5)) in
  let n, _ = run_counter (Program.Data { any = true; pred }) in
  Alcotest.(check int) "stops when any n >= 5" 5 n

let test_loop_data_all () =
  let pred = Bound_expr.B_binop (Ast.Ge, Bound_expr.B_col 1, Bound_expr.B_lit (vi 4)) in
  let n, _ = run_counter (Program.Data { any = false; pred }) in
  Alcotest.(check int) "stops when all n >= 4" 4 n

let test_loop_delta_termination () =
  (* A step that stops changing after n reaches 3: delta drops to 0. *)
  let schema = Schema.of_names [ "k"; "n" ] in
  let base = Logical.values (rel [ "k"; "n" ] [ [ vi 1; vi 0 ] ]) in
  let step =
    Logical.project
      [
        (Bound_expr.B_col 0, "k");
        ( Bound_expr.B_func
            ( Bound_expr.F_least,
              [
                Bound_expr.B_binop (Ast.Add, Bound_expr.B_col 1, Bound_expr.B_lit (vi 1));
                Bound_expr.B_lit (vi 3);
              ] ),
          "n" );
      ]
      (Logical.scan ~name:"c" ~schema)
  in
  let program =
    Program.make
      [
        Program.Materialize { target = "c"; plan = base };
        Program.Init_loop
          { loop_id = 0; termination = Program.Delta_at_most 0; cte = "c"; key_idx = 0; guard = 1000 };
        Program.Snapshot { loop_id = 0 };
        Program.Materialize { target = "c#work"; plan = step };
        Program.Rename { from_ = "c#work"; into = "c" };
        Program.Loop_end { loop_id = 0; body_start = 2 };
        Program.Return (Logical.scan ~name:"c" ~schema);
      ]
      ~result_schema:schema
  in
  let catalog = Catalog.create () in
  let rel, stats = Executor.run_program_with_stats catalog program in
  (match (Relation.rows rel).(0) with
  | [| _; Value.Int n |] -> Alcotest.(check int) "converged to 3" 3 n
  | _ -> Alcotest.fail "unexpected row");
  (* 3 changing iterations + 1 confirming iteration. *)
  Alcotest.(check int) "four iterations" 4 stats.Stats.loop_iterations

(* First-iteration semantics: when a loop body runs without a
   [Snapshot] step, [loop_continue] has no previous version to diff
   against and counts the full CTE cardinality as that iteration's
   delta / update count. These tests pin that contract for the
   update-counting terminations (see the comment on
   [Executor.loop_continue]). *)

(** A 3-row CTE iterated by an identity step, with no [Snapshot] in
    the loop body. *)
let no_snapshot_program ?(guard = 10) termination =
  let schema = Schema.of_names [ "k"; "v" ] in
  let base =
    Logical.values
      (rel [ "k"; "v" ] [ [ vi 1; vi 10 ]; [ vi 2; vi 20 ]; [ vi 3; vi 30 ] ])
  in
  let step =
    Logical.project
      [ (Bound_expr.B_col 0, "k"); (Bound_expr.B_col 1, "v") ]
      (Logical.scan ~name:"c" ~schema)
  in
  Program.make
    [
      Program.Materialize { target = "c"; plan = base };
      Program.Init_loop { loop_id = 0; termination; cte = "c"; key_idx = 0; guard };
      Program.Materialize { target = "c#work"; plan = step };
      Program.Rename { from_ = "c#work"; into = "c" };
      Program.Loop_end { loop_id = 0; body_start = 2 };
      Program.Return (Logical.scan ~name:"c" ~schema);
    ]
    ~result_schema:schema

let test_first_iteration_max_updates () =
  (* Every iteration contributes the full cardinality (3): UPDATES 3
     is reached after one pass, UPDATES 7 after ceil(7/3) = 3. *)
  let _, stats =
    Executor.run_program_with_stats (Catalog.create ())
      (no_snapshot_program (Program.Max_updates 3))
  in
  Alcotest.(check int) "3 updates in one pass" 1 stats.Stats.loop_iterations;
  let _, stats =
    Executor.run_program_with_stats (Catalog.create ())
      (no_snapshot_program (Program.Max_updates 7))
  in
  Alcotest.(check int) "7 updates need three passes" 3
    stats.Stats.loop_iterations

let test_first_iteration_delta_at_most () =
  (* DELTA <= 3 holds immediately (first delta = cardinality = 3)... *)
  let _, stats =
    Executor.run_program_with_stats (Catalog.create ())
      (no_snapshot_program (Program.Delta_at_most 3))
  in
  Alcotest.(check int) "delta <= card stops at once" 1
    stats.Stats.loop_iterations;
  (* ...but DELTA = 0 can never hold without a snapshot on a nonempty
     CTE, so the guard must trip rather than terminating spuriously. *)
  match
    Executor.run_program (Catalog.create ())
      (no_snapshot_program ~guard:5 (Program.Delta_at_most 0))
  with
  | exception Executor.Execution_error m ->
    Alcotest.(check bool) "guard trips" true (contains m "guard")
  | _ -> Alcotest.fail "expected guard error"

let test_first_iteration_with_snapshot_converged () =
  (* Contrast: with a [Snapshot] the identity step yields delta 0 and
     DELTA = 0 terminates after the first, confirming iteration. *)
  let schema = Schema.of_names [ "k"; "v" ] in
  let base = Logical.values (rel [ "k"; "v" ] [ [ vi 1; vi 10 ]; [ vi 2; vi 20 ] ]) in
  let step =
    Logical.project
      [ (Bound_expr.B_col 0, "k"); (Bound_expr.B_col 1, "v") ]
      (Logical.scan ~name:"c" ~schema)
  in
  let program =
    Program.make
      [
        Program.Materialize { target = "c"; plan = base };
        Program.Init_loop
          { loop_id = 0; termination = Program.Delta_at_most 0; cte = "c"; key_idx = 0; guard = 10 };
        Program.Snapshot { loop_id = 0 };
        Program.Materialize { target = "c#work"; plan = step };
        Program.Rename { from_ = "c#work"; into = "c" };
        Program.Loop_end { loop_id = 0; body_start = 2 };
        Program.Return (Logical.scan ~name:"c" ~schema);
      ]
      ~result_schema:schema
  in
  let _, stats = Executor.run_program_with_stats (Catalog.create ()) program in
  Alcotest.(check int) "one confirming iteration" 1 stats.Stats.loop_iterations

let test_loop_guard () =
  (* A Data condition that never holds trips the guard. *)
  let pred = Bound_expr.B_binop (Ast.Lt, Bound_expr.B_col 1, Bound_expr.B_lit (vi 0)) in
  let schema = Schema.of_names [ "k"; "n" ] in
  let program =
    Program.make
      [
        Program.Materialize
          { target = "c"; plan = Logical.values (rel [ "k"; "n" ] [ [ vi 1; vi 0 ] ]) };
        Program.Init_loop
          {
            loop_id = 0;
            termination = Program.Data { any = true; pred };
            cte = "c";
            key_idx = 0;
            guard = 10;
          };
        Program.Snapshot { loop_id = 0 };
        Program.Materialize
          {
            target = "c#work";
            plan =
              Logical.project
                [ (Bound_expr.B_col 0, "k"); (Bound_expr.B_col 1, "n") ]
                (Logical.scan ~name:"c" ~schema);
          };
        Program.Rename { from_ = "c#work"; into = "c" };
        Program.Loop_end { loop_id = 0; body_start = 2 };
        Program.Return (Logical.scan ~name:"c" ~schema);
      ]
      ~result_schema:schema
  in
  match Executor.run_program (Catalog.create ()) program with
  | exception Executor.Execution_error m ->
    Alcotest.(check bool) "mentions guard" true (contains m "guard")
  | _ -> Alcotest.fail "expected guard error"

let null_key_error =
  "iterative CTE produced a NULL row key; specify a key column or remove \
   NULL keys"

let duplicate_key_error k =
  Printf.sprintf
    "iterative CTE produced duplicate rows for key %s; resolve duplicates \
     with an aggregation or GROUP BY (see paper §II)"
    k

(** The §II check over one key column, built from rows (the columnar
    view classifies it: typed with a NULL mask where it can) and from a
    batch of boxed cells (NULLs inline). Each case names the error of
    its first offending row in row order, NULL before duplicate at one
    row, or [None] for a keyed column. *)
let test_assert_unique_key () =
  let check name keys expected =
    let schema = Schema.of_names [ "k"; "v" ] in
    let n = List.length keys in
    let from_rows = rel [ "k"; "v" ] (List.map (fun k -> [ k; vi 0 ]) keys) in
    let from_batch =
      Relation.of_batch schema
        (Colbatch.make ~len:n
           [|
             Colbatch.of_values_raw (Array.of_list keys);
             Colbatch.const (vi 0) n;
           |])
    in
    List.iter
      (fun (view, r) ->
        let catalog = Catalog.create () in
        Catalog.set_temp catalog "w" r;
        let got =
          match Executor.assert_unique_key catalog ~temp:"w" ~key_idx:0 with
          | () -> None
          | exception Executor.Execution_error m -> Some m
        in
        Alcotest.(check (option string)) (name ^ ", " ^ view) expected got)
      [ ("from rows", from_rows); ("from a batch", from_batch) ]
  in
  let dup k = Some (duplicate_key_error k) and null = Some null_key_error in
  check "distinct ints" [ vi 1; vi 2; vi 3 ] None;
  check "repeated int" [ vi 1; vi 2; vi 1 ] (dup "1");
  check "Int 1 and Float 1.0" [ vi 1; vf 1.0 ] (dup "1.0");
  check "0.0 and -0.0" [ vf 0.0; vf 1.5; vf (-0.0) ] (dup "-0.0");
  check "two NaNs" [ vf Float.nan; vf 1.5; vf Float.nan ] (dup "nan");
  check "one NaN" [ vf Float.nan; vf 1.5 ] None;
  check "NULL key" [ vi 1; vnull ] null;
  check "NULL float key" [ vf 1.5; vnull ] null;
  check "2^53 and 2^53 + 1" [ vi (1 lsl 53); vi ((1 lsl 53) + 1) ] None;
  check "distinct strings" [ vs "a"; vs "b" ] None;
  check "repeated string" [ vs "a"; vs "b"; vs "a" ] (dup "'a'");
  check "NULL before a later duplicate" [ vi 1; vnull; vi 1 ] null;
  check "duplicate before a later NULL" [ vi 1; vi 1; vnull ] (dup "1");
  check "empty" [] None

let test_recursive_cte_program () =
  (* Transitive closure of 1 -> 2 -> 3 -> 4 from node 1. *)
  let catalog = Catalog.create () in
  let edges_schema = Schema.of_names [ "src"; "dst" ] in
  let tbl = Dbspinner_storage.Table.create ~name:"e" edges_schema in
  Dbspinner_storage.Table.insert_all tbl
    [ [| vi 1; vi 2 |]; [| vi 2; vi 3 |]; [| vi 3; vi 4 |] ];
  let catalog_tbl = Catalog.create_table catalog ~name:"unused" (Schema.of_names [ "x" ]) in
  ignore catalog_tbl;
  Catalog.set_temp catalog "e" (Dbspinner_storage.Table.to_relation tbl);
  let schema = Schema.of_names [ "n" ] in
  let base = Logical.values (rel [ "n" ] [ [ vi 1 ] ]) in
  (* step: SELECT e.dst FROM work JOIN e ON work.n = e.src *)
  let step =
    Logical.project
      [ (Bound_expr.B_col 2, "n") ]
      (Logical.join Logical.Inner
         ~cond:(Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 1))
         (Logical.scan ~name:"reach#w" ~schema)
         (Logical.scan ~name:"e" ~schema:edges_schema))
  in
  let program =
    Program.make
      [
        Program.Recursive_cte
          {
            name = "reach";
            work_name = "reach#w";
            base;
            step_plan = step;
            union_all = false;
            max_recursion = 100;
          };
        Program.Return (Logical.scan ~name:"reach" ~schema);
      ]
      ~result_schema:schema
  in
  let result = Executor.run_program catalog program in
  Alcotest.check relation_testable "closure"
    (rel [ "n" ] [ [ vi 1 ]; [ vi 2 ]; [ vi 3 ]; [ vi 4 ] ])
    result

let test_recursive_cycle_terminates () =
  (* UNION-distinct semantics reach a fixed point even on a cycle. *)
  let catalog = Catalog.create () in
  let edges_schema = Schema.of_names [ "src"; "dst" ] in
  Catalog.set_temp catalog "e"
    (rel [ "src"; "dst" ] [ [ vi 1; vi 2 ]; [ vi 2; vi 1 ] ]);
  let schema = Schema.of_names [ "n" ] in
  let step =
    Logical.project
      [ (Bound_expr.B_col 2, "n") ]
      (Logical.join Logical.Inner
         ~cond:(Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 1))
         (Logical.scan ~name:"r#w" ~schema)
         (Logical.scan ~name:"e" ~schema:edges_schema))
  in
  let program =
    Program.make
      [
        Program.Recursive_cte
          {
            name = "r";
            work_name = "r#w";
            base = Logical.values (rel [ "n" ] [ [ vi 1 ] ]);
            step_plan = step;
            union_all = false;
            max_recursion = 100;
          };
        Program.Return (Logical.scan ~name:"r" ~schema);
      ]
      ~result_schema:schema
  in
  Alcotest.check relation_testable "cycle closure"
    (rel [ "n" ] [ [ vi 1 ]; [ vi 2 ] ])
    (Executor.run_program catalog program)

let test_missing_return () =
  let program = Program.make [] ~result_schema:(Schema.of_names []) in
  match Executor.run_program (Catalog.create ()) program with
  | exception Executor.Execution_error _ -> ()
  | _ -> Alcotest.fail "expected error for program without Return"

(* ------------------------------------------------------------------ *)
(* The Merge step against a list-of-rows reference                     *)

(** The partial update spelled out over lists of keyed rows: per CTE
    row, in order, the work row whose key equals its key, or else the
    CTE row; a NULL work key matches nothing. *)
let reference_merge ~key_idx (cte : Value.t array list)
    (work : Value.t array list) =
  List.map
    (fun row ->
      let k = row.(key_idx) in
      Option.value ~default:row
        (List.find_opt (fun w -> Value.equal w.(key_idx) k) work))
    cte

(* Same kind and same value, floats bit for bit: [Int 1] is not
   [Float 1.0], and [0.0] is not [-0.0]. *)
let identical_value a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let check_identical_rows msg expected (actual : Relation.t) =
  let show rows =
    String.concat "; "
      (List.map
         (fun r ->
           String.concat ","
             (Array.to_list (Array.map Value.to_string r)))
         rows)
  in
  let actual = Array.to_list (Relation.rows actual) in
  if
    not
      (List.length expected = List.length actual
      && List.for_all2
           (fun e a -> Array.for_all2 identical_value e a)
           expected actual)
  then Alcotest.failf "%s: expected [%s], got [%s]" msg (show expected)
      (show actual)

(** One [Merge] of [work] into [cte] in a program of its own. *)
let run_merge ~key_idx cte work =
  let schema = Relation.schema cte in
  Executor.run_program (Catalog.create ())
    (Program.make
       [
         Program.Materialize { target = "c"; plan = Logical.values cte };
         Program.Materialize { target = "c#work"; plan = Logical.values work };
         Program.Init_loop
           {
             loop_id = 0;
             termination = Program.Max_iterations 1;
             cte = "c";
             key_idx;
             guard = 10;
           };
         Program.Merge
           {
             loop_id = 0;
             cte = "c";
             work = "c#work";
             target = "c#merge";
             key_idx;
           };
         Program.Return (Logical.scan ~name:"c#merge" ~schema);
       ]
       ~result_schema:schema)

let test_merge_cases () =
  let case ?(key_idx = 0) name cte work =
    let names = List.init (List.length (List.hd (cte @ work))) (Printf.sprintf "c%d") in
    let arrays = List.map Array.of_list in
    check_identical_rows name
      (reference_merge ~key_idx (arrays cte) (arrays work))
      (run_merge ~key_idx (rel names cte) (rel names work))
  in
  let cte = [ [ vi 1; vi 10 ]; [ vi 2; vi 20 ]; [ vi 3; vi 30 ] ] in
  case "update in place" cte [ [ vi 3; vi 33 ]; [ vi 1; vi 11 ] ];
  case "Int key takes the work's Float" cte [ [ vf 2.0; vi 22 ] ];
  case "zero keys" [ [ vf 0.0; vi 1 ]; [ vf 1.5; vi 2 ] ] [ [ vf (-0.0); vi 9 ] ];
  case "negative zero in the CTE"
    [ [ vf (-0.0); vi 1 ]; [ vf 1.5; vi 2 ] ]
    [ [ vf 0.0; vi 9 ] ];
  (* A CTE that is not keyed, or two work rows with one key, raise
     the §II error of the first offending row. *)
  let fails name expected cte work =
    let names = [ "c0"; "c1" ] in
    match run_merge ~key_idx:0 (rel names cte) (rel names work) with
    | exception Executor.Execution_error m ->
      Alcotest.(check string) name expected m
    | _ -> Alcotest.failf "%s: expected the §II error" name
  in
  fails "duplicate CTE keys" (duplicate_key_error "1")
    [ [ vi 1; vs "a" ]; [ vi 2; vs "b" ]; [ vi 1; vs "c" ] ]
    [ [ vi 1; vs "z" ] ];
  fails "duplicate work keys" (duplicate_key_error "2") cte
    [ [ vi 2; vi 21 ]; [ vi 3; vi 31 ]; [ vi 2; vi 22 ]; [ vi 2; vi 23 ] ];
  case "NaN keys" [ [ vf Float.nan; vi 1 ]; [ vf 1.5; vi 2 ] ]
    [ [ vf Float.nan; vi 3 ] ];
  fails "NULL CTE key" null_key_error
    [ [ vnull; vi 1 ]; [ vi 1; vi 2 ]; [ vnull; vi 3 ] ]
    [ [ vi 1; vi 9 ]; [ vnull; vi 8 ] ];
  fails "NULL and duplicate CTE keys" null_key_error
    [ [ vnull; vi 1 ]; [ vi 1; vi 2 ]; [ vi 1; vi 3 ] ]
    [ [ vnull; vi 8 ]; [ vi 1; vi 9 ] ];
  case "NULL work key" cte [ [ vnull; vi 8 ]; [ vi 1; vi 9 ] ];
  case "work key absent from the CTE" cte [ [ vi 7; vi 70 ]; [ vi 2; vi 21 ] ];
  case "Int column, Float work" cte [ [ vi 2; vf 2.5 ] ];
  case "NULL cells"
    [ [ vi 1; vnull ]; [ vi 2; vi 5 ]; [ vi 3; vi 6 ] ]
    [ [ vi 1; vi 4 ]; [ vi 2; vnull ] ];
  case "all-NULL column" [ [ vi 1; vnull ]; [ vi 2; vnull ] ] [ [ vi 2; vs "x" ] ];
  case ~key_idx:1 "key in column 1"
    [ [ vs "a"; vi 1; vb true ]; [ vs "b"; vi 2; vb false ] ]
    [ [ vs "z"; vi 2; vb true ] ];
  case "string keys" [ [ vs "a"; vi 1 ]; [ vs "b"; vi 2 ] ] [ [ vs "b"; vi 3 ] ];
  let names = [ "c0"; "c1" ] in
  let merged = run_merge ~key_idx:0 (rel names cte) (rel names []) in
  check_identical_rows "empty work" (List.map Array.of_list cte) merged;
  check_identical_rows "empty CTE" []
    (run_merge ~key_idx:0 (rel names []) (rel names [ [ vi 1; vi 2 ] ]))

(** Run [program] on a catalog, returning every relation its [Merge]
    steps bound to [c#merge], in order, and the execution error that
    stopped it, if one did. *)
let run_recording_merges program =
  let catalog = Catalog.create () and stats = Stats.create () in
  let merged = ref [] in
  let backend =
    {
      Executor.eval = Executor.run_plan ~stats catalog;
      find = Catalog.find_temp_opt catalog;
      bind =
        (fun name r ->
          if name = "c#merge" then merged := r :: !merged;
          Catalog.set_temp catalog name r);
      rename = (fun ~from_ ~into -> Catalog.rename_temp catalog ~from_ ~into);
      drop = Catalog.drop_temp catalog;
      gather = Fun.id;
      scatter = Fun.id;
      cardinality = Relation.cardinality;
      recursive_cte =
        (fun ~name:_ ~work_name:_ ~base:_ ~step_plan:_ ~union_all:_
             ~max_recursion:_ -> Alcotest.fail "no recursive CTE here");
    }
  in
  let m =
    Executor.start backend ~stats ~guards:Dbspinner_exec.Guards.none program
  in
  let error =
    match
      while not (Executor.halted m) do
        Executor.step m
      done
    with
    | () ->
      ignore (Executor.finish m);
      None
    | exception Executor.Execution_error msg -> Some msg
  in
  (Array.of_list (List.rev !merged), error)

let kv_schema = Schema.of_names [ "k"; "v" ]

let merge_step =
  Program.Merge
    { loop_id = 0; cte = "c"; work = "c#work"; target = "c#merge"; key_idx = 0 }

let init_loop iterations =
  Program.Init_loop
    {
      loop_id = 0;
      termination = Program.Max_iterations iterations;
      cte = "c";
      key_idx = 0;
      guard = 10;
    }

let values rows = Logical.values (rel [ "k"; "v" ] (List.map Array.to_list rows))

(** A loop whose work keys keep their representation for two
    iterations (the merge shares the CTE's key column, so the carried
    index is reused) and then turn into floats (the key column is
    rewritten and the index rebuilt). Every iteration's merge matches
    the reference. *)
let test_merge_carried_index () =
  let col i = Bound_expr.B_col i and lit v = Bound_expr.B_lit v in
  (* SELECT CASE WHEN v >= 2 THEN k * 1.0 ELSE k END, v + 1 FROM c
     WHERE k <= 2 *)
  let step =
    Logical.project
      [
        ( Bound_expr.B_case
            ( [
                ( Bound_expr.B_binop (Ast.Ge, col 1, lit (vi 2)),
                  Bound_expr.B_binop (Ast.Mul, col 0, lit (vf 1.0)) );
              ],
              Some (col 0) ),
          "k" );
        (Bound_expr.B_binop (Ast.Add, col 1, lit (vi 1)), "v");
      ]
      (Logical.filter
         (Bound_expr.B_binop (Ast.Le, col 0, lit (vi 2)))
         (Logical.scan ~name:"c" ~schema:kv_schema))
  in
  let r0 = List.init 5 (fun i -> [| vi (i + 1); vi 0 |]) in
  let merged, error =
    run_recording_merges
      (Program.make
         [
           Program.Materialize { target = "c"; plan = values r0 };
           init_loop 4;
           Program.Materialize { target = "c#work"; plan = step };
           merge_step;
           Program.Rename { from_ = "c#merge"; into = "c" };
           Program.Loop_end { loop_id = 0; body_start = 2 };
           Program.Return (Logical.scan ~name:"c" ~schema:kv_schema);
         ]
         ~result_schema:kv_schema)
  in
  Alcotest.(check (option string)) "no error" None error;
  Alcotest.(check int) "one merge per iteration" 4 (Array.length merged);
  let work_of rows =
    List.filter_map
      (fun r ->
        if Value.compare r.(0) (vi 2) <= 0 then
          let v = Value.to_int r.(1) in
          Some
            [| (if v >= 2 then Value.Float (Value.to_float r.(0)) else r.(0));
               vi (v + 1) |]
        else None)
      rows
  in
  ignore
    (Array.fold_left
       (fun (i, cte) out ->
         let expected = reference_merge ~key_idx:0 cte (work_of cte) in
         check_identical_rows (Printf.sprintf "iteration %d" (i + 1)) expected out;
         (i + 1, expected))
       (0, r0) merged);
  let key i = Colbatch.col (Relation.columnar merged.(i)) 0 in
  Alcotest.(check bool) "unchanged keys share the key column" true
    (key 0 == key 1);
  Alcotest.(check bool) "float keys rewrite the key column" false
    (key 1 == key 2)

(** Merges of one loop where the second has a duplicate work key: it
    raises the §II error for that key instead of merging, so no CTE
    with a repeated key (and new row positions) reaches a later merge
    through the index built before it. *)
let test_merge_index_after_fallback () =
  let r0 = List.init 4 (fun i -> [| vi (i + 1); vi 0 |]) in
  let works =
    [
      [ [| vi 3; vi 30 |] ];
      [ [| vi 2; vi 20 |]; [| vi 2; vi 21 |] ];
    ]
  in
  let merged, error =
    run_recording_merges
      (Program.make
         (Program.Materialize { target = "c"; plan = values r0 }
          :: init_loop 1
          :: List.concat_map
               (fun w ->
                 [
                   Program.Materialize { target = "c#work"; plan = values w };
                   merge_step;
                   Program.Rename { from_ = "c#merge"; into = "c" };
                 ])
               works
         @ [ Program.Return (Logical.scan ~name:"c" ~schema:kv_schema) ])
         ~result_schema:kv_schema)
  in
  Alcotest.(check int) "only the first merge binds" 1 (Array.length merged);
  check_identical_rows "merge 1"
    (reference_merge ~key_idx:0 r0 (List.hd works))
    merged.(0);
  Alcotest.(check (option string)) "merge 2 raises for key 2"
    (Some (duplicate_key_error "2")) error

(* ------------------------------------------------------------------ *)
(* Plans read through a carried key index                              *)

let ck_schema = Schema.of_names [ "k"; "v" ]
let scan_c = Logical.scan ~name:"c" ~schema:ck_schema

(* A relation of the same rows over fresh columns: no index serves it. *)
let unindexed r = Relation.make (Relation.schema r) (Relation.rows r)

(** [plan] run with the index of [indexed] (key column 0) over a
    catalog binding [bound] as [c], against [plan] run without an index
    over a copy of [bound]: the same rows in the same order, cell for
    cell. [served] says whether the index replaced a read of the whole
    CTE, which shows as fewer rows scanned. *)
let check_indexed ?indexed ~served msg ~bound ~temps plan =
  let catalog c =
    let catalog = Catalog.create () in
    List.iter (fun (n, r) -> Catalog.set_temp catalog n r) (("c", c) :: temps);
    catalog
  in
  let index =
    Executor.key_index (Option.value indexed ~default:bound) ~key_idx:0
  in
  List.iter
    (fun columnar ->
      let msg = Printf.sprintf "%s (columnar %b)" msg columnar in
      let s_ix = Stats.create () and s_plain = Stats.create () in
      let got =
        Executor.run_plan ~columnar ~index ~stats:s_ix (catalog bound) plan
      in
      let want =
        Executor.run_plan ~columnar ~stats:s_plain
          (catalog (unindexed bound)) plan
      in
      check_identical_rows msg (Array.to_list (Relation.rows want)) got;
      Alcotest.(check bool)
        (Printf.sprintf "%s: index served (rows scanned %d, without %d)" msg
           s_ix.Stats.rows_scanned s_plain.Stats.rows_scanned)
        served
        (s_ix.Stats.rows_scanned < s_plain.Stats.rows_scanned))
    [ false; true ]

let cte_rows =
  [ [ vi 1; vi 10 ]; [ vi 2; vnull ]; [ vi 3; vi 30 ]; [ vi 4; vf 4.5 ] ]
let cte () = rel [ "k"; "v" ] cte_rows

let test_index_semijoin () =
  let semijoin keys =
    let a = rel [ "key" ] (List.map (fun k -> [ k ]) keys) in
    ( [ ("a", a) ],
      Logical.subquery_filter ~anti:false ~key:(Some (Bound_expr.B_col 0)) scan_c
        (Logical.scan ~name:"a" ~schema:(Relation.schema a)) )
  in
  let case msg keys =
    let temps, plan = semijoin keys in
    check_indexed ~served:true msg ~bound:(cte ()) ~temps plan
  in
  case "keys out of CTE order" [ vi 4; vi 1 ];
  case "NULL, absent and repeated keys" [ vnull; vi 9; vi 3; vi 3; vnull ];
  case "Float keys name Int keys" [ vf 2.0; vi 2; vf 3.5 ];
  case "no affected key" [];
  (* NOT IN and a probe other than the key column keep the plain
     semijoin. *)
  let temps, _ = semijoin [ vi 1 ] in
  let a = Logical.scan ~name:"a" ~schema:(Schema.of_names [ "key" ]) in
  check_indexed ~served:false "NOT IN" ~bound:(cte ()) ~temps
    (Logical.subquery_filter ~anti:true
       ~key:(Some (Bound_expr.B_col 0))
       scan_c a);
  check_indexed ~served:false "probe on a payload column" ~bound:(cte ()) ~temps
    (Logical.subquery_filter ~anti:false
       ~key:(Some (Bound_expr.B_col 1))
       scan_c a)

let test_index_join_leg () =
  let col i = Bound_expr.B_col i and lit v = Bound_expr.B_lit v in
  let eq a b = Bound_expr.B_binop (Ast.Eq, a, b) in
  let p_schema = Schema.of_names [ "x"; "y" ] in
  let probes =
    rel [ "x"; "y" ]
      [
        [ vi 3; vi 1 ]; [ vnull; vi 2 ]; [ vf 2.0; vi 3 ]; [ vi 7; vi 4 ];
        [ vi 1; vi 5 ]; [ vf 4.0; vi 6 ]; [ vi 3; vi 7 ];
      ]
  in
  let join ?residual kind right =
    let cond =
      match residual with
      | None -> eq (col 0) (col 2)
      | Some r -> Bound_expr.B_binop (Ast.And, eq (col 0) (col 2), r)
    in
    Logical.join kind ~cond (Logical.scan ~name:"p" ~schema:p_schema) right
  in
  let temps = [ ("p", probes) ] in
  let filtered =
    Logical.filter (Bound_expr.B_binop (Ast.Neq, col 1, lit (vi 30))) scan_c
  in
  List.iter
    (fun (kname, kind) ->
      let case ?residual msg right =
        check_indexed ~served:true (kname ^ ": " ^ msg) ~bound:(cte ()) ~temps
          (join ?residual kind right)
      in
      case "NULL and Float probe keys" scan_c;
      case "filter rejects matched rows" filtered;
      let residual = Bound_expr.B_binop (Ast.Gt, col 1, lit (vi 5)) in
      case "residual over the joined row" ~residual scan_c;
      case "filter and residual" ~residual filtered;
      check_indexed ~served:true (kname ^ ": no probe row") ~bound:(cte ())
        ~temps:[ ("p", rel [ "x"; "y" ] []) ]
        (join kind filtered))
    [ ("inner", Logical.Inner); ("left", Logical.Left_outer) ];
  (* A right-outer join, and a key pair on a payload column, keep the
     hash join. *)
  check_indexed ~served:false "right outer" ~bound:(cte ()) ~temps
    (join Logical.Right_outer scan_c);
  check_indexed ~served:false "payload key" ~bound:(cte ()) ~temps
    (Logical.join Logical.Inner ~cond:(eq (col 0) (col 3))
       (Logical.scan ~name:"p" ~schema:p_schema) scan_c)

(** The index of one CTE version does not serve another whose key
    column was rewritten, here by float keys equal to the old ones. *)
let test_index_fallback () =
  let floats =
    rel [ "k"; "v" ]
      (List.map
         (fun r -> Value.Float (Value.to_float (List.hd r)) :: List.tl r)
         cte_rows)
  in
  let a = rel [ "key" ] [ [ vi 2 ]; [ vi 4 ] ] in
  check_indexed ~served:false "semijoin" ~indexed:(cte ()) ~bound:floats
    ~temps:[ ("a", a) ]
    (Logical.subquery_filter ~anti:false ~key:(Some (Bound_expr.B_col 0)) scan_c
       (Logical.scan ~name:"a" ~schema:(Relation.schema a)));
  check_indexed ~served:false "join leg" ~indexed:(cte ()) ~bound:floats
    ~temps:[ ("a", a) ]
    (Logical.join Logical.Left_outer
       ~cond:
         (Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 1))
       (Logical.scan ~name:"a" ~schema:(Relation.schema a)) scan_c)

let () =
  Alcotest.run "exec"
    [
      ( "eval",
        [
          Alcotest.test_case "three-valued-logic" `Quick test_three_valued_logic;
          Alcotest.test_case "in-semantics" `Quick test_in_semantics;
          Alcotest.test_case "between-like" `Quick test_between_and_like;
          Alcotest.test_case "scalar-functions" `Quick test_scalar_functions;
          Alcotest.test_case "cast-case" `Quick test_cast_and_case;
          Alcotest.test_case "null-propagation" `Quick
            test_arithmetic_null_propagation;
          Alcotest.test_case "predicates" `Quick test_eval_pred;
        ] );
      ( "operators",
        [
          Alcotest.test_case "join-kinds" `Quick test_joins_all_kinds;
          Alcotest.test_case "join-null-keys" `Quick test_join_null_keys_never_match;
          Alcotest.test_case "join-residual" `Quick test_join_residual_condition;
          Alcotest.test_case "non-equi-join" `Quick test_nested_loop_non_equi;
          Alcotest.test_case "aggregate-kinds" `Quick test_aggregate_kinds;
          Alcotest.test_case "aggregate-empty" `Quick test_aggregate_empty_input;
          Alcotest.test_case "aggregate-distinct" `Quick test_aggregate_distinct;
          Alcotest.test_case "sort-limit-distinct" `Quick test_sort_limit_distinct;
        ] );
      ( "programs",
        [
          Alcotest.test_case "metadata-iterations" `Quick
            test_loop_metadata_iterations;
          Alcotest.test_case "metadata-updates" `Quick test_loop_metadata_updates;
          Alcotest.test_case "data-any" `Quick test_loop_data_any;
          Alcotest.test_case "data-all" `Quick test_loop_data_all;
          Alcotest.test_case "delta" `Quick test_loop_delta_termination;
          Alcotest.test_case "first-iteration-max-updates" `Quick
            test_first_iteration_max_updates;
          Alcotest.test_case "first-iteration-delta" `Quick
            test_first_iteration_delta_at_most;
          Alcotest.test_case "first-iteration-snapshot-converged" `Quick
            test_first_iteration_with_snapshot_converged;
          Alcotest.test_case "guard" `Quick test_loop_guard;
          Alcotest.test_case "unique-key-check" `Quick test_assert_unique_key;
          Alcotest.test_case "recursive-cte" `Quick test_recursive_cte_program;
          Alcotest.test_case "recursive-cycle" `Quick test_recursive_cycle_terminates;
          Alcotest.test_case "missing-return" `Quick test_missing_return;
        ] );
      ( "merge",
        [
          Alcotest.test_case "reference-cases" `Quick test_merge_cases;
          Alcotest.test_case "carried-index" `Quick test_merge_carried_index;
          Alcotest.test_case "index-after-fallback" `Quick
            test_merge_index_after_fallback;
        ] );
      ( "index",
        [
          Alcotest.test_case "semijoin" `Quick test_index_semijoin;
          Alcotest.test_case "join-leg" `Quick test_index_join_leg;
          Alcotest.test_case "rewritten-keys" `Quick test_index_fallback;
        ] );
    ]
