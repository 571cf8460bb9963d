(** Dedicated tests for the simulated shared-nothing layer: partition
    laws at specific worker counts, the distributed executor on every
    operator kind, whole-step-program execution with partitioned temps,
    and shuffle accounting invariants. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Logical = Dbspinner_plan.Logical
module Bound_expr = Dbspinner_plan.Bound_expr
module Program = Dbspinner_plan.Program
module Partition = Dbspinner_mpp.Partition
module Distributed = Dbspinner_mpp.Distributed
module Executor = Dbspinner_exec.Executor
module Engine = Dbspinner.Engine
module Errors = Dbspinner.Errors
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
open Helpers

let stats () = Dbspinner_exec.Stats.create ()

let catalog_with temps =
  let c = Catalog.create () in
  List.iter (fun (name, r) -> Catalog.set_temp c name r) temps;
  c

let numbers n = rel [ "k"; "v" ] (List.init n (fun i -> [ vi (i mod 7); vi i ]))

(** Check a plan across several worker counts against single-node. *)
let check_plan ?(exact = true) name plan temps =
  let catalog = catalog_with temps in
  let single = Dbspinner_exec.Executor.run_plan ~stats:(stats ()) catalog plan in
  List.iter
    (fun workers ->
      let dist, shuffles = Distributed.run_plan ~workers catalog plan in
      if exact then
        Alcotest.check relation_testable
          (Printf.sprintf "%s (workers=%d)" name workers)
          single dist
      else
        Alcotest.(check bool)
          (Printf.sprintf "%s approx (workers=%d)" name workers)
          true (approx_equal_bag single dist);
      Alcotest.(check bool) "shuffle counters non-negative" true
        (shuffles.Distributed.rows_shuffled >= 0
        && shuffles.Distributed.exchanges >= 0))
    [ 1; 2; 3; 7 ]

(* ------------------------------------------------------------------ *)

let test_partition_worker_of_key_stability () =
  (* worker_of_key is a pure function of the key. *)
  let key = [| vi 42; vs "x" |] in
  Alcotest.(check int) "stable" (Partition.worker_of_key ~workers:5 key)
    (Partition.worker_of_key ~workers:5 key);
  Alcotest.(check int) "null keys to worker 0" 0
    (Partition.worker_of_key ~workers:5 [| vnull; vi 1 |]);
  Alcotest.check_raises "workers must be positive"
    (Invalid_argument "Partition.worker_of_key: workers <= 0") (fun () ->
      ignore (Partition.worker_of_key ~workers:0 key))

let test_round_robin_balance () =
  let parts = Partition.round_robin ~workers:4 (numbers 103) in
  Alcotest.(check int) "four partitions" 4 (Array.length parts);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "balanced within one" true
        (abs (Relation.cardinality p - (103 / 4)) <= 1))
    parts;
  Alcotest.(check int) "bag preserved" 103
    (Partition.total_cardinality parts)

let scan name schema = Logical.scan ~name ~schema

let kv_schema = Schema.of_names [ "k"; "v" ]

let test_distributed_operators () =
  let data = numbers 40 in
  let other =
    rel [ "k"; "w" ] (List.init 10 (fun i -> [ vi i; vi (100 + i) ]))
  in
  let temps = [ ("t", data); ("u", other) ] in
  let t = scan "t" kv_schema in
  let u = scan "u" (Schema.of_names [ "k"; "w" ]) in
  let eq = Bound_expr.B_binop (Dbspinner_sql.Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2) in
  check_plan "filter"
    (Logical.filter
       (Bound_expr.B_binop (Dbspinner_sql.Ast.Gt, Bound_expr.B_col 1, Bound_expr.B_lit (vi 20)))
       t)
    temps;
  check_plan "project"
    (Logical.project [ (Bound_expr.B_col 1, "v") ] t)
    temps;
  check_plan "inner-join" (Logical.join Logical.Inner ~cond:eq t u) temps;
  check_plan "left-join" (Logical.join Logical.Left_outer ~cond:eq t u) temps;
  check_plan "full-join" (Logical.join Logical.Full_outer ~cond:eq t u) temps;
  check_plan "cross-join" (Logical.join Logical.Cross t u) temps;
  check_plan "distinct" (Logical.distinct (Logical.project [ (Bound_expr.B_col 0, "k") ] t)) temps;
  check_plan "sort-limit-offset"
    (Logical.limit 5 (Logical.offset 3 (Logical.sort [ (Bound_expr.B_col 1, true) ] t)))
    temps;
  check_plan "union"
    (Logical.union ~all:true t (scan "t" kv_schema))
    temps;
  check_plan "intersect" (Logical.intersect ~all:false t t) temps;
  check_plan "except-all" (Logical.except ~all:true t t) temps;
  check_plan "semi-subquery"
    (Logical.subquery_filter ~anti:false
       ~key:(Some (Bound_expr.B_col 0))
       t
       (Logical.project [ (Bound_expr.B_col 0, "k") ] u))
    temps;
  check_plan "anti-subquery"
    (Logical.subquery_filter ~anti:true
       ~key:(Some (Bound_expr.B_col 0))
       t
       (Logical.project [ (Bound_expr.B_col 0, "k") ] u))
    temps;
  check_plan "grouped-aggregate"
    (Logical.aggregate
       ~keys:[ Bound_expr.B_col 0 ]
       ~key_names:[ "k" ]
       ~aggs:
         [
           {
             Logical.agg_kind = Dbspinner_sql.Ast.Sum;
             agg_distinct = false;
             agg_arg = Bound_expr.B_col 1;
           };
           {
             Logical.agg_kind = Dbspinner_sql.Ast.Count;
             agg_distinct = true;
             agg_arg = Bound_expr.B_col 1;
           };
         ]
       ~agg_names:[ "s"; "c" ] t)
    temps;
  check_plan "global-aggregate"
    (Logical.aggregate ~keys:[] ~key_names:[]
       ~aggs:
         [
           {
             Logical.agg_kind = Dbspinner_sql.Ast.Min;
             agg_distinct = false;
             agg_arg = Bound_expr.B_col 1;
           };
         ]
       ~agg_names:[ "m" ] t)
    temps

let test_more_workers_never_change_results () =
  (* Worker count is an execution detail; 1 worker must equal 16. *)
  let data = numbers 64 in
  let catalog = catalog_with [ ("t", data) ] in
  let plan =
    Logical.aggregate
      ~keys:[ Bound_expr.B_col 0 ]
      ~key_names:[ "k" ]
      ~aggs:
        [
          {
            Logical.agg_kind = Dbspinner_sql.Ast.Count_star;
            agg_distinct = false;
            agg_arg = Bound_expr.B_lit vnull;
          };
        ]
      ~agg_names:[ "n" ]
      (scan "t" kv_schema)
  in
  let one, _ = Distributed.run_plan ~workers:1 catalog plan in
  let sixteen, _ = Distributed.run_plan ~workers:16 catalog plan in
  Alcotest.check relation_testable "1 = 16 workers" one sixteen

let test_single_worker_shuffles_nothing () =
  let catalog = catalog_with [ ("t", numbers 30) ] in
  let plan =
    Logical.join Logical.Inner
      ~cond:(Bound_expr.B_binop (Dbspinner_sql.Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2))
      (scan "t" kv_schema) (scan "t" kv_schema)
  in
  let _, shuffles = Distributed.run_plan ~workers:1 catalog plan in
  Alcotest.(check int) "no rows cross a single worker" 0
    shuffles.Distributed.rows_shuffled

let test_run_program_temp_lifecycle () =
  (* Rename swaps partition sets; Drop removes them; the loop reads the
     renamed temp in the next iteration. *)
  let schema = Schema.of_names [ "k"; "n" ] in
  let program =
    Program.make
      [
        Program.Materialize
          { target = "c"; plan = Logical.values (rel [ "k"; "n" ] [ [ vi 1; vi 0 ] ]) };
        Program.Init_loop
          {
            loop_id = 0;
            termination = Program.Max_iterations 6;
            cte = "c";
            key_idx = 0;
            guard = 100;
          };
        Program.Snapshot { loop_id = 0 };
        Program.Materialize
          {
            target = "c#work";
            plan =
              Logical.project
                [
                  (Bound_expr.B_col 0, "k");
                  ( Bound_expr.B_binop
                      (Dbspinner_sql.Ast.Add, Bound_expr.B_col 1, Bound_expr.B_lit (vi 1)),
                    "n" );
                ]
                (scan "c" schema);
          };
        Program.Assert_unique_key { temp = "c#work"; key_idx = 0 };
        Program.Rename { from_ = "c#work"; into = "c" };
        Program.Loop_end { loop_id = 0; body_start = 2 };
        Program.Return (scan "c" schema);
      ]
      ~result_schema:schema
  in
  let rel_out, _ = Distributed.run_program ~workers:3 (Catalog.create ()) program in
  Alcotest.check relation_testable "distributed loop counts to 6"
    (rel [ "k"; "n" ] [ [ vi 1; vi 6 ] ])
    rel_out

let test_run_program_delta_termination () =
  let schema = Schema.of_names [ "k"; "n" ] in
  let step =
    Logical.project
      [
        (Bound_expr.B_col 0, "k");
        ( Bound_expr.B_func
            ( Bound_expr.F_least,
              [
                Bound_expr.B_binop
                  (Dbspinner_sql.Ast.Add, Bound_expr.B_col 1, Bound_expr.B_lit (vi 1));
                Bound_expr.B_lit (vi 4);
              ] ),
          "n" );
      ]
      (scan "c" schema)
  in
  let program =
    Program.make
      [
        Program.Materialize
          { target = "c"; plan = Logical.values (rel [ "k"; "n" ] [ [ vi 1; vi 0 ] ]) };
        Program.Init_loop
          {
            loop_id = 0;
            termination = Program.Delta_at_most 0;
            cte = "c";
            key_idx = 0;
            guard = 100;
          };
        Program.Snapshot { loop_id = 0 };
        Program.Materialize { target = "c#work"; plan = step };
        Program.Rename { from_ = "c#work"; into = "c" };
        Program.Loop_end { loop_id = 0; body_start = 2 };
        Program.Return (scan "c" schema);
      ]
      ~result_schema:schema
  in
  let rel_out, _ = Distributed.run_program ~workers:4 (Catalog.create ()) program in
  Alcotest.check relation_testable "distributed delta converges"
    (rel [ "k"; "n" ] [ [ vi 1; vi 4 ] ])
    rel_out

let test_run_program_duplicate_key_detected_across_partitions () =
  (* Two rows with the same key land on different workers under round
     robin; the check must still catch them. *)
  let schema = Schema.of_names [ "k" ] in
  let program =
    Program.make
      [
        Program.Materialize
          { target = "w"; plan = Logical.values (rel [ "k" ] [ [ vi 1 ]; [ vi 1 ] ]) };
        Program.Assert_unique_key { temp = "w"; key_idx = 0 };
        Program.Return (scan "w" schema);
      ]
      ~result_schema:schema
  in
  match Distributed.run_program ~workers:2 (Catalog.create ()) program with
  | exception Dbspinner_exec.Executor.Execution_error m ->
    Alcotest.(check bool) "duplicate found" true (contains m "duplicate")
  | _ -> Alcotest.fail "expected duplicate-key error"

let test_run_program_unsupported_recursive () =
  let schema = Schema.of_names [ "n" ] in
  let program =
    Program.make
      [
        Program.Recursive_cte
          {
            name = "r";
            work_name = "r#w";
            base = Logical.values (rel [ "n" ] [ [ vi 1 ] ]);
            step_plan = Logical.values (rel [ "n" ] []);
            union_all = false;
            max_recursion = 10;
          };
        Program.Return (scan "r" schema);
      ]
      ~result_schema:schema
  in
  match Distributed.run_program ~workers:2 (Catalog.create ()) program with
  | exception Dbspinner_exec.Executor.Execution_error m ->
    Alcotest.(check bool) "names distributed execution" true
      (contains m "distributed execution")
  | _ -> Alcotest.fail "expected a distributed-execution error"

(* ------------------------------------------------------------------ *)
(* One interpreter: errors read the same on every backend              *)

(* The normalized error a run raises, or "ok". *)
let error_text f =
  match Errors.wrap f with
  | _ -> "ok"
  | exception e -> Errors.to_string e

let check_same_error name catalog program =
  let single =
    error_text (fun () -> ignore (Executor.run_program catalog program))
  in
  let dist =
    error_text (fun () ->
        ignore (Distributed.run_program ~workers:2 catalog program))
  in
  Alcotest.(check bool) (name ^ " raises") true (single <> "ok");
  Alcotest.(check string) name single dist

let test_error_parity () =
  let schema = Schema.of_names [ "k" ] in
  let values rows = Logical.values (rel [ "k" ] rows) in
  let program steps =
    Program.make (steps @ [ Program.Return (scan "c" schema) ])
      ~result_schema:schema
  in
  let check name steps =
    check_same_error name (Catalog.create ()) (program steps)
  in
  check "snapshot of uninitialized loop" [ Program.Snapshot { loop_id = 7 } ];
  check "loop_end of uninitialized loop"
    [
      Program.Materialize { target = "c"; plan = values [ [ vi 1 ] ] };
      Program.Loop_end { loop_id = 7; body_start = 0 };
    ];
  check "delta_materialize of uninitialized loop"
    [
      Program.Materialize { target = "c"; plan = values [ [ vi 1 ] ] };
      Program.Delta_materialize
        {
          loop_id = 7;
          target = "c#work";
          cte = "c";
          key_idx = 0;
          full_plan = scan "c" schema;
          restricted_plan = scan "c" schema;
          affected_plans = [];
          delta_name = "c#delta";
          affected_name = "c#affected";
        };
    ];
  check "duplicate key"
    [
      Program.Materialize
        { target = "c"; plan = values [ [ vi 1 ]; [ vi 1 ] ] };
      Program.Assert_unique_key { temp = "c"; key_idx = 0 };
    ];
  check "NULL key"
    [
      Program.Materialize
        { target = "c"; plan = values [ [ vi 1 ]; [ vnull ] ] };
      Program.Assert_unique_key { temp = "c"; key_idx = 0 };
    ];
  check "guard trip"
    [
      Program.Materialize { target = "c"; plan = values [ [ vi 1 ] ] };
      Program.Init_loop
        {
          loop_id = 0;
          termination = Program.Max_iterations 10;
          cte = "c";
          key_idx = 0;
          guard = 3;
        };
      Program.Snapshot { loop_id = 0 };
      Program.Materialize { target = "c#work"; plan = scan "c" schema };
      Program.Rename { from_ = "c#work"; into = "c" };
      Program.Loop_end { loop_id = 0; body_start = 2 };
    ]

let test_int_float_duplicate_key () =
  (* [k * 1.0] turns key 1 into Float 1.0 next to the untouched Int 1:
     one key under SQL [=], so the §II check must reject it on both
     executors. *)
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE t (k INT, v INT)");
  ignore (Engine.execute e "INSERT INTO t VALUES (1, 10), (2, 20)");
  let sql =
    "WITH ITERATIVE c (k, v) KEY k AS (SELECT k, v FROM t ITERATE SELECT k * \
     1.0, v + 1 FROM c WHERE k = 1 UNION ALL SELECT k, v FROM c WHERE k = 1 \
     UNTIL 1 ITERATIONS) SELECT * FROM c"
  in
  let catalog = Engine.catalog e in
  let program =
    Iterative_rewrite.compile ~options:Options.default
      ~lookup:(fun name ->
        Option.map Dbspinner_storage.Table.schema
          (Catalog.find_table_opt catalog name))
      (Dbspinner_sql.Parser.parse_query sql)
  in
  check_same_error "Int 1 and Float 1.0 are one key" catalog program;
  Alcotest.(check bool) "the duplicate-key error" true
    (contains
       (error_text (fun () -> ignore (Executor.run_program catalog program)))
       "duplicate rows for key")

(** §II keys the CTE from R0 on: an R0 with a repeated or NULL key is
    an error before the first iteration, whichever update path the loop
    compiles to. The same error text on every executor, with [use_rename]
    on and off (rename vs merge must not change the answer). *)
let test_r0_key_check () =
  let e = Engine.create () in
  Engine.load_table e ~name:"t"
    (rel [ "k"; "v" ] [ [ vi 1; vi 10 ]; [ vi 1; vi 11 ]; [ vi 2; vi 20 ] ]);
  Engine.load_table e ~name:"n"
    (rel [ "k"; "v" ] [ [ vi 1; vi 10 ]; [ vnull; vi 11 ]; [ vi 2; vi 20 ] ]);
  let catalog = Engine.catalog e in
  let loop r0 ri =
    Printf.sprintf
      "WITH ITERATIVE r (k, v) KEY k AS (SELECT k, v FROM %s ITERATE %s \
       UNTIL 3 ITERATIONS) SELECT * FROM r"
      r0 ri
  in
  let duplicate =
    "execute error: iterative CTE produced duplicate rows for key 1; resolve \
     duplicates with an aggregation or GROUP BY (see paper §II)"
  and null =
    "execute error: iterative CTE produced a NULL row key; specify a key \
     column or remove NULL keys"
  in
  List.iter
    (fun (name, sql, expected) ->
      List.iter
        (fun use_rename ->
          let options = { Options.default with use_rename } in
          let config what = Printf.sprintf "%s, rename %b, %s" name use_rename what in
          List.iter
            (fun parallel_workers ->
              let options = { options with parallel_workers } in
              Alcotest.(check string)
                (config (Printf.sprintf "%d workers" parallel_workers))
                expected
                (error_text (fun () ->
                     Engine.with_options e options (fun () ->
                         ignore (Engine.query e sql)))))
            [ 1; 2 ];
          let program =
            Iterative_rewrite.compile ~options
              ~lookup:(fun name ->
                Option.map Dbspinner_storage.Table.schema
                  (Catalog.find_table_opt catalog name))
              (Dbspinner_sql.Parser.parse_query sql)
          in
          Catalog.clear_temps catalog;
          Alcotest.(check string) (config "distributed") expected
            (error_text (fun () ->
                 ignore (Distributed.run_program ~workers:2 catalog program))))
        [ true; false ])
    [
      ( "grouping full update",
        loop "t" "SELECT r.k, MAX(r.v) + 1 FROM r GROUP BY r.k",
        duplicate );
      ("partial update", loop "t" "SELECT k, v + 1 FROM r WHERE k = 2", duplicate);
      ("NULL R0 key", loop "n" "SELECT k, v + 1 FROM r WHERE k = 2", null);
    ]

(** The distributed twin of the engine's mid-operator timeout test: a
    nested-loop double self-join with no materialize boundary must
    trip the statement timeout inside the operator on the distributed
    backend too, not run to completion. *)
let test_statement_timeout_inside_operator () =
  let e = Engine.create () in
  Engine.load_table e ~name:"big"
    (rel [ "x" ] (List.init 700 (fun i -> [ vi i ])));
  let catalog = Engine.catalog e in
  let program =
    Iterative_rewrite.compile ~options:Options.default
      ~lookup:(fun name ->
        Option.map Dbspinner_storage.Table.schema
          (Catalog.find_table_opt catalog name))
      (Dbspinner_sql.Parser.parse_query
         "SELECT COUNT(*) FROM big AS a JOIN big AS b ON a.x < b.x JOIN big \
          AS c ON b.x < c.x")
  in
  let t0 = Unix.gettimeofday () in
  let guards = Dbspinner_exec.Guards.make ~timeout_seconds:0.05 () in
  (match
     Errors.wrap (fun () ->
         Distributed.run_program ~workers:2 ~guards catalog program)
   with
  | exception Errors.Error (Errors.Resource, msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "reported as statement timeout: %s" msg)
      true (contains msg "timeout")
  | _ -> Alcotest.fail "expected the statement timeout to trip");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "aborted mid-operator (%.2fs)" elapsed)
    true (elapsed < 2.0)

let () =
  Alcotest.run "mpp"
    [
      ( "partition",
        [
          Alcotest.test_case "worker-of-key" `Quick
            test_partition_worker_of_key_stability;
          Alcotest.test_case "round-robin" `Quick test_round_robin_balance;
        ] );
      ( "distributed-plans",
        [
          Alcotest.test_case "all-operators" `Quick test_distributed_operators;
          Alcotest.test_case "worker-count-invariance" `Quick
            test_more_workers_never_change_results;
          Alcotest.test_case "single-worker-no-shuffle" `Quick
            test_single_worker_shuffles_nothing;
        ] );
      ( "distributed-programs",
        [
          Alcotest.test_case "temp-lifecycle" `Quick test_run_program_temp_lifecycle;
          Alcotest.test_case "delta-termination" `Quick
            test_run_program_delta_termination;
          Alcotest.test_case "cross-partition-duplicates" `Quick
            test_run_program_duplicate_key_detected_across_partitions;
          Alcotest.test_case "unsupported-recursive" `Quick
            test_run_program_unsupported_recursive;
          Alcotest.test_case "error-parity" `Quick test_error_parity;
          Alcotest.test_case "int-float-duplicate-key" `Quick
            test_int_float_duplicate_key;
          Alcotest.test_case "r0-key-check" `Quick test_r0_key_check;
          Alcotest.test_case "timeout-inside-operator" `Quick
            test_statement_timeout_inside_operator;
        ] );
    ]
