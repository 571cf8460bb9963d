(** Fault-tolerance tests for the distributed executor: deterministic
    fault plans, iteration-granular checkpoint recovery, bounded
    retries with single-node fallback, resource guards surfaced as
    Resource-stage errors, and the loop-guard ordering contract. The
    central property: for every workload query and fault seed,
    distributed execution under injected transient faults returns the
    same bag as fault-free single-node execution. *)

module Value = Dbspinner_storage.Value
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Logical = Dbspinner_plan.Logical
module Bound_expr = Dbspinner_plan.Bound_expr
module Program = Dbspinner_plan.Program
module Stats = Dbspinner_exec.Stats
module Guards = Dbspinner_exec.Guards
module Executor = Dbspinner_exec.Executor
module Fault = Dbspinner_mpp.Fault
module Distributed = Dbspinner_mpp.Distributed
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Graph_gen = Dbspinner_graph.Graph_gen
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader
module Engine = Dbspinner.Engine
module Errors = Dbspinner.Errors
module Parser = Dbspinner_sql.Parser
open Helpers

(* ------------------------------------------------------------------ *)
(* Fault plan mechanics                                                *)

let test_scripted_fires_once_per_point () =
  let plan = Fault.scripted [ (2, 0) ] in
  Fault.set_context plan ~step:1 ~iteration:0;
  Fault.tick plan ~site:Fault.Operator;
  Fault.set_context plan ~step:2 ~iteration:0;
  (match Fault.tick plan ~site:Fault.Repartition with
  | exception Fault.Transient_fault m ->
    Alcotest.(check bool) "message names the site" true
      (contains m "repartition")
  | () -> Alcotest.fail "scripted point did not fire");
  (* Same context again: the point already fired. *)
  Fault.tick plan ~site:Fault.Repartition;
  Alcotest.(check int) "exactly one injection" 1 (Fault.faults_injected plan)

let test_probabilistic_is_deterministic () =
  let schedule seed =
    let plan = Fault.probabilistic ~seed ~probability:0.3 () in
    List.init 50 (fun i ->
        Fault.set_context plan ~step:i ~iteration:0;
        match Fault.tick plan ~site:Fault.Gather with
        | () -> false
        | exception Fault.Transient_fault _ -> true)
  in
  Alcotest.(check (list bool)) "same seed, same schedule" (schedule 7)
    (schedule 7);
  Alcotest.(check bool) "some faults fired" true
    (List.exists Fun.id (schedule 7));
  Alcotest.(check bool) "different seeds diverge" true
    (schedule 7 <> schedule 8)

let test_max_faults_bounds_injections () =
  let plan = Fault.probabilistic ~max_faults:2 ~seed:5 ~probability:1.0 () in
  for i = 0 to 9 do
    Fault.set_context plan ~step:i ~iteration:0;
    try Fault.tick plan ~site:Fault.Operator with Fault.Transient_fault _ -> ()
  done;
  Alcotest.(check int) "saturates at max_faults" 2 (Fault.faults_injected plan)

(* ------------------------------------------------------------------ *)
(* Checkpoint recovery and fallback on a hand-built loop program       *)

let counting_program ~iterations ~guard =
  let schema = Schema.of_names [ "k"; "n" ] in
  let scan = Logical.scan ~name:"c" ~schema in
  Program.make
    [
      Program.Materialize
        {
          target = "c";
          plan = Logical.values (rel [ "k"; "n" ] [ [ vi 1; vi 0 ] ]);
        };
      Program.Init_loop
        {
          loop_id = 0;
          termination = Program.Max_iterations iterations;
          cte = "c";
          key_idx = 0;
          guard;
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
                    ( Dbspinner_sql.Ast.Add,
                      Bound_expr.B_col 1,
                      Bound_expr.B_lit (vi 1) ),
                  "n" );
              ]
              scan;
        };
      Program.Rename { from_ = "c#work"; into = "c" };
      Program.Loop_end { loop_id = 0; body_start = 2 };
      Program.Return scan;
    ]
    ~result_schema:schema

(** PageRank program over a generated graph: the loop body joins, so
    every iteration crosses repartition fault sites. Returns the
    engine (for its catalog) and the compiled program. *)
let pr_program ?(options = Options.default) ~seed ~iterations () =
  let g = Graph_gen.power_law ~seed ~num_nodes:60 ~edges_per_node:3 in
  let e = Loader.engine_for g in
  let program =
    Iterative_rewrite.compile ~options
      ~lookup:(fun name ->
        Option.map Dbspinner_storage.Table.schema
          (Catalog.find_table_opt (Engine.catalog e) name))
      (Parser.parse_query (Queries.pr ~iterations ()))
  in
  (e, program)

(** Index of the loop body's working-table materialize step. *)
let work_step program =
  let steps = Program.steps program in
  let found = ref (-1) in
  Array.iteri
    (fun i step ->
      match step with
      | (Program.Materialize { target; _ } | Program.Delta_materialize { target; _ })
        when !found < 0 && contains target "#work" ->
        found := i
      | _ -> ())
    steps;
  Alcotest.(check bool) "program has a working-table step" true (!found >= 0);
  !found

let test_checkpoint_recovery_pagerank () =
  (* One scripted fault in the loop body of iteration 1: the executor
     must recover from the checkpoint taken at iteration 1's Loop_end
     and still produce the fault-free answer, without falling back. *)
  let e, program = pr_program ~seed:11 ~iterations:4 () in
  let catalog = Engine.catalog e in
  let expected = Executor.run_program catalog program in
  Catalog.clear_temps catalog;
  let fault = Fault.scripted [ (work_step program, 1) ] in
  let actual, rs = Distributed.run_program ~workers:3 ~fault catalog program in
  Catalog.clear_temps catalog;
  Alcotest.(check bool) "recovered result = fault-free single-node" true
    (approx_equal_bag expected actual);
  Alcotest.(check int) "the scripted fault fired" 1
    rs.Distributed.faults_injected;
  Alcotest.(check int) "one retry" 1 rs.Distributed.retries;
  Alcotest.(check int) "recovered from a loop checkpoint" 1
    rs.Distributed.recoveries;
  Alcotest.(check int) "no fallback" 0 rs.Distributed.fallbacks;
  Alcotest.(check bool) "checkpoints were taken" true
    (rs.Distributed.checkpoints_taken >= 4);
  Alcotest.(check bool) "backoff accounted" true
    (rs.Distributed.backoff_steps > 0)

let test_retry_before_first_checkpoint () =
  (* A fault during iteration 0 restarts from the implicit initial
     checkpoint: a retry but not a recovery (no loop checkpoint yet). *)
  let e, program = pr_program ~seed:12 ~iterations:2 () in
  let catalog = Engine.catalog e in
  let expected = Executor.run_program catalog program in
  Catalog.clear_temps catalog;
  let fault = Fault.scripted [ (work_step program, 0) ] in
  let actual, rs = Distributed.run_program ~workers:3 ~fault catalog program in
  Catalog.clear_temps catalog;
  Alcotest.(check bool) "result unchanged" true
    (approx_equal_bag expected actual);
  Alcotest.(check int) "one retry" 1 rs.Distributed.retries;
  Alcotest.(check int) "no loop checkpoint to recover from" 0
    rs.Distributed.recoveries;
  Alcotest.(check int) "no fallback" 0 rs.Distributed.fallbacks

let test_exhausted_retries_fall_back () =
  (* Every fault site fails: retries exhaust and execution must
     degrade to single-node, still returning the correct answer. *)
  let e, program = pr_program ~seed:13 ~iterations:3 () in
  let catalog = Engine.catalog e in
  let expected = Executor.run_program catalog program in
  Catalog.clear_temps catalog;
  let fault = Fault.probabilistic ~seed:1 ~probability:1.0 () in
  let actual, rs =
    Distributed.run_program ~workers:3 ~fault ~max_retries:2 catalog program
  in
  Catalog.clear_temps catalog;
  Alcotest.(check bool) "fallback result = fault-free single-node" true
    (approx_equal_bag expected actual);
  Alcotest.(check int) "fell back exactly once" 1 rs.Distributed.fallbacks;
  Alcotest.(check int) "retry budget was spent" 2 rs.Distributed.retries;
  Alcotest.(check int) "counters reconcile" rs.Distributed.faults_injected
    (rs.Distributed.retries + rs.Distributed.fallbacks)

let test_fallback_restores_catalog_temps () =
  (* The single-node fallback materializes temps in the shared catalog;
     afterwards the catalog temp namespace must be exactly as before. *)
  let catalog = Catalog.create () in
  Catalog.set_temp catalog "pre_existing" (rel [ "x" ] [ [ vi 9 ] ]);
  let program = counting_program ~iterations:3 ~guard:100 in
  let fault = Fault.probabilistic ~seed:2 ~probability:1.0 () in
  let out, rs =
    Distributed.run_program ~workers:2 ~fault ~max_retries:0 catalog program
  in
  Alcotest.(check int) "fallback happened" 1 rs.Distributed.fallbacks;
  Alcotest.check relation_testable "loop counted to 3"
    (rel [ "k"; "n" ] [ [ vi 1; vi 3 ] ])
    out;
  Alcotest.(check (list string)) "temp namespace restored"
    [ "pre_existing" ]
    (Catalog.temp_names catalog);
  Alcotest.check relation_testable "pre-existing temp intact"
    (rel [ "x" ] [ [ vi 9 ] ])
    (Catalog.find_temp catalog "pre_existing")

(* ------------------------------------------------------------------ *)
(* Property: faulted distributed = fault-free single-node, every
   workload query, several seeds                                       *)

let test_faulted_distributed_matches_single_node () =
  let g = Graph_gen.power_law ~seed:23 ~num_nodes:50 ~edges_per_node:3 in
  let e = Loader.engine_for g in
  let catalog = Engine.catalog e in
  let compile sql =
    Iterative_rewrite.compile ~options:Options.default
      ~lookup:(fun name ->
        Option.map Dbspinner_storage.Table.schema
          (Catalog.find_table_opt catalog name))
      (Parser.parse_query sql)
  in
  let queries =
    [
      ("pr", Queries.pr ~iterations:3 ());
      ("pr_vs", Queries.pr_vs ~iterations:3 ());
      ("sssp", Queries.sssp ~source:0 ~iterations:3 ());
      ("sssp_vs", Queries.sssp_vs ~source:0 ~iterations:3 ());
      ("ff", Queries.ff_full ~modulus:3 ~iterations:2 ());
    ]
  in
  List.iter
    (fun (name, sql) ->
      let program = compile sql in
      let expected = Executor.run_program catalog program in
      Catalog.clear_temps catalog;
      List.iter
        (fun seed ->
          let fault =
            Fault.probabilistic ~max_faults:4 ~seed ~probability:0.05 ()
          in
          let actual, rs =
            Distributed.run_program ~workers:3 ~fault catalog program
          in
          Catalog.clear_temps catalog;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: faulted distributed = single-node"
               name seed)
            true
            (approx_equal_bag expected actual);
          Alcotest.(check int)
            (Printf.sprintf "%s seed=%d: stats see every injected fault" name
               seed)
            (Fault.faults_injected fault)
            rs.Distributed.faults_injected;
          Alcotest.(check int)
            (Printf.sprintf "%s seed=%d: faults = retries + fallbacks" name
               seed)
            rs.Distributed.faults_injected
            (rs.Distributed.retries + rs.Distributed.fallbacks);
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: recoveries within retries" name seed)
            true
            (rs.Distributed.recoveries <= rs.Distributed.retries))
        [ 3; 17; 91 ])
    queries

(* ------------------------------------------------------------------ *)
(* Resource guards                                                     *)

let expect_resource_error name f =
  match f () with
  | exception Errors.Error (Errors.Resource, m) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: message mentions the budget" name)
      true
      (contains m "deadline" || contains m "budget")
  | exception e ->
    Alcotest.failf "%s: expected Resource error, got %s" name
      (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Resource error, query succeeded" name

let test_row_budget_aborts_runaway_loop () =
  let g = Graph_gen.uniform ~seed:33 ~num_nodes:40 ~num_edges:120 in
  let e = Loader.engine_for ~with_vertex_status:false g in
  Engine.set_options e
    { Options.default with Options.row_budget = Some 50 };
  expect_resource_error "row budget" (fun () ->
      Engine.query e (Queries.pr ~iterations:50 ()))

let test_deadline_aborts_statement () =
  let g = Graph_gen.uniform ~seed:34 ~num_nodes:40 ~num_edges:120 in
  let e = Loader.engine_for ~with_vertex_status:false g in
  Engine.set_options e
    { Options.default with Options.deadline_seconds = Some 1e-9 };
  expect_resource_error "deadline" (fun () ->
      Engine.query e (Queries.pr ~iterations:50 ()))

let test_distributed_guard_not_retried () =
  (* Resource exhaustion is not transient: the distributed executor
     must propagate it unchanged, with no retries or fallback. The
     exception leaves no run record to read, so the check is on the
     work done: a retry replays materialize steps and a fallback re-runs
     the program, so either would materialize more than one single-node
     attempt does. With no retry budget, a fallback would come first. *)
  let program = counting_program ~iterations:50 ~guard:100 in
  let materializations run =
    let stats = Stats.create () in
    (match run ~guards:(Guards.make ~row_budget:5 ()) ~stats with
    | exception Guards.Resource_exhausted _ -> ()
    | _ -> Alcotest.fail "expected Resource_exhausted");
    stats.Stats.materializations
  in
  let single =
    materializations (fun ~guards ~stats ->
        Executor.run_program ~guards ~stats (Catalog.create ()) program)
  in
  let dist ?max_retries () =
    materializations (fun ~guards ~stats ->
        fst
          (Distributed.run_program ~workers:2 ?max_retries ~guards ~stats
             (Catalog.create ()) program))
  in
  Alcotest.(check int) "no retries on resource exhaustion" single (dist ());
  Alcotest.(check int) "no fallback on resource exhaustion" single
    (dist ~max_retries:0 ())

let test_guard_maps_to_resource_stage () =
  (* Errors.wrap is the unified surface: guard trips and the
     distributed executor's refusal of a recursive CTE both normalize
     to Errors.Error. *)
  (match
     Errors.wrap (fun () -> raise (Guards.Resource_exhausted "row budget hit"))
   with
  | exception Errors.Error (Errors.Resource, _) -> ()
  | _ -> Alcotest.fail "Resource_exhausted must map to Resource stage");
  let catalog = Catalog.create () in
  let program =
    Iterative_rewrite.compile ~options:Options.default
      ~lookup:(fun _ -> None)
      (Parser.parse_query
         "WITH RECURSIVE r AS (SELECT 1 AS n UNION ALL SELECT n + 1 FROM r \
          WHERE n < 3) SELECT n FROM r")
  in
  match
    Errors.wrap (fun () -> Distributed.run_program ~workers:2 catalog program)
  with
  | exception Errors.Error (Errors.Execute, m) ->
    Alcotest.(check bool) "recursive CTE error names distributed execution"
      true
      (contains m "distributed execution")
  | _ -> Alcotest.fail "a recursive CTE must fail at the Execute stage"

(* ------------------------------------------------------------------ *)
(* Loop-guard ordering                                                 *)

let test_termination_on_guard_iteration_returns () =
  (* A loop that terminates exactly on its guard iteration must return
     normally — the guard only trips when another iteration would
     actually run. Checked on both executors. *)
  let program = counting_program ~iterations:6 ~guard:6 in
  let expected = rel [ "k"; "n" ] [ [ vi 1; vi 6 ] ] in
  let c1 = Catalog.create () in
  Alcotest.check relation_testable "single-node returns at guard" expected
    (Executor.run_program c1 program);
  let out, _ = Distributed.run_program ~workers:2 (Catalog.create ()) program in
  Alcotest.check relation_testable "distributed returns at guard" expected out;
  (* One fewer guard iteration still trips. *)
  let tight = counting_program ~iterations:6 ~guard:5 in
  match Distributed.run_program ~workers:2 (Catalog.create ()) tight with
  | exception Executor.Execution_error m ->
    Alcotest.(check bool) "guard message" true (contains m "guard")
  | _ -> Alcotest.fail "expected the guard to trip"

let () =
  Alcotest.run "fault"
    [
      ( "fault-plans",
        [
          Alcotest.test_case "scripted-once" `Quick
            test_scripted_fires_once_per_point;
          Alcotest.test_case "probabilistic-deterministic" `Quick
            test_probabilistic_is_deterministic;
          Alcotest.test_case "max-faults" `Quick test_max_faults_bounds_injections;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "checkpoint-recovery-pagerank" `Quick
            test_checkpoint_recovery_pagerank;
          Alcotest.test_case "retry-before-first-checkpoint" `Quick
            test_retry_before_first_checkpoint;
          Alcotest.test_case "exhausted-retries-fallback" `Quick
            test_exhausted_retries_fall_back;
          Alcotest.test_case "fallback-restores-temps" `Quick
            test_fallback_restores_catalog_temps;
        ] );
      ( "fault-property",
        [
          Alcotest.test_case "faulted-distributed-equals-single-node" `Quick
            test_faulted_distributed_matches_single_node;
        ] );
      ( "resource-guards",
        [
          Alcotest.test_case "row-budget" `Quick test_row_budget_aborts_runaway_loop;
          Alcotest.test_case "deadline" `Quick test_deadline_aborts_statement;
          Alcotest.test_case "not-retried" `Quick test_distributed_guard_not_retried;
          Alcotest.test_case "resource-stage" `Quick
            test_guard_maps_to_resource_stage;
        ] );
      ( "loop-guard",
        [
          Alcotest.test_case "termination-on-guard-iteration" `Quick
            test_termination_on_guard_iteration_returns;
        ] );
    ]
