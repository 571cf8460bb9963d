(** Semi-naive (delta-driven) iteration: every delta loop must return
    what an independent oracle computes — {!Ref_sssp}, {!Ref_forecast}
    or the naive kv loop {!Helpers.kv_reference} — in every executor,
    while the delta path demonstrably restricts work. Pins the
    eligibility decisions (SSSP and FF qualify, a non-copied key falls
    back to a plain full re-evaluation), the first-iteration full
    evaluation, the empty-delta reuse, and the stats contract: within
    one program all single-node executors stay [Stats.logical_equal]. *)

module Engine = Dbspinner.Engine
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Parser = Dbspinner_sql.Parser
module Program = Dbspinner_plan.Program
module Catalog = Dbspinner_storage.Catalog
module Relation = Dbspinner_storage.Relation
module Table = Dbspinner_storage.Table
module Value = Dbspinner_storage.Value
module Stats = Dbspinner_exec.Stats
module Executor = Dbspinner_exec.Executor
module Parallel = Dbspinner_exec.Parallel
module Distributed = Dbspinner_mpp.Distributed
module Trace = Dbspinner_obs.Trace
module Graph_gen = Dbspinner_graph.Graph_gen
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Loader = Dbspinner_workload.Loader
module Queries = Dbspinner_workload.Queries
open Helpers

let lookup e name =
  Option.map Table.schema (Catalog.find_table_opt (Engine.catalog e) name)

let compile e sql =
  Iterative_rewrite.compile ~lookup:(lookup e) (Parser.parse_query sql)

let compile_report e sql =
  Iterative_rewrite.compile_with_report ~lookup:(lookup e)
    (Parser.parse_query sql)

(** Run on a clean temp namespace with fresh stats. *)
let run ?parallel ?use_cache ?trace e program =
  Catalog.clear_temps (Engine.catalog e);
  Executor.run_program_with_stats ?parallel ?use_cache ?trace
    (Engine.catalog e) program

let has_delta_step program =
  Array.exists
    (function Program.Delta_materialize _ -> true | _ -> false)
    (Program.steps program)

let check_same_logical_work msg (a : Stats.t) (b : Stats.t) =
  (* What a delta loop and a full re-evaluation of the same loop share:
     the number of iterations and the materialization accounting. *)
  Alcotest.(check int) (msg ^ ": loop_iterations") a.Stats.loop_iterations
    b.Stats.loop_iterations;
  Alcotest.(check int) (msg ^ ": materializations") a.Stats.materializations
    b.Stats.materializations;
  Alcotest.(check int) (msg ^ ": rows_materialized") a.Stats.rows_materialized
    b.Stats.rows_materialized;
  Alcotest.(check int) (msg ^ ": renames") a.Stats.renames b.Stats.renames

(** The restricted passes must touch fewer working-table rows than
    re-evaluating the whole CTE every iteration would. *)
let check_restricted msg (s : Stats.t) ~cte_rows =
  let full = s.Stats.loop_iterations * cte_rows in
  Alcotest.(check bool)
    (Printf.sprintf "%s: restricted rows (%d) < iterations x |CTE| (%d)" msg
       s.Stats.delta_rows_evaluated full)
    true
    (s.Stats.delta_rows_evaluated > 0 && s.Stats.delta_rows_evaluated < full)

let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b)

(* ------------------------------------------------------------------ *)
(* SSSP: the paper's monotone-MIN loop, merge path                      *)

let sssp_iterations = 12

let sssp_fixture () =
  let g = Graph_gen.chain_with_shortcuts ~seed:7 ~num_nodes:150 ~shortcut_every:10 in
  (g, Loader.engine_for g, Queries.sssp ~source:0 ~iterations:sssp_iterations ())

(** Every (node, distance, delta) row equals the Figure-7 reference
    loop, and every node is present. *)
let check_sssp_reference msg g rel =
  let st = Ref_sssp.run g ~source:0 ~iterations:sssp_iterations in
  Alcotest.(check int) (msg ^ ": one row per node") (Graph_gen.num_nodes g)
    (Relation.cardinality rel);
  Relation.iter
    (fun row ->
      let n = Value.to_int row.(0) in
      let check what got expected =
        if not (close got expected) then
          Alcotest.failf "%s: node %d %s %.9g, reference %.9g" msg n what got
            expected
      in
      check "distance" (Value.to_float row.(1)) st.Ref_sssp.distance.(n);
      check "delta" (Value.to_float row.(2)) st.Ref_sssp.delta.(n))
    rel

let test_sssp_on_off () =
  let g, e, sql = sssp_fixture () in
  let p, report = compile_report e sql in
  Alcotest.(check bool) "sssp compiles a delta path" true
    (report.Iterative_rewrite.delta_paths > 0);
  Alcotest.(check bool) "program holds a Delta_materialize" true
    (has_delta_step p);
  let r, s = run e p in
  check_sssp_reference "sssp" g r;
  Alcotest.(check int) "every iteration ran" sssp_iterations
    s.Stats.loop_iterations;
  check_restricted "sssp" s ~cte_rows:(Relation.cardinality r)

(* ------------------------------------------------------------------ *)
(* FF: pointwise rename path, no join legs -> no affected plans        *)

let test_ff_on_off () =
  let g = Graph_gen.power_law ~seed:11 ~num_nodes:80 ~edges_per_node:3 in
  let e = Loader.engine_for g in
  let sql = Queries.ff_full ~modulus:3 ~iterations:8 () in
  let p, report = compile_report e sql in
  Alcotest.(check bool) "ff compiles a delta path" true
    (report.Iterative_rewrite.delta_paths > 0);
  let r, s = run e p in
  Alcotest.(check int) "every iteration ran" 8 s.Stats.loop_iterations;
  let expected =
    List.filter
      (fun (en : Ref_forecast.entry) -> en.node mod 3 = 0)
      (Ref_forecast.run g ~iterations:8)
  in
  Alcotest.(check int) "row count" (List.length expected)
    (Relation.cardinality r);
  List.iter2
    (fun (en : Ref_forecast.entry) row ->
      Alcotest.(check int) "node" en.node (Value.to_int row.(0));
      if not (close (Value.to_float row.(1)) en.friends) then
        Alcotest.failf "ff: node %d friends %.9g, reference %.9g" en.node
          (Value.to_float row.(1)) en.friends)
    expected
    (Array.to_list (Relation.rows r))

(* ------------------------------------------------------------------ *)
(* First-iteration semantics: no previous version -> one full pass     *)

let test_first_iteration_is_full () =
  let _, e, _ = sssp_fixture () in
  let sql = Queries.sssp ~source:0 ~iterations:1 () in
  let p = compile e sql in
  Alcotest.(check bool) "still a delta program" true (has_delta_step p);
  let _, s = run e p in
  Alcotest.(check int) "single iteration" 1 s.Stats.loop_iterations;
  Alcotest.(check int) "it was a full evaluation" 1 s.Stats.full_reevals;
  Alcotest.(check int) "no restricted rows" 0 s.Stats.delta_rows_evaluated

(* ------------------------------------------------------------------ *)
(* Small deterministic fixtures over t (a, b)                          *)

(** Run the kv loop as a delta program and as its full re-evaluation
    twin (key [k + 0], which the delta rule leaves a plain
    [Materialize]); both must equal [kv_reference], and do the same
    logical work. Returns the delta run's stats. *)
let check_kv_loop msg rows ?where ~step_expr ~step ~rounds () =
  let e = kv_engine rows in
  let sql key_expr =
    kv_sql ~key_expr
      ?where:(Option.map fst where)
      ~step_expr
      ~until:(Printf.sprintf "%d ITERATIONS" rounds)
      ()
  in
  let expected =
    kv_reference rows ~step ~where:(Option.map snd where) ~rounds
  in
  let p, report = compile_report e (sql "k") in
  Alcotest.(check bool) (msg ^ ": eligible") true
    (report.Iterative_rewrite.delta_paths > 0);
  let p_full = compile e (sql "k + 0") in
  Alcotest.(check bool) (msg ^ ": twin is a plain loop") false
    (has_delta_step p_full);
  let r, s = run e p in
  let r_full, s_full = run e p_full in
  Alcotest.check relation_testable (msg ^ ": delta = reference") expected r;
  Alcotest.check relation_testable (msg ^ ": full = reference") expected r_full;
  check_same_logical_work (msg ^ ": delta vs full") s_full s;
  s

(* An initial query that yields no rows: UNTIL ALL is vacuously true
   over an empty CTE, so the loop must stop immediately (the delta step
   never runs past its first full evaluation). *)
let test_empty_cte_until_all () =
  let e = kv_engine [] in
  let sql = kv_sql ~step_expr:"v + 1" ~until:"ALL v > 10" () in
  let p = compile e sql in
  Alcotest.(check bool) "a delta program" true (has_delta_step p);
  let r, s = run e p in
  Alcotest.(check int) "empty result" 0 (Relation.cardinality r);
  Alcotest.(check int) "one iteration" 1 s.Stats.loop_iterations;
  Alcotest.(check int) "no restricted rows" 0 s.Stats.delta_rows_evaluated

(* A step whose first column is not a bare copy of the key: the
   analyzer must refuse (it cannot track keys through arithmetic), the
   loop stays a plain Materialize and no delta counter moves. *)
let test_ineligible_key_fallback () =
  let rows = [ (1, 5); (2, 3); (3, 9); (4, 0) ] in
  let e = kv_engine rows in
  let sql =
    kv_sql ~key_expr:"k + 0" ~step_expr:"v + 1" ~until:"4 ITERATIONS" ()
  in
  let p, report = compile_report e sql in
  Alcotest.(check int) "no delta path" 0 report.Iterative_rewrite.delta_paths;
  Alcotest.(check bool) "no Delta_materialize emitted" false
    (has_delta_step p);
  let r, s = run e p in
  Alcotest.check relation_testable "same rows"
    (kv_reference rows ~step:(fun _ v -> v + 1) ~where:None ~rounds:4)
    r;
  Alcotest.(check (list int)) "delta counters stay zero" [ 0; 0 ]
    [ s.Stats.delta_rows_evaluated; s.Stats.full_reevals ]

(* A loop that converges before its iteration bound: once the CTE stops
   changing, the diff is empty and the previous work output is reused
   verbatim — no further full passes, no restricted evaluation. *)
let test_empty_delta_reuses_previous () =
  let s =
    check_kv_loop "converging loop"
      [ (1, 5); (2, -3); (3, 9); (4, 0); (5, -1) ]
      ~step_expr:"LEAST(v, 0)"
      ~step:(fun _ v -> min v 0)
      ~rounds:6 ()
  in
  Alcotest.(check int) "all iterations still run" 6 s.Stats.loop_iterations;
  (* Iteration 1 has no previous version; iteration 2's diff touches
     most keys (the cutoff takes the full path); from then on the CTE
     is a fixpoint, so the step reuses the previous output. *)
  Alcotest.(check bool)
    (Printf.sprintf "full passes stop after convergence (%d <= 2)"
       s.Stats.full_reevals)
    true
    (s.Stats.full_reevals <= 2)

(* A step WHERE exercises the merge path: unselected keys keep their
   previous row, selected ones are updated — with deltas restricted to
   keys whose value changed. *)
let test_merge_path_on_off () =
  ignore
    (check_kv_loop "merge path"
       [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5); (6, 6) ]
       ~where:("v < 10", fun _ v -> v < 10)
       ~step_expr:"v + k"
       ~step:(fun k v -> v + k)
       ~rounds:5 ())

(* A rename-path loop where a few keys change every round: each
   iteration after the first takes the restricted path and stitches
   recomputed rows for the changed keys between reused ones, so a
   stale row anywhere in the stitch shows in the answer. *)
let test_partial_update_stitch () =
  let s =
    check_kv_loop "partial update"
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ]
      ~step_expr:"CASE WHEN MOD(k, 3) = 0 THEN v + 1 ELSE v END"
      ~step:(fun k v -> if k mod 3 = 0 then v + 1 else v)
      ~rounds:5 ()
  in
  Alcotest.(check int) "only the first pass is full" 1 s.Stats.full_reevals;
  check_restricted "partial update" s ~cte_rows:7

(* ------------------------------------------------------------------ *)
(* Cross-executor equivalence with deltas on                           *)

let test_cross_executor_delta_on () =
  let g, e, sql = sssp_fixture () in
  let p = compile e sql in
  let seq, s_seq = run e p in
  check_sssp_reference "sequential" g seq;
  (* Chunk-parallel. *)
  (match Parallel.context ~chunk_rows:16 ~workers:4 () with
  | None -> ()
  | Some parallel ->
    let par, s_par = run ~parallel e p in
    Alcotest.check relation_testable "parallel = sequential" seq par;
    Alcotest.(check bool) "parallel logical_equal" true
      (Stats.logical_equal s_seq s_par));
  (* Cached off. *)
  let uncached, s_unc = run ~use_cache:false e p in
  Alcotest.check relation_testable "uncached = cached" seq uncached;
  Alcotest.(check bool) "uncached logical_equal" true
    (Stats.logical_equal s_seq s_unc);
  (* Traced. *)
  let tr = Trace.create () in
  let traced, s_tr = run ~trace:tr e p in
  Alcotest.check relation_testable "traced = untraced" seq traced;
  Alcotest.(check bool) "traced logical_equal" true
    (Stats.logical_equal s_seq s_tr);
  Alcotest.(check bool) "trace recorded iterations" true
    (List.length (Trace.iteration_spans tr) > 0);
  (* Distributed: coordinator-side delta protocol over partitioned
     temps must gather to the same relation. *)
  Catalog.clear_temps (Engine.catalog e);
  let dist, _ = Distributed.run_program ~workers:4 (Engine.catalog e) p in
  Alcotest.check relation_testable "distributed = sequential" seq dist

let test_distributed_on_off () =
  let g, e, sql = sssp_fixture () in
  let p = compile e sql in
  Catalog.clear_temps (Engine.catalog e);
  let s = Stats.create () in
  let r, _ = Distributed.run_program ~workers:3 ~stats:s (Engine.catalog e) p in
  check_sssp_reference "distributed" g r;
  Alcotest.(check int) "every iteration ran" sssp_iterations
    s.Stats.loop_iterations;
  check_restricted "distributed" s ~cte_rows:(Relation.cardinality r)

(* ------------------------------------------------------------------ *)
(* Property: random pointwise loops agree with the naive loop          *)

(* The test name predates the reference loop; it is kept so the suite
   prints the same names. *)
let prop_delta_on_off =
  let open QCheck2 in
  let rows_gen =
    Gen.(
      list_size (int_range 0 15)
        (pair (int_range 0 6) (int_range (-8) 8)))
  in
  let query_gen =
    Gen.(
      let* key_expr = oneofl [ "k"; "k"; "k"; "k + 0" ] in
      let* step =
        oneofl
          [
            ("v + 1", fun _ v -> v + 1);
            ("v + k", fun k v -> v + k);
            ("LEAST(v, k)", fun k v -> min v k);
            ("v", fun _ v -> v);
            ("v * 2", fun _ v -> v * 2);
            ("LEAST(v, 0)", fun _ v -> min v 0);
            (* Only a few keys change, every round: restricted passes
               whose stitch must not reuse a stale row. *)
            ( "CASE WHEN MOD(k, 3) = 0 THEN v + 1 ELSE v END",
              fun k v -> if k mod 3 = 0 then v + 1 else v );
          ]
      in
      let* where =
        oneofl
          [
            ("", None);
            ("v < 5", Some (fun _ v -> v < 5));
            ("k > 2", Some (fun k _ -> k > 2));
            ("v > k", Some (fun k v -> v > k));
          ]
      in
      let* rounds = int_range 1 5 in
      return (key_expr, step, where, rounds))
  in
  let sql_of (key_expr, (step_expr, _), (where, _), rounds) =
    kv_sql ~key_expr ~where ~step_expr
      ~until:(Printf.sprintf "%d ITERATIONS" rounds)
      ()
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"delta on = delta off on random iterative programs"
       ~print:(fun (rows, query) ->
         Printf.sprintf "%s over %d rows" (sql_of query) (List.length rows))
       (Gen.pair rows_gen query_gen)
       (fun (rows, ((_, (_, step), (_, where), rounds) as query)) ->
         let e = kv_engine rows in
         let expected = kv_reference rows ~step ~where ~rounds in
         let p, report = compile_report e (sql_of query) in
         let r, s = run e p in
         if not (Relation.equal_bag r expected) then
           QCheck2.Test.fail_reportf "rows differ:\ngot:\n%s\nreference:\n%s"
             (Relation.to_table_string r)
             (Relation.to_table_string expected)
         else if s.Stats.loop_iterations <> rounds then
           QCheck2.Test.fail_reportf "iterations: %d, expected %d"
             s.Stats.loop_iterations rounds
         else if
           (* An ineligible loop must not move any delta counter; an
              eligible one never restricts more rows than full passes
              would touch. *)
           if report.Iterative_rewrite.delta_paths = 0 then
             s.Stats.delta_rows_evaluated <> 0 || s.Stats.full_reevals <> 0
           else
             s.Stats.delta_rows_evaluated
             > rounds * Relation.cardinality expected
         then
           QCheck2.Test.fail_reportf "delta counters out of bounds:\n%s"
             (Stats.to_string s)
         else true))

let () =
  Alcotest.run "delta"
    [
      ( "workloads",
        [
          Alcotest.test_case "sssp-on-off" `Quick test_sssp_on_off;
          Alcotest.test_case "ff-on-off" `Quick test_ff_on_off;
          Alcotest.test_case "first-iteration-full" `Quick
            test_first_iteration_is_full;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty-cte-until-all" `Quick
            test_empty_cte_until_all;
          Alcotest.test_case "ineligible-key-fallback" `Quick
            test_ineligible_key_fallback;
          Alcotest.test_case "empty-delta-reuse" `Quick
            test_empty_delta_reuses_previous;
          Alcotest.test_case "merge-path" `Quick test_merge_path_on_off;
          Alcotest.test_case "partial-update-stitch" `Quick
            test_partial_update_stitch;
        ] );
      ( "executors",
        [
          Alcotest.test_case "cross-executor" `Quick
            test_cross_executor_delta_on;
          Alcotest.test_case "distributed-on-off" `Quick
            test_distributed_on_off;
        ] );
      ("properties", [ prop_delta_on_off ]);
    ]
