(** End-to-end workload tests: the paper's queries executed through the
    engine must agree with the reference implementations, and every
    optimizer configuration — plus the middleware and stored-procedure
    baselines — must return the same answers. *)

module Value = Dbspinner_storage.Value
module Relation = Dbspinner_storage.Relation
module Graph_gen = Dbspinner_graph.Graph_gen
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader
module Options = Dbspinner_rewrite.Options
module Engine = Dbspinner.Engine
open Helpers

let graph = Graph_gen.power_law ~seed:9 ~num_nodes:120 ~edges_per_node:3
let active = Graph_gen.vertex_status_array graph
let engine () = Loader.engine_for graph

let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b)

let check_column_against rel ~extract_node ~extract_value ~reference ~msg =
  Relation.iter
    (fun row ->
      let node = extract_node row in
      let v = extract_value row in
      let expected = reference node in
      if not (close v expected) then
        Alcotest.failf "%s: node %d got %.9g, expected %.9g" msg node v expected)
    rel

(* ------------------------------------------------------------------ *)
(* Correctness vs references                                           *)

let test_pr_matches_reference () =
  let e = engine () in
  let rel =
    Engine.query e
      (Queries.pr ~iterations:10 ~final:"SELECT Node, Rank, Delta FROM PageRank" ())
  in
  Alcotest.(check int) "all nodes" (Graph_gen.num_nodes graph)
    (Relation.cardinality rel);
  let st = Ref_pagerank.run graph ~iterations:10 in
  check_column_against rel ~msg:"PR rank"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r -> Value.to_float r.(1))
    ~reference:(fun n -> st.Ref_pagerank.rank.(n));
  check_column_against rel ~msg:"PR delta"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r -> Value.to_float r.(2))
    ~reference:(fun n -> st.Ref_pagerank.delta.(n))

let test_pr_vs_matches_reference () =
  let e = engine () in
  let rel =
    Engine.query e
      (Queries.pr_vs ~iterations:8 ~final:"SELECT Node, Rank, Delta FROM PageRank" ())
  in
  let st = Ref_pagerank.run_vs graph ~active ~iterations:8 in
  check_column_against rel ~msg:"PR-VS rank"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r -> Value.to_float r.(1))
    ~reference:(fun n -> st.Ref_pagerank.rank.(n))

let test_sssp_matches_reference () =
  let e = engine () in
  let rel =
    Engine.query e
      (Queries.sssp ~source:0 ~iterations:10
         ~final:"SELECT Node, Distance, Delta FROM sssp" ())
  in
  let st = Ref_sssp.run graph ~source:0 ~iterations:10 in
  check_column_against rel ~msg:"SSSP distance"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r -> Value.to_float r.(1))
    ~reference:(fun n -> st.Ref_sssp.distance.(n));
  check_column_against rel ~msg:"SSSP delta"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r -> Value.to_float r.(2))
    ~reference:(fun n -> st.Ref_sssp.delta.(n))

let test_sssp_vs_matches_reference () =
  let e = engine () in
  let rel =
    Engine.query e
      (Queries.sssp_vs ~source:0 ~iterations:8
         ~final:"SELECT Node, Distance, Delta FROM sssp" ())
  in
  let st = Ref_sssp.run ~active graph ~source:0 ~iterations:8 in
  check_column_against rel ~msg:"SSSP-VS distance"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r -> Value.to_float r.(1))
    ~reference:(fun n -> st.Ref_sssp.distance.(n))

let test_sssp_converges_to_dijkstra () =
  let e = engine () in
  let rel =
    Engine.query e
      (Queries.sssp ~source:0 ~iterations:130
         ~final:"SELECT Node, Distance, Delta FROM sssp" ())
  in
  let d = Ref_sssp.dijkstra graph ~source:0 in
  check_column_against rel ~msg:"SSSP vs Dijkstra"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r ->
      Float.min (Value.to_float r.(1)) (Value.to_float r.(2)))
    ~reference:(fun n -> d.(n))

let test_ff_matches_reference () =
  let e = engine () in
  let rel = Engine.query e (Queries.ff_full ~modulus:1 ~iterations:5 ()) in
  let entries = Ref_forecast.run graph ~iterations:5 in
  Alcotest.(check int) "row count" (List.length entries)
    (Relation.cardinality rel);
  let by_node = Hashtbl.create 64 in
  List.iter
    (fun (en : Ref_forecast.entry) -> Hashtbl.replace by_node en.node en.friends)
    entries;
  check_column_against rel ~msg:"FF friends"
    ~extract_node:(fun r -> Value.to_int r.(0))
    ~extract_value:(fun r -> Value.to_float r.(1))
    ~reference:(fun n -> Hashtbl.find by_node n)

let test_ff_selectivity () =
  (* MOD(node, m) = 0 keeps ~1/m of the rows. *)
  let e = engine () in
  let count m =
    Relation.cardinality (Engine.query e (Queries.ff_full ~modulus:m ~iterations:1 ()))
  in
  let all = count 1 in
  Alcotest.(check bool) "m=10 keeps about a tenth" true
    (count 10 <= (all / 5) && count 10 >= 1)

(* ------------------------------------------------------------------ *)
(* Optimizations preserve semantics (the key rewrite property)         *)

let option_grid =
  [
    ("all-on", Options.default);
    ("all-off", Options.unoptimized);
    ("rename-only", { Options.unoptimized with use_rename = true });
    ("common-only", { Options.unoptimized with use_common_result = true });
    ("pushdown-only", { Options.unoptimized with use_pushdown = true });
    ("no-rename", { Options.default with use_rename = false });
    ("no-common", { Options.default with use_common_result = false });
    ("no-pushdown", { Options.default with use_pushdown = false });
  ]

let check_options_agree name sql =
  let e = engine () in
  let reference =
    Engine.with_options e Options.unoptimized (fun () -> Engine.query e sql)
  in
  List.iter
    (fun (label, options) ->
      let got = Engine.with_options e options (fun () -> Engine.query e sql) in
      Alcotest.check relation_testable
        (Printf.sprintf "%s under %s" name label)
        reference got)
    option_grid

let test_options_agree_pr () =
  check_options_agree "PR" (Queries.pr ~iterations:6 ())

let test_options_agree_pr_vs () =
  check_options_agree "PR-VS" (Queries.pr_vs ~iterations:6 ())

let test_options_agree_sssp_vs () =
  check_options_agree "SSSP-VS" (Queries.sssp_vs ~source:0 ~iterations:6 ())

let test_options_agree_ff () =
  check_options_agree "FF" (Queries.ff ~modulus:10 ~iterations:5 ())

(* ------------------------------------------------------------------ *)
(* Baselines agree with the native path                                *)

let test_procedure_pr_vs_matches_native () =
  let e = engine () in
  let native =
    Engine.query e
      (Queries.pr_vs ~iterations:5 ~final:"SELECT Node, Rank FROM PageRank ORDER BY Node" ())
  in
  let out = Dbspinner.Procedure.call e (Queries.pr_vs_procedure ~iterations:5) in
  ignore (Engine.execute e Queries.pr_vs_procedure_cleanup);
  match out.Dbspinner.Procedure.rows with
  | Some rows -> Alcotest.check relation_testable "procedure = native" native rows
  | None -> Alcotest.fail "procedure returned no rows"

let test_procedure_sssp_vs_matches_native () =
  let e = engine () in
  let native =
    Engine.query e
      (Queries.sssp_vs ~source:0 ~iterations:5
         ~final:"SELECT Node, Distance, Delta FROM sssp ORDER BY Node" ())
  in
  let out =
    Dbspinner.Procedure.call e (Queries.sssp_vs_procedure ~source:0 ~iterations:5)
  in
  ignore (Engine.execute e Queries.sssp_vs_procedure_cleanup);
  match out.Dbspinner.Procedure.rows with
  | Some rows -> Alcotest.check relation_testable "procedure = native" native rows
  | None -> Alcotest.fail "procedure returned no rows"

let test_procedure_ff_matches_native () =
  let e = engine () in
  let native = Engine.query e (Queries.ff ~modulus:2 ~iterations:5 ()) in
  let out =
    Dbspinner.Procedure.call e (Queries.ff_procedure ~modulus:2 ~iterations:5 ())
  in
  ignore (Engine.execute e Queries.ff_procedure_cleanup);
  match out.Dbspinner.Procedure.rows with
  | Some rows -> Alcotest.check relation_testable "procedure = native" native rows
  | None -> Alcotest.fail "procedure returned no rows"

let test_middleware_matches_native () =
  let e = engine () in
  let native =
    Engine.query e
      (Queries.pr ~iterations:5 ~final:"SELECT Node, Rank FROM PageRank" ())
  in
  let outcome =
    Dbspinner.Middleware.run e (Dbspinner.Middleware.pagerank_script ~iterations:5)
  in
  Alcotest.check relation_testable "middleware = native" native
    outcome.Dbspinner.Middleware.rows

(* ------------------------------------------------------------------ *)
(* Optimization effects are visible in executor statistics             *)

let run_with label options sql =
  let e = engine () in
  let m, _ = Dbspinner_workload.Runner.run_query ~label ~options e sql in
  m

let test_rename_reduces_materialized_rows () =
  let sql = Queries.pr ~iterations:6 () in
  let opt = run_with "opt" Options.default sql in
  let base = run_with "base" { Options.default with use_rename = false } sql in
  Alcotest.(check bool) "rename used" true
    (opt.Dbspinner_workload.Runner.stats.Dbspinner_exec.Stats.renames > 0);
  Alcotest.(check bool) "fewer rows materialized with rename" true
    (opt.stats.Dbspinner_exec.Stats.rows_materialized
    < base.stats.Dbspinner_exec.Stats.rows_materialized)

let test_common_result_reduces_join_work () =
  let sql = Queries.pr_vs ~iterations:6 () in
  let opt = run_with "opt" Options.default sql in
  let base = run_with "base" { Options.default with use_common_result = false } sql in
  Alcotest.(check bool) "fewer join probes with common result" true
    (opt.stats.Dbspinner_exec.Stats.join_probes
    < base.stats.Dbspinner_exec.Stats.join_probes)

let test_pushdown_reduces_scanned_rows () =
  let sql = Queries.ff ~modulus:50 ~iterations:10 () in
  let opt = run_with "opt" Options.default sql in
  let base = run_with "base" { Options.default with use_pushdown = false } sql in
  Alcotest.(check bool) "pushdown shrinks the loop input" true
    (opt.stats.Dbspinner_exec.Stats.rows_materialized * 4
    < base.stats.Dbspinner_exec.Stats.rows_materialized)

let () =
  Alcotest.run "workload"
    [
      ( "reference-correctness",
        [
          Alcotest.test_case "pr" `Quick test_pr_matches_reference;
          Alcotest.test_case "pr-vs" `Quick test_pr_vs_matches_reference;
          Alcotest.test_case "sssp" `Quick test_sssp_matches_reference;
          Alcotest.test_case "sssp-vs" `Quick test_sssp_vs_matches_reference;
          Alcotest.test_case "sssp-dijkstra" `Quick test_sssp_converges_to_dijkstra;
          Alcotest.test_case "ff" `Quick test_ff_matches_reference;
          Alcotest.test_case "ff-selectivity" `Quick test_ff_selectivity;
        ] );
      ( "optimizations-preserve-semantics",
        [
          Alcotest.test_case "pr" `Quick test_options_agree_pr;
          Alcotest.test_case "pr-vs" `Quick test_options_agree_pr_vs;
          Alcotest.test_case "sssp-vs" `Quick test_options_agree_sssp_vs;
          Alcotest.test_case "ff" `Quick test_options_agree_ff;
        ] );
      ( "baselines-agree",
        [
          Alcotest.test_case "procedure-pr-vs" `Quick
            test_procedure_pr_vs_matches_native;
          Alcotest.test_case "procedure-sssp-vs" `Quick
            test_procedure_sssp_vs_matches_native;
          Alcotest.test_case "procedure-ff" `Quick test_procedure_ff_matches_native;
          Alcotest.test_case "middleware-pr" `Quick test_middleware_matches_native;
        ] );
      ( "optimization-effects",
        [
          Alcotest.test_case "rename-data-movement" `Quick
            test_rename_reduces_materialized_rows;
          Alcotest.test_case "common-result-joins" `Quick
            test_common_result_reduces_join_work;
          Alcotest.test_case "pushdown-scans" `Quick
            test_pushdown_reduces_scanned_rows;
        ] );
    ]
