(** The rule-combinator rewrite engine and the repaired cost model:

    - the {!Rule} combinators ([>>>], [alt], [fixpoint], [bottom_up],
      [cost_guard]) and the per-rule log they populate;
    - golden rule-log checks for every migrated pass (constant-fold,
      outer-to-inner, common-result, predicate-pushdown,
      semi-naive-delta, plan-filter-pushdown);
    - golden program texts for the paper workloads, and a property
      checking random iterative queries on all five executors against
      a naive OCaml loop;
    - the cost model's per-loop accounting, compound-predicate
      selectivity, and cardinality clamping;
    - cost-based rewrite arbitration, including the decision flip: the
      common-result hoist is kept for a long loop and dropped when the
      termination condition prices the loop at one iteration. *)

module Engine = Dbspinner.Engine
module Options = Dbspinner_rewrite.Options
module Rule = Dbspinner_rewrite.Rule
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Parser = Dbspinner_sql.Parser
module Ast = Dbspinner_sql.Ast
module Program = Dbspinner_plan.Program
module Logical = Dbspinner_plan.Logical
module Bound_expr = Dbspinner_plan.Bound_expr
module Cost = Dbspinner_plan.Cost
module Explain = Dbspinner_plan.Explain
module Schema = Dbspinner_storage.Schema
module Catalog = Dbspinner_storage.Catalog
module Relation = Dbspinner_storage.Relation
module Value = Dbspinner_storage.Value
module Stats = Dbspinner_exec.Stats
module Executor = Dbspinner_exec.Executor
module Parallel = Dbspinner_exec.Parallel
module Distributed = Dbspinner_mpp.Distributed
module Trace = Dbspinner_obs.Trace
module Graph_gen = Dbspinner_graph.Graph_gen
module Loader = Dbspinner_workload.Loader
module Queries = Dbspinner_workload.Queries
open Helpers

let lookup name =
  match String.lowercase_ascii name with
  | "edges" -> Some (Schema.of_names [ "src"; "dst"; "weight" ])
  | "vertexstatus" -> Some (Schema.of_names [ "node"; "status" ])
  | _ -> None

let compile ?(options = Options.default) ?statistics sql =
  Iterative_rewrite.compile ~options ?statistics ~lookup (Parser.parse_query sql)

let compile_report ?(options = Options.default) ?statistics sql =
  Iterative_rewrite.compile_with_report ~options ?statistics ~lookup
    (Parser.parse_query sql)

let fired report name =
  Rule.fired_count report.Iterative_rewrite.rewrite_log name

let notes_of report name =
  match
    List.find_opt
      (fun e -> e.Rule.rule = name)
      (Rule.entries report.Iterative_rewrite.rewrite_log)
  with
  | Some e -> String.concat "\n" e.Rule.notes
  | None -> ""

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)

let incr_below n =
  Rule.make ~name:"incr" (fun x -> if x < n then Some (x + 1) else None)

let test_make_records_firings () =
  let log = Rule.create_log () in
  Alcotest.(check int) "fires below bound" 1 (Rule.run (incr_below 5) log 0);
  Alcotest.(check int) "declines at bound" 5 (Rule.run (incr_below 5) log 5);
  Alcotest.(check int) "only the match counted" 1 (Rule.fired_count log "incr");
  Alcotest.(check int) "total" 1 (Rule.total_fired log)

let test_seq_runs_both () =
  let log = Rule.create_log () in
  let double = Rule.make ~name:"double" (fun x -> Some (x * 2)) in
  let r = Rule.(incr_below 10 >>> double) in
  Alcotest.(check int) "incr then double" 8 (Rule.run r log 3);
  (* seq matches when either side matched: a declined first leg still
     lets the second fire. *)
  Alcotest.(check int) "first declines, second fires" 24 (Rule.run r log 12);
  Alcotest.(check int) "double fired twice" 2 (Rule.fired_count log "double")

let test_alt_first_match_wins () =
  let log = Rule.create_log () in
  let negate = Rule.make ~name:"negate" (fun x -> Some (-x)) in
  let r = Rule.alt (incr_below 5) negate in
  Alcotest.(check int) "first matches" 3 (Rule.run r log 2);
  Alcotest.(check int) "falls through to second" (-7) (Rule.run r log 7);
  Alcotest.(check int) "negate fired once" 1 (Rule.fired_count log "negate")

let test_fixpoint_iterates_to_decline () =
  let log = Rule.create_log () in
  Alcotest.(check int) "climbs to the bound" 5
    (Rule.run (Rule.fixpoint (incr_below 5)) log 0);
  Alcotest.(check int) "one firing per step" 5 (Rule.fired_count log "incr");
  (* A rule that always matches must stop at max_passes. *)
  let log = Rule.create_log () in
  let always = Rule.make ~name:"always" (fun x -> Some (x + 1)) in
  Alcotest.(check int) "bounded by max_passes" 3
    (Rule.run (Rule.fixpoint ~max_passes:3 always) log 0)

let test_bottom_up_over_logical () =
  (* distinct(distinct(x)) -> distinct(x), applied through enclosing
     nodes by the generic one-layer traversal. *)
  let dedup =
    Rule.make ~name:"dedup-distinct" (function
      | Logical.L_distinct (Logical.L_distinct _ as inner) -> Some inner
      | _ -> None)
  in
  let plan =
    Logical.limit 5
      (Logical.distinct
         (Logical.distinct
            (Logical.distinct (Logical.values (rel [ "a" ] [ [ vi 1 ] ])))))
  in
  let log = Rule.create_log () in
  let r = Rule.bottom_up ~map_children:Logical.map_children dedup in
  (match Rule.run r log plan with
  | Logical.L_limit (5, Logical.L_distinct (Logical.L_values _)) -> ()
  | _ -> Alcotest.fail "nested distinct not collapsed");
  Alcotest.(check int) "collapsed twice" 2
    (Rule.fired_count log "dedup-distinct");
  (* No match anywhere -> the traversal declines as a whole. *)
  let log = Rule.create_log () in
  Alcotest.(check bool) "no match -> None" true
    (Rule.apply r log (Logical.values (rel [ "a" ] [])) = None)

let test_cost_guard_keeps_and_reverts () =
  let cost x = float_of_int x in
  let log = Rule.create_log () in
  let double = Rule.make ~name:"double" (fun x -> Some (x * 2)) in
  let halve = Rule.make ~name:"halve" (fun x -> Some (x / 2)) in
  (* Doubling raises the estimate: reverted, and the trial firing must
     not surface in the log. *)
  Alcotest.(check int) "rejected rewrite reverts" 3
    (Rule.run (Rule.cost_guard ~cost double) log 3);
  Alcotest.(check int) "rejected firing not counted" 0
    (Rule.fired_count log "double");
  (* Halving lowers it: kept and counted. *)
  Alcotest.(check int) "kept rewrite applies" 3
    (Rule.run (Rule.cost_guard ~cost halve) log 6);
  Alcotest.(check int) "kept firing counted" 1 (Rule.fired_count log "halve");
  let text = String.concat "\n" (Rule.to_lines log) in
  Alcotest.(check bool) "rejection noted" true
    (contains text "rejected by cost guard");
  Alcotest.(check bool) "keep noted with both estimates" true
    (contains text "kept by cost guard (6 -> 3)")

let test_log_rendering () =
  let log = Rule.create_log () in
  Rule.record log "a";
  Rule.record ~detail:"second firing" log "a";
  Rule.note log "b" "just a note (%d)" 7;
  ignore (Rule.run (Rule.make ~name:"silent" (fun _ -> None)) log 0);
  Alcotest.(check (list string))
    "fired lines, indented notes, silent rules omitted"
    [ "rule a: fired 2"; "  second firing"; "rule b: fired 0"; "  just a note (7)" ]
    (Rule.to_lines log)

(* ------------------------------------------------------------------ *)
(* Golden rule logs for the migrated passes                            *)

let pr_vs_query = Queries.pr_vs ~iterations:10 ()
let ff_query = Queries.ff ~modulus:10 ~iterations:5 ()

let test_log_constant_fold () =
  let _, r = compile_report "SELECT 1 + 2 AS x" in
  Alcotest.(check int) "fold fired" 1 (fired r "constant-fold")

let test_log_outer_to_inner () =
  let _, r =
    compile_report
      "SELECT e.src FROM edges AS e LEFT JOIN vertexStatus AS v ON v.node = \
       e.dst WHERE v.status = 1"
  in
  Alcotest.(check int) "outer-to-inner fired" 1 (fired r "outer-to-inner")

let test_log_common_result () =
  let _, r = compile_report pr_vs_query in
  Alcotest.(check int) "common-result fired once" 1 (fired r "common-result");
  Alcotest.(check int) "counter derived from the log" 1
    r.Iterative_rewrite.common_results_extracted;
  Alcotest.(check bool) "note names the materialized CTE" true
    (contains (notes_of r "common-result") "__common");
  Alcotest.(check bool) "rendered log has the fired line" true
    (List.mem "rule common-result: fired 1"
       (Rule.to_lines r.Iterative_rewrite.rewrite_log))

let test_log_predicate_pushdown () =
  let _, r = compile_report ff_query in
  Alcotest.(check int) "predicate-pushdown fired once" 1
    (fired r "predicate-pushdown");
  Alcotest.(check int) "counter derived from the log" 1
    r.Iterative_rewrite.predicates_pushed;
  Alcotest.(check bool) "note prints the pushed predicate" true
    (contains (notes_of r "predicate-pushdown") "% 10")

let test_log_semi_naive_delta () =
  let _, r = compile_report ff_query in
  Alcotest.(check int) "semi-naive-delta fired once" 1
    (fired r "semi-naive-delta");
  Alcotest.(check int) "counter derived from the log" 1
    r.Iterative_rewrite.delta_paths

let test_log_plan_filter_pushdown () =
  let _, r =
    compile_report
      "SELECT * FROM (SELECT src, dst FROM edges) AS s WHERE s.src = 1"
  in
  Alcotest.(check bool) "plan-filter-pushdown fired" true
    (fired r "plan-filter-pushdown" > 0)

(** The rules of the paper's three rewrites, which {!Options.unoptimized}
    switches off. *)
let paper_rewrite_rules =
  [ "common-result"; "predicate-pushdown"; "plan-filter-pushdown" ]

(** With the paper's rewrites switched off none of their rules fires
    and the counters derived from them are zero. Folding, outer-to-inner
    and the delta rule always run, so they may still log. *)
let test_log_empty_with_rewrites_off () =
  List.iter
    (fun (name, sql) ->
      let _, r = compile_report ~options:Options.unoptimized sql in
      List.iter
        (fun rule ->
          Alcotest.(check int) (name ^ ": " ^ rule ^ " silent") 0 (fired r rule))
        paper_rewrite_rules;
      Alcotest.(check (list int))
        (name ^ ": common and pushed counters") [ 0; 0 ]
        [
          r.Iterative_rewrite.common_results_extracted;
          r.Iterative_rewrite.predicates_pushed;
        ])
    [ ("pr-vs", pr_vs_query); ("ff", ff_query) ]

(* ------------------------------------------------------------------ *)
(* Golden programs and a reference loop                                *)

(* The programs the paper workloads compile to under the default
   options. Any change here is a change to what the optimizer emits. *)

let golden_pr =
  {| 1. Materialize PageRank:
      Project [$0 AS Node, $1 AS Rank, $2 AS delta]
        Project [$0 AS src, 0 AS _col1, 0.15 AS _col2]
          Distinct
            Union
              Project [$0 AS src]
                Scan edges
              Project [$1 AS dst]
                Scan edges
 2. AssertUniqueKey PageRank (column 0)
 3. InitLoop #0 over PageRank <<Metadata(iterations=10)>>
 4. Snapshot #0
 5. DeltaMaterialize PageRank#work (1 affected-key plan):
      Project [$0 AS Node, $1 AS Rank, $2 AS delta]
        Project [$0 AS node, $1 AS _col1, COALESCE((0.85 * $2), 0) AS coalesce]
          Aggregate keys=[$0, ($1 + $2)] aggs=[SUM(($8 * $5))]
            LeftOuterJoin ON ($6 = $3)
              LeftOuterJoin ON ($0 = $4)
                SemiJoin (IN $0)
                  Scan PageRank
                  Scan PageRank#affected
                Scan edges
              Scan PageRank
 6. AssertUniqueKey PageRank#work (column 0)
 7. Rename PageRank#work -> PageRank
 8. LoopEnd #0: go to step 4 while continue
 9. Return:
      Project [$0 AS Node, $1 AS Rank]
        Scan PageRank|}

let golden_pr_vs =
  {| 1. Materialize pagerank__common1:
      Project [$0 AS incomingedges_src, $1 AS incomingedges_dst, $2 AS incomingedges_weight, $3 AS avail_pr_node, $4 AS avail_pr_status]
        InnerJoin ON ($3 = $1)
          Scan edges
          Filter ($1 <> 0)
            Scan vertexStatus
 2. Materialize PageRank:
      Project [$0 AS Node, $1 AS Rank, $2 AS delta]
        Project [$0 AS src, 0 AS _col1, 0.15 AS _col2]
          Distinct
            Union
              Project [$0 AS src]
                Scan edges
              Project [$1 AS dst]
                Scan edges
 3. AssertUniqueKey PageRank (column 0)
 4. InitLoop #0 over PageRank <<Metadata(iterations=10)>>
 5. Snapshot #0
 6. DeltaMaterialize PageRank#work (1 affected-key plan):
      Project [$0 AS Node, $1 AS Rank, $2 AS delta]
        Project [$0 AS node, $1 AS _col1, COALESCE((0.85 * $2), 0) AS coalesce]
          Aggregate keys=[$0, ($1 + $2)] aggs=[SUM(($10 * $5))]
            LeftOuterJoin ON ($8 = $3)
              InnerJoin ON ($0 = $4)
                SemiJoin (IN $0)
                  Scan PageRank
                  Scan PageRank#affected
                Scan pagerank__common1
              Scan PageRank
 7. AssertUniqueKey PageRank#work (column 0)
 8. Merge PageRank#work into PageRank as PageRank#merge (key column 0)
 9. Rename PageRank#merge -> PageRank
10. Drop PageRank#work
11. LoopEnd #0: go to step 5 while continue
12. Return:
      Project [$0 AS Node, $1 AS Rank]
        Scan PageRank|}

let golden_sssp =
  {| 1. Materialize sssp:
      Project [$0 AS Node, $1 AS Distance, $2 AS delta]
        Project [$0 AS src, 9999999 AS _col1, CASE WHEN ($0 = 1) THEN 0 ELSE 9999999 END AS _col2]
          Distinct
            Union
              Project [$0 AS src]
                Scan edges
              Project [$1 AS dst]
                Scan edges
 2. AssertUniqueKey sssp (column 0)
 3. InitLoop #0 over sssp <<Metadata(iterations=10)>>
 4. Snapshot #0
 5. DeltaMaterialize sssp#work (1 affected-key plan):
      Project [$0 AS Node, $1 AS Distance, $2 AS delta]
        Project [$0 AS node, $1 AS least, COALESCE($2, 9999999) AS coalesce]
          Aggregate keys=[$0, LEAST($1, $2)] aggs=[MIN(($8 + $5))]
            InnerJoin ON ($6 = $3)
              LeftOuterJoin ON ($0 = $4)
                SemiJoin (IN $0)
                  Scan sssp
                  Scan sssp#affected
                Scan edges
              Filter ($2 <> 9999999)
                Scan sssp
 6. AssertUniqueKey sssp#work (column 0)
 7. Merge sssp#work into sssp as sssp#merge (key column 0)
 8. Rename sssp#merge -> sssp
 9. Drop sssp#work
10. LoopEnd #0: go to step 4 while continue
11. Return:
      Project [$0 AS Node, $1 AS Distance, $2 AS delta]
        Scan sssp|}

let golden_ff =
  {| 1. Materialize forecast:
      Project [$0 AS node, $1 AS friends, $2 AS friendsPrev]
        Project [$0 AS node, $1 AS friends, CEILING(($1 * (1.0 - (($0 % 10) / 100.0)))) AS friendsPrev]
          Aggregate keys=[$0] aggs=[COUNT($1)]
            Filter (($0 % 10) = 0)
              Scan edges
 2. AssertUniqueKey forecast (column 0)
 3. InitLoop #0 over forecast <<Metadata(iterations=5)>>
 4. Snapshot #0
 5. DeltaMaterialize forecast#work (0 affected-key plans):
      Project [$0 AS node, $1 AS friends, $2 AS friendsPrev]
        Project [$0 AS node, ROUND(CAST((($1 / $2) * $1) AS FLOAT), 5) AS friends, $1 AS friendsPrev]
          SemiJoin (IN $0)
            Scan forecast
            Scan forecast#affected
 6. AssertUniqueKey forecast#work (column 0)
 7. Rename forecast#work -> forecast
 8. LoopEnd #0: go to step 4 while continue
 9. Return:
      Limit 10
        Sort [$1 DESC, $0 ASC]
          Project [$0 AS node, $1 AS friends]
            Filter (($0 % 10) = 0)
              Scan forecast|}

let test_same_program_text_on_workloads () =
  List.iter
    (fun (name, sql, golden) ->
      Alcotest.(check string)
        (name ^ ": program matches the golden text")
        golden
        (Explain.program_to_string (compile sql)))
    [
      ("pr", Queries.pr ~iterations:10 (), golden_pr);
      ("pr-vs", pr_vs_query, golden_pr_vs);
      ("sssp", Queries.sssp ~source:1 ~iterations:10 (), golden_sssp);
      ("ff", ff_query, golden_ff);
    ]

let engine_lookup e name =
  Option.map Dbspinner_storage.Table.schema
    (Catalog.find_table_opt (Engine.catalog e) name)

let compile_on_engine ?(options = Options.default) e sql =
  Iterative_rewrite.compile ~options ~lookup:(engine_lookup e)
    (Parser.parse_query sql)

(** Run on a clean temp namespace with fresh stats. *)
let run ?parallel ?use_cache ?trace e program =
  Catalog.clear_temps (Engine.catalog e);
  Executor.run_program_with_stats ?parallel ?use_cache ?trace
    (Engine.catalog e) program

(** All five executors: (name, relation, stats) per executor. *)
let run_all_executors e program =
  let seq, s_seq = run e program in
  let parallel =
    match Parallel.context ~chunk_rows:16 ~workers:4 () with
    | None -> []
    | Some parallel ->
      let r, s = run ~parallel e program in
      [ ("parallel", r, s) ]
  in
  let uncached, s_unc = run ~use_cache:false e program in
  let tr = Trace.create () in
  let traced, s_tr = run ~trace:tr e program in
  Catalog.clear_temps (Engine.catalog e);
  let s_dist = Stats.create () in
  let dist, _ =
    Distributed.run_program ~workers:3 ~stats:s_dist (Engine.catalog e)
      program
  in
  ("sequential", seq, s_seq)
  :: (parallel
     @ [
         ("cached-off", uncached, s_unc);
         ("traced", traced, s_tr);
         ("distributed", dist, s_dist);
       ])

(* The test name predates the reference loop; it is kept so the suite
   prints the same names. *)
let prop_engine_on_off =
  let open QCheck2 in
  let rows_gen =
    Gen.(list_size (int_range 0 12) (pair (int_range 0 6) (int_range (-8) 8)))
  in
  let query_gen =
    Gen.(
      let* key_expr = oneofl [ "k"; "k"; "k + 0" ] in
      let* step =
        oneofl
          [
            ("v + 1", fun _ v -> v + 1);
            ("v + k", fun k v -> v + k);
            ("LEAST(v, k)", fun k v -> min v k);
            ("v * 2", fun _ v -> v * 2);
            ("LEAST(v, 0)", fun _ v -> min v 0);
          ]
      in
      let* where =
        oneofl
          [
            ("", None);
            ("v < 5", Some (fun _ v -> v < 5));
            ("k > 2", Some (fun k _ -> k > 2));
          ]
      in
      let* rounds = int_range 1 4 in
      return (key_expr, step, where, rounds))
  in
  let sql_of (key_expr, (step_expr, _), (where, _), rounds) =
    kv_sql ~key_expr ~where ~step_expr
      ~until:(Printf.sprintf "%d ITERATIONS" rounds)
      ()
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:"rule engine on = off across all executors"
       ~print:(fun (rows, query) ->
         Printf.sprintf "%s over %d rows" (sql_of query) (List.length rows))
       (Gen.pair rows_gen query_gen)
       (fun (rows, ((_, (_, step), (_, where), rounds) as query)) ->
         let e = kv_engine rows in
         let expected = kv_reference rows ~step ~where ~rounds in
         match run_all_executors e (compile_on_engine e (sql_of query)) with
         | [] -> assert false
         | (_, _, s_seq) :: _ as runs ->
           List.iter
             (fun (name, r, s) ->
               if not (Relation.equal_bag r expected) then
                 QCheck2.Test.fail_reportf
                   "%s: rows differ:\ngot:\n%s\nreference:\n%s" name
                   (Relation.to_table_string r)
                   (Relation.to_table_string expected)
               (* The distributed backend partitions its operators and
                  checkpoints loop state, so its counters differ by
                  design; the single-node executors must agree exactly. *)
               else if name <> "distributed" && not (Stats.logical_equal s s_seq)
               then
                 QCheck2.Test.fail_reportf
                   "%s: stats differ from sequential:\n%s\nvs\n%s" name
                   (Stats.to_string s) (Stats.to_string s_seq))
             runs;
           true))

(* ------------------------------------------------------------------ *)
(* Cost model: per-loop accounting, selectivity, clamping              *)

let no_stats = { Cost.cardinality_of = (fun _ -> None) }

let test_per_loop_iteration_accounting () =
  (* Two iterative CTEs with different bounds: each loop body must be
     charged at its own iteration count, not the first loop's. *)
  let p =
    compile
      {|WITH ITERATIVE a (k, x) AS (SELECT 1, 0 ITERATE SELECT k, x + 1 FROM a UNTIL 3 ITERATIONS),
       ITERATIVE b (k, y) AS (SELECT 1, 100 ITERATE SELECT k, y - 1 FROM b UNTIL 7 ITERATIONS)
SELECT a.k, x, y FROM a JOIN b ON a.k = b.k|}
  in
  let est = Cost.program no_stats p in
  Alcotest.(check int) "two loops costed" 2 (List.length est.Cost.loops);
  let iters =
    List.map (fun l -> l.Cost.loop_iterations) est.Cost.loops
  in
  Alcotest.(check (list (float 1e-9))) "each at its own bound" [ 3.0; 7.0 ]
    iters;
  let expected_total =
    List.fold_left
      (fun acc l -> acc +. (l.Cost.body_cost *. l.Cost.loop_iterations))
      est.Cost.setup_cost est.Cost.loops
  in
  Alcotest.(check (float 1e-6)) "total = setup + sum of body x iters"
    expected_total est.Cost.total_cost;
  (* The first loop still backs the flat summary fields. *)
  Alcotest.(check (float 1e-9)) "summary iterations are loop 1's" 3.0
    est.Cost.iterations;
  Alcotest.(check (float 1e-9)) "summary body is loop 1's"
    (List.hd est.Cost.loops).Cost.body_cost est.Cost.per_iteration_cost

let eq_pred col n =
  Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col col, Bound_expr.B_lit (Value.Int n))

let lt_pred col n =
  Bound_expr.B_binop (Ast.Lt, Bound_expr.B_col col, Bound_expr.B_lit (Value.Int n))

let test_compound_predicate_selectivity () =
  let check_sel msg expected pred =
    Alcotest.(check (float 1e-9)) msg expected (Cost.pred_selectivity pred)
  in
  check_sel "equality" 0.1 (eq_pred 0 1);
  check_sel "non-equality" 0.33 (lt_pred 0 1);
  check_sel "two equalities compound" 0.01
    (Bound_expr.conjoin [ eq_pred 0 1; eq_pred 1 2 ]);
  check_sel "mixed conjunction compounds" (0.1 *. 0.33)
    (Bound_expr.conjoin [ eq_pred 0 1; lt_pred 1 9 ]);
  (* The compound estimate must feed the filter's row count. *)
  let stats = { Cost.cardinality_of = (fun _ -> Some 1000) } in
  let filtered =
    Logical.filter
      (Bound_expr.conjoin [ eq_pred 0 1; eq_pred 1 2 ])
      (Logical.scan ~name:"edges" ~schema:(Schema.of_names [ "src"; "dst" ]))
  in
  Alcotest.(check (float 1e-6)) "1000 rows x 0.01" 10.0
    (Cost.plan stats filtered).Cost.rows

let test_cardinality_clamping () =
  Alcotest.(check int) "nan -> 0" 0 (Cost.cardinality_of_rows Float.nan);
  Alcotest.(check int) "negative -> 0" 0 (Cost.cardinality_of_rows (-5.0));
  Alcotest.(check int) "zero -> 0" 0 (Cost.cardinality_of_rows 0.0);
  Alcotest.(check int) "infinity saturates" max_int
    (Cost.cardinality_of_rows Float.infinity);
  Alcotest.(check int) "overflow saturates" max_int
    (Cost.cardinality_of_rows 1e30);
  Alcotest.(check int) "ordinary estimate truncates" 42
    (Cost.cardinality_of_rows 42.9)

(* ------------------------------------------------------------------ *)
(* Cost-based arbitration and the decision flip                        *)

let graph_stats =
  {
    Cost.cardinality_of =
      (fun name ->
        match String.lowercase_ascii name with
        | "edges" -> Some 200
        | "vertexstatus" -> Some 50
        | _ -> None);
  }

(** PR-VS with a parametric termination condition: the invariant
    [edges JOIN vertexStatus] subtree is the common-result candidate. *)
let pr_vs_until until =
  Printf.sprintf
    {|WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
   SELECT PageRank.node,
     PageRank.rank + PageRank.delta,
     COALESCE(0.85 * SUM(IncomingRank.delta * IncomingEdges.weight), 0)
   FROM PageRank
     LEFT JOIN (edges AS IncomingEdges
                JOIN vertexStatus AS avail_pr
                  ON avail_pr.node = IncomingEdges.dst)
       ON PageRank.node = IncomingEdges.dst
     LEFT JOIN PageRank AS IncomingRank
       ON IncomingRank.node = IncomingEdges.src
   WHERE avail_pr.status <> 0
   GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL %s )
SELECT Node, Rank FROM PageRank|}
    until

let test_flip_hoist_kept_for_long_loop () =
  let _, r = compile_report ~statistics:graph_stats (pr_vs_until "10 ITERATIONS") in
  Alcotest.(check int) "hoist kept" 1
    r.Iterative_rewrite.common_results_extracted;
  Alcotest.(check int) "drop rule reverted" 0 (fired r "cost:no-common-result");
  Alcotest.(check bool) "rejection priced in the log" true
    (contains (notes_of r "cost:no-common-result") "rejected by cost guard")

let test_flip_hoist_dropped_for_single_iteration () =
  (* UNTIL 1 UPDATES prices the loop at one iteration: materializing
     the invariant join before the loop is pure overhead, so the cost
     guard keeps the drop. *)
  let _, r = compile_report ~statistics:graph_stats (pr_vs_until "1 UPDATES") in
  Alcotest.(check int) "hoist dropped" 0
    r.Iterative_rewrite.common_results_extracted;
  Alcotest.(check int) "drop rule fired" 1 (fired r "cost:no-common-result");
  Alcotest.(check bool) "keep priced in the log" true
    (contains (notes_of r "cost:no-common-result") "kept by cost guard")

let test_flip_requires_stats_and_knob () =
  (* No statistics: arbitration cannot price anything — always-on. *)
  let _, r = compile_report (pr_vs_until "1 UPDATES") in
  Alcotest.(check int) "no stats -> hoist stays" 1
    r.Iterative_rewrite.common_results_extracted;
  Alcotest.(check int) "no guard decision logged" 0
    (fired r "cost:no-common-result")

let test_push_survives_arbitration () =
  (* The §V-B push shrinks the base and every iteration: the cost
     guard must price dropping it as a regression. *)
  let _, r = compile_report ~statistics:graph_stats ff_query in
  Alcotest.(check int) "push kept" 1 r.Iterative_rewrite.predicates_pushed;
  Alcotest.(check int) "drop rule reverted" 0
    (fired r "cost:no-predicate-pushdown");
  Alcotest.(check bool) "rejection priced in the log" true
    (contains (notes_of r "cost:no-predicate-pushdown") "rejected by cost guard")

(* examples/demo.sql, in the build tree under [dune runtest], in the
   source root under [dune exec]. *)
let demo_script =
  let in_build =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "examples/demo.sql"
  in
  if Sys.file_exists in_build then in_build else "examples/demo.sql"

let test_flip_preserves_semantics () =
  (* The dropped-hoist program must return exactly what the always-on
     program returns. *)
  let g = Graph_gen.power_law ~seed:3 ~num_nodes:40 ~edges_per_node:3 in
  let e = Loader.engine_for g in
  let sql = pr_vs_until "1 UPDATES" in
  let stats_of name =
    Option.map Dbspinner_storage.Table.cardinality
      (Catalog.find_table_opt (Engine.catalog e) name)
  in
  let statistics = { Cost.cardinality_of = stats_of } in
  let arbitrated =
    Iterative_rewrite.compile ~statistics ~lookup:(engine_lookup e)
      (Parser.parse_query sql)
  in
  let always_on = compile_on_engine e sql in
  let r_arb, _ = run e arbitrated in
  let r_on, _ = run e always_on in
  Alcotest.(check bool) "same rows either way" true
    (approx_equal_bag r_arb r_on);
  (* Every statement of the demo script answers the same whether its
     queries are compiled with catalog statistics (the engine's path,
     arbitrated) or without (the always-on rewrites). *)
  let script = In_channel.with_open_text demo_script In_channel.input_all in
  let outputs ~statistics =
    let e = Engine.create () in
    if not statistics then
      Engine.set_plan_hook e
        (Some
           (fun q _ ->
             Iterative_rewrite.compile ~options:(Engine.options e)
               ~lookup:(engine_lookup e) q));
    List.map
      (function
        | Engine.Rows r -> Relation.to_table_string r
        | Engine.Affected n -> Printf.sprintf "%d row(s) affected" n
        | Engine.Executed -> "ok"
        | Engine.Explained text -> text)
      (Engine.execute_script e script)
  in
  let arbitrated = outputs ~statistics:true in
  Alcotest.(check bool) "demo script answers queries" true
    (List.length arbitrated > 5);
  Alcotest.(check (list string)) "demo script: statistics on = off"
    arbitrated (outputs ~statistics:false)

(* ------------------------------------------------------------------ *)
(* EXPLAIN surfaces the log                                            *)

let test_explain_shows_rewrite_log () =
  let e = tiny_graph_engine () in
  match Engine.execute e ("EXPLAIN " ^ Queries.ff ~modulus:2 ~iterations:3 ()) with
  | Engine.Explained text ->
    Alcotest.(check bool) "has the log header" true
      (contains text "Rewrite log:");
    Alcotest.(check bool) "names the pushdown rule" true
      (contains text "rule predicate-pushdown: fired 1");
    Alcotest.(check bool) "names the delta rule" true
      (contains text "rule semi-naive-delta: fired 1")
  | _ -> Alcotest.fail "expected EXPLAIN output"

let test_explain_log_silent_with_rewrites_off () =
  let e = tiny_graph_engine () in
  Engine.set_options e Options.unoptimized;
  match
    Engine.execute e ("EXPLAIN " ^ Queries.ff ~modulus:2 ~iterations:3 ())
  with
  | Engine.Explained text ->
    (* The paper's rewrites off: none of their rules logs, and with
       nothing to arbitrate no cost decision is priced. *)
    List.iter
      (fun rule ->
        Alcotest.(check bool) (rule ^ " not logged") false
          (contains text ("rule " ^ rule)))
      paper_rewrite_rules;
    Alcotest.(check bool) "no cost decisions" false (contains text "cost:")
  | _ -> Alcotest.fail "expected EXPLAIN output"

let () =
  Alcotest.run "rules"
    [
      ( "combinators",
        [
          Alcotest.test_case "make-records" `Quick test_make_records_firings;
          Alcotest.test_case "seq" `Quick test_seq_runs_both;
          Alcotest.test_case "alt" `Quick test_alt_first_match_wins;
          Alcotest.test_case "fixpoint" `Quick test_fixpoint_iterates_to_decline;
          Alcotest.test_case "bottom-up" `Quick test_bottom_up_over_logical;
          Alcotest.test_case "cost-guard" `Quick
            test_cost_guard_keeps_and_reverts;
          Alcotest.test_case "log-rendering" `Quick test_log_rendering;
        ] );
      ( "rule-logs",
        [
          Alcotest.test_case "constant-fold" `Quick test_log_constant_fold;
          Alcotest.test_case "outer-to-inner" `Quick test_log_outer_to_inner;
          Alcotest.test_case "common-result" `Quick test_log_common_result;
          Alcotest.test_case "predicate-pushdown" `Quick
            test_log_predicate_pushdown;
          Alcotest.test_case "semi-naive-delta" `Quick test_log_semi_naive_delta;
          Alcotest.test_case "plan-filter-pushdown" `Quick
            test_log_plan_filter_pushdown;
          Alcotest.test_case "engine-off-empty" `Quick
            test_log_empty_with_rewrites_off;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "workload-program-text" `Quick
            test_same_program_text_on_workloads;
          prop_engine_on_off;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "per-loop-accounting" `Quick
            test_per_loop_iteration_accounting;
          Alcotest.test_case "compound-selectivity" `Quick
            test_compound_predicate_selectivity;
          Alcotest.test_case "cardinality-clamp" `Quick
            test_cardinality_clamping;
        ] );
      ( "cost-arbitration",
        [
          Alcotest.test_case "hoist-kept-long-loop" `Quick
            test_flip_hoist_kept_for_long_loop;
          Alcotest.test_case "hoist-dropped-one-iteration" `Quick
            test_flip_hoist_dropped_for_single_iteration;
          Alcotest.test_case "needs-stats-and-knob" `Quick
            test_flip_requires_stats_and_knob;
          Alcotest.test_case "push-survives" `Quick
            test_push_survives_arbitration;
          Alcotest.test_case "flip-preserves-semantics" `Quick
            test_flip_preserves_semantics;
        ] );
      ( "explain",
        [
          Alcotest.test_case "shows-rewrite-log" `Quick
            test_explain_shows_rewrite_log;
          Alcotest.test_case "silent-when-off" `Quick
            test_explain_log_silent_with_rewrites_off;
        ] );
    ]
