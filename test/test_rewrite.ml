(** Unit tests for the rewrite layer — the paper's core:

    - the functional rewrite's program shape (Table I) and how it
      changes with the rename optimization and WHERE-clause updates;
    - the predicate-push-down decision procedure (§V-B);
    - the common-result extraction (§V-A), including the outer-join
      hoisting restriction;
    - constant folding. *)

module Schema = Dbspinner_storage.Schema
module Value = Dbspinner_storage.Value
module Ast = Dbspinner_sql.Ast
module Parser = Dbspinner_sql.Parser
module Pretty = Dbspinner_sql.Sql_pretty
module Program = Dbspinner_plan.Program
module Logical = Dbspinner_plan.Logical
module Explain = Dbspinner_plan.Explain
module Options = Dbspinner_rewrite.Options
module Fold = Dbspinner_rewrite.Fold
module Pushdown = Dbspinner_rewrite.Pushdown
module Common_result = Dbspinner_rewrite.Common_result
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
open Helpers

let lookup name =
  match String.lowercase_ascii name with
  | "edges" -> Some (Schema.of_names [ "src"; "dst"; "weight" ])
  | "vertexstatus" -> Some (Schema.of_names [ "node"; "status" ])
  | _ -> None

let compile ?(options = Options.default) sql =
  Iterative_rewrite.compile ~options ~lookup (Parser.parse_query sql)

let count program f = Program.count_steps program ~f

(* Delta_materialize is the working-table materialization compiled for
   semi-naive evaluation; shape-wise it occupies the same slot. *)
let materialize_count p =
  count p (function
    | Program.Materialize _ | Program.Delta_materialize _ | Program.Merge _ ->
      true
    | _ -> false)

let rename_count p = count p (function Program.Rename _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Functional rewrite: program shapes                                  *)

let pr_query = Dbspinner_workload.Queries.pr ~iterations:10 ()
let pr_vs_query = Dbspinner_workload.Queries.pr_vs ~iterations:10 ()
let sssp_query = Dbspinner_workload.Queries.sssp ~source:1 ~iterations:10 ()
let ff_query = Dbspinner_workload.Queries.ff ~modulus:10 ~iterations:5 ()

let test_pr_program_shape () =
  (* Full update + rename: Table I exactly — base materialize, its key
     check, init, snapshot, work materialize, its key check, rename,
     loop end, return. *)
  let p = compile pr_query in
  Alcotest.(check int) "two materializations" 2 (materialize_count p);
  Alcotest.(check int) "one rename" 1 (rename_count p);
  Alcotest.(check int) "R0 and the working table are key-checked" 2
    (count p (function Program.Assert_unique_key _ -> true | _ -> false));
  match (Program.steps p).(Array.length (Program.steps p) - 1) with
  | Program.Return _ -> ()
  | _ -> Alcotest.fail "last step must be Return"

let test_pr_without_rename_uses_merge_and_copy () =
  (* Baseline of §VII-B: merge materialization + copy-back, no rename. *)
  let p = compile ~options:{ Options.default with use_rename = false } pr_query in
  Alcotest.(check int) "no renames" 0 (rename_count p);
  (* base + work + merge + copy-back = 4 materializations *)
  Alcotest.(check int) "merge and copy-back appear" 4 (materialize_count p)

let test_partial_update_uses_merge () =
  (* SSSP has a WHERE clause in Ri: merge path even with rename on. *)
  let p = compile sssp_query in
  Alcotest.(check int) "one rename (of the merge table)" 1 (rename_count p);
  (* base + work + merge = 3 *)
  Alcotest.(check int) "merge materialization present" 3 (materialize_count p)

let test_loop_jump_target () =
  let p = compile pr_query in
  let steps = Program.steps p in
  let body_start =
    match
      Array.find_opt (function Program.Loop_end _ -> true | _ -> false) steps
    with
    | Some (Program.Loop_end { body_start; _ }) -> body_start
    | _ -> Alcotest.fail "no Loop_end"
  in
  (match steps.(body_start) with
  | Program.Snapshot _ -> ()
  | _ -> Alcotest.fail "loop should jump back to the snapshot step");
  match steps.(body_start + 1) with
  | Program.Materialize { target; _ }
  | Program.Delta_materialize { target; _ } ->
    Alcotest.(check bool) "then materializes the working table" true
      (contains target "#work")
  | _ -> Alcotest.fail "expected working-table materialization"

let test_termination_validation () =
  let bad n =
    Printf.sprintf
      "WITH ITERATIVE r AS (SELECT 1 AS a ITERATE SELECT a FROM r UNTIL %d \
       ITERATIONS) SELECT * FROM r"
      n
  in
  match compile (bad 0) with
  | exception Iterative_rewrite.Rewrite_error m ->
    Alcotest.(check bool) "positive required" true (contains m "positive")
  | _ -> Alcotest.fail "expected rewrite error"

let test_arity_mismatch_rejected () =
  let sql =
    "WITH ITERATIVE r (a, b) AS (SELECT 1, 2 ITERATE SELECT a FROM r UNTIL 2 \
     ITERATIONS) SELECT * FROM r"
  in
  match compile sql with
  | exception Iterative_rewrite.Rewrite_error m ->
    Alcotest.(check bool) "mentions columns" true (contains m "columns")
  | _ -> Alcotest.fail "expected arity error"

let test_key_column_validation () =
  let sql =
    "WITH ITERATIVE r (a) KEY nope AS (SELECT 1 ITERATE SELECT a FROM r \
     UNTIL 2 ITERATIONS) SELECT * FROM r"
  in
  match compile sql with
  | exception Iterative_rewrite.Rewrite_error m ->
    Alcotest.(check bool) "mentions KEY" true (contains m "key")
  | _ -> Alcotest.fail "expected key error"

(* ------------------------------------------------------------------ *)
(* Predicate push down (§V-B)                                          *)

let pushable ~cte ~columns ~step ~final =
  let step = (Parser.parse_query step).Ast.body in
  let final = (Parser.parse_query final).Ast.body in
  Pushdown.pushable_predicate ~cte_name:cte ~columns ~step ~final

let ff_step =
  "SELECT node AS node, friends * 2 AS friends, friends AS friendsPrev FROM \
   forecast"

let test_pushdown_ff_identity_column () =
  match
    pushable ~cte:"forecast"
      ~columns:[ "node"; "friends"; "friendsPrev" ]
      ~step:ff_step
      ~final:"SELECT node, friends FROM forecast WHERE MOD(node, 100) = 0"
  with
  | Some pred ->
    Alcotest.(check bool) "predicate is the mod filter" true
      (contains (Pretty.expr pred) "% 100")
  | None -> Alcotest.fail "expected pushable predicate"

let test_pushdown_rejects_changed_column () =
  (* friends is rewritten every iteration: filtering it early is
     unsound (a row below the threshold now may exceed it later). *)
  Alcotest.(check bool) "changed column not pushable" true
    (pushable ~cte:"forecast"
       ~columns:[ "node"; "friends"; "friendsPrev" ]
       ~step:ff_step
       ~final:"SELECT node FROM forecast WHERE friends > 100"
    = None)

let test_pushdown_mixed_conjuncts () =
  (* Only the identity-column conjunct may move. *)
  match
    pushable ~cte:"forecast"
      ~columns:[ "node"; "friends"; "friendsPrev" ]
      ~step:ff_step
      ~final:
        "SELECT node FROM forecast WHERE MOD(node, 10) = 0 AND friends > 100"
  with
  | Some pred ->
    let text = Pretty.expr pred in
    Alcotest.(check bool) "mod conjunct pushed" true (contains text "% 10");
    Alcotest.(check bool) "friends conjunct kept back" false
      (contains text "friends")
  | None -> Alcotest.fail "expected partial push"

let test_pushdown_rejects_self_join_step () =
  (* PR's Ri references the CTE twice (self join) and aggregates:
     nothing may be pushed (the paper's Node = 10 example). *)
  let pr_step =
    "SELECT PageRank.node, PageRank.rank + PageRank.delta, 0.85 * \
     SUM(ir.delta) FROM PageRank LEFT JOIN edges AS e ON PageRank.node = \
     e.dst LEFT JOIN PageRank AS ir ON ir.node = e.src GROUP BY \
     PageRank.node, PageRank.rank + PageRank.delta"
  in
  Alcotest.(check bool) "self-join step rejects push" true
    (pushable ~cte:"PageRank" ~columns:[ "node"; "rank"; "delta" ] ~step:pr_step
       ~final:"SELECT rank FROM PageRank WHERE node = 10"
    = None)

let test_pushdown_rejects_aggregate_step () =
  Alcotest.(check bool) "aggregate step rejects push" true
    (pushable ~cte:"r" ~columns:[ "a"; "b" ]
       ~step:"SELECT a, SUM(b) FROM r GROUP BY a"
       ~final:"SELECT a FROM r WHERE a = 1"
    = None)

let test_pushdown_rejects_joined_final () =
  Alcotest.(check bool) "final with join rejects push" true
    (pushable ~cte:"r" ~columns:[ "a"; "b" ]
       ~step:"SELECT a AS a, b + 1 AS b FROM r"
       ~final:"SELECT r.a FROM r JOIN edges ON r.a = edges.src WHERE r.a = 1"
    = None)

let test_pushdown_in_compiled_plan () =
  (* The optimized FF program filters R0; the unoptimized one does not.
     Detect via the EXPLAIN text of the first materialization. *)
  let explain options =
    Explain.program_to_string (compile ~options ff_query)
  in
  let optimized = explain Options.default in
  let baseline = explain Options.unoptimized in
  let base_has_filter text =
    (* The base materialization precedes InitLoop; look for the mod
       predicate before that point. *)
    let cut =
      match find_substring text "InitLoop" with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    (* FF's base expression itself contains "% 10"; the pushed filter
       is specifically the equality with zero. *)
    contains cut "% 10) = 0"
  in
  Alcotest.(check bool) "optimized filters the base" true
    (base_has_filter optimized);
  Alcotest.(check bool) "baseline does not" false (base_has_filter baseline)

(* ------------------------------------------------------------------ *)
(* Common-result extraction (§V-A)                                     *)

let rewrite_step sql =
  let step = (Parser.parse_query sql).Ast.body in
  Common_result.rewrite_step ~lookup ~cte_name:"PageRank" ~prefix:"pagerank" step

let prvs_step =
  "SELECT PageRank.node, PageRank.rank, SUM(ir.delta * IncomingEdges.weight) \
   FROM PageRank LEFT JOIN (edges AS IncomingEdges JOIN vertexStatus AS \
   avail_pr ON avail_pr.node = IncomingEdges.dst) ON PageRank.node = \
   IncomingEdges.dst LEFT JOIN PageRank AS ir ON ir.node = IncomingEdges.src \
   WHERE avail_pr.status <> 0 GROUP BY PageRank.node, PageRank.rank"

let test_common_extracts_invariant_join () =
  let { Common_result.new_ctes; step; extracted } = rewrite_step prvs_step in
  Alcotest.(check int) "one subtree extracted" 1 extracted;
  (match new_ctes with
  | [ Ast.Cte_plain { name; body; _ } ] ->
    Alcotest.(check bool) "named common" true (contains name "__common");
    let body_sql = Pretty.query body in
    Alcotest.(check bool) "joins edges and vertexstatus" true
      (contains body_sql "edges" && contains body_sql "vertexstatus")
  | _ -> Alcotest.fail "expected one plain CTE");
  let step_sql = Pretty.query step in
  Alcotest.(check bool) "step reads the common result" true
    (contains step_sql "__common1");
  Alcotest.(check bool) "qualified refs rewritten" true
    (contains step_sql "incomingedges_weight");
  (* The filter stays in the WHERE (nullable side: no hoisting). *)
  Alcotest.(check bool) "status filter kept in step WHERE" true
    (contains step_sql "avail_pr_status")

let test_common_hoists_filter_on_inner_side () =
  (* Same join but INNER at the top: the filter may move inside. *)
  let inner_step =
    "SELECT PageRank.node, SUM(IncomingEdges.weight) FROM PageRank JOIN \
     (edges AS IncomingEdges JOIN vertexStatus AS avail_pr ON avail_pr.node \
     = IncomingEdges.dst) ON PageRank.node = IncomingEdges.dst WHERE \
     avail_pr.status <> 0 GROUP BY PageRank.node"
  in
  let { Common_result.new_ctes; step; _ } = rewrite_step inner_step in
  (match new_ctes with
  | [ Ast.Cte_plain { body; _ } ] ->
    Alcotest.(check bool) "filter hoisted into common body" true
      (contains (Pretty.query body) "status")
  | _ -> Alcotest.fail "expected one plain CTE");
  match step with
  | Ast.Q_select s ->
    Alcotest.(check bool) "step WHERE emptied" true (s.Ast.where = None)
  | _ -> Alcotest.fail "step should stay a select"

let test_common_skips_cte_referencing_subtrees () =
  (* Join touching the CTE itself is not invariant. *)
  let step =
    "SELECT PageRank.node, SUM(e.weight) FROM PageRank JOIN edges AS e ON \
     PageRank.node = e.dst GROUP BY PageRank.node"
  in
  let { Common_result.extracted; _ } = rewrite_step step in
  Alcotest.(check int) "nothing extracted" 0 extracted

let test_common_skips_unqualified_ambiguity () =
  (* An unqualified reference that could resolve into the subtree
     aborts extraction. *)
  let step =
    "SELECT PageRank.node, SUM(weight) FROM PageRank LEFT JOIN (edges AS e \
     JOIN vertexStatus AS vs ON vs.node = e.dst) ON PageRank.node = e.dst \
     GROUP BY PageRank.node"
  in
  let { Common_result.extracted; _ } = rewrite_step step in
  Alcotest.(check int) "ambiguous reference aborts" 0 extracted

let test_common_in_compiled_program () =
  (* PR-VS with the optimization gains one extra materialization before
     the loop; the loop body shrinks to two joins. *)
  let with_opt = compile pr_vs_query in
  let without =
    compile ~options:{ Options.default with use_common_result = false }
      pr_vs_query
  in
  Alcotest.(check int) "one extra materialization"
    (materialize_count without + 1)
    (materialize_count with_opt);
  let text = Explain.program_to_string with_opt in
  Alcotest.(check bool) "common CTE materialized" true (contains text "__common1")

(* ------------------------------------------------------------------ *)
(* Rewrite reports                                                     *)

let compile_report ?(options = Options.default) sql =
  snd (Iterative_rewrite.compile_with_report ~options ~lookup (Parser.parse_query sql))

let test_report_counts () =
  let r = compile_report pr_query in
  Alcotest.(check int) "PR: rename path" 1 r.Iterative_rewrite.rename_paths;
  Alcotest.(check int) "PR: no merges" 0 r.Iterative_rewrite.merge_paths;
  Alcotest.(check int) "PR: nothing extracted" 0
    r.Iterative_rewrite.common_results_extracted;
  let r = compile_report pr_vs_query in
  Alcotest.(check int) "PR-VS: one common result" 1
    r.Iterative_rewrite.common_results_extracted;
  Alcotest.(check int) "PR-VS: merge path" 1 r.Iterative_rewrite.merge_paths;
  let r = compile_report ff_query in
  Alcotest.(check int) "FF: predicate pushed" 1
    r.Iterative_rewrite.predicates_pushed;
  Alcotest.(check int) "FF: rename path" 1 r.Iterative_rewrite.rename_paths;
  let r = compile_report ~options:Options.unoptimized ff_query in
  Alcotest.(check int) "unoptimized: nothing pushed" 0
    r.Iterative_rewrite.predicates_pushed;
  Alcotest.(check int) "unoptimized: no rename" 0
    r.Iterative_rewrite.rename_paths

(* ------------------------------------------------------------------ *)
(* Outer-to-inner simplification                                       *)

module Outer_to_inner = Dbspinner_rewrite.Outer_to_inner

let select_of sql =
  match (Parser.parse_query sql).Ast.body with
  | Ast.Q_select s -> s
  | Ast.Q_union _ | Ast.Q_intersect _ | Ast.Q_except _ ->
    Alcotest.fail "expected a select"

let rec join_kinds = function
  | Ast.From_table _ | Ast.From_subquery _ -> []
  | Ast.From_join { left; kind; right; _ } ->
    join_kinds left @ [ kind ] @ join_kinds right

let kinds_after sql =
  let s = Outer_to_inner.simplify_select (select_of sql) in
  join_kinds (Option.get s.Ast.from)

let test_outer_to_inner_demotes () =
  Alcotest.(check bool) "null-rejecting comparison demotes left join" true
    (kinds_after "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE b.y > 0"
    = [ Ast.Inner ]);
  Alcotest.(check bool) "IS NOT NULL demotes" true
    (kinds_after
       "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE b.y IS NOT NULL"
    = [ Ast.Inner ]);
  Alcotest.(check bool) "arithmetic inside comparison still strict" true
    (kinds_after
       "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE b.y + 1 > 0"
    = [ Ast.Inner ])

let test_outer_to_inner_keeps () =
  Alcotest.(check bool) "predicate on the preserved side keeps the join" true
    (kinds_after "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE a.y > 0"
    = [ Ast.Left_outer ]);
  Alcotest.(check bool) "IS NULL is not null-rejecting" true
    (kinds_after "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE b.y IS NULL"
    = [ Ast.Left_outer ]);
  Alcotest.(check bool) "COALESCE absorbs the null" true
    (kinds_after
       "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE COALESCE(b.y, 0) = 0"
    = [ Ast.Left_outer ]);
  Alcotest.(check bool) "CASE absorbs the null" true
    (kinds_after
       "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE CASE WHEN b.y = 1 \
        THEN TRUE ELSE TRUE END"
    = [ Ast.Left_outer ]);
  Alcotest.(check bool) "unqualified columns never count" true
    (kinds_after "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE y > 0"
    = [ Ast.Left_outer ])

let test_outer_to_inner_full_join () =
  Alcotest.(check bool) "full demotes to left when right rejected" true
    (kinds_after "SELECT a.x FROM a FULL JOIN b ON a.x = b.x WHERE b.y > 0"
    = [ Ast.Inner ]
    || kinds_after "SELECT a.x FROM a FULL JOIN b ON a.x = b.x WHERE b.y > 0"
       = [ Ast.Left_outer ]);
  (* Rejected on the right only: padded-left rows die, so LEFT remains. *)
  let got = kinds_after "SELECT a.x FROM a FULL JOIN b ON a.x = b.x WHERE b.y > 0" in
  Alcotest.(check bool) "exactly left_outer" true (got = [ Ast.Left_outer ])

let test_outer_to_inner_unlocks_hoisting () =
  (* PR-VS end to end: with the demotion the status filter is hoisted
     into the common CTE and vanishes from the loop body. *)
  let text = Explain.program_to_string (compile pr_vs_query) in
  let common_part =
    match find_substring text "InitLoop" with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  Alcotest.(check bool) "status filter evaluated before the loop" true
    (contains common_part "status")

(* ------------------------------------------------------------------ *)
(* Plan-level filter push down                                         *)

module Plan_pushdown = Dbspinner_rewrite.Plan_pushdown
module Bound_expr = Dbspinner_plan.Bound_expr

let plan_env =
  Dbspinner_plan.Binder.env_of_lookup (fun name ->
      match String.lowercase_ascii name with
      | "t" -> Some (Schema.of_names [ "a"; "b" ])
      | "u" -> Some (Schema.of_names [ "a"; "c" ])
      | _ -> None)

let bind_plan sql =
  Dbspinner_plan.Binder.bind_query plan_env (Parser.parse_query sql).Ast.body

(** A filter sits directly on a scan? *)
let rec has_filter_on_scan = function
  | Logical.L_filter { input = Logical.L_scan _; _ } -> true
  | Logical.L_filter { input; _ }
  | Logical.L_project { input; _ }
  | Logical.L_sort { input; _ }
  | Logical.L_limit (_, input)
  | Logical.L_offset (_, input)
  | Logical.L_aggregate { input; _ }
  | Logical.L_distinct input ->
    has_filter_on_scan input
  | Logical.L_join { left; right; _ }
  | Logical.L_union { left; right; _ }
  | Logical.L_intersect { left; right; _ }
  | Logical.L_except { left; right; _ }
  | Logical.L_subquery_filter { input = left; sub = right; _ } ->
    has_filter_on_scan left || has_filter_on_scan right
  | Logical.L_scan _ | Logical.L_values _ -> false

let push_equivalent sql =
  (* The pushed plan must return the same rows as the original. *)
  let plan = bind_plan sql in
  let pushed = Plan_pushdown.push_filters plan in
  let catalog = Dbspinner_storage.Catalog.create () in
  Dbspinner_storage.Catalog.set_temp catalog "t"
    (rel [ "a"; "b" ]
       [ [ vi 1; vi 10 ]; [ vi 2; vi 20 ]; [ vi 3; vnull ]; [ vi 2; vi 5 ] ]);
  Dbspinner_storage.Catalog.set_temp catalog "u"
    (rel [ "a"; "c" ] [ [ vi 1; vi 7 ]; [ vi 2; vi 8 ] ]);
  let stats = Dbspinner_exec.Stats.create () in
  let original = Dbspinner_exec.Executor.run_plan ~stats catalog plan in
  let optimized = Dbspinner_exec.Executor.run_plan ~stats catalog pushed in
  Alcotest.(check bool)
    (Printf.sprintf "pushed plan equivalent for %s" sql)
    true
    (Dbspinner_storage.Relation.equal_bag original optimized);
  pushed

let test_plan_pushdown_through_aggregate () =
  let pushed =
    push_equivalent "SELECT a, COUNT(*) FROM t GROUP BY a HAVING a > 1"
  in
  Alcotest.(check bool) "key filter sank below the aggregate" true
    (has_filter_on_scan pushed)

let test_plan_pushdown_blocked_on_agg_value () =
  let pushed =
    push_equivalent "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 1"
  in
  Alcotest.(check bool) "aggregate filter must stay above" false
    (has_filter_on_scan pushed)

let test_plan_pushdown_join_sides () =
  let pushed =
    push_equivalent
      "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 1 AND u.c > 1"
  in
  (* Both conjuncts reach their scans. *)
  let count = ref 0 in
  let rec walk = function
    | Logical.L_filter { input = Logical.L_scan _; _ } -> incr count
    | Logical.L_filter { input; _ }
    | Logical.L_project { input; _ }
    | Logical.L_sort { input; _ }
    | Logical.L_limit (_, input)
    | Logical.L_offset (_, input)
    | Logical.L_aggregate { input; _ }
    | Logical.L_distinct input ->
      walk input
    | Logical.L_join { left; right; _ }
    | Logical.L_union { left; right; _ }
    | Logical.L_intersect { left; right; _ }
    | Logical.L_except { left; right; _ }
    | Logical.L_subquery_filter { input = left; sub = right; _ } ->
      walk left;
      walk right
    | Logical.L_scan _ | Logical.L_values _ -> ()
  in
  walk pushed;
  Alcotest.(check int) "one filtered scan per side" 2 !count

let test_plan_pushdown_outer_join_restriction () =
  let pushed =
    push_equivalent "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE t.b > 1"
  in
  Alcotest.(check bool) "left-side filter pushed" true (has_filter_on_scan pushed)

let test_plan_pushdown_not_through_limit () =
  let plan =
    Logical.filter
      (Bound_expr.B_binop (Ast.Gt, Bound_expr.B_col 0, Bound_expr.B_lit (Dbspinner_storage.Value.Int 0)))
      (Logical.limit 1 (Logical.scan ~name:"t" ~schema:(Schema.of_names [ "a"; "b" ])))
  in
  match Plan_pushdown.push_filters plan with
  | Logical.L_filter { input = Logical.L_limit _; _ } -> ()
  | _ -> Alcotest.fail "filter must stay above LIMIT"

(* ------------------------------------------------------------------ *)
(* Inner-join reordering for common results (§V-A future work)         *)

let test_reorder_groups_invariant_tables () =
  (* vertexStatus is NOT adjacent to edges; the inner-join chain is
     reordered so both invariant tables form one extracted subtree. *)
  let step =
    "SELECT PageRank.node, SUM(e.weight) FROM PageRank JOIN edges AS e ON \
     PageRank.node = e.dst JOIN vertexStatus AS vs ON vs.node = e.dst GROUP \
     BY PageRank.node"
  in
  let { Common_result.extracted; step = rewritten; _ } = rewrite_step step in
  Alcotest.(check int) "edges+vertexStatus extracted" 1 extracted;
  Alcotest.(check bool) "step reads common" true
    (contains (Pretty.query rewritten) "__common1")

let test_reorder_refuses_outer_chains () =
  (* A left join in the chain disables reordering (paper: outer-join
     reordering is future work); nothing is extracted since the
     invariant tables stay non-adjacent. *)
  let step =
    "SELECT PageRank.node, SUM(e.weight) FROM PageRank LEFT JOIN edges AS e \
     ON PageRank.node = e.dst JOIN vertexStatus AS vs ON vs.node = e.dst \
     GROUP BY PageRank.node"
  in
  let { Common_result.extracted; _ } = rewrite_step step in
  Alcotest.(check int) "no extraction across outer join" 0 extracted

let test_reorder_preserves_semantics_end_to_end () =
  (* The full inner-join PR variant returns identical results with the
     optimization on and off. *)
  let g = Dbspinner_graph.Graph_gen.power_law ~seed:77 ~num_nodes:60 ~edges_per_node:3 in
  let engine = Dbspinner_workload.Loader.engine_for g in
  let sql =
    {|WITH ITERATIVE pr (node, rank, delta)
AS ( SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
   SELECT pr.node, pr.rank + pr.delta,
          COALESCE(0.85 * SUM(ir.delta * e.weight), 0)
   FROM pr
     JOIN edges AS e ON pr.node = e.dst
     JOIN vertexStatus AS vs ON vs.node = e.dst
     JOIN pr AS ir ON ir.node = e.src
   WHERE vs.status <> 0
   GROUP BY pr.node, pr.rank + pr.delta
 UNTIL 5 ITERATIONS )
SELECT node, rank FROM pr|}
  in
  let on_ = Dbspinner.Engine.with_options engine Options.default (fun () ->
      Dbspinner.Engine.query engine sql)
  in
  let off =
    Dbspinner.Engine.with_options engine Options.unoptimized (fun () ->
        Dbspinner.Engine.query engine sql)
  in
  (* Reordering changes float-summation order: compare approximately. *)
  Alcotest.(check bool) "reordered = naive (approx)" true
    (approx_equal_bag off on_)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)

let test_fold_basics () =
  let folded = Fold.fold_expr (Parser.parse_expression "1 + 2 * 3") in
  Alcotest.(check bool) "arithmetic folded" true
    (Ast.expr_equal folded (Ast.int_lit 7));
  let with_col = Fold.fold_expr (Parser.parse_expression "x + (2 * 3)") in
  Alcotest.(check bool) "column subtree preserved" true
    (Ast.expr_equal with_col
       (Ast.Binop (Ast.Add, Ast.col "x", Ast.int_lit 6)));
  (* Division by zero must stay unfolded. *)
  let div0 = Fold.fold_expr (Parser.parse_expression "1 / 0") in
  Alcotest.(check bool) "div by zero unfolded" true
    (Ast.expr_equal div0
       (Ast.Binop (Ast.Div, Ast.int_lit 1, Ast.int_lit 0)))

let test_fold_preserves_positional_order_by () =
  let q = Parser.parse_query "SELECT a, b FROM t ORDER BY 2" in
  let folded = Fold.fold_full_query q in
  match folded.Ast.order_by with
  | [ { Ast.sort_expr = Ast.Lit (Value.Int 2); _ } ] -> ()
  | _ -> Alcotest.fail "positional ORDER BY must survive folding"

let () =
  Alcotest.run "rewrite"
    [
      ( "functional-rewrite",
        [
          Alcotest.test_case "pr-shape" `Quick test_pr_program_shape;
          Alcotest.test_case "no-rename-baseline" `Quick
            test_pr_without_rename_uses_merge_and_copy;
          Alcotest.test_case "partial-update-merge" `Quick
            test_partial_update_uses_merge;
          Alcotest.test_case "loop-jump" `Quick test_loop_jump_target;
          Alcotest.test_case "termination-validation" `Quick
            test_termination_validation;
          Alcotest.test_case "arity-mismatch" `Quick test_arity_mismatch_rejected;
          Alcotest.test_case "key-validation" `Quick test_key_column_validation;
        ] );
      ( "pushdown",
        [
          Alcotest.test_case "ff-identity" `Quick test_pushdown_ff_identity_column;
          Alcotest.test_case "changed-column" `Quick
            test_pushdown_rejects_changed_column;
          Alcotest.test_case "mixed-conjuncts" `Quick test_pushdown_mixed_conjuncts;
          Alcotest.test_case "self-join-step" `Quick
            test_pushdown_rejects_self_join_step;
          Alcotest.test_case "aggregate-step" `Quick
            test_pushdown_rejects_aggregate_step;
          Alcotest.test_case "joined-final" `Quick test_pushdown_rejects_joined_final;
          Alcotest.test_case "in-compiled-plan" `Quick test_pushdown_in_compiled_plan;
        ] );
      ( "common-result",
        [
          Alcotest.test_case "extracts-invariant-join" `Quick
            test_common_extracts_invariant_join;
          Alcotest.test_case "hoists-on-inner-side" `Quick
            test_common_hoists_filter_on_inner_side;
          Alcotest.test_case "skips-cte-subtrees" `Quick
            test_common_skips_cte_referencing_subtrees;
          Alcotest.test_case "skips-ambiguity" `Quick
            test_common_skips_unqualified_ambiguity;
          Alcotest.test_case "in-compiled-program" `Quick
            test_common_in_compiled_program;
        ] );
      ( "reports",
        [ Alcotest.test_case "counts" `Quick test_report_counts ] );
      ( "outer-to-inner",
        [
          Alcotest.test_case "demotes" `Quick test_outer_to_inner_demotes;
          Alcotest.test_case "keeps" `Quick test_outer_to_inner_keeps;
          Alcotest.test_case "full-join" `Quick test_outer_to_inner_full_join;
          Alcotest.test_case "unlocks-hoisting" `Quick
            test_outer_to_inner_unlocks_hoisting;
        ] );
      ( "plan-pushdown",
        [
          Alcotest.test_case "through-aggregate" `Quick
            test_plan_pushdown_through_aggregate;
          Alcotest.test_case "blocked-on-agg-value" `Quick
            test_plan_pushdown_blocked_on_agg_value;
          Alcotest.test_case "join-sides" `Quick test_plan_pushdown_join_sides;
          Alcotest.test_case "outer-join-restriction" `Quick
            test_plan_pushdown_outer_join_restriction;
          Alcotest.test_case "not-through-limit" `Quick
            test_plan_pushdown_not_through_limit;
        ] );
      ( "join-reordering",
        [
          Alcotest.test_case "groups-invariant-tables" `Quick
            test_reorder_groups_invariant_tables;
          Alcotest.test_case "refuses-outer-chains" `Quick
            test_reorder_refuses_outer_chains;
          Alcotest.test_case "end-to-end-semantics" `Quick
            test_reorder_preserves_semantics_end_to_end;
        ] );
      ( "folding",
        [
          Alcotest.test_case "basics" `Quick test_fold_basics;
          Alcotest.test_case "positional-order-by" `Quick
            test_fold_preserves_positional_order_by;
        ] );
    ]
