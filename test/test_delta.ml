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
module Logical = Dbspinner_plan.Logical
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

(** SSSP on a chain with an unreachable fan-in, the shape of the
    frontier benchmark: a narrow frontier, so every iteration after
    the first reads the CTE through the merge's carried index. The
    answer is the reference's at one and at two workers, with the same
    logical work. *)
let test_frontier_sssp () =
  let g =
    Graph_gen.chain_with_fanin ~seed:3 ~num_nodes:200 ~shortcut_every:10
      ~upstream:20 ~fanout:15
  in
  let e = Loader.engine_for g in
  let p = compile e (Queries.sssp ~source:0 ~iterations:sssp_iterations ()) in
  let seq, s_seq = run e p in
  check_sssp_reference "1 worker" g seq;
  check_restricted "frontier" s_seq ~cte_rows:(Relation.cardinality seq);
  match Parallel.context ~chunk_rows:16 ~workers:2 () with
  | None -> Alcotest.fail "no parallel context at 2 workers"
  | Some parallel ->
    let par, s_par = run ~parallel e p in
    check_sssp_reference "2 workers" g par;
    Alcotest.(check bool) "2 workers logical_equal" true
      (Stats.logical_equal s_seq s_par)

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

(* ------------------------------------------------------------------ *)
(* The delta diff and the stitch against naive list references         *)

let key_eq key (a : Value.t array) (b : Value.t array) =
  Value.equal a.(key) b.(key)

(* The last [prev] row with [r]'s key. *)
let last_prev ~key prev r =
  List.fold_left (fun acc p -> if key_eq key p r then Some p else acc) None prev

let ref_changed ~key prev next =
  List.concat_map
    (fun r ->
      match last_prev ~key prev r with
      | Some old -> if row_eq old r then [] else [ r; old ]
      | None -> [ r ])
    next
  @ List.filter (fun p -> not (List.exists (key_eq key p) next)) prev

let ref_delta_count ~key prev next =
  let changed, seen =
    List.fold_left
      (fun (changed, seen) r ->
        match last_prev ~key prev r with
        | Some old ->
          ((if row_eq old r then changed else changed + 1), seen + 1)
        | None -> (changed + 1, seen))
      (0, 0) next
  in
  changed + (List.length prev - seen)

let ref_bounded ~key ~cutoff prev next =
  let rows = ref_changed ~key prev next in
  let keys =
    List.fold_left
      (fun ks r ->
        if List.exists (Value.equal r.(key)) ks then ks else r.(key) :: ks)
      [] rows
  in
  if List.length keys >= cutoff then None else Some rows

let ref_stitch ~key ~affected ~restricted ~cur ~prev_work =
  let is_affected k = List.exists (fun a -> Value.equal a.(0) k) affected in
  let recomputed k = List.filter (fun r -> Value.equal r.(key) k) restricted in
  if
    List.length prev_work = List.length cur
    && List.for_all2 (key_eq key) cur prev_work
  then
    List.concat
      (List.map2
         (fun c p -> if is_affected c.(key) then recomputed c.(key) else [ p ])
         cur prev_work)
  else
    snd
      (List.fold_left
         (fun (seen, out) (c : Value.t array) ->
           let k = c.(key) in
           if List.exists (Value.equal k) seen then (seen, out)
           else
             ( k :: seen,
               out
               @
               if is_affected k then recomputed k
               else
                 Option.to_list
                   (List.find_opt (fun p -> Value.equal p.(key) k) prev_work) ))
         ([], []) cur)

let rows_of rel = Array.to_list (Relation.rows rel)

(* The three diff functions over [prev] and [next] (in the given forms)
   against the references; [None] when all agree. *)
let diff_mismatch ~cutoff (fp, prev) (fn, next) =
  let arity = match prev @ next with r :: _ -> Array.length r | [] -> 2 in
  let p = relation_of fp arity prev and n = relation_of fn arity next in
  let show = Option.fold ~none:"cutoff" ~some:show_rows in
  let context () =
    Printf.sprintf "prev (%s):\n%s\nnext (%s):\n%s" (form_label fp)
      (show_rows prev) (form_label fn) (show_rows next)
  in
  let count = Relation.delta_count ~key_idx:0 p n
  and want_count = ref_delta_count ~key:0 prev next in
  let changed = rows_of (Relation.changed_rows ~key_idx:0 p n)
  and want_changed = ref_changed ~key:0 prev next in
  let bounded =
    Option.map rows_of (Relation.changed_rows_bounded ~key_idx:0 ~cutoff p n)
  and want_bounded = ref_bounded ~key:0 ~cutoff prev next in
  if count <> want_count then
    Some
      (Printf.sprintf "delta_count %d, reference %d\n%s" count want_count
         (context ()))
  else if not (same_rows changed want_changed) then
    Some
      (Printf.sprintf "changed_rows:\n%s\nreference:\n%s\n%s"
         (show_rows changed) (show_rows want_changed) (context ()))
  else if
    match bounded, want_bounded with
    | None, None -> false
    | Some a, Some b -> not (same_rows a b)
    | _ -> true
  then
    Some
      (Printf.sprintf
         "changed_rows_bounded (cutoff %d):\n%s\nreference:\n%s\n%s" cutoff
         (show bounded) (show want_bounded) (context ()))
  else None

let check_diff ~msg ?(cutoffs = [ 1; 2; 3; 100 ]) prev next =
  List.iter
    (fun cutoff ->
      List.iter
        (fun fp ->
          List.iter
            (fun fn ->
              Option.iter
                (fun m -> Alcotest.failf "%s: %s" msg m)
                (diff_mismatch ~cutoff (fp, prev) (fn, next)))
            forms)
        forms)
    cutoffs

let kv k v = [| k; v |]

(* Rows of an int key and a payload. *)
let kvs pairs = List.map (fun (k, v) -> kv (vi k) v) pairs

let typed2 rows = relation_of Typed 2 rows

let test_diff_aligned () =
  let prev = kvs [ (1, vi 10); (2, vi 20); (3, vf 30.0); (4, vnull) ] in
  let next = kvs [ (1, vi 10); (2, vi 21); (3, vi 30); (4, vf 0.5) ] in
  check_diff ~msg:"aligned" prev next;
  (* New rows then old rows, position by position; [Float 30.0] is an
     unchanged [Int 30]. *)
  Alcotest.(check bool) "aligned order" true
    (same_rows
       (rows_of (Relation.changed_rows ~key_idx:0 (typed2 prev) (typed2 next)))
       (kvs [ (2, vi 21); (2, vi 20); (4, vf 0.5); (4, vnull) ]))

let test_diff_unaligned () =
  (* Reordered, inserted and vanished keys; [Float 2.0] is key [Int 2]. *)
  let prev = kvs [ (1, vi 10); (2, vi 20); (3, vi 30); (5, vi 50) ] in
  let next =
    kv (vf 2.0) (vi 20) :: kvs [ (1, vi 11); (4, vi 40); (3, vi 30) ]
  in
  check_diff ~msg:"unaligned" prev next;
  check_diff ~msg:"all new" [] next;
  check_diff ~msg:"all vanished" prev [];
  check_diff ~msg:"both empty" [] []

let test_diff_cutoff () =
  (* Exactly two keys change: a cutoff of 2 abandons the diff, 3 keeps
     it, aligned or not. *)
  let prev = kvs [ (1, vi 1); (2, vi 2); (3, vi 3) ] in
  let aligned = kvs [ (1, vi 9); (2, vi 2); (3, vi 9) ] in
  let unaligned = kvs [ (3, vi 3); (2, vi 9); (1, vi 1); (4, vi 4) ] in
  List.iter
    (fun (msg, next) ->
      check_diff ~msg ~cutoffs:[ 1; 2; 3 ] prev next;
      let bounded cutoff =
        Relation.changed_rows_bounded ~key_idx:0 ~cutoff (typed2 prev)
          (typed2 next)
      in
      Alcotest.(check bool) (msg ^ ": cutoff 2") true (bounded 2 = None);
      Alcotest.(check bool) (msg ^ ": cutoff 3") true (bounded 3 <> None))
    [ ("aligned", aligned); ("unaligned", unaligned) ];
  (* A key with several changed or vanished rows counts once. *)
  check_diff ~msg:"repeated new key" ~cutoffs:[ 1; 2 ]
    (kvs [ (1, vi 1); (2, vi 2) ])
    (kvs [ (1, vi 9); (1, vi 8); (2, vi 2) ]);
  check_diff ~msg:"repeated vanished key" ~cutoffs:[ 1; 2 ]
    (kvs [ (1, vi 1); (1, vi 2); (2, vi 2) ])
    (kvs [ (2, vi 2) ])

let stitch_rows (fc, cur) (fp, prev_work) (fa, affected) (fr, restricted) =
  rows_of
    (Executor.stitch ~key_idx:0
       ~affected:(relation_of fa 1 affected)
       ~restricted:(relation_of fr 2 restricted)
       ~cur:(relation_of fc 2 cur)
       ~prev_work:(relation_of fp 2 prev_work))

(* [Executor.stitch] on key column 0 against the reference. *)
let stitch_mismatch ((fc, cur) as c) ((fp, prev_work) as p)
    ((fa, affected) as a) ((fr, restricted) as r) =
  let got = stitch_rows c p a r in
  let want = ref_stitch ~key:0 ~affected ~restricted ~cur ~prev_work in
  if same_rows got want then None
  else
    let shown label form rows =
      Printf.sprintf "%s (%s):\n%s" label (form_label form) (show_rows rows)
    in
    Some
      (String.concat "\n"
         [
           "stitch:\n" ^ show_rows got;
           "reference:\n" ^ show_rows want;
           shown "cur" fc cur;
           shown "prev_work" fp prev_work;
           shown "affected" fa affected;
           shown "restricted" fr restricted;
         ])

let check_stitch ~msg ~cur ~prev_work ~affected ~restricted =
  List.iter
    (fun f ->
      List.iter
        (fun g ->
          Option.iter
            (fun m -> Alcotest.failf "%s: %s" msg m)
            (stitch_mismatch (f, cur) (g, prev_work) (g, affected)
               (f, restricted)))
        forms)
    forms

let test_stitch_cases () =
  let cur = kvs [ (1, vi 0); (2, vi 0); (3, vi 0); (4, vi 0) ] in
  let prev_work = kvs [ (1, vi 10); (2, vi 20); (3, vi 30); (4, vi 40) ] in
  (* Affected keys as floats still name the int keys of the CTE. *)
  let affected = [ [| vf 2.0 |]; [| vi 4 |]; [| vi 9 |] ] in
  let restricted =
    [ kv (vi 4) (vi 41); kv (vf 2.0) (vi 21); kv (vi 4) (vi 42) ]
  in
  check_stitch ~msg:"aligned" ~cur ~prev_work ~affected ~restricted;
  Alcotest.(check bool) "aligned rows" true
    (same_rows
       (stitch_rows (Typed, cur) (Typed, prev_work) (Typed, affected)
          (Typed, restricted))
       (kvs [ (1, vi 10) ]
       @ [ kv (vf 2.0) (vi 21) ]
       @ kvs [ (3, vi 30); (4, vi 41); (4, vi 42) ]));
  (* Unaligned: a reordered previous output, a key it lacks, a key only
     it has, and a repeated CTE key. *)
  let prev_work = kvs [ (3, vi 30); (7, vi 70); (1, vi 10); (1, vi 11) ] in
  check_stitch ~msg:"unaligned"
    ~cur:(cur @ kvs [ (1, vi 5) ])
    ~prev_work ~affected ~restricted;
  check_stitch ~msg:"nothing affected" ~cur ~prev_work ~affected:[]
    ~restricted:[];
  check_stitch ~msg:"empty cte" ~cur:[] ~prev_work ~affected ~restricted

let prop_diff_stitch =
  let open QCheck2 in
  let key k = Gen.oneofl [ vi k; vf (float_of_int k) ] in
  let payload =
    Gen.oneofl
      [ vnull; vi 0; vi 1; vf 1.0; vf 2.5; vf Float.nan; vf (-0.0); vf 0.0 ]
  in
  let keyed keys =
    Gen.(flatten_l (List.map (fun k -> map2 kv (key k) payload) keys))
  in
  let unique_keys =
    Gen.(
      list_size (int_range 0 7) (int_range 0 7)
      >|= List.sort_uniq compare
      >>= shuffle_l)
  in
  let gen =
    Gen.(
      let* prev_keys = unique_keys in
      let* prev = keyed prev_keys in
      let* aligned = bool in
      let* next_keys = if aligned then return prev_keys else unique_keys in
      let* next = keyed next_keys in
      (* Aligned versions mostly keep their payloads. *)
      let* keep = list_repeat (List.length next) (int_range 0 2) in
      let next =
        if aligned then
          List.map2
            (fun (r, p) k -> if k > 0 then [| r.(0); p.(1) |] else r)
            (List.combine next prev) keep
        else next
      in
      let* cutoff = int_range 1 8 in
      let* fp = oneofl forms and* fn = oneofl forms in
      let* affected =
        list_size (int_range 0 5)
          (map (fun v -> [| v |]) (int_range 0 9 >>= key))
      in
      let* restricted = list_size (int_range 0 6) (int_range 0 9) >>= keyed in
      let* fa = oneofl forms and* fr = oneofl forms in
      (* The stitch also meets repeated CTE keys. *)
      let* dups = list_size (int_range 0 2) (int_range 0 9) >>= keyed in
      return
        (prev, next, cutoff, (fp, fn), affected, restricted, (fa, fr), dups))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:400 ~name:"delta diff and stitch = naive list references"
       ~print:(fun (prev, next, cutoff, _, affected, restricted, _, dups) ->
         Printf.sprintf
           "cutoff %d\nprev:\n%s\nnext:\n%s\naffected:\n%s\nrestricted:\n%s\n\
            extra CTE rows:\n%s"
           cutoff (show_rows prev) (show_rows next) (show_rows affected)
           (show_rows restricted) (show_rows dups))
       gen
       (fun (prev, next, cutoff, (fp, fn), affected, restricted, (fa, fr), dups)
       ->
         (* The stitch reads [next] (plus the extra rows) as the CTE and
            [prev] as the previous work output. *)
         let mismatch =
           match diff_mismatch ~cutoff (fp, prev) (fn, next) with
           | Some m -> Some m
           | None ->
             stitch_mismatch (fn, next @ dups) (fp, prev) (fa, affected)
               (fr, restricted)
         in
         match mismatch with None -> true | Some m -> Test.fail_report m))

(* ------------------------------------------------------------------ *)
(* The delta a merge supplies, against the diff of the same pair       *)

(** Two iterations of a hand-built merge loop over [cte]: the first
    evaluates [work] in full and merges it, the second reads the delta
    off that merge. Traced, so [Snapshot] runs and each iteration's
    update count is reported. *)
let merge_loop ~cte ~work =
  let schema = Relation.schema cte in
  Program.make
    [
      Program.Materialize { target = "c"; plan = Logical.values cte };
      Program.Init_loop
        {
          loop_id = 0;
          termination = Program.Max_iterations 2;
          cte = "c";
          key_idx = 0;
          guard = 10;
        };
      Program.Snapshot { loop_id = 0 };
      Program.Delta_materialize
        {
          loop_id = 0;
          target = "c#work";
          cte = "c";
          key_idx = 0;
          full_plan = Logical.values work;
          restricted_plan = Logical.values work;
          affected_plans = [];
          delta_name = "c#delta";
          affected_name = "c#affected";
        };
      Program.Merge
        {
          loop_id = 0;
          cte = "c";
          work = "c#work";
          target = "c#merge";
          key_idx = 0;
        };
      Program.Rename { from_ = "c#merge"; into = "c" };
      Program.Loop_end { loop_id = 0; body_start = 2 };
      Program.Return (Logical.scan ~name:"c" ~schema);
    ]
    ~result_schema:schema

(** Run {!merge_loop} on the single-node executor, recording every
    relation bound under each temp name, in order. Returns those, the
    stats and the update count of each iteration. *)
let run_merge_loop ~cte ~work =
  let catalog = Catalog.create () and stats = Stats.create () in
  let bound = Hashtbl.create 8 in
  let backend =
    {
      Executor.eval = Executor.run_plan ~stats catalog;
      find = Catalog.find_temp_opt catalog;
      bind =
        (fun name r ->
          Hashtbl.replace bound name
            (r :: Option.value ~default:[] (Hashtbl.find_opt bound name));
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
  let trace = Trace.create () in
  let m =
    Executor.start backend ~stats ~guards:Dbspinner_exec.Guards.none ~trace
      (merge_loop ~cte ~work)
  in
  while not (Executor.halted m) do
    Executor.step m
  done;
  ignore (Executor.finish m);
  let bound name =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt bound name))
  in
  let counts =
    List.map
      (fun (sp : Trace.span) -> sp.Trace.delta)
      (Trace.iteration_spans trace)
  in
  (bound, stats, counts)

(** The second iteration's delta equals {!Relation.changed_rows} of the
    CTE before and after the first merge — rows, order and cell
    representations — or, at the cutoff, no delta and a full pass; the
    first iteration's update count equals {!Relation.delta_count}. *)
let check_merge_delta msg cte work =
  let cte = relation_of Typed 2 cte and work = relation_of Typed 2 work in
  let bound, stats, counts = run_merge_loop ~cte ~work in
  let merged = List.hd (bound "c#merge") in
  let cutoff = max 1 ((Relation.cardinality cte + 1) / 2) in
  Alcotest.(check int) (msg ^ ": update count")
    (Relation.delta_count ~key_idx:0 cte merged)
    (List.hd counts);
  let delta = bound "c#delta" in
  match Relation.changed_rows_bounded ~key_idx:0 ~cutoff cte merged with
  | None ->
    Alcotest.(check int)
      (msg ^ ": no delta at the cutoff")
      0 (List.length delta);
    Alcotest.(check int) (msg ^ ": the cutoff runs the full plan") 2
      stats.Stats.full_reevals
  | Some _ ->
    Alcotest.(check int) (msg ^ ": one full pass") 1 stats.Stats.full_reevals;
    (* An empty delta is never bound: the previous work output serves. *)
    let got = match delta with [] -> [] | d :: _ -> rows_of d in
    let want = rows_of (Relation.changed_rows ~key_idx:0 cte merged) in
    if not (same_rows got want) then
      Alcotest.failf "%s: delta\n%s\nchanged_rows\n%s" msg (show_rows got)
        (show_rows want)

let test_merge_delta () =
  let cte =
    kvs [ (1, vi 10); (2, vf 2.5); (3, vnull); (4, vi 40); (5, vi 50) ]
  in
  check_merge_delta "empty work" cte [];
  check_merge_delta "work key absent from the CTE" cte
    (kvs [ (7, vi 70); (2, vf 9.5) ]);
  check_merge_delta "equal-value overwrites" cte
    [ kv (vi 1) (vf 10.0); kv (vf 4.0) (vi 40) ];
  check_merge_delta "zeros and NaNs"
    (kvs [ (1, vf 0.0); (2, vf Float.nan); (3, vf (-0.0)) ])
    (kvs [ (1, vf (-0.0)); (2, vf Float.nan); (3, vf 0.0) ]);
  check_merge_delta "NULL to non-NULL and back" cte
    (kvs [ (3, vi 30); (4, vnull) ]);
  (* Five rows: the cutoff is 3 changed rows. *)
  check_merge_delta "below the cutoff" cte (kvs [ (5, vi 1); (1, vi 2) ]);
  check_merge_delta "at the cutoff" cte
    (kvs [ (5, vi 1); (1, vi 2); (2, vi 3) ]);
  (* Four rows: the cutoff is 2. *)
  check_merge_delta "at the cutoff, even size"
    (kvs [ (1, vi 1); (2, vi 2); (3, vi 3); (4, vi 4) ])
    (kvs [ (4, vi 0); (2, vi 0) ])

let prop_merge_count =
  let open QCheck2 in
  let payload =
    Gen.oneofl
      [ vnull; vi 0; vi 1; vf 1.0; vf 2.5; vf Float.nan; vf (-0.0); vf 0.0 ]
  in
  let key k = Gen.oneofl [ vi k; vf (float_of_int k) ] in
  let keyed keys =
    Gen.(flatten_l (List.map (fun k -> map2 kv (key k) payload) keys))
  in
  let unique_keys n =
    Gen.(
      list_size (int_range 0 n) (int_range 0 n)
      >|= List.sort_uniq compare
      >>= shuffle_l)
  in
  let gen =
    Gen.(
      let* cte = unique_keys 8 >>= keyed in
      let* work = unique_keys 11 >>= keyed in
      let* null_key = bool and* p = payload in
      return (cte, if null_key then kv vnull p :: work else work))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:300 ~name:"merge update count = delta_count"
       ~print:(fun (cte, work) ->
         Printf.sprintf "cte:\n%s\nwork:\n%s" (show_rows cte) (show_rows work))
       gen
       (fun (cte, work) ->
         let cte = relation_of Typed 2 cte and work = relation_of Boxed 2 work in
         let bound, _, counts = run_merge_loop ~cte ~work in
         let merged = List.hd (bound "c#merge") in
         let want = Relation.delta_count ~key_idx:0 cte merged in
         match counts with
         | got :: _ when got = want -> true
         | got :: _ ->
           Test.fail_reportf "merge count %d, delta_count %d" got want
         | [] -> Test.fail_report "no iteration span"))


let () =
  Alcotest.run "delta"
    [
      ( "workloads",
        [
          Alcotest.test_case "sssp-on-off" `Quick test_sssp_on_off;
          Alcotest.test_case "ff-on-off" `Quick test_ff_on_off;
          Alcotest.test_case "frontier-sssp" `Quick test_frontier_sssp;
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
      ( "delta-diff",
        [
          Alcotest.test_case "aligned-keys" `Quick test_diff_aligned;
          Alcotest.test_case "unaligned-keys" `Quick test_diff_unaligned;
          Alcotest.test_case "cutoff-boundary" `Quick test_diff_cutoff;
          Alcotest.test_case "stitch" `Quick test_stitch_cases;
          Alcotest.test_case "merge-delta" `Quick test_merge_delta;
          prop_diff_stitch;
        ] );
      ("properties", [ prop_delta_on_off; prop_merge_count ]);
    ]
