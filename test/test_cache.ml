(** Tests for the iteration-aware executor cache:

    - generation plumbing: {!Table.version} bumps on every mutation,
      {!Catalog.temp_generation} is monotonic across set/rename/drop
      and survives [clear_temps] without resetting the counter;
    - {!Relation.make} still validates row arity while the trusted
      operator-output constructor {!Relation.make_trusted} skips it;
    - {!Eval.compile} closures agree with the tree-walking interpreter
      on every expression form, including LIKE edge cases and error
      parity for non-boolean predicates;
    - cache hit/miss behaviour through {!Executor.run_plan}: a repeated
      join build hits, rebinding the temp (set_temp / rename_temp) or
      mutating the base table forces a miss and fresh rows — the
      stale-read guard;
    - the same guard end-to-end through {!Executor.run_program} with
      Materialize / Rename steps;
    - IN-subquery set caching;
    - cache-on vs cache-off equivalence on every workload query across
      worker counts: identical rows and {!Stats.logical_equal}
      counters, with non-zero hits when the cache is on. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Table = Dbspinner_storage.Table
module Logical = Dbspinner_plan.Logical
module Bound_expr = Dbspinner_plan.Bound_expr
module Program = Dbspinner_plan.Program
module Ast = Dbspinner_sql.Ast
module Stats = Dbspinner_exec.Stats
module Eval = Dbspinner_exec.Eval
module Cache = Dbspinner_exec.Cache
module Parallel = Dbspinner_exec.Parallel
module Executor = Dbspinner_exec.Executor
module Engine = Dbspinner.Engine
module Queries = Dbspinner_workload.Queries
open Helpers

(* ------------------------------------------------------------------ *)
(* Generation plumbing                                                 *)

let test_table_version_bumps () =
  let t = Table.create ~name:"t" (Schema.of_names [ "k"; "v" ]) in
  let v0 = Table.version t in
  Table.insert t [| vi 1; vi 10 |];
  Table.insert_all t [ [| vi 2; vi 20 |]; [| vi 3; vi 30 |] ];
  let v1 = Table.version t in
  Alcotest.(check bool) "insert bumps version" true (v1 > v0);
  let updated =
    Table.update t
      ~pred:(fun r -> Value.equal r.(0) (vi 1))
      ~set:(fun r -> [| r.(0); vi 11 |])
  in
  Alcotest.(check int) "one row updated" 1 updated;
  let v2 = Table.version t in
  Alcotest.(check bool) "update bumps version" true (v2 > v1);
  let updated_none =
    Table.update t ~pred:(fun _ -> false) ~set:(fun r -> r)
  in
  Alcotest.(check int) "no row updated" 0 updated_none;
  Alcotest.(check int) "no-op update keeps version" v2 (Table.version t);
  ignore (Table.delete t ~pred:(fun r -> Value.equal r.(0) (vi 2)));
  let v3 = Table.version t in
  Alcotest.(check bool) "delete bumps version" true (v3 > v2);
  Table.truncate t;
  Alcotest.(check bool) "truncate bumps version" true (Table.version t > v3)

let test_temp_generation_monotonic () =
  let c = Catalog.create () in
  let r = rel [ "k" ] [ [ vi 1 ] ] in
  Alcotest.(check (option int)) "unknown temp has no generation" None
    (Catalog.temp_generation c "a");
  Catalog.set_temp c "a" r;
  let g1 = Option.get (Catalog.temp_generation c "a") in
  Catalog.set_temp c "a" r;
  let g2 = Option.get (Catalog.temp_generation c "a") in
  Alcotest.(check bool) "rebinding assigns a fresh generation" true (g2 > g1);
  Catalog.rename_temp c ~from_:"a" ~into:"b";
  Alcotest.(check (option int)) "rename clears the source name" None
    (Catalog.temp_generation c "a");
  let g3 = Option.get (Catalog.temp_generation c "b") in
  Alcotest.(check bool) "rename target gets a fresh generation" true (g3 > g2);
  Catalog.drop_temp c "b";
  Alcotest.(check (option int)) "drop clears the generation" None
    (Catalog.temp_generation c "b");
  Catalog.set_temp c "a" r;
  Catalog.clear_temps c;
  Catalog.set_temp c "a" r;
  let g4 = Option.get (Catalog.temp_generation c "a") in
  Alcotest.(check bool)
    "generations stay monotonic across clear_temps (counter not reset)" true
    (g4 > g3)

(* ------------------------------------------------------------------ *)
(* Trusted relation constructor                                        *)

let test_make_trusted_skips_arity_check () =
  let schema = Schema.of_names [ "a"; "b" ] in
  let bad = [| [| vi 1 |] |] in
  (match Relation.make schema bad with
  | _ -> Alcotest.fail "Relation.make must reject mismatched arity"
  | exception Invalid_argument _ -> ());
  let r = Relation.make_trusted schema [| [| vi 1; vi 2 |] |] in
  Alcotest.(check int) "trusted rows preserved" 1 (Relation.cardinality r)

(* ------------------------------------------------------------------ *)
(* Compiled expressions agree with the interpreter                     *)

let sample_rows =
  [
    [| vi 3; vf 2.5; vs "spin"; vnull; vb true |];
    [| vi (-7); vf 0.0; vs ""; vi 9; vb false |];
    [| vi 0; vf 1e9; vs "Iterate"; vnull; vnull |];
  ]

let sample_exprs =
  let open Bound_expr in
  let c n = B_col n in
  [
    B_lit (vi 42);
    c 0;
    B_binop (Ast.Add, c 0, B_lit (vi 5));
    B_binop (Ast.Mul, c 1, B_lit (vf 2.0));
    B_binop (Ast.Lt, c 0, B_lit (vi 1));
    B_binop (Ast.And, B_binop (Ast.Gt, c 0, B_lit (vi 0)), c 4);
    B_unop (Ast.Neg, c 0);
    B_unop (Ast.Not, c 4);
    B_func (F_coalesce, [ c 3; B_lit (vi (-1)) ]);
    B_func (F_least, [ c 0; B_lit (vi 1) ]);
    B_func (F_upper, [ c 2 ]);
    B_func (F_length, [ c 2 ]);
    B_case
      ( [
          (B_binop (Ast.Gt, c 0, B_lit (vi 0)), B_lit (vs "pos"));
          (B_binop (Ast.Lt, c 0, B_lit (vi 0)), B_lit (vs "neg"));
        ],
        Some (B_lit (vs "zero")) );
    B_case ([ (c 4, c 0) ], None);
    B_is_null (c 3, true);
    B_is_null (c 3, false);
    B_in (c 0, [ B_lit (vi 3); B_lit (vi 0); c 3 ], false);
    B_in (c 0, [ B_lit (vi 3); B_lit (vi 0); c 3 ], true);
    B_between (c 0, B_lit (vi (-1)), B_lit (vi 5));
    B_like (c 2, "%i%", false);
    B_like (c 2, "_pin", true);
    B_cast (Dbspinner_storage.Column_type.T_float, c 0);
  ]

let test_compile_matches_eval () =
  List.iter
    (fun e ->
      let f = Eval.compile e in
      List.iter
        (fun row ->
          Alcotest.check value_testable
            (Printf.sprintf "compile = eval for %s" (Bound_expr.to_string e))
            (Eval.eval row e) (f row))
        sample_rows)
    sample_exprs

let test_compile_error_parity () =
  (* A non-boolean predicate must raise through both paths. *)
  let e = Bound_expr.B_lit (vi 1) in
  let row = [| vi 0 |] in
  (match Eval.eval_pred row e with
  | _ -> Alcotest.fail "interpreter accepted a non-boolean predicate"
  | exception Eval.Runtime_error _ -> ());
  let f = Eval.compile_pred e in
  match f row with
  | _ -> Alcotest.fail "compiled path accepted a non-boolean predicate"
  | exception Eval.Runtime_error _ -> ()

let test_like_edge_cases () =
  List.iter
    (fun (text, pattern, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S LIKE %S" text pattern)
        expected
        (Eval.like_match text pattern);
      (* And through the compiled expression path. *)
      let e = Bound_expr.B_like (Bound_expr.B_col 0, pattern, false) in
      Alcotest.check value_testable
        (Printf.sprintf "compiled %S LIKE %S" text pattern)
        (vb expected)
        (Eval.compile e [| vs text |]))
    [
      ("", "", true);
      ("", "%", true);
      ("", "_", false);
      ("a", "_", true);
      ("ab", "_", false);
      ("ab", "%a%b%", true);
      ("acb", "a%b", true);
      ("aaab", "%ab", true);
      ("aaab", "%ab%", true);
      ("abc", "a_c", true);
      ("abc", "a_d", false);
      ("abc", "abc%", true);
      ("ab", "abc", false);
      ("banana", "%an%an%", true);
      ("banana", "%ana%ana%", false);
    ]

(* ------------------------------------------------------------------ *)
(* Join-build caching and the stale-read guard (plan level)            *)

let probe_rel = rel [ "pk"; "pv" ] [ [ vi 1; vi 10 ]; [ vi 2; vi 20 ] ]
let inv_a = rel [ "k"; "w" ] [ [ vi 1; vs "a1" ]; [ vi 2; vs "a2" ] ]
let inv_b = rel [ "k"; "w" ] [ [ vi 1; vs "b1" ]; [ vi 2; vs "b2" ] ]

(** probe ⋈ inv on pk = k; both sides scanned as temps so the build
    side is cache-eligible. *)
let join_plan () =
  Logical.join Logical.Inner
    ~cond:
      (Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2))
    (Logical.scan ~name:"probe" ~schema:(Schema.of_names [ "pk"; "pv" ]))
    (Logical.scan ~name:"inv" ~schema:(Schema.of_names [ "k"; "w" ]))

let joined probe inv =
  rel
    [ "pk"; "pv"; "k"; "w" ]
    (List.concat_map
       (fun p ->
         List.filter_map
           (fun i ->
             if Value.equal (List.nth p 0) (List.nth i 0) then
               Some (p @ i)
             else None)
           inv)
       probe)

let probe_rows = [ [ vi 1; vi 10 ]; [ vi 2; vi 20 ] ]
let inv_a_rows = [ [ vi 1; vs "a1" ]; [ vi 2; vs "a2" ] ]
let inv_b_rows = [ [ vi 1; vs "b1" ]; [ vi 2; vs "b2" ] ]

let test_join_build_hits_and_rebind_misses () =
  let catalog = Catalog.create () in
  Catalog.set_temp catalog "probe" probe_rel;
  Catalog.set_temp catalog "inv" inv_a;
  let cache = Cache.create () in
  let run () =
    let st = Stats.create () in
    let out = Executor.run_plan ~cache ~stats:st catalog (join_plan ()) in
    (out, st)
  in
  let out1, st1 = run () in
  Alcotest.check relation_testable "first run joins inv_a"
    (joined probe_rows inv_a_rows)
    out1;
  Alcotest.(check bool) "first run misses" true (st1.Stats.cache_misses > 0);
  let out2, st2 = run () in
  Alcotest.check relation_testable "second run same rows"
    (joined probe_rows inv_a_rows)
    out2;
  Alcotest.(check int) "second run misses nothing" 0 st2.Stats.cache_misses;
  Alcotest.(check bool) "second run hits" true (st2.Stats.cache_hits > 0);
  (* Rebind the build side: fresh generation, so the cached build must
     NOT be served — the stale-read guard. *)
  Catalog.set_temp catalog "inv" inv_b;
  let out3, st3 = run () in
  Alcotest.check relation_testable "set_temp rebinding is visible"
    (joined probe_rows inv_b_rows)
    out3;
  Alcotest.(check bool) "rebinding forces a build miss" true
    (st3.Stats.cache_misses > 0);
  (* Rename-based rebinding (the loop's rename step) as well. *)
  Catalog.set_temp catalog "tmp" inv_a;
  Catalog.rename_temp catalog ~from_:"tmp" ~into:"inv";
  let out4, _ = run () in
  Alcotest.check relation_testable "rename rebinding is visible"
    (joined probe_rows inv_a_rows)
    out4

let test_base_table_mutation_misses () =
  let catalog = Catalog.create () in
  Catalog.set_temp catalog "probe" probe_rel;
  let table =
    Catalog.create_table catalog ~name:"inv" (Schema.of_names [ "k"; "w" ])
  in
  Table.insert_all table (List.map Row.of_list inv_a_rows);
  let cache = Cache.create () in
  let run () =
    let st = Stats.create () in
    (Executor.run_plan ~cache ~stats:st catalog (join_plan ()), st)
  in
  let out1, _ = run () in
  Alcotest.check relation_testable "base-table build"
    (joined probe_rows inv_a_rows)
    out1;
  let _, st2 = run () in
  Alcotest.(check int) "unchanged table hits" 0 st2.Stats.cache_misses;
  Table.insert table (Row.of_list [ vi 1; vs "extra" ]);
  let out3, st3 = run () in
  Alcotest.(check bool) "mutation forces a miss" true
    (st3.Stats.cache_misses > 0);
  Alcotest.check relation_testable "inserted row is visible"
    (joined probe_rows (inv_a_rows @ [ [ vi 1; vs "extra" ] ]))
    out3

(* ------------------------------------------------------------------ *)
(* The stale-read guard end-to-end through run_program                 *)

let test_program_materialize_rename_invalidate () =
  let join_schema = Schema.of_names [ "pk"; "pv"; "k"; "w" ] in
  let program =
    Program.make
      [
        (* Bind the invariant side, join twice (second join must hit),
           then rebind it via Materialize + Rename: the final join must
           read the rebound rows, never the cached build. *)
        Program.Materialize { target = "probe"; plan = Logical.values probe_rel };
        Program.Materialize { target = "inv"; plan = Logical.values inv_a };
        Program.Materialize { target = "j1"; plan = join_plan () };
        Program.Materialize { target = "j2"; plan = join_plan () };
        Program.Materialize { target = "tmp"; plan = Logical.values inv_b };
        Program.Rename { from_ = "tmp"; into = "inv" };
        Program.Return (join_plan ());
      ]
      ~result_schema:join_schema
  in
  let run use_cache =
    let catalog = Catalog.create () in
    Executor.run_program_with_stats ~use_cache catalog program
  in
  let cached_rel, cached_st = run true in
  let plain_rel, plain_st = run false in
  Alcotest.check relation_testable "cached program reads the rebound temp"
    (joined probe_rows inv_b_rows)
    cached_rel;
  Alcotest.check relation_testable "cache on/off agree" plain_rel cached_rel;
  Alcotest.(check bool) "repeated join hit the cache" true
    (cached_st.Stats.cache_hits > 0);
  Alcotest.(check int) "cache off counts nothing" 0
    (plain_st.Stats.cache_hits + plain_st.Stats.cache_misses);
  Alcotest.(check bool) "logical counters identical" true
    (Stats.logical_equal plain_st cached_st)

(* ------------------------------------------------------------------ *)
(* IN-subquery set caching                                             *)

let test_subquery_set_cached () =
  let catalog = Catalog.create () in
  Catalog.set_temp catalog "probe" probe_rel;
  Catalog.set_temp catalog "inv" inv_a;
  let plan =
    Logical.subquery_filter ~anti:false
      ~key:(Some (Bound_expr.B_col 0))
      (Logical.scan ~name:"probe" ~schema:(Schema.of_names [ "pk"; "pv" ]))
      (Logical.project
         [ (Bound_expr.B_col 0, "k") ]
         (Logical.scan ~name:"inv" ~schema:(Schema.of_names [ "k"; "w" ])))
  in
  let cache = Cache.create () in
  let run () =
    let st = Stats.create () in
    (Executor.run_plan ~cache ~stats:st catalog plan, st)
  in
  let out1, st1 = run () in
  Alcotest.check relation_testable "IN keeps matching rows"
    (rel [ "pk"; "pv" ] probe_rows)
    out1;
  Alcotest.(check bool) "first run misses" true (st1.Stats.cache_misses > 0);
  let out2, st2 = run () in
  Alcotest.check relation_testable "second run same rows" out1 out2;
  Alcotest.(check int) "second run fully cached" 0 st2.Stats.cache_misses;
  (* Rebind the subquery source: fresh rows must be consulted. *)
  Catalog.set_temp catalog "inv" (rel [ "k"; "w" ] [ [ vi 2; vs "only" ] ]);
  let out3, st3 = run () in
  Alcotest.check relation_testable "rebound subquery is visible"
    (rel [ "pk"; "pv" ] [ [ vi 2; vi 20 ] ])
    out3;
  Alcotest.(check bool) "rebinding forces a set miss" true
    (st3.Stats.cache_misses > 0)

(* ------------------------------------------------------------------ *)
(* Cache-on vs cache-off equivalence on the workload queries           *)

let graph =
  lazy
    (Dbspinner_graph.Datasets.generate ~scale:0.04
       Dbspinner_graph.Datasets.dblp_like)

let workload_queries =
  [
    ("PR", Queries.pr ~iterations:3 ());
    ("PR-VS", Queries.pr_vs ~iterations:3 ());
    ("SSSP", Queries.sssp ~source:0 ~iterations:4 ());
    ("SSSP-VS", Queries.sssp_vs ~source:0 ~iterations:4 ());
    ("FF", Queries.ff_full ~modulus:2 ~iterations:3 ());
  ]

let compile_on engine sql =
  let lookup name =
    Option.map Table.schema
      (Catalog.find_table_opt (Engine.catalog engine) name)
  in
  Dbspinner_rewrite.Iterative_rewrite.compile ~lookup
    (Dbspinner_sql.Parser.parse_query sql)

let run_workload ?parallel ~use_cache sql =
  let engine = Dbspinner_workload.Loader.engine_for (Lazy.force graph) in
  let program = compile_on engine sql in
  Executor.run_program_with_stats ?parallel ~use_cache
    (Engine.catalog engine) program

let rows_identical a b =
  Relation.cardinality a = Relation.cardinality b
  && Array.for_all2 Row.equal (Relation.rows a) (Relation.rows b)

let test_workload_cache_on_off_equivalence () =
  List.iter
    (fun (name, sql) ->
      List.iter
        (fun workers ->
          let parallel = Parallel.context ~chunk_rows:1 ~workers () in
          let off_rel, off_st = run_workload ?parallel ~use_cache:false sql in
          let on_rel, on_st = run_workload ?parallel ~use_cache:true sql in
          Alcotest.(check bool)
            (Printf.sprintf "%s rows identical (workers=%d)" name workers)
            true
            (rows_identical off_rel on_rel);
          Alcotest.(check bool)
            (Printf.sprintf "%s logical stats identical (workers=%d)" name
               workers)
            true
            (Stats.logical_equal off_st on_st);
          Alcotest.(check bool)
            (Printf.sprintf "%s cache actually hit (workers=%d)" name workers)
            true
            (on_st.Stats.cache_hits > 0);
          Alcotest.(check int)
            (Printf.sprintf "%s cache-off counts nothing (workers=%d)" name
               workers)
            0
            (off_st.Stats.cache_hits + off_st.Stats.cache_misses))
        [ 1; 2 ])
    workload_queries

(* ------------------------------------------------------------------ *)
(* Join-index reuse: what the per-run memo keeps                       *)

(** The join and aggregate nodes of every plan the program runs, with
    multiplicity: an upper bound on the sites a run can create. *)
let count_sites program =
  let joins = ref 0 and aggs = ref 0 in
  let rec walk (p : Logical.t) =
    (match p with
    | Logical.L_join _ -> incr joins
    | Logical.L_aggregate _ -> incr aggs
    | _ -> ());
    ignore (Logical.map_children (fun c -> walk c; c) p)
  in
  Array.iter
    (function
      | Program.Materialize { plan; _ } | Program.Return plan -> walk plan
      | Program.Delta_materialize { full_plan; restricted_plan; affected_plans; _ } ->
        List.iter walk (full_plan :: restricted_plan :: affected_plans)
      | _ -> ())
    (Program.steps program);
  (!joins, !aggs)

(* Weak pointers to the columns of one CTE version, built in its own
   function so no local keeps them alive. *)
let weak_columns catalog name =
  let b = Relation.columnar (Catalog.find_temp catalog name) in
  let w = Weak.create (Dbspinner_storage.Colbatch.arity b) in
  for j = 0 to Weak.length w - 1 do
    Weak.set w j (Some (Dbspinner_storage.Colbatch.col b j))
  done;
  w

(** A 25-iteration PR run on the single-node interpreter with a cache
    of its own, so the memo can be inspected after the run. Returns the
    weak columns of CTE versions 5 and 24 (the one the last iteration
    read). *)
let run_pr_with_cache () =
  let engine =
    Dbspinner_workload.Loader.engine_for
      (Dbspinner_graph.Datasets.generate ~scale:0.04 Dbspinner_graph.Datasets.pokec_like)
  in
  let catalog = Engine.catalog engine in
  let program = compile_on engine (Queries.pr ~iterations:25 ()) in
  let cache = Cache.create () in
  let stats = Stats.create () in
  let invalidate n = Cache.invalidate_temp cache n in
  let backend =
    {
      Executor.eval = Executor.run_plan ~cache ~columnar:true ~stats catalog;
      find = Catalog.find_temp_opt catalog;
      bind =
        (fun name rel ->
          Catalog.set_temp catalog name rel;
          invalidate name);
      rename =
        (fun ~from_ ~into ->
          Catalog.rename_temp catalog ~from_ ~into;
          invalidate from_;
          invalidate into);
      drop =
        (fun name ->
          Catalog.drop_temp catalog name;
          invalidate name);
      gather = Fun.id;
      scatter = Fun.id;
      cardinality = Relation.cardinality;
      recursive_cte =
        (fun ~name:_ ~work_name:_ ~base:_ ~step_plan:_ ~union_all:_ ~max_recursion:_ ->
          Alcotest.fail "no recursive CTE in PR");
    }
  in
  let m = Executor.start backend ~stats ~guards:Dbspinner_exec.Guards.none program in
  let v5 = ref None and v24 = ref None in
  while not (Executor.halted m) do
    let before = Executor.iteration m in
    Executor.step m;
    let it = Executor.iteration m in
    if it <> before && it = 5 then v5 := Some (weak_columns catalog "pagerank");
    if it <> before && it = 24 then v24 := Some (weak_columns catalog "pagerank")
  done;
  ignore (Executor.finish m);
  (program, cache, stats, Option.get !v5, Option.get !v24)

let test_memo_retention () =
  let program, cache, stats, v5, v24 = run_pr_with_cache () in
  Gc.full_major ();
  Gc.full_major ();
  let alive w j = Weak.check w j in
  (* Versions 5 and 24 are dead to everything but the memo. The memo
     may hold the key column the last iteration compared (version 24's
     node), never a column whose values changed. *)
  for j = 0 to Weak.length v5 - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "version 5 column %d collected" j)
      false (alive v5 j)
  done;
  (* The held key column shows the weak pointers track live columns. *)
  Alcotest.(check bool) "version 24 node held as the compared key" true (alive v24 0);
  Alcotest.(check bool) "version 24 rank collected" false (alive v24 1);
  Alcotest.(check bool) "version 24 delta collected" false (alive v24 2);
  let joins, aggs = count_sites program in
  let js = Cache.join_sites cache and ags = Cache.agg_sites cache in
  let count f l = List.length (List.filter f l) in
  Alcotest.(check bool)
    (Printf.sprintf "join sites %d <= join nodes %d" (List.length js) joins)
    true
    (List.length js <= joins);
  Alcotest.(check bool)
    (Printf.sprintf "aggregate sites %d <= aggregate nodes %d" (List.length ags)
       aggs)
    true
    (List.length ags <= aggs);
  Alcotest.(check int) "one probe memo per loop-body join" 2
    (count (fun s -> Option.is_some s.Cache.js_probe) js);
  Alcotest.(check int) "one numbering for the loop-body aggregate" 1
    (count (fun s -> Option.is_some s.Cache.as_source) ags);
  let kept (s : Cache.join_site) =
    Dbspinner_storage.Colbatch.(kept_cells s.Cache.js_left + kept_cells s.Cache.js_right)
  in
  Alcotest.(check bool) "invariant gathers kept" true
    (List.exists (fun s -> kept s > 0) js);
  (* Both loop-body probes reuse from the second iteration on. *)
  Alcotest.(check int) "48 of 50 loop-body probes reused" 48 stats.Stats.probe_reuses

let test_explain_analyze_reports_reuses () =
  let engine = Dbspinner_workload.Loader.engine_for (Lazy.force graph) in
  match Engine.execute engine ("EXPLAIN ANALYZE " ^ Queries.pr ~iterations:3 ()) with
  | Engine.Explained text ->
    Alcotest.(check bool) "probe_reuses printed" true (contains text "probe_reuses=4 ");
    Alcotest.(check bool) "next to cache_hits" true
      (contains text "cache_misses=")
  | _ -> Alcotest.fail "EXPLAIN ANALYZE returned no plan text"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cache"
    [
      ( "generations",
        [
          Alcotest.test_case "table-version-bumps" `Quick
            test_table_version_bumps;
          Alcotest.test_case "temp-generation-monotonic" `Quick
            test_temp_generation_monotonic;
        ] );
      ( "trusted-relation",
        [
          Alcotest.test_case "make-trusted-skips-arity" `Quick
            test_make_trusted_skips_arity_check;
        ] );
      ( "compiled-eval",
        [
          Alcotest.test_case "compile-matches-eval" `Quick
            test_compile_matches_eval;
          Alcotest.test_case "error-parity" `Quick test_compile_error_parity;
          Alcotest.test_case "like-edge-cases" `Quick test_like_edge_cases;
        ] );
      ( "stale-read-guard",
        [
          Alcotest.test_case "join-build-hit-and-rebind-miss" `Quick
            test_join_build_hits_and_rebind_misses;
          Alcotest.test_case "base-table-mutation-miss" `Quick
            test_base_table_mutation_misses;
          Alcotest.test_case "program-materialize-rename" `Quick
            test_program_materialize_rename_invalidate;
          Alcotest.test_case "subquery-set" `Quick test_subquery_set_cached;
        ] );
      ( "workload-equivalence",
        [
          Alcotest.test_case "cache-on-vs-off" `Slow
            test_workload_cache_on_off_equivalence;
        ] );
      ( "join-index-reuse",
        [
          Alcotest.test_case "memo-retention" `Quick test_memo_retention;
          Alcotest.test_case "explain-analyze-probe-reuses" `Quick
            test_explain_analyze_reports_reuses;
        ] );
    ]
