(** Tests for the Domain-pool parallel execution path and the
    loop-termination bugfixes that ride along with it:

    - {!Dbspinner_exec.Parallel} unit tests (barrier, exception
      propagation, deterministic stats merge, order-stable chunking);
    - filter/project stats wiring (counters used to be ignored);
    - the ALL-termination regression: [UNTIL ALL] over an {e empty}
      CTE is vacuously true and must stop the loop instead of spinning
      into the iteration guard — in both executors;
    - seq-vs-parallel equivalence for every workload query: identical
      rows ({e in order}) and identical logical stats counters across
      worker counts and chunk thresholds;
    - distributed execution across Domain-pool sizes, including under
      injected transient faults. *)

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
module Parallel = Dbspinner_exec.Parallel
module Operators = Dbspinner_exec.Operators
module Executor = Dbspinner_exec.Executor
module Distributed = Dbspinner_mpp.Distributed
module Fault = Dbspinner_mpp.Fault
module Engine = Dbspinner.Engine
module Queries = Dbspinner_workload.Queries
open Helpers

let stats () = Stats.create ()

(* ------------------------------------------------------------------ *)
(* Parallel pool unit tests                                            *)

let test_run_executes_all_tasks () =
  let pool = Parallel.get 4 in
  let n = 37 in
  let hits = Array.make n 0 in
  Parallel.run pool (Array.init n (fun i () -> hits.(i) <- hits.(i) + 1));
  Alcotest.(check (array int)) "every task ran exactly once" (Array.make n 1)
    hits

let test_run_reraises_lowest_index_exception () =
  let pool = Parallel.get 3 in
  let fns =
    Array.init 6 (fun i () ->
        if i = 2 then failwith "two" else if i = 5 then failwith "five")
  in
  Alcotest.check_raises "lowest-index exception wins" (Failure "two")
    (fun () -> Parallel.run pool fns)

let test_run_indexed_deterministic_merge () =
  let pool = Parallel.get 4 in
  let total = stats () in
  let results =
    Parallel.run_indexed pool ~stats:total 10 (fun st i ->
        st.Stats.rows_filtered <- st.Stats.rows_filtered + i;
        st.Stats.join_probes <- st.Stats.join_probes + 1;
        i * i)
  in
  Alcotest.(check (array int)) "results in index order"
    (Array.init 10 (fun i -> i * i))
    results;
  Alcotest.(check int) "counters merged exactly" 45 total.Stats.rows_filtered;
  Alcotest.(check int) "one probe per task" 10 total.Stats.join_probes

let test_chunked_order_stable () =
  let parallel = Parallel.context ~chunk_rows:1 ~workers:4 () in
  let chunks =
    Parallel.chunked parallel ~stats:(stats ()) ~n:11 (fun _ lo len ->
        (lo, len))
  in
  (* Chunks must tile [0, 11) contiguously, in order. *)
  let next = ref 0 in
  Array.iter
    (fun (lo, len) ->
      Alcotest.(check int) "chunk starts where previous ended" !next lo;
      Alcotest.(check bool) "chunk non-empty" true (len > 0);
      next := lo + len)
    chunks;
  Alcotest.(check int) "chunks cover the whole range" 11 !next

let test_shutdown_pool_still_runs_inline () =
  let pool = Parallel.create 3 in
  Parallel.shutdown pool;
  Parallel.shutdown pool;
  let hits = Array.make 4 0 in
  Parallel.run pool (Array.init 4 (fun i () -> hits.(i) <- hits.(i) + 1));
  Alcotest.(check (array int)) "inline fallback after shutdown"
    (Array.make 4 1) hits

(* ------------------------------------------------------------------ *)
(* Operator stats wiring (filter/project used to ignore their stats)   *)

let kv n = rel [ "k"; "v" ] (List.init n (fun i -> [ vi (i mod 5); vi i ]))

let test_filter_counts_rows () =
  let st = stats () in
  let out =
    Operators.filter ~stats:st
      (Bound_expr.B_binop (Ast.Lt, Bound_expr.B_col 0, Bound_expr.B_lit (vi 2)))
      (kv 20)
  in
  Alcotest.(check int) "every input row evaluated" 20 st.Stats.rows_filtered;
  Alcotest.(check int) "rows kept" 8 (Relation.cardinality out)

let test_project_counts_rows () =
  let st = stats () in
  let out =
    Operators.project ~stats:st [ (Bound_expr.B_col 1, "v") ] (kv 15)
  in
  Alcotest.(check int) "every row projected" 15 st.Stats.rows_projected;
  Alcotest.(check int) "cardinality preserved" 15 (Relation.cardinality out)

let test_timed_buckets_accrue () =
  let st = stats () in
  ignore
    (Operators.filter ~stats:st (Bound_expr.B_lit (vb true)) (kv 100));
  Alcotest.(check bool) "filter wall bucket is non-negative" true
    (st.Stats.op_wall.(Stats.op_index Stats.Op_filter) >= 0.0)

(* ------------------------------------------------------------------ *)
(* ALL-termination regression: empty CTE is vacuously ALL-satisfied    *)

let k_schema = Schema.of_names [ "k" ]

(** A loop whose body drains the CTE to empty on the first iteration,
    terminated by [UNTIL ALL k > 100] with a tiny guard. The old
    executor required a non-empty relation for ALL to fire, so it spun
    into the guard; the fixed one stops after iteration 1. *)
let draining_all_program ~guard =
  Program.make
    [
      Program.Materialize
        { target = "c"; plan = Logical.values (rel [ "k" ] [ [ vi 1 ] ]) };
      Program.Init_loop
        {
          loop_id = 0;
          termination =
            Program.Data
              {
                any = false;
                pred =
                  Bound_expr.B_binop
                    (Ast.Gt, Bound_expr.B_col 0, Bound_expr.B_lit (vi 100));
              };
          cte = "c";
          key_idx = 0;
          guard;
        };
      Program.Snapshot { loop_id = 0 };
      Program.Materialize
        {
          target = "c#work";
          plan =
            Logical.filter
              (Bound_expr.B_binop
                 (Ast.Gt, Bound_expr.B_col 0, Bound_expr.B_lit (vi 100)))
              (Logical.scan ~name:"c" ~schema:k_schema);
        };
      Program.Rename { from_ = "c#work"; into = "c" };
      Program.Loop_end { loop_id = 0; body_start = 2 };
      Program.Return (Logical.scan ~name:"c" ~schema:k_schema);
    ]
    ~result_schema:k_schema

let test_all_termination_empty_cte_single_node () =
  (* guard = 3: the old executor raised the guard error here. *)
  let out =
    Executor.run_program (Catalog.create ()) (draining_all_program ~guard:3)
  in
  Alcotest.(check int) "loop stopped on the empty CTE" 0
    (Relation.cardinality out)

let test_all_termination_empty_cte_distributed () =
  let out, _ =
    Distributed.run_program ~workers:3 (Catalog.create ())
      (draining_all_program ~guard:3)
  in
  Alcotest.(check int) "distributed loop stopped on the empty CTE" 0
    (Relation.cardinality out)

let test_any_termination_empty_cte_still_guards () =
  (* ANY over an empty relation is false — such a loop must keep
     iterating and eventually trip the guard, exactly as before. *)
  let steps =
    Array.to_list (Program.steps (draining_all_program ~guard:3))
    |> List.map (function
         | Program.Init_loop il ->
           Program.Init_loop
             {
               il with
               termination =
                 (match il.termination with
                 | Program.Data d -> Program.Data { d with any = true }
                 | t -> t);
             }
         | s -> s)
  in
  let program = Program.make steps ~result_schema:k_schema in
  (match Executor.run_program (Catalog.create ()) program with
  | _ -> Alcotest.fail "expected the iteration guard to trip"
  | exception Executor.Execution_error msg ->
    Alcotest.(check bool) "guard message" true (contains msg "guard"));
  match Distributed.run_program ~workers:2 (Catalog.create ()) program with
  | _ -> Alcotest.fail "expected the distributed guard to trip"
  | exception Executor.Execution_error msg ->
    Alcotest.(check bool) "guard message" true (contains msg "guard")

let test_all_termination_empty_cte_sql () =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE nothing (k INT)");
  (* The base part is empty, the iterate part is a full update, so the
     very first ALL check sees an empty CTE and must stop — the old
     executor looped until the 100k iteration guard blew. *)
  check_query e
    "WITH ITERATIVE c (k) AS (SELECT k FROM nothing ITERATE SELECT k FROM c \
     UNTIL ALL k > 0) SELECT * FROM c"
    [ "k" ] []

(* ------------------------------------------------------------------ *)
(* Seq-vs-parallel equivalence on the paper's workload queries         *)

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

(** Run [sql] on a fresh engine catalog, optionally chunk-parallel. *)
let run_workload ?parallel sql =
  let engine = Dbspinner_workload.Loader.engine_for (Lazy.force graph) in
  let program = compile_on engine sql in
  Executor.run_program_with_stats ?parallel (Engine.catalog engine) program

let rows_identical a b =
  Relation.cardinality a = Relation.cardinality b
  && Array.for_all2 Row.equal (Relation.rows a) (Relation.rows b)

let test_workload_seq_vs_parallel () =
  List.iter
    (fun (name, sql) ->
      let seq_rel, seq_stats = run_workload sql in
      List.iter
        (fun (workers, chunk_rows) ->
          let parallel = Parallel.context ~chunk_rows ~workers () in
          let par_rel, par_stats = run_workload ?parallel sql in
          Alcotest.(check bool)
            (Printf.sprintf "%s rows identical (workers=%d chunk=%d)" name
               workers chunk_rows)
            true
            (rows_identical seq_rel par_rel);
          Alcotest.(check bool)
            (Printf.sprintf "%s stats identical (workers=%d chunk=%d)" name
               workers chunk_rows)
            true
            (Stats.logical_equal seq_stats par_stats))
        [ (1, 1); (2, 1); (2, 64); (4, 1) ])
    workload_queries

(* ------------------------------------------------------------------ *)
(* Distributed execution across Domain-pool sizes                      *)

let run_distributed ?fault ~pool_size sql =
  let engine = Dbspinner_workload.Loader.engine_for (Lazy.force graph) in
  let program = compile_on engine sql in
  let st = stats () in
  let rel_out, shuffles =
    Distributed.run_program ~workers:4
      ~pool:(Parallel.get pool_size)
      ?fault ~stats:st (Engine.catalog engine) program
  in
  (rel_out, shuffles, st)

let test_distributed_pool_sizes_agree () =
  List.iter
    (fun (name, sql) ->
      let base_rel, base_sh, base_st = run_distributed ~pool_size:1 sql in
      List.iter
        (fun pool_size ->
          let rel_out, sh, st = run_distributed ~pool_size sql in
          Alcotest.check relation_testable
            (Printf.sprintf "%s result (pool=%d)" name pool_size)
            base_rel rel_out;
          Alcotest.(check bool)
            (Printf.sprintf "%s stats (pool=%d)" name pool_size)
            true
            (Stats.logical_equal base_st st);
          Alcotest.(check int)
            (Printf.sprintf "%s rows shuffled (pool=%d)" name pool_size)
            base_sh.Distributed.rows_shuffled sh.Distributed.rows_shuffled;
          Alcotest.(check int)
            (Printf.sprintf "%s exchanges (pool=%d)" name pool_size)
            base_sh.Distributed.exchanges sh.Distributed.exchanges)
        [ 2; 4 ])
    [ ("PR", Queries.pr ~iterations:3 ()); ("SSSP", Queries.sssp ~source:0 ~iterations:4 ()) ]

let test_distributed_faults_deterministic_across_pools () =
  (* Fault injection is coordinator-side, so the injection sequence —
     and therefore every recovery counter — must not depend on the
     Domain-pool size. *)
  let sql = Queries.pr ~iterations:3 () in
  let fresh_fault () =
    Fault.probabilistic ~max_faults:3 ~seed:11 ~probability:0.5 ()
  in
  let base_rel, base_rs, base_st =
    run_distributed ~fault:(fresh_fault ()) ~pool_size:1 sql
  in
  let par_rel, par_rs, par_st =
    run_distributed ~fault:(fresh_fault ()) ~pool_size:4 sql
  in
  Alcotest.check relation_testable "faulted results agree" base_rel par_rel;
  Alcotest.(check bool) "faults actually fired" true
    (base_rs.Distributed.faults_injected > 0);
  Alcotest.(check bool) "recovery counters agree" true (base_rs = par_rs);
  Alcotest.(check bool) "logical stats agree" true
    (Stats.logical_equal base_st par_st)

let test_fault_inside_domain_reraised_at_barrier () =
  (* A per-partition operator fault fires inside a worker domain; the
     pool must re-raise it on the coordinator where plan-level
     execution (no checkpoints) propagates it. *)
  let catalog = Catalog.create () in
  Catalog.set_temp catalog "t" (kv 32);
  let plan =
    Logical.filter
      (Bound_expr.B_binop (Ast.Gt, Bound_expr.B_col 1, Bound_expr.B_lit (vi 3)))
      (Logical.scan ~name:"t" ~schema:(Schema.of_names [ "k"; "v" ]))
  in
  match
    Distributed.run_plan ~workers:3
      ~pool:(Parallel.get 3)
      ~fault:(Fault.scripted [ (0, 0) ])
      catalog plan
  with
  | _ -> Alcotest.fail "expected Transient_fault"
  | exception Fault.Transient_fault _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "run-executes-all" `Quick
            test_run_executes_all_tasks;
          Alcotest.test_case "lowest-index-exception" `Quick
            test_run_reraises_lowest_index_exception;
          Alcotest.test_case "run-indexed-merge" `Quick
            test_run_indexed_deterministic_merge;
          Alcotest.test_case "chunked-order-stable" `Quick
            test_chunked_order_stable;
          Alcotest.test_case "shutdown-inline-fallback" `Quick
            test_shutdown_pool_still_runs_inline;
        ] );
      ( "operator-stats",
        [
          Alcotest.test_case "filter-counts" `Quick test_filter_counts_rows;
          Alcotest.test_case "project-counts" `Quick test_project_counts_rows;
          Alcotest.test_case "timed-buckets" `Quick test_timed_buckets_accrue;
        ] );
      ( "all-termination",
        [
          Alcotest.test_case "empty-cte-single-node" `Quick
            test_all_termination_empty_cte_single_node;
          Alcotest.test_case "empty-cte-distributed" `Quick
            test_all_termination_empty_cte_distributed;
          Alcotest.test_case "any-still-guards" `Quick
            test_any_termination_empty_cte_still_guards;
          Alcotest.test_case "empty-cte-sql" `Quick
            test_all_termination_empty_cte_sql;
        ] );
      ( "seq-vs-parallel",
        [
          Alcotest.test_case "workload-queries" `Slow
            test_workload_seq_vs_parallel;
        ] );
      ( "distributed-pools",
        [
          Alcotest.test_case "pool-sizes-agree" `Slow
            test_distributed_pool_sizes_agree;
          Alcotest.test_case "fault-determinism" `Quick
            test_distributed_faults_deterministic_across_pools;
          Alcotest.test_case "fault-at-barrier" `Quick
            test_fault_inside_domain_reraised_at_barrier;
        ] );
    ]
