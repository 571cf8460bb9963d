(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§VII) on synthetic datasets:

     table1          — the step program of the PR query (Table I)
     fig8            — minimizing data movement (rename vs copy-back)
     fig9            — common-result optimization (PR-VS / SSSP-VS,
                       dblp-like and pokec-like)
     fig10           — predicate push down (FF, selectivity sweep)
     fig11           — iterative CTEs vs stored procedures
     ext-middleware  — native CTE vs SQLoop-style middleware (extension)
     ext-reorder     — inner-join reordering for common results (§V-A
                       future work)
     ext-mpp         — exchange volume of distributed step programs
     ext-fault       — recovery overhead under injected transient
                       faults (extension)
     ext-termination — termination-condition overhead (extension)
     ext-parallel    — sequential vs Domain-pool parallel execution
                       (extension)
     ext-cache       — iteration-aware executor cache: loop-invariant
                       join-build reuse + compiled expressions
                       (extension)
     ext-trace       — iteration-aware tracing: overhead when off/on and
                       convergence-timeline agreement across the
                       sequential / parallel / distributed executors
                       (extension)
     ext-columnar    — vectorized columnar execution vs the row
                       engine, with cross-executor equivalence checks
                       (extension)
     ext-durable     — write-ahead-log overhead by fsync policy
                       (none/off/batch/always) and recovery time from
                       WAL replay vs snapshot load (extension)
     micro           — Bechamel micro-benchmarks of engine primitives

   Usage: dune exec bench/main.exe [-- section ...] [-- --fast]
                                   [-- --json PATH]
   With no arguments every section except `micro` runs. `--fast` uses
   fewer iterations and smaller graphs for a quick sanity pass; set
   DBSPINNER_SCALE to grow the datasets instead. `--json PATH` writes
   the machine-readable records that sections emitted (currently
   ext-cache) for CI trend tracking. Absolute numbers depend on this
   substrate (a from-scratch OCaml engine, not MPPDB); the paper-shape
   note under each table states the relationship the figure is
   expected to reproduce. *)

module Graph_gen = Dbspinner_graph.Graph_gen
module Datasets = Dbspinner_graph.Datasets
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader
module Runner = Dbspinner_workload.Runner
module Options = Dbspinner_rewrite.Options
module Relation = Dbspinner_storage.Relation
module Engine = Dbspinner.Engine

let fast = ref false
let iterations () = if !fast then 8 else 25
let scale () = if !fast then 0.4 else 1.0

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row4 a b c d = Printf.printf "%-34s %12s %12s %14s\n" a b c d
let secs s = Printf.sprintf "%.4f s" s

let improvement baseline optimized =
  Printf.sprintf "%+.1f%%"
    ((baseline -. optimized) /. Float.max baseline 1e-12 *. 100.0)

(* ------------------------------------------------------------------ *)
(* Machine-readable output: sections push flat records; --json PATH
   writes them out (hand-rolled — the build carries no JSON library). *)

type json_value =
  | J_str of string
  | J_num of float
  | J_int of int
  | J_bool of bool

let json_records : (string * json_value) list list ref = ref []
let record_json fields = json_records := fields :: !json_records

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path =
  let render = function
    | J_str s -> Printf.sprintf "\"%s\"" (json_escape s)
    | J_num f -> Printf.sprintf "%.6f" f
    | J_int i -> string_of_int i
    | J_bool b -> if b then "true" else "false"
  in
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"dbspinner-bench-v1\",\n  \"records\": [\n";
  let records = List.rev !json_records in
  let last = List.length records - 1 in
  List.iteri
    (fun i fields ->
      let body =
        List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (render v))
          fields
      in
      Printf.fprintf oc "    { %s }%s\n" (String.concat ", " body)
        (if i = last then "" else ","))
    records;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %d JSON record%s to %s\n" (List.length records)
    (if List.length records = 1 then "" else "s")
    path

(* Median-of-three timing for stability. *)
let timed f =
  let runs = if !fast then 1 else 3 in
  let samples =
    List.init runs (fun _ ->
        let _, s = Runner.time f in
        s)
    |> List.sort Float.compare
  in
  List.nth samples (List.length samples / 2)

let engine_for_dataset ?(with_vertex_status = true) spec =
  let graph =
    Datasets.generate ~scale:(scale () *. Datasets.scale_factor ()) spec
  in
  (graph, Loader.engine_for ~with_vertex_status graph)

let run_with engine options sql () =
  ignore (Engine.with_options engine options (fun () -> Engine.query engine sql))

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table I: logical step program of the PR query";
  let _, engine = engine_for_dataset Datasets.dblp_like in
  print_endline (Engine.explain engine (Queries.pr ~iterations:10 ()));
  print_endline
    "\n(paper: 6 steps - materialize R0, init counter, materialize iterative\n\
    \ part, rename, increment, conditional jump; reproduced above with the\n\
    \ additional snapshot / unique-key-check steps this engine makes explicit)"

let fig8 () =
  header
    (Printf.sprintf
       "Figure 8: minimizing data movement (rename vs copy-back), %d iterations"
       (iterations ()));
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges)\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  row4 "query" "baseline" "rename" "improvement";
  let one label sql =
    let base =
      timed (run_with engine { Options.default with use_rename = false } sql)
    in
    let opt = timed (run_with engine Options.default sql) in
    row4 label (secs base) (secs opt) (improvement base opt)
  in
  one "FF (cheap iterative part)"
    (Queries.ff ~modulus:1 ~iterations:(iterations ()) ());
  one "PR (join-heavy iterative part)" (Queries.pr ~iterations:(iterations ()) ());
  print_endline
    "\n(paper shape: large gain for FF - up to 48% - and small gain for PR,\n\
    \ because PR's joins dominate the copy cost)"

let fig9 () =
  header
    (Printf.sprintf "Figure 9: common-result optimization, %d iterations"
       (iterations ()));
  row4 "query / dataset" "baseline" "common" "improvement";
  List.iter
    (fun (spec : Datasets.spec) ->
      let _, engine = engine_for_dataset spec in
      let one label sql =
        let base =
          timed
            (run_with engine { Options.default with use_common_result = false } sql)
        in
        let opt = timed (run_with engine Options.default sql) in
        row4
          (Printf.sprintf "%s / %s" label spec.Datasets.name)
          (secs base) (secs opt) (improvement base opt)
      in
      one "PR-VS" (Queries.pr_vs ~iterations:(iterations ()) ());
      one "SSSP-VS" (Queries.sssp_vs ~source:0 ~iterations:(iterations ()) ()))
    [ Datasets.dblp_like; Datasets.pokec_like ];
  print_endline
    "\n(paper shape: ~20% faster on DBLP, ~10% on Pokec; PR and SSSP show the\n\
    \ same pattern because the rewrite targets the shared FROM clause)"

let fig10 () =
  header
    (Printf.sprintf "Figure 10: predicate push down (FF), %d iterations"
       (iterations ()));
  let graph, engine =
    engine_for_dataset ~with_vertex_status:false Datasets.webgoogle_like
  in
  Printf.printf "dataset: webgoogle-like (%d nodes, %d edges)\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  row4 "selectivity" "baseline" "pushdown" "speedup";
  List.iter
    (fun (label, modulus) ->
      let sql = Queries.ff ~modulus ~iterations:(iterations ()) () in
      let base =
        timed (run_with engine { Options.default with use_pushdown = false } sql)
      in
      let opt = timed (run_with engine Options.default sql) in
      row4 label (secs base) (secs opt)
        (Printf.sprintf "%.1fx" (base /. Float.max opt 1e-12)))
    [
      ("100% (mod 1)", 1);
      ("50% (mod 2)", 2);
      ("10% (mod 10)", 10);
      ("1% (mod 100)", 100);
    ];
  print_endline
    "\n(paper shape: baseline flat across selectivities; pushdown improves\n\
    \ with selectivity, exceeding an order of magnitude at 1%)"

let fig11 () =
  header
    (Printf.sprintf
       "Figure 11: optimized iterative CTEs vs stored procedures, %d iterations"
       (iterations ()));
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges)\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  row4 "query" "stored proc" "iterative CTE" "improvement";
  let one label proc cleanup sql =
    let proc_time =
      timed (fun () ->
          ignore (Dbspinner.Procedure.call engine proc);
          ignore (Engine.execute engine cleanup))
    in
    let cte_time = timed (run_with engine Options.default sql) in
    row4 label (secs proc_time) (secs cte_time) (improvement proc_time cte_time)
  in
  let n = iterations () in
  one "PR-VS"
    (Queries.pr_vs_procedure ~iterations:n)
    Queries.pr_vs_procedure_cleanup
    (Queries.pr_vs ~iterations:n ());
  one "SSSP-VS"
    (Queries.sssp_vs_procedure ~source:0 ~iterations:n)
    Queries.sssp_vs_procedure_cleanup
    (Queries.sssp_vs ~source:0 ~iterations:n ());
  one "FF (50% selectivity)"
    (Queries.ff_procedure ~modulus:2 ~iterations:n ())
    Queries.ff_procedure_cleanup
    (Queries.ff ~modulus:2 ~iterations:n ());
  print_endline
    "\n(paper shape: CTEs at least 25% faster for PR/SSSP - common-result +\n\
    \ rename - and over 80% faster for FF, where the predicate moves early)"

let ext_middleware () =
  header "Extension: native iterative CTE vs SQLoop-style middleware (PR)";
  let graph, engine =
    engine_for_dataset ~with_vertex_status:false Datasets.dblp_like
  in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges)\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  let n = if !fast then 5 else 10 in
  row4 "driver" "time" "statements" "";
  let mw_statements = ref 0 in
  let mw =
    timed (fun () ->
        let outcome =
          Dbspinner.Middleware.run engine
            (Dbspinner.Middleware.pagerank_script ~iterations:n)
        in
        mw_statements := outcome.Dbspinner.Middleware.statements_issued)
  in
  row4 "middleware (DDL/DML per round)" (secs mw) (string_of_int !mw_statements) "";
  let native =
    timed
      (run_with engine Options.default
         (Queries.pr ~iterations:n ~final:"SELECT Node, Rank FROM PageRank" ()))
  in
  row4 "native single-plan CTE" (secs native) "1" (improvement mw native);
  print_endline
    "\n(the paper motivates the native path qualitatively in section II: one\n\
    \ plan, no temp-table DDL, no keyed DML merge; the gap quantifies it)"

let ext_reorder () =
  header
    "Extension: inner-join reordering for common results (paper §V-A future \
     work)";
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges)\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  (* PR written with inner joins and vertexStatus NOT adjacent to
     edges: only the reordering pre-pass makes the invariant pair
     extractable. *)
  let sql =
    Printf.sprintf
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
 UNTIL %d ITERATIONS )
SELECT node, rank FROM pr|}
      (iterations ())
  in
  row4 "configuration" "time" "" "";
  List.iter
    (fun (label, options) ->
      let t = timed (run_with engine options sql) in
      row4 label (secs t) "" "")
    [
      ("no common-result rewrite", { Options.default with use_common_result = false });
      ("common-result (with reordering)", Options.default);
    ];
  print_endline
    "\n(without reordering nothing would be extractable here: vertexStatus\n\
    \ is not joined directly to edges in the query text)"

let ext_mpp () =
  header "Extension: simulated MPP execution - exchange volume per plan";
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges), 4 workers\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  let compile options sql =
    Dbspinner_rewrite.Iterative_rewrite.compile ~options
      ~lookup:(fun name ->
        Option.map Dbspinner_storage.Table.schema
          (Dbspinner_storage.Catalog.find_table_opt (Engine.catalog engine) name))
      (Dbspinner_sql.Parser.parse_query sql)
  in
  let n = if !fast then 4 else 10 in
  let sql = Queries.pr_vs ~iterations:n () in
  Printf.printf "%-38s %16s %12s\n" "configuration" "rows shuffled" "exchanges";
  List.iter
    (fun (label, options) ->
      let _, shuffles =
        Dbspinner_mpp.Distributed.run_program ~workers:4 (Engine.catalog engine)
          (compile options sql)
      in
      Printf.printf "%-38s %16d %12d\n" label
        shuffles.Dbspinner_mpp.Distributed.rows_shuffled
        shuffles.Dbspinner_mpp.Distributed.exchanges)
    [
      ("PR-VS, all optimizations", Options.default);
      ( "PR-VS, no common-result",
        { Options.default with use_common_result = false } );
    ];
  print_endline
    "\n(the common result is repartitioned once instead of every iteration -\n\
    \ the shared-nothing reading of the paper's section V-A argument)"

let ext_fault () =
  header "Extension: recovery overhead of distributed execution under faults";
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges), 4 workers\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  let options = Options.default in
  let program =
    Dbspinner_rewrite.Iterative_rewrite.compile ~options
      ~lookup:(fun name ->
        Option.map Dbspinner_storage.Table.schema
          (Dbspinner_storage.Catalog.find_table_opt (Engine.catalog engine) name))
      (Dbspinner_sql.Parser.parse_query
         (Queries.pr_vs ~iterations:(if !fast then 4 else 10) ()))
  in
  let module Fault = Dbspinner_mpp.Fault in
  let module Stats = Dbspinner_exec.Stats in
  Printf.printf "%-28s %10s %7s %8s %11s %10s %9s\n" "fault plan" "time"
    "faults" "retries" "checkpoints" "recoveries" "fallbacks";
  List.iter
    (fun (label, mk_fault) ->
      let stats = Stats.create () in
      let catalog = Engine.catalog engine in
      let t =
        timed (fun () ->
            Stats.reset stats;
            ignore
              (Dbspinner_mpp.Distributed.run_program ~workers:4
                 ~fault:(mk_fault ())
                 ~max_retries:options.Options.mpp_max_retries ~stats catalog
                 program))
      in
      Printf.printf "%-28s %10s %7d %8d %11d %10d %9d\n" label (secs t)
        stats.Stats.faults_injected stats.Stats.retries
        stats.Stats.checkpoints_taken stats.Stats.recoveries
        stats.Stats.fallbacks)
    [
      ("fault-free", fun () -> Fault.none);
      ( "p=0.02, <=3 faults",
        fun () -> Fault.probabilistic ~max_faults:3 ~seed:7 ~probability:0.02 () );
      ( "p=0.10, <=8 faults",
        fun () -> Fault.probabilistic ~max_faults:8 ~seed:7 ~probability:0.10 () );
      ("always faulting (fallback)", fun () -> Fault.probabilistic ~seed:7 ~probability:1.0 ());
    ];
  print_endline
    "\n(checkpoints are O(temps) pointer copies taken at every loop\n\
    \ boundary, so recovery replays at most one iteration; when retries\n\
    \ exhaust, execution degrades to the single-node path instead of\n\
    \ failing)"

let ext_termination () =
  header "Extension: termination-condition overhead (monotone SSSP)";
  let graph =
    Graph_gen.chain_with_shortcuts ~seed:7
      ~num_nodes:(if !fast then 150 else 400)
      ~shortcut_every:10
  in
  let engine = Loader.engine_for ~with_vertex_status:false graph in
  let body final_tc =
    Printf.sprintf
      {|WITH ITERATIVE sssp (Node, Distance)
AS ( SELECT src, CASE WHEN src = 0 THEN 0 ELSE 9999999 END
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
   SELECT sssp.node, LEAST(sssp.distance, MIN(prev.distance + e.weight))
   FROM sssp
     LEFT JOIN edges AS e ON sssp.node = e.dst
     LEFT JOIN sssp AS prev ON prev.node = e.src
   WHERE prev.distance <> 9999999
   GROUP BY sssp.node, sssp.distance
 UNTIL %s )
SELECT COUNT(*) FROM sssp|}
      final_tc
  in
  (* Find the natural convergence point first. *)
  let before =
    (Engine.session_stats engine).Dbspinner_exec.Stats.loop_iterations
  in
  ignore (Engine.query engine (body "DELTA = 0"));
  let converged =
    (Engine.session_stats engine).Dbspinner_exec.Stats.loop_iterations - before
  in
  Printf.printf "convergence takes %d iterations on this graph\n\n" converged;
  row4 "termination condition" "time" "iterations" "";
  List.iter
    (fun (label, tc) ->
      let before =
        (Engine.session_stats engine).Dbspinner_exec.Stats.loop_iterations
      in
      let t = timed (fun () -> ignore (Engine.query engine (body tc))) in
      let ran =
        (Engine.session_stats engine).Dbspinner_exec.Stats.loop_iterations - before
      in
      let runs = if !fast then 1 else 3 in
      row4 label (secs t) (string_of_int (ran / runs)) "")
    [
      ("Metadata (fixed iteration count)", Printf.sprintf "%d ITERATIONS" converged);
      ("Delta (rows changed = 0)", "DELTA = 0");
      ("Data (ALL distance finite)", "ALL distance < 9999999");
    ];
  print_endline
    "\n(Delta pays a per-iteration diff of the CTE table against its\n\
    \ snapshot; Data pays a per-iteration predicate scan but may also\n\
    \ terminate earlier - here once every node is reachable; Metadata is\n\
    \ free)"

let ext_parallel () =
  header "Extension: sequential vs parallel execution (Domain pool)";
  (* The largest generated graph; chunk-parallel operators need row
     volume to amortize the barrier. *)
  let graph, engine =
    engine_for_dataset ~with_vertex_status:false Datasets.webgoogle_like
  in
  Printf.printf
    "dataset: webgoogle-like (%d nodes, %d edges), %d recommended domains\n\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph)
    (Domain.recommended_domain_count ());
  let n = if !fast then 5 else iterations () in
  let sql = Queries.pr ~iterations:n () in
  let worker_counts = if !fast then [ 1; 2 ] else [ 1; 2; 4 ] in
  Printf.printf "single-node PR, %d iterations (chunk threshold 1024 rows)\n" n;
  row4 "configuration" "time" "speedup" "";
  let base = ref 0.0 in
  List.iter
    (fun workers ->
      let options =
        {
          Options.default with
          Options.parallel_workers = workers;
          parallel_chunk_rows = 1024;
        }
      in
      let t = timed (run_with engine options sql) in
      if workers = 1 then base := t;
      row4
        (Printf.sprintf "workers=%d%s" workers
           (if workers = 1 then " (sequential)" else ""))
        (secs t)
        (Printf.sprintf "%.2fx" (!base /. Float.max t 1e-12))
        "")
    worker_counts;
  (* Distributed program: the same 4 logical partitions executed on
     Domain pools of different sizes. *)
  let program =
    Dbspinner_rewrite.Iterative_rewrite.compile ~options:Options.default
      ~lookup:(fun name ->
        Option.map Dbspinner_storage.Table.schema
          (Dbspinner_storage.Catalog.find_table_opt (Engine.catalog engine) name))
      (Dbspinner_sql.Parser.parse_query sql)
  in
  Printf.printf "\ndistributed PR, 4 logical partitions\n";
  row4 "configuration" "time" "speedup" "";
  let base = ref 0.0 in
  List.iter
    (fun pool_size ->
      let pool = Dbspinner_exec.Parallel.get pool_size in
      let t =
        timed (fun () ->
            ignore
              (Dbspinner_mpp.Distributed.run_program ~workers:4 ~pool
                 (Engine.catalog engine) program))
      in
      if pool_size = 1 then base := t;
      row4
        (Printf.sprintf "pool=%d%s" pool_size
           (if pool_size = 1 then " (sequential)" else ""))
        (secs t)
        (Printf.sprintf "%.2fx" (!base /. Float.max t 1e-12))
        "")
    worker_counts;
  print_endline
    "\n(results and logical stats counters are identical at every worker\n\
    \ count - the parallel path is order-stable by construction; speedup\n\
    \ depends on available cores and row volume per iteration)"

let ext_cache () =
  header
    (Printf.sprintf
       "Extension: iteration-aware executor cache (join-build reuse + compiled \
        expressions), %d iterations"
       (iterations ()));
  let module Stats = Dbspinner_exec.Stats in
  let module Executor = Dbspinner_exec.Executor in
  let module Parallel = Dbspinner_exec.Parallel in
  let module Catalog = Dbspinner_storage.Catalog in
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges)\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  let catalog = Engine.catalog engine in
  let lookup name =
    Option.map Dbspinner_storage.Table.schema (Catalog.find_table_opt catalog name)
  in
  let compile sql =
    Dbspinner_rewrite.Iterative_rewrite.compile ~options:Options.default ~lookup
      (Dbspinner_sql.Parser.parse_query sql)
  in
  let n = iterations () in
  let workloads =
    [
      ("PR", Queries.pr ~iterations:n ());
      ("PR-VS", Queries.pr_vs ~iterations:n ());
      ("SSSP", Queries.sssp ~source:0 ~iterations:n ());
      ("SSSP-VS", Queries.sssp_vs ~source:0 ~iterations:n ());
      ("FF (50%, mod 2)", Queries.ff ~modulus:2 ~iterations:n ());
    ]
  in
  let worker_counts = if !fast then [ 2 ] else [ 1; 2 ] in
  List.iter
    (fun workers ->
      let parallel = Parallel.context ~workers () in
      Printf.printf "\nworkers=%d\n" workers;
      Printf.printf "%-22s %11s %11s %12s %7s %7s %6s\n" "workload" "cache off"
        "cache on" "improvement" "hits" "misses" "equal";
      List.iter
        (fun (label, sql) ->
          let program = compile sql in
          let run use_cache =
            (* Each timed run starts from a clean temp namespace; the
               per-run cache is created inside run_program. *)
            let rel = ref (Relation.make (Dbspinner_storage.Schema.make []) [||]) in
            let stats = Stats.create () in
            let t =
              timed (fun () ->
                  Catalog.clear_temps catalog;
                  Stats.reset stats;
                  rel := Executor.run_program ?parallel ~stats ~use_cache catalog program)
            in
            (t, !rel, stats)
          in
          let off_t, off_rel, off_stats = run false in
          let on_t, on_rel, on_stats = run true in
          let equal =
            Relation.equal_bag off_rel on_rel
            && Stats.logical_equal off_stats on_stats
          in
          Printf.printf "%-22s %11s %11s %12s %7d %7d %6s\n" label (secs off_t)
            (secs on_t) (improvement off_t on_t) on_stats.Stats.cache_hits
            on_stats.Stats.cache_misses
            (if equal then "yes" else "NO!");
          record_json
            [
              ("section", J_str "ext-cache");
              ("workload", J_str label);
              ("workers", J_int workers);
              ("cache_off_s", J_num off_t);
              ("cache_on_s", J_num on_t);
              ( "improvement_pct",
                J_num ((off_t -. on_t) /. Float.max off_t 1e-12 *. 100.0) );
              ("cache_hits", J_int on_stats.Stats.cache_hits);
              ("cache_misses", J_int on_stats.Stats.cache_misses);
              ("build_ms_saved", J_num on_stats.Stats.build_ms_saved);
              ("results_equal", J_bool equal);
            ])
        workloads)
    worker_counts;
  Catalog.clear_temps catalog;
  print_endline
    "\n(cache off is the legacy interpreted path; cache on memoizes\n\
    \ loop-invariant join builds / subquery sets under source generations\n\
    \ and compiles each expression once per run. PR-VS and SSSP-VS hit on\n\
    \ the hoisted common-result build every iteration; FF has no join in\n\
    \ its loop, so its gain comes from compiled expressions alone. Rows\n\
    \ and logical stats must be identical — `equal` says so)"

let ext_trace () =
  header "Extension: iteration-aware tracing (overhead + timeline agreement)";
  let module Stats = Dbspinner_exec.Stats in
  let module Executor = Dbspinner_exec.Executor in
  let module Parallel = Dbspinner_exec.Parallel in
  let module Catalog = Dbspinner_storage.Catalog in
  let module Trace = Dbspinner_obs.Trace in
  let module Value = Dbspinner_storage.Value in
  (* Bag equality with a float tolerance: the distributed executor
     legitimately reorders float additions across partitions, so PR
     ranks differ in the last bits. The sequential trace-on run is
     still checked bit-for-bit against trace-off below. *)
  let approx_equal_bag a b =
    let close x y =
      Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x +. Float.abs y)
    in
    Relation.cardinality a = Relation.cardinality b
    &&
    let sa = Relation.sorted a and sb = Relation.sorted b in
    Array.for_all2
      (fun ra rb ->
        Array.for_all2
          (fun va vb ->
            match ((va : Value.t), (vb : Value.t)) with
            | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
              close (Value.to_float va) (Value.to_float vb)
            | _ -> Value.equal va vb)
          ra rb)
      (Relation.rows sa) (Relation.rows sb)
  in
  let compile_for catalog sql =
    let lookup name =
      Option.map Dbspinner_storage.Table.schema
        (Catalog.find_table_opt catalog name)
    in
    Dbspinner_rewrite.Iterative_rewrite.compile ~options:Options.default ~lookup
      (Dbspinner_sql.Parser.parse_query sql)
  in
  let graph, pr_engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "datasets: dblp-like (%d nodes, %d edges) for PR, chain+shortcuts for SSSP\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  let n = if !fast then 5 else 10 in
  let chain =
    Graph_gen.chain_with_shortcuts ~seed:7
      ~num_nodes:(if !fast then 60 else 150)
      ~shortcut_every:10
  in
  let sssp_engine = Loader.engine_for ~with_vertex_status:false chain in
  let sssp_sql =
    {|WITH ITERATIVE sssp (Node, Distance)
AS ( SELECT src, CASE WHEN src = 0 THEN 0 ELSE 9999999 END
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
   SELECT sssp.node, LEAST(sssp.distance, MIN(prev.distance + e.weight))
   FROM sssp
     LEFT JOIN edges AS e ON sssp.node = e.dst
     LEFT JOIN sssp AS prev ON prev.node = e.src
   WHERE prev.distance <> 9999999
   GROUP BY sssp.node, sssp.distance
 UNTIL DELTA = 0 )
SELECT COUNT(*) FROM sssp|}
  in
  let workloads =
    [
      ( Printf.sprintf "PR (%d ITERATIONS)" n,
        Engine.catalog pr_engine,
        compile_for (Engine.catalog pr_engine) (Queries.pr ~iterations:n ()),
        false );
      ( "SSSP (UNTIL DELTA = 0)",
        Engine.catalog sssp_engine,
        compile_for (Engine.catalog sssp_engine) sssp_sql,
        true );
    ]
  in
  Printf.printf "\n%-22s %11s %11s %10s %6s %7s %7s %6s\n" "workload"
    "trace off" "trace on" "overhead" "iters" "deltas" "events" "equal";
  List.iter
    (fun (label, catalog, program, expects_converged) ->
      (* One timed + one measured run per execution path. The measured
         run is sliced out of the shared ring buffer with [next_seq] so
         its spans are not mixed with the timing repetitions'. *)
      let run_path exec =
        let tr = Trace.create () in
        let stats = Stats.create () in
        let t =
          timed (fun () ->
              Catalog.clear_temps catalog;
              Stats.reset stats;
              ignore (exec ~stats ~trace:(Some tr) ()))
        in
        let min_seq = Trace.next_seq tr in
        Catalog.clear_temps catalog;
        Stats.reset stats;
        let rel = exec ~stats ~trace:(Some tr) () in
        let iter_spans = Trace.iteration_spans ~min_seq tr in
        let deltas = List.map (fun (s : Trace.span) -> s.Trace.delta) iter_spans in
        let events =
          String.split_on_char '\n' (Trace.to_ndjson ~min_seq tr)
          |> List.filter (fun l -> String.trim l <> "")
        in
        let valid =
          List.for_all
            (fun l -> match Trace.validate_event l with Ok () -> true | Error _ -> false)
            events
        in
        (t, rel, Stats.copy stats, deltas, List.length events, valid)
      in
      (* Baseline: sequential with tracing compiled out of the path. *)
      let off_stats = Stats.create () in
      let off_rel =
        ref (Relation.make (Dbspinner_storage.Schema.make []) [||])
      in
      let off_t =
        timed (fun () ->
            Catalog.clear_temps catalog;
            Stats.reset off_stats;
            off_rel := Executor.run_program ~stats:off_stats catalog program)
      in
      Catalog.clear_temps catalog;
      Stats.reset off_stats;
      off_rel := Executor.run_program ~stats:off_stats catalog program;
      let seq_t, seq_rel, seq_stats, seq_deltas, seq_events, seq_valid =
        run_path (fun ~stats ~trace () ->
            Executor.run_program ~stats ?trace catalog program)
      in
      let parallel = Parallel.context ~workers:2 () in
      let _, par_rel, _, par_deltas, par_events, par_valid =
        run_path (fun ~stats ~trace () ->
            Executor.run_program ?parallel ~stats ?trace catalog program)
      in
      let _, dist_rel, _, dist_deltas, dist_events, dist_valid =
        run_path (fun ~stats ~trace () ->
            fst
              (Dbspinner_mpp.Distributed.run_program ~workers:4 ~stats ?trace
                 catalog program))
      in
      Catalog.clear_temps catalog;
      let results_equal =
        Relation.equal_bag !off_rel seq_rel
        && approx_equal_bag !off_rel par_rel
        && approx_equal_bag !off_rel dist_rel
      in
      (* Tracing must be non-perturbing: same logical work on vs off. *)
      let stats_equal = Stats.logical_equal off_stats seq_stats in
      let deltas_agree = seq_deltas = par_deltas && seq_deltas = dist_deltas in
      (* The timeline must agree with the executor's own loop
         accounting: one Iteration span per counted iteration, and for
         Delta-terminated loops the final recorded delta is 0. *)
      let iters = List.length seq_deltas in
      let executor_agrees =
        iters = seq_stats.Stats.loop_iterations
        && ((not expects_converged)
           || match List.rev seq_deltas with last :: _ -> last = 0 | [] -> false)
      in
      let events_valid = seq_valid && par_valid && dist_valid in
      let all_ok =
        results_equal && stats_equal && deltas_agree && executor_agrees
        && events_valid
      in
      Printf.printf "%-22s %11s %11s %10s %6d %7s %7d %6s\n" label (secs off_t)
        (secs seq_t)
        (improvement seq_t off_t)
        iters
        (if deltas_agree then "agree" else "DIFFER")
        (seq_events + par_events + dist_events)
        (if all_ok then "yes" else "NO!");
      record_json
        [
          ("section", J_str "ext-trace");
          ("workload", J_str label);
          ("trace_off_s", J_num off_t);
          ("trace_on_s", J_num seq_t);
          ( "overhead_pct",
            J_num ((seq_t -. off_t) /. Float.max off_t 1e-12 *. 100.0) );
          ("iterations", J_int iters);
          ("loop_iterations", J_int seq_stats.Stats.loop_iterations);
          ( "final_delta",
            J_int (match List.rev seq_deltas with d :: _ -> d | [] -> -1) );
          ("events_seq", J_int seq_events);
          ("events_parallel", J_int par_events);
          ("events_distributed", J_int dist_events);
          ("deltas_agree", J_bool deltas_agree);
          ("stats_equal", J_bool stats_equal);
          ("results_equal", J_bool results_equal);
          ("events_valid", J_bool events_valid);
        ])
    workloads;
  print_endline
    "\n(trace on records one span per step, loop iteration, and operator\n\
    \ family into a ring buffer; spans are built from pure counter and\n\
    \ cardinality reads, so logical stats are identical on vs off and\n\
    \ the per-iteration delta timeline agrees across the sequential,\n\
    \ parallel, and distributed executors — `equal` checks all of it)"

(* ------------------------------------------------------------------ *)
(* ext-columnar: vectorized columnar execution vs the row engine       *)

let ext_columnar () =
  header
    (Printf.sprintf
       "Extension: vectorized columnar execution (selection vectors), %d \
        iterations"
       (iterations ()));
  let module Stats = Dbspinner_exec.Stats in
  let module Executor = Dbspinner_exec.Executor in
  let module Parallel = Dbspinner_exec.Parallel in
  let module Catalog = Dbspinner_storage.Catalog in
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  Printf.printf "dataset: dblp-like (%d nodes, %d edges)\n"
    (Graph_gen.num_nodes graph) (Graph_gen.num_edges graph);
  let catalog = Engine.catalog engine in
  let lookup name =
    Option.map Dbspinner_storage.Table.schema
      (Catalog.find_table_opt catalog name)
  in
  let compile_for options sql =
    Dbspinner_rewrite.Iterative_rewrite.compile ~options ~lookup
      (Dbspinner_sql.Parser.parse_query sql)
  in
  let n = iterations () in
  let workloads =
    [
      ("PR", Queries.pr ~iterations:n ());
      ("PR-VS", Queries.pr_vs ~iterations:n ());
      ("SSSP", Queries.sssp ~source:0 ~iterations:n ());
      ("SSSP-VS", Queries.sssp_vs ~source:0 ~iterations:n ());
      ("FF (50%, mod 2)", Queries.ff ~modulus:2 ~iterations:n ());
    ]
  in
  (* Distributed partition order reorders float additions, so that leg
     is compared with tolerance (same as ext-trace). *)
  let close x y =
    Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x +. Float.abs y)
  in
  let approx_equal_bag a b =
    let module Value = Dbspinner_storage.Value in
    Relation.cardinality a = Relation.cardinality b
    &&
    let sa = Relation.sorted a and sb = Relation.sorted b in
    Array.for_all2
      (fun ra rb ->
        Array.for_all2
          (fun va vb ->
            match ((va : Value.t), (vb : Value.t)) with
            | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
              close (Value.to_float va) (Value.to_float vb)
            | _ -> Value.equal va vb)
          ra rb)
      (Relation.rows sa) (Relation.rows sb)
  in
  let run ?parallel ?(use_cache = true) ~columnar program =
    let stats = Stats.create () in
    let rel = ref (Relation.make (Dbspinner_storage.Schema.make []) [||]) in
    let t =
      timed (fun () ->
          Catalog.clear_temps catalog;
          Stats.reset stats;
          rel :=
            Executor.run_program ?parallel ~stats ~use_cache ~columnar catalog
              program)
    in
    (t, !rel, stats)
  in
  (* Single (untimed) run for the equivalence-only legs. *)
  let once ?parallel ?(use_cache = true) ~columnar program =
    let stats = Stats.create () in
    Catalog.clear_temps catalog;
    let rel =
      Executor.run_program ?parallel ~stats ~use_cache ~columnar catalog
        program
    in
    (rel, stats)
  in
  (* Headline legs take the best of [reps] timed runs so one scheduler
     hiccup does not decide the comparison; both engines get the same
     treatment. *)
  let reps = if !fast then 1 else 3 in
  let best_of k f =
    let best = ref (f ()) in
    for _ = 2 to k do
      let ((t, _, _) as r) = f () in
      let bt, _, _ = !best in
      if t < bt then best := r
    done;
    !best
  in
  Printf.printf "\n%-18s %11s %11s %9s %6s\n" "workload" "row" "columnar"
    "speedup" "equal";
  List.iter
    (fun (label, sql) ->
      let p = compile_for Options.default sql in
      (* Sequential (cached, the engine default). *)
      let row_t, row_rel, row_stats =
        best_of reps (fun () -> run ~columnar:false p)
      in
      let col_t, col_rel, col_stats =
        best_of reps (fun () -> run ~columnar:true p)
      in
      let seq_equal =
        Relation.equal_bag row_rel col_rel
        && Stats.logical_equal row_stats col_stats
      in
      (* Chunk-parallel. *)
      let parallel = Parallel.context ~workers:2 () in
      let par_row_t, par_row_rel, par_row_stats =
        run ?parallel ~columnar:false p
      in
      let par_col_t, par_col_rel, par_col_stats =
        run ?parallel ~columnar:true p
      in
      let parallel_equal =
        Relation.equal_bag par_row_rel par_col_rel
        && Relation.equal_bag col_rel par_col_rel
        && Stats.logical_equal par_row_stats par_col_stats
      in
      (* Uncached (the cache must be invisible to both engines). *)
      let unc_row_rel, unc_row_stats = once ~use_cache:false ~columnar:false p in
      let unc_col_rel, unc_col_stats = once ~use_cache:false ~columnar:true p in
      let cached_equal =
        Relation.equal_bag unc_row_rel unc_col_rel
        && Relation.equal_bag col_rel unc_col_rel
        && Stats.logical_equal unc_row_stats unc_col_stats
      in
      (* Distributed. *)
      let dist_run ~columnar =
        let stats = Stats.create () in
        Catalog.clear_temps catalog;
        let rel, _ =
          Dbspinner_mpp.Distributed.run_program ~workers:4 ~stats ~columnar
            catalog p
        in
        (rel, stats)
      in
      let dist_row_rel, dist_row_stats = dist_run ~columnar:false in
      let dist_col_rel, dist_col_stats = dist_run ~columnar:true in
      let distributed_equal =
        approx_equal_bag dist_row_rel dist_col_rel
        && approx_equal_bag col_rel dist_col_rel
        && Stats.logical_equal dist_row_stats dist_col_stats
      in
      Catalog.clear_temps catalog;
      let all_equal =
        seq_equal && parallel_equal && cached_equal && distributed_equal
      in
      Printf.printf "%-18s %11s %11s %8.2fx %6s\n" label (secs row_t)
        (secs col_t)
        (row_t /. Float.max col_t 1e-12)
        (if all_equal then "yes" else "NO!");
      record_json
        [
          ("section", J_str "ext-columnar");
          ("workload", J_str label);
          ("row_s", J_num row_t);
          ("columnar_s", J_num col_t);
          ("speedup", J_num (row_t /. Float.max col_t 1e-12));
          ( "improvement_pct",
            J_num ((row_t -. col_t) /. Float.max row_t 1e-12 *. 100.0) );
          ("parallel_row_s", J_num par_row_t);
          ("parallel_columnar_s", J_num par_col_t);
          ( "parallel_speedup",
            J_num (par_row_t /. Float.max par_col_t 1e-12) );
          ("iterations", J_int col_stats.Stats.loop_iterations);
          ("sequential_equal", J_bool seq_equal);
          ("parallel_equal", J_bool parallel_equal);
          ("cached_equal", J_bool cached_equal);
          ("distributed_equal", J_bool distributed_equal);
          ("results_equal", J_bool all_equal);
        ])
    workloads;
  print_endline
    "\n(row is the tuple-at-a-time interpreter; columnar evaluates compiled\n\
    \ kernels over typed column batches under selection vectors. Results\n\
    \ and logical stats must be bit-identical across the sequential,\n\
    \ chunk-parallel, cached and distributed executors - `equal` covers\n\
    \ all four; the distributed leg uses the usual float tolerance)"

(* ------------------------------------------------------------------ *)
(* ext-server: multi-session server throughput and admission control   *)

let ext_server () =
  header "Extension: concurrent SQL server (throughput and admission)";
  let module Server = Dbspinner_server.Server in
  let module Client = Dbspinner_server.Client in
  let graph, engine = engine_for_dataset Datasets.dblp_like in
  ignore graph;
  let shared_catalog = Engine.catalog engine in
  let socket_for tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-bench-%s-%d.sock" tag (Unix.getpid ()))
  in
  let pr_sql = Queries.pr ~iterations:(if !fast then 3 else 6) () in
  (* Throughput: N clients each running the PageRank workload
     back-to-back against one shared preloaded database. *)
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_for "tput";
      max_inflight = 16;
      workers = 4;
    }
  in
  Server.with_server ~config ~catalog:shared_catalog (fun _srv ->
      Printf.printf "%-10s %12s %14s %10s\n" "clients" "queries" "elapsed" "q/s";
      List.iter
        (fun clients ->
          let per_client = if !fast then 3 else 8 in
          let errors = Atomic.make 0 in
          let t0 = Unix.gettimeofday () in
          let threads =
            List.init clients (fun _ ->
                Thread.create
                  (fun () ->
                    Client.with_client ~socket_path:config.Server.socket_path
                      (fun c ->
                        for _ = 1 to per_client do
                          match Client.query c pr_sql with
                          | Ok _ -> ()
                          | Error _ -> Atomic.incr errors
                        done))
                  ())
          in
          List.iter Thread.join threads;
          let elapsed = Unix.gettimeofday () -. t0 in
          let total = clients * per_client in
          let qps = float_of_int total /. Float.max elapsed 1e-9 in
          Printf.printf "%-10d %12d %14s %10.1f\n" clients total (secs elapsed)
            qps;
          record_json
            [
              ("section", J_str "ext-server");
              ("mode", J_str "throughput");
              ("clients", J_int clients);
              ("queries", J_int total);
              ("errors", J_int (Atomic.get errors));
              ("elapsed_s", J_num elapsed);
              ("qps", J_num qps);
            ])
        [ 1; 2; 4; 8 ]);
  (* Admission control: a deliberately tiny in-flight limit under a
     burst of concurrent clients; the overflow must be rejected with
     BUSY, not queued. *)
  let overload_config =
    {
      Server.default_config with
      Server.socket_path = socket_for "ovl";
      max_inflight = 2;
      workers = 2;
    }
  in
  let burst = 12 in
  let busy = Atomic.make 0 and ok = Atomic.make 0 and err = Atomic.make 0 in
  Server.with_server ~config:overload_config ~catalog:shared_catalog
    (fun _srv ->
      let threads =
        List.init burst (fun _ ->
            Thread.create
              (fun () ->
                Client.with_client
                  ~socket_path:overload_config.Server.socket_path (fun c ->
                    match Client.query c pr_sql with
                    | Ok _ -> Atomic.incr ok
                    | Error (("BUSY" | "CLOSING"), _) -> Atomic.incr busy
                    | Error _ -> Atomic.incr err))
              ())
      in
      List.iter Thread.join threads);
  Printf.printf
    "\noverload burst: %d clients against max_inflight=%d -> %d served, %d \
     rejected (BUSY), %d errors\n"
    burst overload_config.Server.max_inflight (Atomic.get ok)
    (Atomic.get busy) (Atomic.get err);
  record_json
    [
      ("section", J_str "ext-server");
      ("mode", J_str "overload");
      ("burst_clients", J_int burst);
      ("max_inflight", J_int overload_config.Server.max_inflight);
      ("served", J_int (Atomic.get ok));
      ("rejected_busy", J_int (Atomic.get busy));
      ("errors", J_int (Atomic.get err));
    ];
  (* Same burst, but the clients retry BUSY with jittered exponential
     backoff: overload turns from lost work into delayed work, so
     goodput should reach 100% at the cost of elapsed time. *)
  let ok_r = Atomic.make 0 and lost_r = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  Server.with_server ~config:overload_config ~catalog:shared_catalog
    (fun _srv ->
      let threads =
        List.init burst (fun _ ->
            Thread.create
              (fun () ->
                Client.with_client
                  ~socket_path:overload_config.Server.socket_path (fun c ->
                    match Client.query ~retries:200 ~backoff_ms:5.0 c pr_sql with
                    | Ok _ -> Atomic.incr ok_r
                    | Error _ -> Atomic.incr lost_r))
              ())
      in
      List.iter Thread.join threads);
  let retry_elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf
    "with retry (backoff 5ms, cap 250ms): %d/%d served, %d lost, %s\n"
    (Atomic.get ok_r) burst (Atomic.get lost_r) (secs retry_elapsed);
  record_json
    [
      ("section", J_str "ext-server");
      ("mode", J_str "overload-retry");
      ("burst_clients", J_int burst);
      ("max_inflight", J_int overload_config.Server.max_inflight);
      ("served", J_int (Atomic.get ok_r));
      ("lost", J_int (Atomic.get lost_r));
      ("elapsed_s", J_num retry_elapsed);
    ];
  (* Read matrix: snapshot-read scaling under a concurrent DML hammer,
     and pipelined vs sequential read batches. Every read is checked
     bit-identical against the sequential oracle. *)
  let oracle_of sql =
    Dbspinner_storage.Relation.to_table_string (Engine.query engine sql)
  in
  (* DML legs use a one-iteration PageRank: still the iterative
     workload, but cheap enough that read throughput reflects
     contention with the concurrent writers rather than raw CPU. *)
  let pr_light_sql = Queries.pr ~iterations:1 () in
  let oracle = oracle_of pr_sql in
  let oracle_light = oracle_of pr_light_sql in
  let sink_counter = ref 0 in
  let run_mode ~label ~pipelined ~clients ~dml =
    let sock = socket_for label in
    let config =
      {
        Server.default_config with
        Server.socket_path = sock;
        max_inflight = 32;
        workers = 4;
      }
    in
    Server.with_server ~config ~catalog:shared_catalog (fun _srv ->
        incr sink_counter;
        (* The hammer mutates a dedicated sink table, so the oracle for
           the PageRank readers stays well-defined throughout. *)
        let sink = Printf.sprintf "dml_sink_%d" !sink_counter in
        let writer_count = 4 in
        if dml then
          List.iter
            (fun w ->
              Client.with_client ~socket_path:sock (fun c ->
                  ignore
                    (Client.query c
                       (Printf.sprintf "CREATE TABLE %s_%d (a INT, b INT)"
                          sink w))))
            (List.init writer_count Fun.id);
        let stop = Atomic.make false in
        let hammers =
          if not dml then []
          else
            (* Pipelined writers streaming scan-sized statements: each
               INSERT..SELECT copies the whole edge table (the paired
               DELETE keeps the sink bounded), so every write holds the
               writer lock for a scan, and the next write is already
               buffered on the socket when it releases. Readers pin
               snapshots and never wait on that lock. *)
            List.init writer_count (fun w ->
                Thread.create
                  (fun () ->
                    Client.with_client ~socket_path:sock (fun c ->
                        let ins =
                          Printf.sprintf
                            "INSERT INTO %s_%d SELECT src, dst FROM edges"
                            sink w
                        and del =
                          Printf.sprintf "DELETE FROM %s_%d" sink w
                        in
                        let batch =
                          List.concat
                            (List.init 40 (fun _ -> [ ins; del ]))
                        in
                        while not (Atomic.get stop) do
                          ignore (Client.pipeline_queries c batch)
                        done))
                  ())
        in
        let writes_at () =
          Client.with_client ~socket_path:sock (fun c ->
              match List.assoc_opt "queries_write" (Client.stats c) with
              | Some v -> int_of_string v
              | None -> 0)
        in
        let w0 = writes_at () in
        let read_sql, expected =
          if dml then (pr_light_sql, oracle_light) else (pr_sql, oracle)
        in
        (* DML legs keep the full read count under --fast: their
           one-iteration reads are cheap. *)
        let per_client = if dml then 4 else if !fast then 2 else 4 in
        let matching = Atomic.make 0 in
        let mismatched = Atomic.make 0 in
        let read_errors = Atomic.make 0 in
        let tally = function
          | Ok body ->
            if String.equal body expected then Atomic.incr matching
            else Atomic.incr mismatched
          | Error _ -> Atomic.incr read_errors
        in
        let t0 = Unix.gettimeofday () in
        let readers =
          List.init clients (fun i ->
              Thread.create
                (fun () ->
                  Client.with_client ~seed:(1000 + i) ~socket_path:sock
                    (fun c ->
                      if pipelined then
                        List.iter tally
                          (Client.pipeline_queries c
                             (List.init per_client (fun _ -> read_sql)))
                      else
                        for _ = 1 to per_client do
                          tally (Client.query c read_sql)
                        done))
                ())
        in
        List.iter Thread.join readers;
        let elapsed = Unix.gettimeofday () -. t0 in
        let writes_during = if dml then writes_at () - w0 else 0 in
        Atomic.set stop true;
        List.iter Thread.join hammers;
        let total = clients * per_client in
        let qps = float_of_int total /. Float.max elapsed 1e-9 in
        Printf.printf
          "%-26s %2d clients %12s %8.2f reads/s  (oracle-equal %d/%d, \
           concurrent writes %d)\n"
          label clients (secs elapsed) qps (Atomic.get matching) total
          writes_during;
        record_json
          [
            ("section", J_str "ext-server");
            ("mode", J_str "mvcc-matrix");
            ("label", J_str label);
            ("pipelined", J_bool pipelined);
            ("concurrent_dml", J_bool dml);
            ("clients", J_int clients);
            ("reads", J_int total);
            ("elapsed_s", J_num elapsed);
            ("reads_per_s", J_num qps);
            ("oracle_equal", J_bool (Atomic.get matching = total));
            ("mismatched", J_int (Atomic.get mismatched));
            ("read_errors", J_int (Atomic.get read_errors));
            ("concurrent_writes", J_int writes_during);
          ];
        qps)
  in
  print_endline "\nMVCC snapshot reads under concurrent DML:";
  List.iter
    (fun clients ->
      ignore
        (run_mode
           ~label:(Printf.sprintf "mvcc+dml %d-client" clients)
           ~pipelined:false ~clients ~dml:true))
    [ 1; 2; 4; 8 ];
  (* Pipelined vs sequential reads (quiet server: isolates protocol
     round trips). *)
  let qps_seq =
    run_mode ~label:"sequential reads" ~pipelined:false ~clients:8 ~dml:false
  in
  let qps_pipe =
    run_mode ~label:"pipelined reads" ~pipelined:true ~clients:8 ~dml:false
  in
  record_json
    [
      ("section", J_str "ext-server");
      ("mode", J_str "pipeline-and-cache");
      ("clients", J_int 8);
      ("sequential_reads_per_s", J_num qps_seq);
      ("pipelined_reads_per_s", J_num qps_pipe);
      ("pipeline_speedup", J_num (qps_pipe /. Float.max qps_seq 1e-9));
    ];
  print_endline
    "\n(eight concurrent sessions share one database through \
     session-private\n\
    \ catalogs, so iterative CTE temps never collide; beyond \
     max_inflight the\n\
    \ server rejects immediately -- overload surfaces as BUSY, not as \
     queueing\n\
    \ delay. In the mvcc matrix, readers pin immutable catalog \
     snapshots and\n\
    \ never take the writer lock, so a pipelined DML hammer leaves \
     snapshot\n\
    \ reads unblocked; every read is verified bit-identical to the \
     sequential\n\
    \ oracle)"

(* ------------------------------------------------------------------ *)
(* ext-durable: WAL overhead by fsync policy, recovery time            *)

let ext_durable () =
  header "Extension: crash-safe durability (WAL overhead and recovery)";
  let module Server = Dbspinner_server.Server in
  let module Client = Dbspinner_server.Client in
  let module Durable = Dbspinner_durable.Durable in
  let module Catalog = Dbspinner_storage.Catalog in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let tmp tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-bench-durable-%s-%d" tag (Unix.getpid ()))
  in
  (* Acknowledged-write throughput against the live server, one durable
     mode at a time. Single-row inserts are the worst case: every
     acknowledgement pays the full per-record policy cost. *)
  let writes = if !fast then 150 else 600 in
  Printf.printf "%-10s %10s %14s %10s %12s\n" "fsync" "writes" "elapsed" "w/s"
    "overhead";
  let baseline = ref None in
  List.iter
    (fun mode ->
      let dir =
        if mode = "none" then None
        else begin
          let d = tmp mode in
          rm_rf d;
          Some d
        end
      in
      let config =
        {
          Server.default_config with
          Server.socket_path =
            Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "dbspinner-bench-dur-%s-%d.sock" mode
                 (Unix.getpid ()));
          data_dir = dir;
          fsync =
            (match Durable.policy_of_string mode with
            | Some p -> p
            | None -> Durable.Batch (* "none": ignored, no data_dir *));
          checkpoint_every = 3600.0;
        }
      in
      let elapsed =
        Server.with_server ~config (fun _srv ->
            Client.with_client ~socket_path:config.Server.socket_path (fun c ->
                ignore
                  (Client.query c "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
                let t0 = Unix.gettimeofday () in
                for i = 1 to writes do
                  ignore
                    (Client.query c
                       (Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" i i))
                done;
                Unix.gettimeofday () -. t0))
      in
      if mode = "none" then baseline := Some elapsed;
      let overhead =
        match !baseline with
        | Some b when mode <> "none" ->
          Printf.sprintf "%+.1f%%" ((elapsed -. b) /. Float.max b 1e-9 *. 100.0)
        | _ -> "(baseline)"
      in
      Printf.printf "%-10s %10d %14s %10.0f %12s\n" mode writes (secs elapsed)
        (float_of_int writes /. Float.max elapsed 1e-9)
        overhead;
      record_json
        [
          ("section", J_str "ext-durable");
          ("mode", J_str "write-throughput");
          ("fsync", J_str mode);
          ("writes", J_int writes);
          ("elapsed_s", J_num elapsed);
        ];
      Option.iter rm_rf dir)
    [ "none"; "off"; "batch"; "always" ];
  (* Recovery time, directly against the durability manager: replaying
     a WAL of N logged statements vs loading the snapshot the boot
     checkpoint collapsed them into. *)
  let dir = tmp "recovery" in
  rm_rf dir;
  let exec_on catalog sql =
    let eng = Engine.create ~catalog:(Catalog.with_shared_base catalog) () in
    try ignore (Engine.execute_script eng sql) with _ -> ()
  in
  let n = if !fast then 400 else 2000 in
  let live = Catalog.create () in
  let d =
    Durable.attach ~dir ~policy:Durable.Batch ~catalog:live
      ~replay:(exec_on live)
  in
  exec_on live "CREATE TABLE kv (k INT PRIMARY KEY, v INT)";
  Durable.log_script d
    ~digest:(Catalog.base_digest live)
    ~sql:"CREATE TABLE kv (k INT PRIMARY KEY, v INT)";
  for i = 1 to n do
    let sql = Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" i (i * 7) in
    exec_on live sql;
    Durable.log_script d ~digest:(Catalog.base_digest live) ~sql
  done;
  Durable.close d;
  let time_attach label =
    let catalog = Catalog.create () in
    let t0 = Unix.gettimeofday () in
    let d =
      Durable.attach ~dir ~policy:Durable.Batch ~catalog
        ~replay:(exec_on catalog)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let r = Durable.recovery d in
    Printf.printf "%-26s %14s  (replayed %d records)\n" label (secs elapsed)
      r.Durable.wal_records_applied;
    record_json
      [
        ("section", J_str "ext-durable");
        ("mode", J_str "recovery");
        ("path", J_str label);
        ("records_replayed", J_int r.Durable.wal_records_applied);
        ("elapsed_s", J_num elapsed);
      ];
    Durable.close d
  in
  Printf.printf "\nrecovery of %d logged statements:\n" (n + 1);
  (* First re-attach replays the whole WAL, then its boot checkpoint
     collapses it; the second loads only the snapshot. *)
  time_attach "wal-replay";
  time_attach "snapshot-load";
  rm_rf dir;
  print_endline
    "\n(batch acknowledges after write(2) -- SIGKILL-safe at near-in-memory\n\
    \ speed; always pays one fsync per acknowledgement -- the floor is the\n\
    \ device sync latency; a boot checkpoint collapses the WAL, so recovery\n\
    \ cost is paid once, not on every subsequent boot)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let graph = Graph_gen.power_law ~seed:5 ~num_nodes:2_000 ~edges_per_node:4 in
  let engine = Loader.engine_for graph in
  let pr_sql = Queries.pr ~iterations:2 () in
  let lookup name =
    Option.map Dbspinner_storage.Table.schema
      (Dbspinner_storage.Catalog.find_table_opt (Engine.catalog engine) name)
  in
  let parsed = Dbspinner_sql.Parser.parse_query pr_sql in
  let tests =
    [
      Test.make ~name:"parse-pr-query"
        (Staged.stage (fun () ->
             ignore (Dbspinner_sql.Parser.parse_statement pr_sql)));
      Test.make ~name:"compile-pr-program"
        (Staged.stage (fun () ->
             ignore
               (Dbspinner_rewrite.Iterative_rewrite.compile
                  ~options:Options.default ~lookup parsed)));
      Test.make ~name:"aggregate-count-edges"
        (Staged.stage (fun () ->
             ignore (Engine.query engine "SELECT COUNT(*), SUM(weight) FROM edges")));
      Test.make ~name:"hash-join-edges-status"
        (Staged.stage (fun () ->
             ignore
               (Engine.query engine
                  "SELECT COUNT(*) FROM edges JOIN vertexStatus ON \
                   vertexStatus.node = edges.dst")));
      Test.make ~name:"catalog-rename"
        (Staged.stage
           (let catalog = Dbspinner_storage.Catalog.create () in
            let rel = Graph_gen.edges_relation graph in
            fun () ->
              Dbspinner_storage.Catalog.set_temp catalog "a" rel;
              Dbspinner_storage.Catalog.rename_temp catalog ~from_:"a" ~into:"b"));
    ]
  in
  let grouped = Test.make_grouped ~name:"dbspinner" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.75) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-36s %14.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-36s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("ext-middleware", ext_middleware);
    ("ext-reorder", ext_reorder);
    ("ext-mpp", ext_mpp);
    ("ext-fault", ext_fault);
    ("ext-termination", ext_termination);
    ("ext-parallel", ext_parallel);
    ("ext-cache", ext_cache);
    ("ext-trace", ext_trace);
    ("ext-columnar", ext_columnar);
    ("ext-server", ext_server);
    ("ext-durable", ext_durable);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path = ref None in
  let rec strip = function
    | [] -> []
    | "--fast" :: rest ->
      fast := true;
      strip rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      strip rest
    | "--json" :: [] ->
      Printf.eprintf "--json requires a path argument\n";
      exit 2
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  let to_run =
    match args with
    | [] -> List.filter (fun (name, _) -> name <> "micro") sections
    | names ->
      List.filter_map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown section %s (available: %s)\n" name
              (String.concat ", " (List.map fst sections));
            None)
        names
  in
  Printf.printf
    "DBSpinner benchmark harness%s - datasets are synthetic (see DESIGN.md);\n\
     compare shapes with the paper, not absolute times.\n"
    (if !fast then " (fast mode)" else "");
  List.iter (fun (_, f) -> f ()) to_run;
  Option.iter write_json !json_path
