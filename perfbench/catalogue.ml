(* The metric catalogue: names and units, in printing order. BENCHMARK.json
   lists the same names; a test keeps the two in step. *)

(* Every workload prints every end-to-end metric (untraced run) and
   every per-layer metric (traced run). A per-layer metric a workload
   has no such layer for prints 0 and is named on a "not measured"
   line. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("iter_per_s", "1/s");
    ("stmt_per_s", "1/s");
    ("query_p50_ms", "ms");
    ("peak_rss_mb", "MB");
    ("ok_frac", "frac");
  ]

let exec_ops =
  [ "scan"; "filter"; "project"; "join"; "aggregate"; "sort"; "distinct"; "setop" ]

let server_read_families = [ "ff"; "pr_vs"; "sssp" ]

(* Per-layer metrics as (name, unit, what it should move): the
   end-to-end metric and the workload on which a change to the layer
   should show. *)
let per_layer_moves =
  let setup = "setup_s, all workloads"
  and server_query = "query_p50_ms, server-mixed"
  and iter = "iter_per_s and the per-query medians, paper-iterative and frontier-sssp"
  and write = "write_p50_ms and write_p99_ms, server-mixed" in
  [
    ("graph.generate_s", "s", setup);
    ("storage.load_s", "s", setup);
    ("server.boot_s", "s", setup);
    ("server.load_s", "s", setup);
    ("sql.parse_ms", "ms", server_query ^ " (about 0 share on paper-iterative)");
    ("rewrite.compile_ms", "ms", server_query);
    ("rewrite.rules_fired", "count", "rewrite.compile_ms; pins the plan shape");
    ("rewrite.cost_guard_trials", "count", "rewrite.compile_ms; pins the plan shape");
    ("rewrite.delta_paths", "count", "rewrite.compile_ms; pins the plan shape");
    ("exec.run_ms", "ms", iter);
    ("exec.iteration_ms", "ms", iter);
  ]
  @ List.map
      (fun op ->
        ( "exec.op." ^ op ^ "_s",
          "s",
          match op with
          | "join" | "aggregate" -> "iter_per_s, paper-iterative"
          | "project" | "setop" | "filter" -> "iter_per_s, frontier-sssp"
          | _ -> "iter_per_s, paper-iterative and frontier-sssp" ))
      exec_ops
  @ [
      ("exec.other_s", "s", "iter_per_s, frontier-sssp (delta diff, stitch, materialize)");
      ("exec.rows_scanned", "count", iter);
      ("exec.rows_joined", "count", iter);
      ("exec.join_probes", "count", iter);
      ("exec.rows_aggregated", "count", iter);
      ("exec.rows_materialized", "count", iter);
      ("exec.materializations", "count", iter);
      ("exec.renames", "count", iter);
      ("exec.cache_hit_ratio", "frac", "pr_vs_p50_ms and sssp_vs_p50_ms, paper-iterative");
      ("exec.cache_hits", "count", "exec.cache_hit_ratio");
      ("exec.cache_misses", "count", "exec.cache_hit_ratio");
      ("exec.delta_rows_evaluated", "count", "iter_per_s, frontier-sssp; pr_p50_ms, paper-iterative");
      ("exec.full_reevals", "count", "iter_per_s, frontier-sssp; pr_p50_ms (wasted diffs), paper-iterative");
      ("exec.delta_loop_iterations", "count", "base of exec.delta_restricted_ratio");
      ("exec.delta_restricted_ratio", "frac", "iter_per_s, frontier-sssp; pr_p50_ms, paper-iterative");
      ("server.exec_p50_ms", "ms", "query_p50_ms and write_p50_ms, server-mixed");
      ("server.exec_p99_ms", "ms", "query_p99_ms and write_p99_ms, server-mixed");
      ("server.overhead_p50_ms", "ms", "query_p50_ms and write_p50_ms, server-mixed");
      ("server.plan_hit_ratio", "frac", server_query);
      ("server.plan_hits", "count", "server.plan_hit_ratio");
      ("server.plan_misses", "count", "server.plan_hit_ratio");
    ]
  @ List.concat_map
      (fun f ->
        [
          ("server.plan_hits." ^ f, "count", server_query ^ " (" ^ f ^ " reads)");
          ("server.plan_misses." ^ f, "count", server_query ^ " (" ^ f ^ " reads)");
        ])
      server_read_families
  @ [
      ("server.rejected", "count", "ok_frac, server-mixed");
      ("server.writes", "count", "base of the per-write figures");
      ("server.publishes_per_write", "frac", write);
      ("durable.wal_records", "count", write);
      ("durable.wal_bytes_per_write", "bytes", write);
      ("durable.wal_fsyncs", "count", write);
      ("durable.checkpoints", "count", write);
      ("obs.trace_overhead_frac", "frac", "none: the tracing overhead, to keep small");
      ("obs.accounted_frac", "frac", "none: parse + compile + run over the untraced statement time");
      ("pr_p50_ms", "ms", "query_p50_ms and iter_per_s, paper-iterative");
      ("pr_vs_p50_ms", "ms", "query_p50_ms and iter_per_s, paper-iterative");
      ("sssp_vs_p50_ms", "ms", "query_p50_ms and iter_per_s, paper-iterative");
      ("ff_p50_ms", "ms", "query_p50_ms and iter_per_s, paper-iterative");
      ("query_p99_ms", "ms", "the read tail behind query_p50_ms, server-mixed");
      ("write_p50_ms", "ms", "stmt_per_s, server-mixed");
      ("write_p99_ms", "ms", "stmt_per_s, server-mixed");
      ("failed_frac", "frac", "ok_frac, all workloads");
    ]

let per_layer = List.map (fun (name, unit, _) -> (name, unit)) per_layer_moves
