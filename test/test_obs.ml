(** Tests for the observability layer: the trace ring buffer, the
    minimal JSON parser, NDJSON event validation, engine-level
    convergence timelines, and agreement of the per-iteration delta
    timeline across the sequential, parallel, and distributed
    executors (including under injected faults). *)

module Trace = Dbspinner_obs.Trace
module Json = Dbspinner_obs.Json
module Value = Dbspinner_storage.Value
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Parser = Dbspinner_sql.Parser
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Stats = Dbspinner_exec.Stats
module Executor = Dbspinner_exec.Executor
module Parallel = Dbspinner_exec.Parallel
module Distributed = Dbspinner_mpp.Distributed
module Fault = Dbspinner_mpp.Fault
module Engine = Dbspinner.Engine
module Table = Dbspinner_storage.Table
module Graph_gen = Dbspinner_graph.Graph_gen
module Loader = Dbspinner_workload.Loader
module Queries = Dbspinner_workload.Queries
open Helpers

let emit_n tr n =
  for i = 1 to n do
    Trace.emit tr ~kind:Trace.Step
      ~label:(Printf.sprintf "s%d" i)
      ~wall_ms:0.0 ~counters:Trace.zero_counters ()
  done

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_buffer () =
  let tr = Trace.create ~capacity:4 () in
  Alcotest.(check int) "empty" 0 (List.length (Trace.spans tr));
  Alcotest.(check int) "first seq" 0 (Trace.next_seq tr);
  emit_n tr 6;
  let spans = Trace.spans tr in
  Alcotest.(check int) "capacity bounds retention" 4 (List.length spans);
  Alcotest.(check int) "two evicted" 2 (Trace.dropped tr);
  Alcotest.(check (list int))
    "oldest-first, seqs contiguous" [ 2; 3; 4; 5 ]
    (List.map (fun (s : Trace.span) -> s.Trace.seq) spans);
  Alcotest.(check (list string))
    "labels survive wraparound" [ "s3"; "s4"; "s5"; "s6" ]
    (List.map (fun (s : Trace.span) -> s.Trace.label) spans);
  Alcotest.(check int) "min_seq slices" 2
    (List.length (Trace.spans ~min_seq:4 tr));
  Alcotest.(check int) "next_seq advanced" 6 (Trace.next_seq tr)

let test_iteration_spans_filter () =
  let tr = Trace.create () in
  emit_n tr 2;
  Trace.emit tr ~kind:Trace.Iteration ~label:"c" ~loop_id:3 ~iteration:1
    ~rows:10 ~delta:4 ~wall_ms:0.5 ~counters:Trace.zero_counters ();
  emit_n tr 1;
  let iters = Trace.iteration_spans tr in
  Alcotest.(check int) "only iteration spans" 1 (List.length iters);
  let s = List.hd iters in
  Alcotest.(check int) "loop id" 3 s.Trace.loop_id;
  Alcotest.(check int) "delta" 4 s.Trace.delta;
  Alcotest.(check int) "cum_updates defaults to n/a" (-1) s.Trace.cum_updates

(* ------------------------------------------------------------------ *)
(* JSON parser                                                         *)

let test_json_parser () =
  let ok s =
    match Json.parse s with
    | Ok v -> v
    | Error m -> Alcotest.failf "parse %s failed: %s" s m
  in
  (match ok {|{"a": [1, -2.5, true, null], "b": "x\"y"}|} with
  | Json.Obj fields ->
    (match List.assoc "a" fields with
    | Json.Arr [ Json.Num 1.0; Json.Num -2.5; Json.Bool true; Json.Null ] -> ()
    | _ -> Alcotest.fail "array contents");
    (match List.assoc "b" fields with
    | Json.Str "x\"y" -> ()
    | _ -> Alcotest.fail "escaped string")
  | _ -> Alcotest.fail "expected object");
  (match Json.member "a" (ok {|{"a": 1}|}) with
  | Some (Json.Num 1.0) -> ()
  | _ -> Alcotest.fail "member");
  Alcotest.(check bool) "missing member" true
    (Json.member "b" (ok {|{"a": 1}|}) = None);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for: %s" bad)
    [ "{"; "[1,]"; "{\"a\" 1}"; "1 2"; ""; "{\"a\": 1} trailing" ]

(* The bench harness emits per-iteration timings as real JSON arrays
   (e.g. "per_iteration_on_ms"); a record round-trips through the
   parser with the array structure and element order intact. *)
let test_bench_record_arrays () =
  let line =
    {|{"section": "ext-trace", "workload": "PR", |}
    ^ {|"per_iteration_off_ms": [1.5, 0.25, 0.125], |}
    ^ {|"per_iteration_on_ms": [], "iterations": 3}|}
  in
  match Json.parse line with
  | Error m -> Alcotest.failf "bench record failed to parse: %s" m
  | Ok v -> (
    (match Json.member "per_iteration_off_ms" v with
    | Some (Json.Arr [ Json.Num 1.5; Json.Num 0.25; Json.Num 0.125 ]) -> ()
    | _ -> Alcotest.fail "per-iteration array contents");
    match Json.member "per_iteration_on_ms" v with
    | Some (Json.Arr []) -> ()
    | _ -> Alcotest.fail "empty per-iteration array")

(* ------------------------------------------------------------------ *)
(* NDJSON event validation                                             *)

let test_validate_event () =
  let tr = Trace.create () in
  Trace.emit tr ~kind:Trace.Iteration ~label:"c" ~loop_id:1 ~iteration:2
    ~rows:5 ~delta:1 ~wall_ms:0.25 ~counters:Trace.zero_counters ();
  let line = Trace.span_to_json (List.hd (Trace.spans tr)) in
  (match Trace.validate_event line with
  | Ok () -> ()
  | Error m -> Alcotest.failf "emitted span must validate: %s" m);
  List.iter
    (fun bad ->
      match Trace.validate_event bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "expected invalid: %s" bad)
    [
      "not json";
      "{\"seq\": 1}";
      (* unknown kind *)
      {|{"seq": 0, "kind": "nope", "label": "x", "loop": -1, "iter": 0, "rows": -1, "delta": -1, "cum_updates": -1, "wall_ms": 0.1, "scanned": 0, "joined": 0, "materialized": 0, "cache_hits": 0, "cache_misses": 0}|};
      (* non-integer counter *)
      {|{"seq": 0, "kind": "step", "label": "x", "loop": -1, "iter": 0, "rows": 1.5, "delta": -1, "cum_updates": -1, "wall_ms": 0.1, "scanned": 0, "joined": 0, "materialized": 0, "cache_hits": 0, "cache_misses": 0}|};
      (* OCaml [%S]-style decimal escape: legal OCaml, invalid JSON.
         The exporter once produced these; the validator must reject
         them so a regression cannot slip through. *)
      {|{"seq": 0, "kind": "step", "label": "x\027y", "loop": -1, "iter": 0, "rows": -1, "delta": -1, "cum_updates": -1, "wall_ms": 0.1, "scanned": 0, "joined": 0, "materialized": 0, "cache_hits": 0, "cache_misses": 0}|};
    ]

(** Labels with control bytes, quotes and backslashes must export as
    valid JSON — every string field goes through the JSON escaper, not
    OCaml's [%S] (which emits decimal escapes like [\027]). *)
let test_export_escapes_weird_labels () =
  let tr = Trace.create () in
  List.iter
    (fun label ->
      Trace.emit tr ~kind:Trace.Operator ~label ~wall_ms:0.1
        ~counters:Trace.zero_counters ())
    [ "quote\"backslash\\"; "ctrl\001\027byte"; "tab\tnl\ncr\r"; "" ];
  List.iter
    (fun s ->
      let line = Trace.span_to_json s in
      match Trace.validate_event line with
      | Ok () -> ()
      | Error m -> Alcotest.failf "span %S exports invalid JSON (%s): %s"
          s.Trace.label m line)
    (Trace.spans tr)

(* ------------------------------------------------------------------ *)
(* Engine-level timeline                                               *)

(** Converges to n = 3: deltas 1, 1, 1, then a confirming 0. *)
let converging_sql =
  "WITH ITERATIVE c (k, n) AS (SELECT 1, 0 ITERATE SELECT k, LEAST(n + 1, 3) \
   FROM c UNTIL DELTA = 0) SELECT n FROM c"

let iteration_deltas ?min_seq tr =
  List.map (fun (s : Trace.span) -> s.Trace.delta)
    (Trace.iteration_spans ?min_seq tr)

let test_engine_timeline () =
  let e = Engine.create () in
  let tr = Engine.enable_trace e in
  let min_seq = Trace.next_seq tr in
  let out = Engine.query e converging_sql in
  Alcotest.check relation_testable "converged result"
    (rel [ "n" ] [ [ vi 3 ] ])
    out;
  Alcotest.(check (list int))
    "per-iteration deltas" [ 1; 1; 1; 0 ]
    (iteration_deltas ~min_seq tr);
  List.iteri
    (fun i (s : Trace.span) ->
      Alcotest.(check int) "iterations are 1-based" (i + 1) s.Trace.iteration;
      Alcotest.(check int) "cardinality gauge" 1 s.Trace.rows;
      Alcotest.(check bool) "loop id recorded" true (s.Trace.loop_id >= 0))
    (Trace.iteration_spans ~min_seq tr);
  let timeline = Trace.render_timeline ~min_seq tr in
  Alcotest.(check bool) "timeline header" true
    (contains timeline "Convergence timeline");
  (* Every emitted NDJSON line passes schema validation. *)
  String.split_on_char '\n' (Trace.to_ndjson ~min_seq tr)
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Trace.validate_event line with
           | Ok () -> ()
           | Error m -> Alcotest.failf "invalid event %s: %s" line m);
  (* Uninstalling the collector stops emission. *)
  Engine.set_trace e None;
  let seq_before = Trace.next_seq tr in
  ignore (Engine.query e converging_sql);
  Alcotest.(check int) "no spans once disabled" seq_before (Trace.next_seq tr)

let test_explain_analyze_timeline () =
  let e = Engine.create () in
  match Engine.execute e ("EXPLAIN ANALYZE " ^ converging_sql) with
  | Engine.Explained text ->
    Alcotest.(check bool) "timeline rendered inline" true
      (contains text "Convergence timeline")
  | _ -> Alcotest.fail "expected Explained"

(* ------------------------------------------------------------------ *)
(* Cross-executor agreement                                            *)

let compile_standalone sql =
  Iterative_rewrite.compile ~options:Options.default
    ~lookup:(fun _ -> None)
    (Parser.parse_query sql)

let test_delta_agreement_across_executors () =
  let program = compile_standalone converging_sql in
  let run_seq ?trace () =
    let catalog = Catalog.create () in
    let stats = Stats.create () in
    let rel = Executor.run_program ~stats ?trace catalog program in
    (rel, stats)
  in
  let off_rel, off_stats = run_seq () in
  let tr_seq = Trace.create () in
  let on_rel, on_stats = run_seq ~trace:tr_seq () in
  Alcotest.(check bool) "traced result identical" true
    (Relation.equal_bag off_rel on_rel);
  Alcotest.(check bool) "tracing is non-perturbing" true
    (Stats.logical_equal off_stats on_stats);
  let tr_par = Trace.create () in
  let par_rel =
    let parallel = Parallel.context ~workers:2 () in
    Executor.run_program ?parallel ~trace:tr_par (Catalog.create ()) program
  in
  let tr_dist = Trace.create () in
  let dist_rel, _ =
    Distributed.run_program ~workers:3 ~trace:tr_dist (Catalog.create ())
      program
  in
  Alcotest.(check bool) "parallel result identical" true
    (Relation.equal_bag off_rel par_rel);
  Alcotest.(check bool) "distributed result identical" true
    (Relation.equal_bag off_rel dist_rel);
  Alcotest.(check (list int))
    "sequential deltas" [ 1; 1; 1; 0 ] (iteration_deltas tr_seq);
  Alcotest.(check (list int))
    "parallel timeline agrees" (iteration_deltas tr_seq)
    (iteration_deltas tr_par);
  Alcotest.(check (list int))
    "distributed timeline agrees" (iteration_deltas tr_seq)
    (iteration_deltas tr_dist);
  Alcotest.(check int) "span count matches executor iterations"
    on_stats.Stats.loop_iterations
    (List.length (Trace.iteration_spans tr_seq))

let test_trace_under_faults () =
  (* Tracing a faulty distributed run must not change recovery
     semantics: a retried iteration leaves no span of its failed
     attempt, so the recovered run's convergence timeline is the
     fault-free one. *)
  let program = compile_standalone converging_sql in
  let clean = Trace.create () in
  let expected =
    Executor.run_program ~trace:clean (Catalog.create ()) program
  in
  let tr = Trace.create () in
  let actual, rs =
    Distributed.run_program ~workers:2
      ~fault:(Fault.probabilistic ~max_faults:2 ~seed:5 ~probability:0.4 ())
      ~trace:tr (Catalog.create ()) program
  in
  Alcotest.(check bool) "recovered result = fault-free" true
    (Relation.equal_bag expected actual);
  Alcotest.(check bool) "faults were injected" true
    (rs.Distributed.faults_injected > 0);
  Alcotest.(check int) "every fault was retried" rs.Distributed.faults_injected
    rs.Distributed.retries;
  Alcotest.(check (list int))
    "recovered timeline = fault-free timeline" (iteration_deltas clean)
    (iteration_deltas tr);
  String.split_on_char '\n' (Trace.to_ndjson tr)
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Trace.validate_event line with
           | Ok () -> ()
           | Error m -> Alcotest.failf "invalid event %s: %s" line m)

let test_trace_parity () =
  (* Both executors run the same interpreter, so their Step and
     Iteration spans agree gauge for gauge: a single-node span the
     distributed run reports differently is a divergence. *)
  let timeline tr =
    List.filter_map
      (fun (s : Trace.span) ->
        match s.Trace.kind with
        | Trace.Step | Trace.Iteration ->
          Some
            (Printf.sprintf "%s %s rows=%d delta=%d iteration=%d"
               (Trace.kind_to_string s.Trace.kind)
               s.Trace.label s.Trace.rows s.Trace.delta s.Trace.iteration)
        | _ -> None)
      (Trace.spans tr)
  in
  let check name e sql =
    let catalog = Engine.catalog e in
    let program =
      Iterative_rewrite.compile
        ~lookup:(fun n ->
          Option.map Table.schema (Catalog.find_table_opt catalog n))
        (Parser.parse_query sql)
    in
    let tr_seq = Trace.create () in
    Catalog.clear_temps catalog;
    ignore (Executor.run_program ~trace:tr_seq catalog program);
    let tr_dist = Trace.create () in
    Catalog.clear_temps catalog;
    ignore (Distributed.run_program ~workers:3 ~trace:tr_dist catalog program);
    Alcotest.(check bool) (name ^ ": has iterations") true
      (Trace.iteration_spans tr_seq <> []);
    Alcotest.(check (list string)) name (timeline tr_seq) (timeline tr_dist)
  in
  check "sssp"
    (Loader.engine_for
       (Graph_gen.chain_with_shortcuts ~seed:7 ~num_nodes:60 ~shortcut_every:10))
    (Queries.sssp ~source:0 ~iterations:8 ());
  check "ff"
    (Loader.engine_for
       (Graph_gen.power_law ~seed:11 ~num_nodes:60 ~edges_per_node:3))
    (Queries.ff_full ~modulus:3 ~iterations:6 ());
  (* SSSP and FF run as delta loops; the [k + 0] key keeps this one a
     plain Materialize, so full re-evaluation spans are compared too. *)
  check "kv full re-evaluation"
    (kv_engine [ (1, 5); (2, 3); (3, 9); (4, 0); (5, -2) ])
    (kv_sql ~key_expr:"k + 0" ~where:"v < 10" ~step_expr:"v + k"
       ~until:"5 ITERATIONS" ())

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring-buffer" `Quick test_ring_buffer;
          Alcotest.test_case "iteration-filter" `Quick
            test_iteration_spans_filter;
        ] );
      ( "json",
        [
          Alcotest.test_case "parser" `Quick test_json_parser;
          Alcotest.test_case "bench-record-arrays" `Quick
            test_bench_record_arrays;
        ] );
      ( "ndjson",
        [
          Alcotest.test_case "validate" `Quick test_validate_event;
          Alcotest.test_case "weird-labels" `Quick
            test_export_escapes_weird_labels;
        ] );
      ( "engine",
        [
          Alcotest.test_case "timeline" `Quick test_engine_timeline;
          Alcotest.test_case "explain-analyze" `Quick
            test_explain_analyze_timeline;
        ] );
      ( "executors",
        [
          Alcotest.test_case "delta-agreement" `Quick
            test_delta_agreement_across_executors;
          Alcotest.test_case "faults" `Quick test_trace_under_faults;
          Alcotest.test_case "trace-parity" `Quick test_trace_parity;
        ] );
    ]
