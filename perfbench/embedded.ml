(* The embedded workloads: one [Engine] session in this process, driven
   in a closed loop. The untraced path calls [Engine.query]; the traced
   path makes the same four calls Engine makes (parse, compile, run,
   clear temps) itself and records a span around each. *)

open Common
module Engine = Dbspinner.Engine
module Relation = Dbspinner_storage.Relation
module Value = Dbspinner_storage.Value
module Catalog = Dbspinner_storage.Catalog
module Table = Dbspinner_storage.Table
module Stats = Dbspinner_exec.Stats
module Executor = Dbspinner_exec.Executor
module Guards = Dbspinner_exec.Guards
module Parallel = Dbspinner_exec.Parallel
module Trace = Dbspinner_obs.Trace
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Rule = Dbspinner_rewrite.Rule
module Cost = Dbspinner_plan.Cost
module Parser = Dbspinner_sql.Parser
module Graph_gen = Dbspinner_graph.Graph_gen
module Rng = Dbspinner_graph.Rng
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader

let iterations = 25

type family = {
  name : string;
  metric : string option;  (** its per-query median, when it has one *)
  sql : string;
  check : Relation.t -> (unit, string) result;
}

type spec = {
  wname : string;
  why : string;
  graph : seed:int -> Graph_gen.t;
  vertex_status : bool;
  families : seed:int -> Graph_gen.t -> family list;
  sizes : Graph_gen.t -> string;
}

(* ------------------------------------------------------------------ *)
(* Oracle checks                                                       *)

let node_count (g : Graph_gen.t) =
  let seen = Array.make (Graph_gen.num_nodes g) false in
  Array.iter
    (fun (e : Graph_gen.edge) ->
      seen.(e.src) <- true;
      seen.(e.dst) <- true)
    (Graph_gen.edges g);
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen

exception Mismatch of string

(* Every node of the graph once, each listed column close to its
   reference value. *)
let check_per_node ~rows ~columns rel =
  if Relation.cardinality rel <> rows then
    mismatch "%d rows, expected %d" (Relation.cardinality rel) rows
  else
    try
      Relation.iter
        (fun row ->
          let node = Value.to_int row.(0) in
          List.iter
            (fun (idx, label, reference) ->
              let got = Value.to_float row.(idx) and want = reference node in
              if not (close got want) then
                raise
                  (Mismatch
                     (Printf.sprintf "node %d %s %.9g, expected %.9g" node label
                        got want)))
            columns)
        rel;
      Ok ()
    with Mismatch m -> Error m

(* The FF top-N, in order. *)
let check_top ~(expected : Ref_forecast.entry list) rel =
  let got =
    Array.to_list (Relation.rows rel)
    |> List.map (fun r -> (Value.to_int r.(0), Value.to_float r.(1)))
  in
  if List.length got <> List.length expected then
    mismatch "%d rows, expected %d" (List.length got) (List.length expected)
  else
    List.fold_left2
      (fun acc (node, friends) (e : Ref_forecast.entry) ->
        match acc with
        | Error _ -> acc
        | Ok () when node <> e.node || not (close friends e.friends) ->
          mismatch "(%d, %.9g) where (%d, %.9g) was expected" node friends
            e.node e.friends
        | Ok () -> Ok ())
      (Ok ()) got expected

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

let paper_iterative =
  {
    wname = "paper-iterative";
    why =
      "the paper's four queries on its pokec-like graph: executor operators \
       take nearly all the time, so operator, kernel and executor-cache \
       changes show here";
    graph =
      (fun ~seed ->
        Graph_gen.power_law ~seed ~num_nodes:6_000 ~edges_per_node:19);
    vertex_status = true;
    families =
      (fun ~seed g ->
        let active = Graph_gen.vertex_status_array ~seed g in
        let rows = node_count g in
        let source = Rng.int (Rng.create seed) (Graph_gen.num_nodes g / 20) in
        let pr = Ref_pagerank.run g ~iterations in
        let pr_vs = Ref_pagerank.run_vs g ~active ~iterations in
        let sssp_vs = Ref_sssp.run ~active g ~source ~iterations in
        let ff =
          Ref_forecast.final ~modulus:2 (Ref_forecast.run g ~iterations)
        in
        [
          {
            name = "PR";
            metric = Some "pr_p50_ms";
            sql = Queries.pr ~iterations ();
            check =
              check_per_node ~rows
                ~columns:[ (1, "rank", fun n -> pr.Ref_pagerank.rank.(n)) ];
          };
          {
            name = "PR-VS";
            metric = Some "pr_vs_p50_ms";
            sql = Queries.pr_vs ~iterations ();
            check =
              check_per_node ~rows
                ~columns:[ (1, "rank", fun n -> pr_vs.Ref_pagerank.rank.(n)) ];
          };
          {
            name = Printf.sprintf "SSSP-VS(source %d)" source;
            metric = Some "sssp_vs_p50_ms";
            sql = Queries.sssp_vs ~source ~iterations ();
            check =
              check_per_node ~rows
                ~columns:
                  [
                    (1, "distance", fun n -> sssp_vs.Ref_sssp.distance.(n));
                    (2, "delta", fun n -> sssp_vs.Ref_sssp.delta.(n));
                  ];
          };
          {
            name = "FF(mod 2)";
            metric = Some "ff_p50_ms";
            sql = Queries.ff ~modulus:2 ~iterations ();
            check = check_top ~expected:ff;
          };
        ]);
    sizes =
      (fun g ->
        Printf.sprintf
          "pokec-like power-law graph: %d nodes, %d edges, 10%% of nodes \
           inactive; %d iterations per query; mix: one round = PR, PR-VS, \
           SSSP-VS, FF (50%% selectivity, top 10); 1 session, closed loop"
          (Graph_gen.num_nodes g) (Graph_gen.num_edges g) iterations);
  }

let frontier_sssp =
  let core = 4_000 in
  {
    wname = "frontier-sssp";
    why =
      "SSSP on a chain with a large unreachable fan-in keeps the frontier \
       narrow, so the semi-naive delta path (restricted passes, diff, \
       stitch) does most of the work";
    graph =
      (fun ~seed ->
        Graph_gen.chain_with_fanin ~seed ~num_nodes:core ~shortcut_every:10
          ~upstream:(core / 10) ~fanout:220);
    vertex_status = false;
    families =
      (fun ~seed:_ g ->
        let rows = node_count g in
        let st = Ref_sssp.run g ~source:0 ~iterations in
        [
          {
            name = "SSSP(source 0)";
            metric = None;
            sql = Queries.sssp ~source:0 ~iterations ();
            check =
              check_per_node ~rows
                ~columns:
                  [
                    (1, "distance", fun n -> st.Ref_sssp.distance.(n));
                    (2, "delta", fun n -> st.Ref_sssp.delta.(n));
                  ];
          };
        ]);
    sizes =
      (fun g ->
        Printf.sprintf
          "chain with shortcuts: %d core nodes, shortcut every 10, %d upstream \
           nodes with fanout 220 (%d nodes, %d edges); %d iterations; mix: \
           SSSP from the chain head only; 1 session, closed loop"
          core (core / 10) (Graph_gen.num_nodes g) (Graph_gen.num_edges g)
          iterations);
  }

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

let setup_reps = 9

(* Generate and load [setup_reps] times, each beside a calibration
   run; the last engine is kept. Set-up time is reported at reference
   speed, its parts as measured. *)
let setup spec ~seed =
  let once () =
    let g, gen_s = cpu_time (fun () -> spec.graph ~seed) in
    let engine, load_s =
      cpu_time (fun () ->
          let engine = Engine.create () in
          Loader.load_graph ~with_vertex_status:spec.vertex_status
            ~status_seed:seed engine g;
          engine)
    in
    (g, engine, gen_s, load_s)
  in
  (* Collecting first frees the previous repetition's engine. *)
  let rec reps k times probes =
    Gc.full_major ();
    let probes = calibrate () :: probes in
    Gc.full_major ();
    let g, engine, gen_s, load_s = once () in
    let times = (gen_s, load_s) :: times in
    if k > 1 then reps (k - 1) times probes else (g, engine, times, probes)
  in
  let g, engine, times, probes = reps setup_reps [] [] in
  let med f = Util.median (List.map f times) in
  let setup_s = speed_scale probes *. med (fun (a, b) -> a +. b) in
  (g, engine, setup_s, med fst, med snd)

(* ------------------------------------------------------------------ *)
(* Measured phases                                                     *)

type tally = {
  lat : float list array;  (** CPU seconds, per family *)
  wall : float list array;  (** wall seconds, per family *)
  iters : int array;  (** loop iterations of one statement, per family *)
  mutable probes : float list;  (** CPU seconds of {!Common.calibrate} *)
  mutable attempted : int;
  mutable failed : int;
}

let tally n =
  { lat = Array.make n []; wall = Array.make n []; iters = Array.make n 0; probes = []; attempted = 0; failed = 0 }

let record_answer t (f : family) outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    say "  WRONG %s: %s" f.name msg

(* Whole rounds of the mix until [until]; at least one round. *)
let rounds families ~until f =
  let rec go () =
    List.iteri f families;
    if now () < until then go ()
  in
  go ()

(* Each statement starts from a collected heap, so the garbage one
   statement leaves is not billed to the next; this takes most of the
   run-to-run spread out of the per-statement times. *)
let untraced engine families ~until ~first =
  let t = tally (List.length families) in
  rounds families ~until (fun i fam ->
      let before = (Engine.session_stats engine).Stats.loop_iterations in
      Gc.full_major ();
      t.probes <- calibrate () :: t.probes;
      Gc.full_major ();
      let t0 = now () in
      match cpu_time (fun () -> Engine.query engine fam.sql) with
      | rel, cpu ->
        t.lat.(i) <- cpu :: t.lat.(i);
        t.wall.(i) <- (now () -. t0) :: t.wall.(i);
        t.iters.(i) <- (Engine.session_stats engine).Stats.loop_iterations - before;
        if first.(i) = None then first.(i) <- Some rel;
        record_answer t fam (fam.check rel)
      | exception e -> record_answer t fam (mismatch "%s" (Printexc.to_string e)));
  t

(* One statement through the calls [Engine.query] makes, each in its
   own span. View expansion and scalar-subquery pre-evaluation are
   skipped: the workload queries have neither. *)
let traced_compile r ~parent ~stmt engine sql =
  let catalog = Engine.catalog engine in
  let lookup name =
    match Catalog.find_temp_opt catalog name with
    | Some rel -> Some (Relation.schema rel)
    | None -> Option.map Table.schema (Catalog.find_table_opt catalog name)
  in
  let statistics =
    {
      Cost.cardinality_of =
        (fun name ->
          match Catalog.find_table_opt catalog name with
          | Some tbl -> Some (Table.cardinality tbl)
          | None -> Option.map Relation.cardinality (Catalog.find_temp_opt catalog name));
    }
  in
  let q = Util.with_span r ~parent ~stmt "sql.parse" (fun _ -> Parser.parse_query sql) in
  Util.with_span r ~parent ~stmt "rewrite.compile" (fun _ ->
      Iterative_rewrite.compile_with_report ~options:(Engine.options engine)
        ~statistics ~lookup q)

let traced_statement r ~stmt engine sql =
  let catalog = Engine.catalog engine in
  let options = Engine.options engine in
  Util.with_span r ~stmt "statement" (fun parent ->
      let program, report = traced_compile r ~parent ~stmt engine sql in
      let stats = Stats.create () in
      let tr = Trace.create ~capacity:65_536 () in
      let rel =
        Util.with_span r ~parent ~stmt "exec.run" (fun _ ->
            try
              Executor.run_program
                ?parallel:
                  (Parallel.context ~chunk_rows:options.Options.parallel_chunk_rows
                     ~workers:options.Options.parallel_workers ())
                ~stats
                ~guards:
                  (Guards.make ?deadline_seconds:options.Options.deadline_seconds
                     ?timeout_seconds:options.Options.statement_timeout_seconds
                     ?row_budget:options.Options.row_budget ())
                ~use_cache:options.Options.use_exec_cache
                ~columnar:options.Options.use_columnar ~trace:tr catalog program
            with e ->
              Catalog.clear_temps catalog;
              raise e)
      in
      Util.with_span r ~parent ~stmt "storage.clear_temps" (fun _ ->
          Catalog.clear_temps catalog);
      (rel, report, stats, tr))

type traced_stmt = {
  stmt : int;
  family : int;
  report : Iterative_rewrite.report;
  stats : Stats.t;
  iteration_ms : float list;
}

(* Traced statements in order; statement ids count failed ones too, so
   they match the span file. *)
let traced r engine families ~until ~first =
  let t = tally (List.length families) in
  let stmts = ref [] in
  rounds families ~until (fun i fam ->
      let stmt = t.attempted in
      Gc.full_major ();
      match traced_statement r ~stmt engine fam.sql with
      | rel, report, stats, tr ->
        let iteration_ms =
          List.map (fun (s : Trace.span) -> s.Trace.wall_ms) (Trace.iteration_spans tr)
        in
        stmts := { stmt; family = i; report; stats; iteration_ms } :: !stmts;
        let same =
          match first.(i) with
          | Some untraced when not (Relation.equal_bag untraced rel) ->
            mismatch "the traced path returned another relation"
          | _ -> Ok ()
        in
        record_answer t fam (Result.bind same (fun () -> fam.check rel))
      | exception e -> record_answer t fam (mismatch "%s" (Printexc.to_string e)));
  (t, List.rev !stmts)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

(* Cost-guard decisions leave one note each, kept or rejected. *)
let cost_guard_trials (rep : Iterative_rewrite.report) =
  let needle = "by cost guard" in
  let has note =
    let k = String.length needle in
    let rec at i =
      i + k <= String.length note && (String.sub note i k = needle || at (i + 1))
    in
    at 0
  in
  List.fold_left
    (fun acc (e : Rule.entry) -> acc + List.length (List.filter has e.Rule.notes))
    0
    (Rule.entries rep.Iterative_rewrite.rewrite_log)

(* The rewrite counts of one compile of each family, summed. *)
let rewrite_values reports =
  let total f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports) in
  [
    ( "rewrite.rules_fired",
      total (fun r -> Rule.total_fired r.Iterative_rewrite.rewrite_log) );
    ("rewrite.cost_guard_trials", total cost_guard_trials);
    ("rewrite.delta_paths", total (fun r -> r.Iterative_rewrite.delta_paths));
  ]

let family_medians families t =
  List.mapi
    (fun i f ->
      match t.lat.(i) with
      | [] -> broken "no %s statement succeeded" f.name
      | lat -> Util.median lat)
    families

(* The traced phase's per-layer values, from the spans read back from
   the file they were written to. *)
let layer_values ~spans_path r (u : tally) (t : tally) stmts =
  let oc = open_out spans_path in
  List.iter (fun s -> output_string oc (Util.span_to_json s ^ "\n")) (Util.spans r);
  close_out oc;
  let spans =
    match Util.spans_of_ndjson (In_channel.with_open_text spans_path In_channel.input_all) with
    | Ok spans -> spans
    | Error e -> broken "span file %s: %s" spans_path e
  in
  let ok_stmt = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ok_stmt s.stmt s.family) stmts;
  let durations name =
    List.filter_map
      (fun (s : Util.span) ->
        if s.name = name && Hashtbl.mem ok_stmt s.stmt then Some (Util.duration s)
        else None)
      spans
  in
  let n = float_of_int (max 1 (List.length stmts)) in
  let parse = durations "sql.parse"
  and compile = durations "rewrite.compile"
  and run = durations "exec.run" in
  (* Traced over untraced median statement time, per family. *)
  let slowdowns =
    List.filter_map
      (fun i ->
        match
          List.filter_map
            (fun (s : Util.span) ->
              if s.name = "statement" && Hashtbl.find_opt ok_stmt s.stmt = Some i
              then Some (Util.duration s)
              else None)
            spans
        with
        | [] -> None
        | traced -> Some (Util.median traced /. Util.median u.wall.(i)))
      (List.init (Array.length u.lat) Fun.id)
  in
  let overhead = if slowdowns = [] then 0.0 else Util.geomean slowdowns -. 1.0 in
  let untraced_mean = mean (List.concat (Array.to_list u.wall)) in
  let firsts =
    List.filter_map
      (fun i -> List.find_opt (fun s -> s.family = i) stmts)
      (List.init (Array.length t.lat) Fun.id)
  in
  let count f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 firsts) in
  let stat f = count (fun s -> f s.stats) in
  let op_wall i = sum (List.map (fun s -> s.stats.Stats.op_wall.(i)) stmts) in
  let all_op = sum (List.map (fun op -> op_wall (Stats.op_index op)) Stats.all_ops) in
  let delta_firsts = List.filter (fun s -> s.report.Iterative_rewrite.delta_paths > 0) firsts in
  let delta_iters =
    float_of_int (List.fold_left (fun a s -> a + s.stats.Stats.loop_iterations) 0 delta_firsts)
  in
  let delta_full =
    float_of_int (List.fold_left (fun a s -> a + s.stats.Stats.full_reevals) 0 delta_firsts)
  in
  let cache = Util.ratio (stat (fun s -> s.Stats.cache_hits))
      (stat (fun s -> s.Stats.cache_hits + s.Stats.cache_misses)) in
  let restricted = Util.ratio (delta_iters -. delta_full) delta_iters in
  say "  traced: %d statements; exec cache hit ratio %s; delta restricted ratio %s"
    (List.length stmts) (Util.ratio_to_string cache) (Util.ratio_to_string restricted);
  say "  spans written to %s" spans_path;
  [
    ("sql.parse_ms", 1000.0 *. mean parse);
    ("rewrite.compile_ms", 1000.0 *. mean compile);
  ]
  @ rewrite_values (List.map (fun s -> s.report) firsts)
  @ [
    ("exec.run_ms", 1000.0 *. mean run);
    ("exec.iteration_ms", mean (List.concat_map (fun s -> s.iteration_ms) stmts));
  ]
  @ List.map
      (fun op ->
        ( "exec.op." ^ Stats.op_name op ^ "_s",
          op_wall (Stats.op_index op) /. n ))
      Stats.all_ops
  @ [
      ("exec.other_s", (sum run -. all_op) /. n);
      ("exec.rows_scanned", stat (fun s -> s.Stats.rows_scanned));
      ("exec.rows_joined", stat (fun s -> s.Stats.rows_joined));
      ("exec.join_probes", stat (fun s -> s.Stats.join_probes));
      ("exec.rows_aggregated", stat (fun s -> s.Stats.rows_aggregated));
      ("exec.rows_materialized", stat (fun s -> s.Stats.rows_materialized));
      ("exec.materializations", stat (fun s -> s.Stats.materializations));
      ("exec.renames", stat (fun s -> s.Stats.renames));
      ("exec.cache_hit_ratio", Util.ratio_value cache);
      ("exec.cache_hits", cache.Util.num);
      ("exec.cache_misses", cache.Util.den -. cache.Util.num);
      ("exec.delta_rows_evaluated", stat (fun s -> s.Stats.delta_rows_evaluated));
      ("exec.full_reevals", stat (fun s -> s.Stats.full_reevals));
      ("exec.delta_loop_iterations", delta_iters);
      ("exec.delta_restricted_ratio", Util.ratio_value restricted);
      ("obs.trace_overhead_frac", overhead);
      ("obs.accounted_frac", (mean parse +. mean compile +. mean run) /. untraced_mean);
    ]

let run spec (args : args) : report =
  say "  set-up: %d times, median reported" setup_reps;
  let g, engine, setup_s, gen_s, load_s = setup spec ~seed:args.seed in
  say "  sizes: %s" (spec.sizes g);
  let families = spec.families ~seed:args.seed g in
  let first = Array.make (List.length families) None in
  (* One unmeasured round fills lazy state; its answers count. *)
  let warm = untraced engine families ~until:0.0 ~first in
  let phase = if args.trace then args.seconds /. 2.0 else args.seconds in
  let jiffies = cpu_jiffies () in
  let u = untraced engine families ~until:(now () +. phase) ~first in
  ignore (stolen_share jiffies);
  List.iteri (fun i f -> describe_ms f.name u.lat.(i)) families;
  let scale = speed_scale u.probes in
  let medians = List.map (( *. ) scale) (family_medians families u) in
  let round_s = sum medians in
  let tails = List.map (fun lat -> scale *. tail_ms lat) (Array.to_list u.lat) in
  (* Throughput of one round of the mix at the median statement
     times. *)
  let values =
    [
      ("setup_s", setup_s);
      ("iter_per_s", float_of_int (Array.fold_left ( + ) 0 u.iters) /. round_s);
      ("stmt_per_s", float_of_int (List.length families) /. round_s);
      ("query_p50_ms", 1000.0 *. Util.geomean medians);
      ("graph.generate_s", gen_s);
      ("storage.load_s", load_s);
      ("query_p99_ms", if List.mem 0.0 tails then 0.0 else Util.geomean tails);
    ]
    @ List.concat
        (List.mapi
           (fun i f ->
             match f.metric with
             | Some m -> [ (m, 1000.0 *. List.nth medians i) ]
             | None -> [])
           families)
  in
  let layer, t =
    if not args.trace then ([], tally 0)
    else
      let r = Util.recorder () in
      let t, stmts = traced r engine families ~until:(now () +. phase) ~first in
      let spans_path =
        scratch_path (Printf.sprintf "spans-%s-seed%d.ndjson" spec.wname args.seed)
      in
      (layer_values ~spans_path r u t stmts, t)
  in
  let attempted = warm.attempted + u.attempted + t.attempted in
  let failed = warm.failed + u.failed + t.failed in
  {
    attempted;
    failed;
    values = values @ layer @ [ ("peak_rss_mb", peak_rss_mb None) ];
  }
