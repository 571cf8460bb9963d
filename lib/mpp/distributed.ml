(** A simulated shared-nothing executor: every relation lives as
    [workers] partitions; equi-joins and grouped aggregations
    repartition their inputs by key and run per-partition; order-
    sensitive operators gather. The number of rows that cross workers
    is recorded — the "data shuffle decisions" of the paper's host
    engine — so plans can be compared for exchange volume.

    The observable contract, checked by tests: for every plan,
    distributed execution returns the same bag of rows as the
    single-node {!Dbspinner_exec.Executor} — including under injected
    transient faults, which {!run_program} survives via
    iteration-granular checkpoints, bounded retries and, as a last
    resort, falling back to single-node execution. *)

module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Logical = Dbspinner_plan.Logical
module Bound_expr = Dbspinner_plan.Bound_expr
module Operators = Dbspinner_exec.Operators
module Cache = Dbspinner_exec.Cache
module Stats = Dbspinner_exec.Stats
module Guards = Dbspinner_exec.Guards
module Parallel = Dbspinner_exec.Parallel
module Executor = Dbspinner_exec.Executor

type run_stats = {
  mutable rows_shuffled : int;  (** rows that moved between workers *)
  mutable exchanges : int;  (** number of exchange operations *)
  mutable faults_injected : int;  (** transient faults caught *)
  mutable retries : int;  (** restarts from a checkpoint after a fault *)
  mutable checkpoints_taken : int;  (** loop checkpoints taken *)
  mutable recoveries : int;  (** restarts from a loop checkpoint *)
  mutable fallbacks : int;  (** degradations to single-node execution *)
  mutable backoff_steps : int;
      (** cumulative deterministic backoff units accrued across retries
          (simulated, not slept) *)
}

let zero_stats () =
  {
    rows_shuffled = 0;
    exchanges = 0;
    faults_injected = 0;
    retries = 0;
    checkpoints_taken = 0;
    recoveries = 0;
    fallbacks = 0;
    backoff_steps = 0;
  }

type dist_rel = {
  parts : Relation.t array;
}

let gather (d : dist_rel) = Partition.merge d.parts

(** Repartition by a key function, counting rows whose worker changes. *)
let repartition ~workers ~(shuffles : run_stats) ~fault ~key (d : dist_rel)
    : dist_rel =
  Fault.tick fault ~site:Fault.Repartition;
  shuffles.exchanges <- shuffles.exchanges + 1;
  let buckets = Array.make workers [] in
  Array.iteri
    (fun current part ->
      Relation.iter
        (fun row ->
          let target = Partition.worker_of_key ~workers (key row) in
          if target <> current then
            shuffles.rows_shuffled <- shuffles.rows_shuffled + 1;
          buckets.(target) <- row :: buckets.(target))
        part)
    d.parts;
  let schema = Relation.schema d.parts.(0) in
  {
    parts =
      Array.map
        (fun rows -> Relation.make schema (Array.of_list (List.rev rows)))
        buckets;
  }

let gather_to_one ~workers ~(shuffles : run_stats) ~fault (d : dist_rel) :
    dist_rel =
  Fault.tick fault ~site:Fault.Gather;
  shuffles.exchanges <- shuffles.exchanges + 1;
  Array.iteri
    (fun current part ->
      if current <> 0 then
        shuffles.rows_shuffled <-
          shuffles.rows_shuffled + Relation.cardinality part)
    d.parts;
  let merged = Partition.merge d.parts in
  let empty = Relation.empty (Relation.schema merged) in
  { parts = Array.init workers (fun i -> if i = 0 then merged else empty) }

(** Run [f] on every partition concurrently across the Domain pool.
    [Fault.tick] runs once, coordinator-side, before dispatch (the
    shared seeded RNG is not domain-safe); an exception raised inside a
    domain is re-raised here at the barrier, so checkpoint/retry above
    observes it exactly as in sequential execution. Each partition gets
    a private [Stats.t] merged into [stats] in partition order, keeping
    counters deterministic. *)
let per_partition ~pool ~fault ~(stats : Stats.t)
    (f : Stats.t -> Relation.t -> Relation.t) (d : dist_rel) : dist_rel =
  Fault.tick fault ~site:Fault.Operator;
  {
    parts =
      Parallel.run_indexed pool ~stats (Array.length d.parts) (fun st i ->
          f st d.parts.(i));
  }

(* Precompile the key expressions once per repartition (the closures
   come from the per-run cache when one is given), instead of
   re-interpreting each expression tree per row. *)
let key_fn ?cache ~stats exprs =
  let fs =
    Array.map (fun e -> Operators.compiled_val ?cache ~stats e) exprs
  in
  fun row -> Array.map (fun f -> f row) fs

(* ------------------------------------------------------------------ *)
(* Aggregation with local pre-aggregation                              *)

(** An aggregate list is decomposable when every partial result can be
    combined by another aggregate: COUNT combines by SUM, SUM/MIN/MAX
    by themselves. AVG and DISTINCT aggregates are not (AVG would need
    a sum/count pair; DISTINCT needs the raw values). *)
let decomposable (aggs : Logical.agg list) =
  List.for_all
    (fun (a : Logical.agg) ->
      (not a.agg_distinct)
      &&
      match a.agg_kind with
      | Dbspinner_sql.Ast.Count | Dbspinner_sql.Ast.Count_star
      | Dbspinner_sql.Ast.Sum | Dbspinner_sql.Ast.Min | Dbspinner_sql.Ast.Max ->
        true
      | Dbspinner_sql.Ast.Avg -> false)
    aggs

(** The combiner aggregates applied to partial rows
    [key_0..key_{n-1}, partial_0..]. *)
let combiner_aggs ~nkeys (aggs : Logical.agg list) : Logical.agg list =
  List.mapi
    (fun i (a : Logical.agg) ->
      let kind =
        match a.agg_kind with
        | Dbspinner_sql.Ast.Count | Dbspinner_sql.Ast.Count_star
        | Dbspinner_sql.Ast.Sum ->
          Dbspinner_sql.Ast.Sum
        | Dbspinner_sql.Ast.Min -> Dbspinner_sql.Ast.Min
        | Dbspinner_sql.Ast.Max -> Dbspinner_sql.Ast.Max
        | Dbspinner_sql.Ast.Avg -> assert false
      in
      {
        Logical.agg_kind = kind;
        agg_distinct = false;
        agg_arg = Bound_expr.B_col (nkeys + i);
      })
    aggs

(** Distributed grouped aggregation. Decomposable aggregates are
    pre-aggregated locally so only one partial row per (worker, group)
    crosses the network — the standard MPP shuffle-volume
    optimization. *)
let run_aggregate ?cache ?guards ?(columnar = true) ~pool ~workers ~shuffles
    ~fault ~stats ~keys ~aggs ~agg_schema (d : dist_rel) : dist_rel =
  let nkeys = List.length keys in
  if decomposable aggs then begin
    let partial =
      per_partition ~pool ~fault ~stats
        (fun st part ->
          Operators.aggregate ?cache ?guards ~columnar ~stats:st ~keys ~aggs
            part agg_schema)
        d
    in
    let final_keys = List.init nkeys (fun i -> Bound_expr.B_col i) in
    let final_aggs = combiner_aggs ~nkeys aggs in
    let combine st part =
      Operators.aggregate ?cache ?guards ~columnar ~stats:st ~keys:final_keys
        ~aggs:final_aggs part agg_schema
    in
    if nkeys = 0 then begin
      (* One partial row per worker; combine on worker 0. *)
      let g = gather_to_one ~workers ~shuffles ~fault partial in
      {
        parts =
          Array.init workers (fun i ->
              if i = 0 then combine stats g.parts.(0)
              else Relation.empty agg_schema);
      }
    end
    else begin
      let partial =
        repartition ~workers ~shuffles ~fault
          ~key:(fun (row : Row.t) -> Array.sub row 0 nkeys)
          partial
      in
      per_partition ~pool ~fault ~stats combine partial
    end
  end
  else if nkeys = 0 then begin
    (* Non-decomposable global aggregate: gather raw rows. *)
    let g = gather_to_one ~workers ~shuffles ~fault d in
    {
      parts =
        Array.init workers (fun i ->
            if i = 0 then
              Operators.aggregate ?cache ?guards ~columnar ~stats ~keys ~aggs
                g.parts.(0) agg_schema
            else Relation.empty agg_schema);
    }
  end
  else begin
    let key_exprs = Array.of_list keys in
    let d =
      repartition ~workers ~shuffles ~fault
        ~key:(key_fn ?cache ~stats key_exprs)
        d
    in
    per_partition ~pool ~fault ~stats
      (fun st part ->
        Operators.aggregate ?cache ?guards ~columnar ~stats:st ~keys ~aggs
          part agg_schema)
      d
  end

let rec run ?temps ?cache ?guards ?(columnar = true) ~pool ~workers ~shuffles
    ~fault ~(stats : Stats.t) (catalog : Catalog.t) (plan : Logical.t) :
    dist_rel =
  let run = run ?temps ?cache ?guards ~columnar ~pool ~fault in
  (* Per-partition operator work fans out across the Domain pool;
     exchanges (repartition/gather) and fault ticks stay on the
     coordinator. *)
  let on_partitions n f = Parallel.run_indexed pool ~stats n f in
  let per_partition f d = per_partition ~pool ~fault ~stats f d in
  let repartition ~workers ~shuffles ~key d =
    repartition ~workers ~shuffles ~fault ~key d
  in
  let gather_to_one ~workers ~shuffles d =
    gather_to_one ~workers ~shuffles ~fault d
  in
  match plan with
  | Logical.L_scan { name; _ }
    when Option.is_some
           (Option.bind temps (fun t ->
                Hashtbl.find_opt t (String.lowercase_ascii name))) ->
    (* A temp materialized by this program: reuse its partitions as
       they sit on the workers — no exchange. *)
    Option.get
      (Option.bind temps (fun t ->
           Hashtbl.find_opt t (String.lowercase_ascii name)))
  | Logical.L_scan _ | Logical.L_values _ ->
    let rel =
      Executor.run_plan ?cache ?guards ~columnar ~stats catalog plan
    in
    { parts = Partition.round_robin ~workers rel }
  | Logical.L_filter { pred; input } ->
    per_partition
      (fun st part ->
        Operators.filter ?cache ?guards ~columnar ~stats:st pred part)
      (run ~workers ~shuffles ~stats catalog input)
  | Logical.L_project { exprs; input } ->
    per_partition
      (fun st part ->
        Operators.project ?cache ?guards ~columnar ~stats:st exprs part)
      (run ~workers ~shuffles ~stats catalog input)
  | Logical.L_join { kind; cond; left; right; join_schema } -> (
    let dl = run ~workers ~shuffles ~stats catalog left in
    let dr = run ~workers ~shuffles ~stats catalog right in
    let left_arity = Schema.arity (Logical.schema left) in
    let equi =
      match cond with
      | None -> []
      | Some c -> fst (Operators.split_equi_condition ~left_arity c)
    in
    match equi with
    | [] ->
      (* No hashable key: gather both sides and join on one worker. *)
      let dl = gather_to_one ~workers ~shuffles dl in
      let dr = gather_to_one ~workers ~shuffles dr in
      {
        parts =
          Array.init workers (fun i ->
              if i = 0 then
                Operators.join ?cache ?guards ~columnar ~stats kind cond
                  dl.parts.(0) dr.parts.(0) join_schema
              else Relation.empty join_schema);
      }
    | keys ->
      let lkeys = Array.of_list (List.map fst keys) in
      let rkeys = Array.of_list (List.map snd keys) in
      let dl =
        repartition ~workers ~shuffles ~key:(key_fn ?cache ~stats lkeys) dl
      in
      let dr =
        repartition ~workers ~shuffles ~key:(key_fn ?cache ~stats rkeys) dr
      in
      (* NULL-keyed rows of outer sides land on worker 0 on both sides,
         so outer padding stays correct per partition. *)
      {
        parts =
          on_partitions workers (fun st i ->
              Operators.join ?cache ?guards ~columnar ~stats:st kind cond
                dl.parts.(i) dr.parts.(i) join_schema);
      })
  | Logical.L_aggregate { keys; aggs; input; agg_schema } ->
    let d = run ~workers ~shuffles ~stats catalog input in
    run_aggregate ?cache ?guards ~columnar ~pool ~workers ~shuffles ~fault
      ~stats ~keys ~aggs ~agg_schema d
  | Logical.L_distinct input ->
    let d = run ~workers ~shuffles ~stats catalog input in
    let d = repartition ~workers ~shuffles ~key:(fun row -> row) d in
    per_partition (fun st part -> Operators.distinct ~stats:st part) d
  | Logical.L_sort { keys; input } ->
    let d = run ~workers ~shuffles ~stats catalog input in
    let d = gather_to_one ~workers ~shuffles d in
    per_partition (fun st part -> Operators.sort ?cache ~stats:st keys part) d
  | Logical.L_limit (n, input) ->
    let d = run ~workers ~shuffles ~stats catalog input in
    let d = gather_to_one ~workers ~shuffles d in
    per_partition (fun st part -> Operators.limit ~stats:st n part) d
  | Logical.L_offset (n, input) ->
    let d = run ~workers ~shuffles ~stats catalog input in
    let d = gather_to_one ~workers ~shuffles d in
    per_partition (fun st part -> Operators.offset ~stats:st n part) d
  | Logical.L_intersect { all; left; right } ->
    let dl = run ~workers ~shuffles ~stats catalog left in
    let dr = run ~workers ~shuffles ~stats catalog right in
    let dl = repartition ~workers ~shuffles ~key:(fun row -> row) dl in
    let dr = repartition ~workers ~shuffles ~key:(fun row -> row) dr in
    {
      parts =
        on_partitions workers (fun st i ->
            Operators.intersect ~stats:st ~all dl.parts.(i) dr.parts.(i));
    }
  | Logical.L_except { all; left; right } ->
    let dl = run ~workers ~shuffles ~stats catalog left in
    let dr = run ~workers ~shuffles ~stats catalog right in
    let dl = repartition ~workers ~shuffles ~key:(fun row -> row) dl in
    let dr = repartition ~workers ~shuffles ~key:(fun row -> row) dr in
    {
      parts =
        on_partitions workers (fun st i ->
            Operators.except ~stats:st ~all dl.parts.(i) dr.parts.(i));
    }
  | Logical.L_union { all; left; right } ->
    let dl = run ~workers ~shuffles ~stats catalog left in
    let dr = run ~workers ~shuffles ~stats catalog right in
    let d =
      {
        parts =
          on_partitions workers (fun st i ->
              Operators.union_all ~stats:st dl.parts.(i) dr.parts.(i));
      }
    in
    if all then d
    else begin
      let d = repartition ~workers ~shuffles ~key:(fun row -> row) d in
      per_partition (fun st part -> Operators.distinct ~stats:st part) d
    end
  | Logical.L_subquery_filter { anti; key; input; sub } ->
    (* Broadcast the (gathered) subquery result to every worker. *)
    let di = run ~workers ~shuffles ~stats catalog input in
    let dsub = run ~workers ~shuffles ~stats catalog sub in
    Fault.tick fault ~site:Fault.Broadcast;
    let gathered = gather dsub in
    shuffles.exchanges <- shuffles.exchanges + 1;
    shuffles.rows_shuffled <-
      shuffles.rows_shuffled + (Relation.cardinality gathered * (workers - 1));
    per_partition
      (fun st part ->
        Operators.subquery_filter ?cache ~stats:st ~anti ~key part gathered)
      di

(** Execute [plan] across [workers] simulated workers; returns the
    gathered result and the exchange volume. Per-partition operator
    work runs concurrently on [pool] (default: the shared Domain
    pool). Injected faults propagate (single plans have no checkpoint
    to recover from; use {!run_program} for recovery semantics). *)
let run_plan ?(workers = 4) ?pool ?(fault = Fault.none) ?(use_cache = true)
    ?(columnar = true) (catalog : Catalog.t) (plan : Logical.t) :
    Relation.t * run_stats =
  if workers <= 0 then invalid_arg "Distributed.run_plan: workers <= 0";
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let cache = if use_cache then Some (Cache.create ()) else None in
  let shuffles = zero_stats () in
  let stats = Stats.create () in
  let d = run ?cache ~columnar ~pool ~workers ~shuffles ~fault ~stats catalog plan in
  (gather d, shuffles)

(* ------------------------------------------------------------------ *)
(* Distributed step programs                                           *)

module Program = Dbspinner_plan.Program

(** A restart point: copies of the partitioned temps and of the
    interpreter's program counter and loop states. Relations are
    immutable, so checkpoints are O(temps + loops) pointer copies — the
    "cheap checkpoint" SciDB-style iteration-granular recovery relies
    on. *)
type checkpoint = {
  ck_temps : (string, dist_rel) Hashtbl.t;
  ck_machine : Executor.checkpoint;
  ck_in_loop : bool;
      (** true for checkpoints taken at a [Loop_end] (a restore from
          one counts as a recovery, not a from-scratch restart) *)
}

(** Run [program] single-node as the graceful-degradation path after
    [max_retries] consecutive transient faults. The catalog's temp
    namespace is restored afterwards so callers see no leftover temps
    from the fallback execution. *)
let fallback_single_node ~counts ~stats ~guards ~columnar ?trace
    (catalog : Catalog.t) (program : Program.t) : Relation.t =
  counts.fallbacks <- counts.fallbacks + 1;
  let saved =
    List.map
      (fun n -> (n, Catalog.find_temp catalog n))
      (Catalog.temp_names catalog)
  in
  Fun.protect
    ~finally:(fun () ->
      Catalog.clear_temps catalog;
      List.iter (fun (n, r) -> Catalog.set_temp catalog n r) saved)
    (fun () ->
      Executor.run_program ~stats ~guards ~columnar ?trace catalog program)

(** Execute a whole step program on {!Executor}'s interpreter with
    every plan running distributed: the backend keeps materialized
    temps partitioned on the workers between steps (so the loop body's
    scans of the CTE table cost no exchange), and [Rename] is a pointer
    swap of partition sets. The delta step's diff and stitch and the
    keyed [Merge] read gathered relations and scatter their result
    round-robin, with no exchange counted. Around the interpreter's
    steps it
    adds fault recovery: a checkpoint at program start and after every
    [Loop_end], bounded retries from the last one, and single-node
    fallback once retries run out. *)
let run_program ?(workers = 4) ?pool ?(fault = Fault.none) ?(max_retries = 3)
    ?(guards = Guards.none) ?(stats = Stats.create ()) ?(use_cache = true)
    ?(columnar = true) ?trace (catalog : Catalog.t) (program : Program.t) :
    Relation.t * run_stats =
  if workers <= 0 then invalid_arg "Distributed.run_program: workers <= 0";
  if max_retries < 0 then
    invalid_arg "Distributed.run_program: max_retries < 0";
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  (* Distributed temps are partitioned [dist_rel]s outside the catalog,
     so the generation-keyed build memo never applies here; the cache
     still pays off through compiled expressions, shared (behind its
     lock) across all partition domains. *)
  let cache = if use_cache then Some (Cache.create ()) else None in
  let counts = zero_stats () in
  let temps : (string, dist_rel) Hashtbl.t = Hashtbl.create 8 in
  let key = String.lowercase_ascii in
  (* Operators probe the guards mid-loop, as on the single-node path. *)
  let gopt = if Guards.is_none guards then None else Some guards in
  let backend =
    {
      Executor.eval =
        run ~temps ?cache ?guards:gopt ~columnar ~pool ~workers
          ~shuffles:counts ~fault ~stats catalog;
      find = (fun name -> Hashtbl.find_opt temps (key name));
      bind = (fun name d -> Hashtbl.replace temps (key name) d);
      rename =
        (fun ~from_ ~into ->
          match Hashtbl.find_opt temps (key from_) with
          | None -> raise (Catalog.Unknown_table from_)
          | Some d ->
            Hashtbl.remove temps (key from_);
            Hashtbl.replace temps (key into) d);
      drop = (fun name -> Hashtbl.remove temps (key name));
      gather;
      scatter = (fun rel -> { parts = Partition.round_robin ~workers rel });
      cardinality = (fun d -> Partition.total_cardinality d.parts);
      recursive_cte =
        (fun ~name:_ ~work_name:_ ~base:_ ~step_plan:_ ~union_all:_
             ~max_recursion:_ ->
          raise
            (Executor.Execution_error
               "distributed execution: recursive CTEs in distributed programs"));
    }
  in
  let steps = Program.steps program in
  let m = Executor.start backend ~stats ~guards ?trace program in
  let take_checkpoint ~in_loop =
    {
      ck_temps = Hashtbl.copy temps;
      ck_machine = Executor.checkpoint m;
      ck_in_loop = in_loop;
    }
  in
  let last_checkpoint = ref (take_checkpoint ~in_loop:false) in
  (* Consecutive failed attempts since the last successful checkpoint. *)
  let attempts = ref 0 in
  let fallback = ref None in
  while Option.is_none !fallback && not (Executor.halted m) do
    let pc = Executor.pc m in
    Fault.set_context fault ~step:pc ~iteration:(Executor.iteration m);
    match Executor.step m with
    | () -> (
      match steps.(pc) with
      | Program.Loop_end _ ->
        (* Iteration-granular checkpoint: the completed iteration's CTE
           partitions and loop counters become the new restart point,
           so a restore's retried iteration diffs against a pre-fault
           baseline. *)
        last_checkpoint := take_checkpoint ~in_loop:true;
        counts.checkpoints_taken <- counts.checkpoints_taken + 1;
        attempts := 0
      | _ -> ())
    | exception Fault.Transient_fault _ ->
      (* The interpreter emits no Step span for a faulted attempt: the
         retried execution emits the span for the work that actually
         completed. *)
      counts.faults_injected <- counts.faults_injected + 1;
      if !attempts >= max_retries then
        (* Retry budget exhausted: degrade gracefully to single-node
           execution instead of failing the query. *)
        fallback :=
          Some
            (fallback_single_node ~counts ~stats ~guards ~columnar ?trace
               catalog program)
      else begin
        incr attempts;
        counts.retries <- counts.retries + 1;
        (* Deterministic exponential backoff, accounted not slept:
           1, 2, 4, ... units per consecutive failure. *)
        counts.backoff_steps <-
          counts.backoff_steps + (1 lsl min (!attempts - 1) 16);
        let ck = !last_checkpoint in
        if ck.ck_in_loop then counts.recoveries <- counts.recoveries + 1;
        Hashtbl.reset temps;
        Hashtbl.iter (Hashtbl.replace temps) ck.ck_temps;
        Executor.restore m ck.ck_machine
      end
  done;
  (Executor.finish ?result:!fallback m, counts)
