(** The executor: evaluates logical plans against the catalog and runs
    step programs (program counter, loop state, rename) — the runtime
    half of the paper's §VI.

    Scans resolve names through the catalog with temps shadowing base
    tables; that is how the iterative reference reads the current
    iteration's version of the CTE table. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Table = Dbspinner_storage.Table
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Bound_expr = Dbspinner_plan.Bound_expr
module Trace = Dbspinner_obs.Trace

exception Execution_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Plan evaluation                                                     *)

exception Not_cacheable

(** The relations a plan subtree reads, with their generations, or
    [None] when the subtree is not cache-eligible. Eligible subtrees
    read only named relations (temps or base tables): an [L_values]
    leaf embeds literal rows in the key, where NaN floats would defeat
    the structural equality the memo tables rely on, so it opts out.
    Every source's generation is part of the cache key, which is what
    makes a stale hit impossible: rebinding a temp or mutating a base
    table changes the key rather than racing an invalidation. *)
let cache_sources (catalog : Catalog.t) (plan : Logical.t) :
    Cache.source list option =
  let acc = ref [] in
  let add_scan name =
    let k = String.lowercase_ascii name in
    (* Temps shadow base tables, same precedence as Catalog.resolve. *)
    match Catalog.temp_generation catalog name with
    | Some gen ->
      acc := { Cache.src_temp = true; src_name = k; src_gen = gen } :: !acc
    | None -> (
      match Catalog.find_table_opt catalog name with
      | Some tbl ->
        acc :=
          { Cache.src_temp = false; src_name = k; src_gen = Table.version tbl }
          :: !acc
      | None -> raise Not_cacheable)
  in
  let rec walk = function
    | Logical.L_scan { name; _ } -> add_scan name
    | Logical.L_values _ -> raise Not_cacheable
    | Logical.L_filter { input; _ }
    | Logical.L_project { input; _ }
    | Logical.L_aggregate { input; _ }
    | Logical.L_distinct input
    | Logical.L_sort { input; _ }
    | Logical.L_limit (_, input)
    | Logical.L_offset (_, input) -> walk input
    | Logical.L_join { left; right; _ }
    | Logical.L_union { left; right; _ }
    | Logical.L_intersect { left; right; _ }
    | Logical.L_except { left; right; _ } ->
      walk left;
      walk right
    | Logical.L_subquery_filter { input; sub; _ } ->
      walk input;
      walk sub
  in
  match walk plan with
  | () -> Some (List.sort_uniq compare !acc)
  | exception Not_cacheable -> None

let rec run_plan ?parallel ?cache ?guards ?columnar ~(stats : Stats.t)
    (catalog : Catalog.t) (plan : Logical.t) : Relation.t =
  match plan with
  | Logical.L_scan { name; scan_schema } -> (
    Stats.timed stats Stats.Op_scan @@ fun () ->
    match Catalog.resolve_opt catalog name with
    | None -> error "relation %s does not exist" name
    | Some rel ->
      stats.Stats.rows_scanned <-
        stats.Stats.rows_scanned + Relation.cardinality rel;
      if Schema.arity (Relation.schema rel) <> Schema.arity scan_schema then
        error "relation %s changed arity since planning" name;
      rel)
  | Logical.L_values rel -> rel
  | Logical.L_filter { pred; input } ->
    Operators.filter ?parallel ?cache ?guards ?columnar ~stats pred
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_project { exprs; input } ->
    Operators.project ?parallel ?cache ?guards ?columnar ~stats exprs
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_join { kind; cond; left; right; join_schema } -> (
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    (* Cached hash-join path: when the build (right) side reads only
       named relations, memoize its build table under the sources'
       generations. A loop-invariant side (the common-result temp, or a
       base table like [edges]) keeps its generation across iterations
       and hits; the iterative temp is rebound each iteration and
       misses. The node's site in the cache lets a probe whose key
       columns come back unchanged reuse its previous selection
       vectors. Falls back to the ordinary join when no equi-key exists
       or the side is not eligible. *)
    let cached =
      match cache, cond with
      | Some c, Some cnd when kind <> Logical.Cross -> (
        let left_arity = Schema.arity (Relation.schema l) in
        match Operators.split_equi_condition ~left_arity cnd with
        | [], _ -> None
        | keys, residual -> (
          match cache_sources catalog right with
          | None -> None
          | Some srcs ->
            let build_keys = List.map snd keys in
            let build =
              Cache.join_build c ~stats
                { Cache.bk_sources = srcs; bk_plan = right; bk_keys = build_keys }
                (fun local ->
                  let r =
                    run_plan ?parallel ?cache ?guards ?columnar ~stats:local
                      catalog right
                  in
                  Operators.make_join_build ?cache ?guards ~stats:local
                    build_keys r)
            in
            Some
              (Operators.hash_join_probe ?parallel ?cache ?guards ?columnar
                 ~site:(Cache.join_site c plan) ~stats kind keys residual
                 build l join_schema)))
      | _ -> None
    in
    match cached with
    | Some rel -> rel
    | None ->
      let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
      Operators.join ?parallel ?cache ?guards ?columnar ~stats kind cond l r
        join_schema)
  | Logical.L_aggregate { keys; aggs; input; agg_schema } ->
    Operators.aggregate ?cache ?guards ?columnar
      ?site:(Option.map (fun c -> Cache.agg_site c plan) cache)
      ~stats ~keys ~aggs
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
      agg_schema
  | Logical.L_distinct input ->
    Operators.distinct ~stats
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_sort { keys; input } ->
    Operators.sort ?cache ~stats keys
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_limit (n, input) ->
    Operators.limit ~stats n
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_offset (n, input) ->
    Operators.offset ~stats n
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_union { all; left; right } ->
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
    let u = Operators.union_all ~stats l r in
    if all then u else Operators.distinct ~stats u
  | Logical.L_intersect { all; left; right } ->
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
    Operators.intersect ~stats ~all l r
  | Logical.L_except { all; left; right } ->
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
    Operators.except ~stats ~all l r
  | Logical.L_subquery_filter { anti; key; input; sub } -> (
    let i = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input in
    (* Same memoization for IN / EXISTS subquery digests: a
       loop-invariant subquery is digested once per run. *)
    let cached =
      match cache with
      | Some c -> (
        match cache_sources catalog sub with
        | None -> None
        | Some srcs ->
          let keyed = key <> None in
          let set =
            Cache.sub_set c ~stats
              { Cache.sk_sources = srcs; sk_plan = sub; sk_keyed = keyed }
              (fun local ->
                let sq =
                  run_plan ?parallel ?cache ?guards ?columnar ~stats:local
                    catalog sub
                in
                Operators.make_sub_set ~stats:local ~need_members:keyed sq)
          in
          Some (Operators.subquery_filter_with_set ?cache ~stats ~anti ~key i set))
      | None -> None
    in
    match cached with
    | Some rel -> rel
    | None ->
      let sq = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog sub in
      Operators.subquery_filter ?cache ~stats ~anti ~key i sq)

(* ------------------------------------------------------------------ *)
(* Loop state (paper §VI-B)                                            *)

type loop_state = {
  spec : Program.termination;
  cte : string;
  key_idx : int;
  guard : int;
  mutable iterations : int;
  mutable cumulative_updates : int;
  mutable snapshot : Relation.t option;
      (** CTE version at the top of the current iteration *)
  mutable iter_mark : (float * Stats.t) option;
      (** tracing only: wall clock and stats snapshot at the start of
          the current iteration, so the iteration span can carry its
          own deltas. [None] whenever tracing is off. *)
  mutable d_prev_cte : Relation.t option;
      (** semi-naive only: CTE version consumed by the previous
          iteration's [Delta_materialize], diffed against the current
          version to find changed keys. Distinct from [snapshot]: the
          snapshot feeds termination accounting and is taken at the top
          of the body, while this one is updated by the delta step
          itself, so a program may use either, both or neither. *)
  mutable d_prev_work : Relation.t option;
      (** semi-naive only: the previous iteration's work output, reused
          for unaffected keys when stitching. *)
  mutable d_cutoff_streak : int;
      (** consecutive iterations whose diff hit the large-delta cutoff;
          at {!delta_cutoff_streak_limit} the loop stops diffing
          entirely (PageRank-style loops update every key every
          iteration — without the streak they would pay an O(|CTE|)
          diff per iteration just to learn that, every time). *)
}

(** Consecutive large-delta cutoffs after which a loop permanently
    falls back to full re-evaluation. Deterministic (purely
    data-driven), so every backend makes the same decision and stats
    stay comparable across them. *)
let delta_cutoff_streak_limit = 3

(** Decide whether another iteration is needed, updating counters.
    [current] reads the CTE's current version. Returns the continue
    flag and, when it was computed (or when [want_delta] forces it for
    the trace timeline), this iteration's update count.

    First-iteration semantics, load-bearing and regression-tested in
    [test_exec.ml]: when [st.snapshot = None] (no [Snapshot] step has
    run for this loop — hand-built programs, or a [Max_iterations] loop
    whose untraced [Snapshot] is skipped) the "delta" is the {e full}
    CTE cardinality, because with no previous version every row counts
    as updated. Consequently [Max_updates n] charges the whole first
    materialization against its budget, and [Delta_at_most 0] can never
    converge without a snapshot — even on already-converged input —
    until the guard trips. Compiled programs always emit [Snapshot] at
    the top of the loop body, so user queries get true deltas from
    iteration 2 on; the first iteration still counts full cardinality
    (snapshot of a not-yet-materialized CTE is [None]). A refactor
    that made the first delta 0 would silently let [UNTIL DELTA]
    loops terminate one iteration early. *)
let loop_continue ~(stats : Stats.t) ~want_delta ~current (st : loop_state) :
    bool * int option =
  st.iterations <- st.iterations + 1;
  stats.Stats.loop_iterations <- stats.Stats.loop_iterations + 1;
  (* Pure reads only (cardinality / delta_count touch no stats), so
     forcing this for the trace cannot perturb logical counters. *)
  let updates_this_iteration =
    lazy
      (match st.snapshot with
      | None -> Relation.cardinality (current ())
      | Some prev -> Relation.delta_count ~key_idx:st.key_idx prev (current ()))
  in
  let continue_ =
    match st.spec with
    | Program.Max_iterations n -> st.iterations < n
    | Program.Max_updates n ->
      st.cumulative_updates <-
        st.cumulative_updates + Lazy.force updates_this_iteration;
      st.cumulative_updates < n
    | Program.Delta_at_most bound -> Lazy.force updates_this_iteration > bound
    | Program.Data { any; pred } ->
      let rel = current () in
      let satisfied = ref 0 in
      Relation.iter (fun r -> if Eval.eval_pred r pred then incr satisfied) rel;
      (* ALL over an empty relation is vacuously true: a CTE that
         drains to empty must stop, not spin until the guard trips. *)
      let stop =
        if any then !satisfied > 0 else !satisfied = Relation.cardinality rel
      in
      not stop
  in
  (* The guard trips only when another iteration would actually run: a
     loop whose termination fires exactly on the guard iteration
     returns its result instead of erroring. *)
  if continue_ && st.iterations >= st.guard then
    error "iterative CTE %s exceeded the %d-iteration guard without meeting \
           its termination condition"
      st.cte st.guard;
  let delta =
    if want_delta || Lazy.is_val updates_this_iteration then
      Some (Lazy.force updates_this_iteration)
    else None
  in
  (continue_, delta)

(* ------------------------------------------------------------------ *)
(* Recursive CTE (semi-naive)                                          *)

let run_recursive ?parallel ?cache ?guards ?columnar ~stats catalog ~name
    ~work_name ~base ~step_plan ~union_all ~max_recursion =
  let invalidate n = Option.iter (fun c -> Cache.invalidate_temp c n) cache in
  let base_rel = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog base in
  let schema = Relation.schema base_rel in
  let module Row_tbl = Operators.Row_tbl in
  let seen = Row_tbl.create (max 16 (Relation.cardinality base_rel)) in
  let dedupe rel =
    (* Keep only rows never produced before (UNION-distinct mode). *)
    let fresh = ref [] in
    Relation.iter
      (fun r ->
        if not (Row_tbl.mem seen r) then begin
          Row_tbl.replace seen r ();
          fresh := r :: !fresh
        end)
      rel;
    Relation.make schema (Array.of_list (List.rev !fresh))
  in
  let acc = ref [] in
  let push rel = Relation.iter (fun r -> acc := r :: !acc) rel in
  let working = ref (if union_all then base_rel else dedupe base_rel) in
  push !working;
  let rounds = ref 0 in
  while Relation.cardinality !working > 0 do
    incr rounds;
    if !rounds > max_recursion then
      error "recursive CTE %s exceeded %d rounds (missing fixed point?)" name
        max_recursion;
    Catalog.set_temp catalog work_name !working;
    invalidate work_name;
    let produced =
      run_plan ?parallel ?cache ?guards ?columnar ~stats catalog step_plan
    in
    let fresh = if union_all then produced else dedupe produced in
    push fresh;
    working := fresh
  done;
  Catalog.drop_temp catalog work_name;
  invalidate work_name;
  let result = Relation.make schema (Array.of_list (List.rev !acc)) in
  Catalog.set_temp catalog name result;
  invalidate name

(* ------------------------------------------------------------------ *)
(* The §II key check                                                   *)

(* Keys compare under {!Value.equal}, the equality of the merge and
   hash joins, so [Int 1] and [Float 1.0] are one key. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let check_unique_keys (rel : Relation.t) ~key_idx =
  (* [key_values] reads whichever view is materialized, so a columnar
     pipeline is not forced into a full row conversion just to check
     one column. *)
  let keys = Relation.key_values rel key_idx in
  let seen = Key_tbl.create (Array.length keys) in
  Array.iter
    (fun k ->
      if Value.is_null k then
        error
          "iterative CTE produced a NULL row key; specify a key column or \
           remove NULL keys"
      else if Key_tbl.mem seen k then
        error
          "iterative CTE produced duplicate rows for key %s; resolve \
           duplicates with an aggregation or GROUP BY (see paper §II)"
          (Value.to_string k)
      else Key_tbl.replace seen k ())
    keys

let assert_unique_key catalog ~temp ~key_idx =
  check_unique_keys (Catalog.find_temp catalog temp) ~key_idx

(* ------------------------------------------------------------------ *)
(* Step-program interpreter                                            *)

type 't backend = {
  eval : Logical.t -> 't;
  find : string -> 't option;
  bind : string -> 't -> unit;
  rename : from_:string -> into:string -> unit;
  drop : string -> unit;
  gather : 't -> Relation.t;
  scatter : Relation.t -> 't;
  cardinality : 't -> int;
  recursive_cte :
    name:string ->
    work_name:string ->
    base:Logical.t ->
    step_plan:Logical.t ->
    union_all:bool ->
    max_recursion:int ->
    unit;
}

type 't machine = {
  backend : 't backend;
  stats : Stats.t;
  guards : Guards.t;
  trace : Trace.t option;
  steps : Program.step array;
  loops : (int, loop_state) Hashtbl.t;
  mutable pc : int;
  mutable result : Relation.t option;
  prog_mark : (float * Stats.t) option;
}

(* Wall clock and stats snapshot for a span's deltas; [None] (and no
   work at all) when tracing is off. *)
let trace_mark trace stats =
  match trace with
  | None -> None
  | Some _ -> Some (Unix.gettimeofday (), Stats.copy stats)

let start backend ~stats ~guards ?trace program =
  {
    backend;
    stats;
    guards;
    trace;
    steps = Program.steps program;
    loops = Hashtbl.create 4;
    pc = 0;
    result = None;
    prog_mark = trace_mark trace stats;
  }

let halted m = m.pc >= Array.length m.steps
let pc m = m.pc
let iteration m =
  Hashtbl.fold (fun _ st acc -> max acc st.iterations) m.loops 0

(* Loop states are copied field for field; the relations and the trace
   mark they point to are immutable, so sharing those is safe. After a
   restore, the restored mark predates the fault, so the retried
   iteration's span absorbs the fault/retry counters — exactly what the
   timeline should show. *)
type checkpoint = { ck_pc : int; ck_loops : (int * loop_state) list }

let copy_loops loops =
  List.map (fun (id, st) -> (id, { st with spec = st.spec })) loops

let checkpoint m =
  {
    ck_pc = m.pc;
    ck_loops = copy_loops (List.of_seq (Hashtbl.to_seq m.loops));
  }

let restore m ck =
  Hashtbl.reset m.loops;
  List.iter
    (fun (id, st) -> Hashtbl.replace m.loops id st)
    (copy_loops ck.ck_loops);
  m.pc <- ck.ck_pc

let step_label = function
  | Program.Materialize { target; _ } -> "materialize:" ^ target
  | Program.Delta_materialize { target; _ } -> "delta_materialize:" ^ target
  | Program.Rename { from_; into } -> "rename:" ^ from_ ^ "->" ^ into
  | Program.Drop_temp name -> "drop:" ^ name
  | Program.Assert_unique_key { temp; _ } -> "assert_unique:" ^ temp
  | Program.Init_loop { cte; _ } -> "init_loop:" ^ cte
  | Program.Snapshot { loop_id } -> Printf.sprintf "snapshot:%d" loop_id
  | Program.Loop_end { loop_id; _ } -> Printf.sprintf "loop_end:%d" loop_id
  | Program.Recursive_cte { name; _ } -> "recursive_cte:" ^ name
  | Program.Return _ -> "return"

let find_loop m what loop_id =
  match Hashtbl.find_opt m.loops loop_id with
  | Some st -> st
  | None -> error "%s for uninitialized loop %d" what loop_id

let find_temp m name =
  match m.backend.find name with
  | Some t -> t
  | None -> raise (Catalog.Unknown_table name)

(* Count, guard-check and bind a materialized temp; returns its
   cardinality for the Step span. *)
let materialize m target t =
  let n = m.backend.cardinality t in
  m.stats.Stats.materializations <- m.stats.Stats.materializations + 1;
  m.stats.Stats.rows_materialized <- m.stats.Stats.rows_materialized + n;
  Guards.check m.guards ~stats:m.stats;
  m.backend.bind target t;
  n

(* Rebuild the work output in CTE order, one key at a time: recomputed
   rows for affected keys, the previous work row otherwise. Eligible
   plans emit output in driver (CTE) key order, so this reproduces the
   full evaluation bit for bit — including rows-per-key multiplicities,
   so a duplicate-key plan still trips [Assert_unique_key] exactly as it
   would have. *)
let stitch ~key_idx ~affected ~restricted ~cur ~prev_work =
  let by_key : (Value.t, Row.t list) Hashtbl.t = Hashtbl.create 64 in
  Relation.iter
    (fun r ->
      let k = r.(key_idx) in
      let rest = try Hashtbl.find by_key k with Not_found -> [] in
      Hashtbl.replace by_key k (r :: rest))
    restricted;
  let recomputed k =
    List.rev (try Hashtbl.find by_key k with Not_found -> [])
  in
  let out = ref [] in
  let cur_rows = Relation.rows cur in
  let prev_rows = Relation.rows prev_work in
  let n_cur = Array.length cur_rows in
  (* Fast path: when the previous output lists the same keys at the
     same positions (the steady state of an iterative loop, whose key
     sequence is stable and — per the §II requirement, enforced by
     [Assert_unique_key] — duplicate-free), unaffected rows are copied
     by index with no hashing. *)
  let aligned =
    Array.length prev_rows = n_cur
    &&
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n_cur do
      if not (Value.equal cur_rows.(!i).(key_idx) prev_rows.(!i).(key_idx))
      then ok := false;
      incr i
    done;
    !ok
  in
  if aligned then
    for i = 0 to n_cur - 1 do
      let k = cur_rows.(i).(key_idx) in
      if Hashtbl.mem affected k then
        List.iter (fun row -> out := row :: !out) (recomputed k)
      else out := prev_rows.(i) :: !out
    done
  else begin
    let prev_by_key = Hashtbl.create 64 in
    Relation.iter
      (fun r ->
        if not (Hashtbl.mem prev_by_key r.(key_idx)) then
          Hashtbl.replace prev_by_key r.(key_idx) r)
      prev_work;
    let seen_keys = Hashtbl.create (Relation.cardinality cur) in
    Relation.iter
      (fun r ->
        let k = r.(key_idx) in
        if not (Hashtbl.mem seen_keys k) then begin
          Hashtbl.replace seen_keys k ();
          if Hashtbl.mem affected k then
            List.iter (fun row -> out := row :: !out) (recomputed k)
          else
            match Hashtbl.find_opt prev_by_key k with
            | Some row -> out := row :: !out
            | None -> ()
        end)
      cur
  end;
  Relation.make (Relation.schema prev_work) (Array.of_list (List.rev !out))

(* Semi-naive evaluation of one [Delta_materialize]: diff the CTE
   against the version the previous iteration consumed, evaluate the
   restricted plan over the affected keys only, and stitch. The diff
   and stitch run on gathered relations (they are cheap hash passes);
   every plan runs on the backend, with the delta and affected-key
   temps bound like any materialized temp. The result is
   bag-identical to running the full plan. *)
let delta_eval m st ~cte ~key_idx ~full_plan ~restricted_plan ~affected_plans
    ~delta_name ~affected_name =
  let b = m.backend and stats = m.stats in
  let eval plan = b.gather (b.eval plan) in
  let cur = b.gather (find_temp m cte) in
  let full_eval () =
    stats.Stats.full_reevals <- stats.Stats.full_reevals + 1;
    eval full_plan
  in
  let work =
    match st.d_prev_cte, st.d_prev_work with
    | Some prev, Some prev_work -> (
      (* Cutoff: when at least half the keys changed, restriction buys
         nothing — the extra diff/stitch passes would make the
         iteration slower than a plain re-evaluation (PageRank updates
         every key every iteration and takes this path). The bounded
         diff abandons the scan — and skips building the delta relation
         entirely — the moment the distinct changed-key count reaches
         the cutoff. [max 1] keeps the decision order of the unbounded
         original: a zero-change scan must fall through to the
         empty-delta fast path, not report a cutoff. *)
      let cutoff = max 1 ((Relation.cardinality cur + 1) / 2) in
      match Relation.changed_rows_bounded ~key_idx ~cutoff prev cur with
      | None ->
        st.d_cutoff_streak <- st.d_cutoff_streak + 1;
        full_eval ()
      | Some delta when Relation.cardinality delta = 0 ->
        (* Nothing changed: last iteration's work output is still
           exact. (The loop is about to converge; this avoids one final
           full pass.) *)
        st.d_cutoff_streak <- 0;
        prev_work
      | Some delta ->
        let changed_keys = Hashtbl.create 64 in
        Relation.iter
          (fun r -> Hashtbl.replace changed_keys r.(key_idx) ())
          delta;
        st.d_cutoff_streak <- 0;
        b.bind delta_name (b.scatter delta);
        (* Affected keys: directly-changed keys plus every key that
           reads a changed row through a join leg. *)
        let affected = Hashtbl.create 64 in
        Hashtbl.iter (fun k () -> Hashtbl.replace affected k ()) changed_keys;
        List.iter
          (fun p ->
            Relation.iter
              (fun r -> Hashtbl.replace affected r.(0) ())
              (eval p))
          affected_plans;
        let a_rows =
          Hashtbl.fold (fun k () acc -> [| k |] :: acc) affected []
        in
        b.bind affected_name
          (b.scatter
             (Relation.make
                (Schema.of_names [ "key" ])
                (Array.of_list a_rows)));
        let restricted = eval restricted_plan in
        stats.Stats.delta_rows_evaluated <-
          stats.Stats.delta_rows_evaluated + Relation.cardinality restricted;
        stitch ~key_idx ~affected ~restricted ~cur ~prev_work)
    | _ -> full_eval ()
  in
  (* Rebind the baselines only after every evaluation has completed: a
     transient fault above restores a checkpoint's loop state, which
     still holds the pre-iteration baselines. *)
  if st.d_cutoff_streak >= delta_cutoff_streak_limit then begin
    (* This loop updates (nearly) every key every iteration; stop
       paying for the diff and re-evaluate in full from here on. *)
    st.d_prev_cte <- None;
    st.d_prev_work <- None
  end
  else begin
    st.d_prev_cte <- Some cur;
    st.d_prev_work <- Some work
  end;
  work

let step m =
  let b = m.backend and stats = m.stats in
  let s = m.steps.(m.pc) in
  let step_mark = trace_mark m.trace stats in
  (* Gauges the step attaches to its Step span. *)
  let step_rows = ref (-1) in
  let step_delta = ref (-1) in
  let jump = ref None in
  (match s with
  | Program.Materialize { target; plan } ->
    step_rows := materialize m target (b.eval plan)
  | Program.Delta_materialize
      {
        loop_id;
        target;
        cte;
        key_idx;
        full_plan;
        restricted_plan;
        affected_plans;
        delta_name;
        affected_name;
      } ->
    let st = find_loop m "Delta_materialize" loop_id in
    let work =
      delta_eval m st ~cte ~key_idx ~full_plan ~restricted_plan
        ~affected_plans ~delta_name ~affected_name
    in
    step_rows := materialize m target (b.scatter work)
  | Program.Rename { from_; into } ->
    b.rename ~from_ ~into;
    stats.Stats.renames <- stats.Stats.renames + 1
  | Program.Drop_temp name -> b.drop name
  | Program.Assert_unique_key { temp; key_idx } ->
    check_unique_keys (b.gather (find_temp m temp)) ~key_idx
  | Program.Init_loop { loop_id; termination; cte; key_idx; guard } ->
    Hashtbl.replace m.loops loop_id
      {
        spec = termination;
        cte;
        key_idx;
        guard;
        iterations = 0;
        cumulative_updates = 0;
        snapshot = None;
        iter_mark = trace_mark m.trace stats;
        d_prev_cte = None;
        d_prev_work = None;
        d_cutoff_streak = 0;
      }
  | Program.Snapshot { loop_id } -> (
    let st = find_loop m "Snapshot" loop_id in
    match st.spec with
    | Program.Max_iterations _ when m.trace = None ->
      (* A fixed iteration count never reads the previous version, so
         skip copying it (a gather on a partitioned backend). With
         tracing on, take it anyway so the timeline reports true
         deltas; gathering is a pure read, so logical stats are
         unchanged. *)
      ()
    | _ -> st.snapshot <- Option.map b.gather (b.find st.cte))
  | Program.Loop_end { loop_id; body_start } -> (
    let st = find_loop m "Loop_end" loop_id in
    Guards.check m.guards ~stats;
    let continue_, delta =
      loop_continue ~stats ~want_delta:(m.trace <> None)
        ~current:(fun () -> b.gather (find_temp m st.cte))
        st
    in
    if continue_ then jump := Some body_start;
    match m.trace, st.iter_mark with
    | Some tr, Some (t0, s0) ->
      let now = Unix.gettimeofday () in
      let rows =
        match b.find st.cte with Some t -> b.cardinality t | None -> -1
      in
      let d = Option.value delta ~default:(-1) in
      step_delta := d;
      Trace.emit tr ~kind:Trace.Iteration ~label:st.cte ~loop_id
        ~iteration:st.iterations ~rows ~delta:d
        ~cum_updates:
          (match st.spec with
          | Program.Max_updates _ -> st.cumulative_updates
          | _ -> -1)
        ~wall_ms:((now -. t0) *. 1000.)
        ~counters:(Stats.trace_counters ~since:s0 stats)
        ();
      if continue_ then st.iter_mark <- Some (now, Stats.copy stats)
    | _ -> ())
  | Program.Recursive_cte
      { name; work_name; base; step_plan; union_all; max_recursion } ->
    b.recursive_cte ~name ~work_name ~base ~step_plan ~union_all
      ~max_recursion
  | Program.Return plan ->
    let rel = b.gather (b.eval plan) in
    step_rows := Relation.cardinality rel;
    m.result <- Some rel);
  (match m.trace, step_mark with
  | Some tr, Some (t0, s0) ->
    Trace.emit tr ~kind:Trace.Step ~label:(step_label s) ~rows:!step_rows
      ~delta:!step_delta
      ~wall_ms:((Unix.gettimeofday () -. t0) *. 1000.)
      ~counters:(Stats.trace_counters ~since:s0 stats)
      ()
  | _ -> ());
  m.pc <- (match !jump with Some target -> target | None -> m.pc + 1)

let finish ?result m =
  let result = if Option.is_some result then result else m.result in
  (match m.trace, m.prog_mark with
  | Some tr, Some (t0, s0) ->
    let stats = m.stats in
    List.iter
      (fun op ->
        let i = Stats.op_index op in
        let dt = stats.Stats.op_wall.(i) -. s0.Stats.op_wall.(i) in
        if dt > 0.0 then
          Trace.emit tr ~kind:Trace.Operator ~label:(Stats.op_name op)
            ~wall_ms:(dt *. 1000.) ~counters:Trace.zero_counters ())
      Stats.all_ops;
    Trace.emit tr ~kind:Trace.Program ~label:"program"
      ~rows:
        (match result with Some rel -> Relation.cardinality rel | None -> -1)
      ~wall_ms:((Unix.gettimeofday () -. t0) *. 1000.)
      ~counters:(Stats.trace_counters ~since:s0 stats)
      ()
  | _ -> ());
  match result with
  | Some rel -> rel
  | None -> error "program terminated without a Return step"

(* ------------------------------------------------------------------ *)
(* Single-node programs                                                *)

(** Run a step program to completion on the catalog's temps and return
    the final relation. See the interface for the options. *)
let run_program ?parallel ?(stats = Stats.create ()) ?(guards = Guards.none)
    ?(use_cache = true) ?(columnar = false) ?trace (catalog : Catalog.t)
    (program : Program.t) : Relation.t =
  let cache = if use_cache then Some (Cache.create ()) else None in
  (* In-operator probes are free to skip when no limit is set; [None]
     keeps the per-row tick a single branch. *)
  let gopt = if Guards.is_none guards then None else Some guards in
  (* Memory hygiene at every rebinding step: generations already make
     stale hits impossible, but entries built over a dead generation
     would otherwise pile up for the length of the loop. *)
  let invalidate n = Option.iter (fun c -> Cache.invalidate_temp c n) cache in
  let backend =
    {
      eval = run_plan ?parallel ?cache ?guards:gopt ~columnar ~stats catalog;
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
        run_recursive ?parallel ?cache ?guards:gopt ~columnar ~stats catalog;
    }
  in
  let m = start backend ~stats ~guards ?trace program in
  while not (halted m) do
    step m
  done;
  finish m

(** Loop-iteration count of the last loop in a program run — exposed
    for tests via running with an explicit [stats]. *)
let run_program_with_stats ?parallel ?guards ?use_cache ?columnar ?trace
    catalog program =
  let stats = Stats.create () in
  let rel =
    run_program ?parallel ~stats ?guards ?use_cache ?columnar ?trace catalog
      program
  in
  (rel, stats)
