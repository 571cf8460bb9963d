(** The functional rewrite (paper §IV, Algorithm 1): compiles a full
    query — including plain, recursive and iterative CTEs — into a
    single step {!Program} of existing operators plus [rename] and
    [loop].

    For an iterative CTE [R as (R0 ITERATE Ri UNTIL Tc)]:

    {ol
    {- materialize [R0] into the CTE table (step 1 of Table I) and
       check its unique row key (§II);}
    {- initialize the loop operator (step 2);}
    {- each iteration: materialize [Ri] into the working table
       (step 3), check the unique-row-key requirement of §II, then
       either {e rename} the working table over the CTE table (full
       update, step 4) or merge it into the CTE table by the row
       identifier (partial update, Algorithm 1 lines 8–10: a
       {!Program.Merge} step);}
    {- update the loop and jump back while [Tc] is unmet (steps 5–6);}
    {- finally bind the main query [Qf] over the CTE table.}}

    The optimizer hooks of §V are applied here as well: the
    common-result rewrite runs first (it only reshapes the AST), and
    predicate push down filters the bound non-iterative plan. *)

module Schema = Dbspinner_storage.Schema
module Value = Dbspinner_storage.Value
module Ast = Dbspinner_sql.Ast
module Binder = Dbspinner_plan.Binder
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Cost = Dbspinner_plan.Cost

exception Rewrite_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Rewrite_error s)) fmt

(** What the optimizer actually did to a query — used by tests, debug
    logging and the CLI's EXPLAIN header. *)
type report = {
  mutable common_results_extracted : int;
  mutable predicates_pushed : int;  (** §V-B pushes into R0 *)
  mutable rename_paths : int;  (** full-update loops using rename *)
  mutable merge_paths : int;  (** partial-update loops using the merge *)
  mutable delta_paths : int;
      (** loops whose working table is built semi-naively (delta-driven
          restricted re-evaluation instead of a full [Ri] pass) *)
  rewrite_log : Rule.log;
      (** per-rule firing log, including cost-guard decisions; the
          counters above are derived from it *)
}

let empty_report () =
  {
    common_results_extracted = 0;
    predicates_pushed = 0;
    rename_paths = 0;
    merge_paths = 0;
    delta_paths = 0;
    rewrite_log = Rule.create_log ();
  }

let report_to_string r =
  Printf.sprintf
    "common-results=%d predicates-pushed=%d rename-loops=%d merge-loops=%d \
     delta-loops=%d"
    r.common_results_extracted r.predicates_pushed r.rename_paths r.merge_paths
    r.delta_paths

(* ------------------------------------------------------------------ *)
(* Per-CTE compilation                                                 *)

type ctx = {
  options : Options.t;
  allow_push : bool;
      (** cost-arbitration override for the §V-B push into R0; [false]
          means the push is suppressed even though [use_pushdown] is on *)
  report : report;
  mutable env : Binder.env;
  mutable steps : Program.step list;  (** reversed *)
  mutable next_loop : int;
}

let emit ctx step = ctx.steps <- step :: ctx.steps
let position ctx = List.length ctx.steps

let bind_cte_body ctx ~name columns (body : Ast.query) =
  let plan = Binder.bind_query ctx.env body in
  match columns with
  | None -> plan
  | Some names -> (
    match Binder.rename_output plan names with
    | plan -> plan
    | exception Binder.Bind_error m -> error "CTE %s: %s" name m)

let compile_plain ctx ~name ~columns body =
  let plan = bind_cte_body ctx ~name columns body in
  emit ctx (Program.Materialize { target = name; plan });
  ctx.env <- Binder.with_temp ctx.env name (Logical.schema plan)

let compile_recursive ctx ~name ~columns ~base ~step ~union_all =
  let base_plan = bind_cte_body ctx ~name columns base in
  let schema = Logical.schema base_plan in
  let work_name = name ^ "#rwork" in
  let step_env = Binder.with_temp ctx.env name schema in
  let step_plan = Binder.bind_query step_env step in
  if Schema.arity (Logical.schema step_plan) <> Schema.arity schema then
    error
      "recursive CTE %s: the recursive part returns %d columns but the base \
       returns %d"
      name
      (Schema.arity (Logical.schema step_plan))
      (Schema.arity schema);
  let step_plan = Logical.rename_scans [ (name, work_name) ] step_plan in
  let step_plan = Binder.rename_output step_plan (Schema.column_names schema) in
  emit ctx
    (Program.Recursive_cte
       {
         name;
         work_name;
         base = base_plan;
         step_plan;
         union_all;
         max_recursion = ctx.options.Options.max_recursion;
       });
  ctx.env <- Binder.with_temp ctx.env name schema

(** Does the iterative part update the entire dataset? Algorithm 1
    branches on the presence of a WHERE clause; in addition the FROM
    clause must preserve every CTE row — the CTE driving a chain of
    LEFT JOINs does, while an inner join (possibly introduced by the
    outer-to-inner rewrite) can drop rows and therefore requires the
    merge path. *)
let rec cte_preserving_from cte_name = function
  | Ast.From_table { table; _ } ->
    String.lowercase_ascii table = String.lowercase_ascii cte_name
  | Ast.From_subquery _ -> false
  | Ast.From_join { left; kind = Ast.Left_outer; _ } ->
    cte_preserving_from cte_name left
  | Ast.From_join _ -> false

let updates_entire_dataset ~cte_name (step : Ast.query) =
  match step with
  | Ast.Q_select s -> (
    s.Ast.where = None
    && s.Ast.having = None
    &&
    match s.Ast.from with
    | Some from -> cte_preserving_from cte_name from
    | None -> false)
  | Ast.Q_union _ | Ast.Q_intersect _ | Ast.Q_except _ -> true

let bind_termination ~schema ~cte_name (t : Ast.termination) :
    Program.termination =
  match t with
  | Ast.T_iterations n ->
    if n <= 0 then error "UNTIL %d ITERATIONS: count must be positive" n;
    Program.Max_iterations n
  | Ast.T_updates n ->
    if n <= 0 then error "UNTIL %d UPDATES: count must be positive" n;
    Program.Max_updates n
  | Ast.T_delta n -> Program.Delta_at_most n
  | Ast.T_data { any; cond } ->
    let scope = Binder.scope_of_schema ~qualifier:cte_name schema in
    Program.Data { any; pred = Binder.bind_scalar scope cond }

let compile_iterative ctx ~name ~columns ~key ~base ~step ~until
    ~(final : Ast.query) =
  let options = ctx.options in
  (* --- non-iterative part R0 --------------------------------------- *)
  let base_plan = bind_cte_body ctx ~name columns base in
  let schema = Logical.schema base_plan in
  let column_names = Schema.column_names schema in
  (* Predicate push down (§V-B): filter R0 with the sound part of the
     final query's WHERE clause (the counter is derived from the log
     after compilation). *)
  let base_plan =
    if not (options.Options.use_pushdown && ctx.allow_push) then base_plan
    else
      Rule.run
        (Engine.pushdown_rule ~cte_name:name ~columns:column_names ~step
           ~final ~schema)
        ctx.report.rewrite_log base_plan
  in
  (* --- row identifier ----------------------------------------------- *)
  let key_idx =
    match key with
    | Some k -> (
      match Schema.index_of schema k with
      | Some i -> i
      | None -> error "iterative CTE %s: KEY column %s not in its schema" name k)
    | None -> 0
  in
  (* --- iterative part Ri -------------------------------------------- *)
  let step_env = Binder.with_temp ctx.env name schema in
  let step_plan = Binder.bind_query step_env step in
  if Schema.arity (Logical.schema step_plan) <> Schema.arity schema then
    error
      "iterative CTE %s: the iterative part returns %d columns but the \
       non-iterative part returns %d"
      name
      (Schema.arity (Logical.schema step_plan))
      (Schema.arity schema);
  let step_plan = Binder.rename_output step_plan column_names in
  let work_name = name ^ "#work" in
  let merge_name = name ^ "#merge" in
  let termination = bind_termination ~schema ~cte_name:name until in
  (* --- emit Table-I steps ------------------------------------------- *)
  let loop_id = ctx.next_loop in
  ctx.next_loop <- ctx.next_loop + 1;
  emit ctx (Program.Materialize { target = name; plan = base_plan });
  (* §II: the CTE is keyed from R0 on, so every later step may merge
     by key. *)
  emit ctx (Program.Assert_unique_key { temp = name; key_idx });
  emit ctx
    (Program.Init_loop
       {
         loop_id;
         termination;
         cte = name;
         key_idx;
         guard = options.Options.max_iterations_guard;
       });
  let body_start = position ctx in
  emit ctx (Program.Snapshot { loop_id });
  (* Semi-naive eligibility: the working-table Materialize is
     pattern-matched and reconstructed as a Delta_materialize by the
     delta rule. *)
  emit ctx
    (Rule.run
       (Engine.delta_rule ~loop_id ~cte:name ~key_idx ~work_name)
       ctx.report.rewrite_log
       (Program.Materialize { target = work_name; plan = step_plan }));
  emit ctx (Program.Assert_unique_key { temp = work_name; key_idx });
  let full_update = updates_entire_dataset ~cte_name:name step in
  if full_update && options.Options.use_rename then begin
    ctx.report.rename_paths <- ctx.report.rename_paths + 1;
    (* Minimal data movement: the working table becomes the CTE table. *)
    emit ctx (Program.Rename { from_ = work_name; into = name })
  end
  else begin
    ctx.report.merge_paths <- ctx.report.merge_paths + 1;
    emit ctx
      (Program.Merge
         { loop_id; cte = name; work = work_name; target = merge_name; key_idx });
    if options.Options.use_rename then begin
      emit ctx (Program.Rename { from_ = merge_name; into = name });
      emit ctx (Program.Drop_temp work_name)
    end
    else begin
      (* Baseline of §VII-B: copy the merged data back into the main
         table instead of swapping pointers. *)
      emit ctx
        (Program.Materialize
           { target = name; plan = Logical.scan ~name:merge_name ~schema });
      emit ctx (Program.Drop_temp merge_name);
      emit ctx (Program.Drop_temp work_name)
    end
  end;
  emit ctx (Program.Loop_end { loop_id; body_start });
  ctx.env <- Binder.with_temp ctx.env name schema

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

(** Sink filters through every emitted plan: the per-step
    [plan-filter-pushdown] rule, logging each step it moved a filter
    in. *)
let optimize_step_plans options log (steps : Program.step list) :
    Program.step list =
  if not options.Options.use_pushdown then steps
  else List.map (Rule.run Engine.step_pushdown_rule log) steps

(** One full compilation under explicit cost-arbitration overrides
    ([allow_push], [allow_common]); the cost-based selection below
    recompiles with a rewrite disabled to price the alternative. *)
let compile_once ~options ~allow_push ~allow_common ~lookup
    (q : Ast.full_query) : Program.t * report =
  let report = empty_report () in
  let q =
    Rule.run
      (Engine.ast_pipeline ~options ~allow_common ~lookup)
      report.rewrite_log q
  in
  let ctx =
    {
      options;
      allow_push;
      report;
      env = Binder.env_of_lookup lookup;
      steps = [];
      next_loop = 0;
    }
  in
  List.iter
    (fun cte ->
      match cte with
      | Ast.Cte_plain { name; columns; body } -> compile_plain ctx ~name ~columns body
      | Ast.Cte_recursive { name; columns; base; step; union_all } ->
        compile_recursive ctx ~name ~columns ~base ~step ~union_all
      | Ast.Cte_iterative { name; columns; key; base; step; until } ->
        compile_iterative ctx ~name ~columns ~key ~base ~step ~until
          ~final:q.body)
    q.ctes;
  let result_plan =
    Binder.bind_ordered ~offset:q.offset ctx.env q.body q.order_by q.limit
  in
  emit ctx (Program.Return result_plan);
  let steps = optimize_step_plans options report.rewrite_log (List.rev ctx.steps) in
  (* The firing counters fall out of the rule log. *)
  report.common_results_extracted <-
    Rule.fired_count report.rewrite_log "common-result";
  report.predicates_pushed <-
    Rule.fired_count report.rewrite_log "predicate-pushdown";
  report.delta_paths <- Rule.fired_count report.rewrite_log "semi-naive-delta";
  (Program.make steps ~result_schema:(Logical.schema result_plan), ctx.report)

(* ------------------------------------------------------------------ *)
(* Cost-based rewrite selection                                        *)

(** A compile candidate during arbitration: the overrides it was built
    with plus the result. *)
type candidate = {
  c_allow_push : bool;
  c_allow_common : bool;
  c_program : Program.t;
  c_report : report;
}

(** Choose between the §V-B predicate push and the §V-A common-result
    hoist by estimated cost: starting from the everything-on candidate,
    a cost-guarded rule per rewrite recompiles with that rewrite
    disabled and keeps the drop only when {!Cost.program} prices it
    strictly cheaper (e.g. a hoist is pure overhead when the loop is
    expected to run once). Guard decisions land in the winning
    candidate's rewrite log. *)
let arbitrate ~options ~lookup ~statistics q (first : candidate) :
    Program.t * report =
  let cost c = (Cost.program statistics c.c_program).total_cost in
  let recompile ~allow_push ~allow_common =
    let program, report =
      compile_once ~options ~allow_push ~allow_common ~lookup q
    in
    {
      c_allow_push = allow_push;
      c_allow_common = allow_common;
      c_program = program;
      c_report = report;
    }
  in
  let drop_push =
    Rule.make ~name:"cost:no-predicate-pushdown" (fun c ->
        if not (c.c_allow_push && c.c_report.predicates_pushed > 0) then None
        else
          Some (recompile ~allow_push:false ~allow_common:c.c_allow_common))
  in
  let drop_common =
    Rule.make ~name:"cost:no-common-result" (fun c ->
        if not (c.c_allow_common && c.c_report.common_results_extracted > 0)
        then None
        else Some (recompile ~allow_push:c.c_allow_push ~allow_common:false))
  in
  let pipeline =
    Rule.(cost_guard ~cost drop_push >>> cost_guard ~cost drop_common)
  in
  let decisions = Rule.create_log () in
  let winner = Rule.run pipeline decisions first in
  Rule.merge ~into:winner.c_report.rewrite_log decisions;
  (winner.c_program, winner.c_report)

let compile_with_report ?(options = Options.default) ?statistics ~lookup
    (q : Ast.full_query) : Program.t * report =
  let program, report =
    compile_once ~options ~allow_push:true ~allow_common:true ~lookup q
  in
  match statistics with
  | Some statistics
    when report.predicates_pushed > 0 || report.common_results_extracted > 0
    ->
    arbitrate ~options ~lookup ~statistics q
      {
        c_allow_push = true;
        c_allow_common = true;
        c_program = program;
        c_report = report;
      }
  | _ -> (program, report)

let compile ?options ?statistics ~lookup (q : Ast.full_query) : Program.t =
  fst (compile_with_report ?options ?statistics ~lookup q)
