(** The rewrite engine: every optimizer pass ({!Fold},
    {!Outer_to_inner}, {!Common_result}, {!Pushdown}, {!Plan_pushdown},
    {!Delta}) expressed as a named {!Rule} and composed with
    combinators. These rules are the only rewrite path, and every
    firing lands in the per-rule log that EXPLAIN and
    [Iterative_rewrite.report] surface. *)

module Ast = Dbspinner_sql.Ast
module Sql_pretty = Dbspinner_sql.Sql_pretty
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Binder = Dbspinner_plan.Binder
module Schema = Dbspinner_storage.Schema

(* ------------------------------------------------------------------ *)
(* AST-phase rules (whole full_query)                                  *)

(** Constant folding as a rule: fires when folding changed the tree. *)
let fold_rule : Ast.full_query Rule.t =
  Rule.make ~name:"constant-fold" (fun q ->
      let q' = Fold.fold_full_query q in
      if q' = q then None else Some q')

(** Outer-to-inner demotion as a rule. *)
let outer_to_inner_rule : Ast.full_query Rule.t =
  Rule.make ~name:"outer-to-inner" (fun q ->
      let q' = Outer_to_inner.simplify_full_query q in
      if q' = q then None else Some q')

(** Common-result extraction (§V-A) as a rule: fires once per
    materialized common CTE, noting the generated names. *)
let common_result_rule ~lookup : Ast.full_query Rule.t =
  Rule.make_logged ~name:"common-result" (fun log q ->
      let cte_names q =
        List.map
          (function
            | Ast.Cte_plain { name; _ }
            | Ast.Cte_recursive { name; _ }
            | Ast.Cte_iterative { name; _ } ->
              name)
          q.Ast.ctes
      in
      let before = cte_names q in
      let q' = Common_result.rewrite_full_query ~lookup q in
      let added =
        List.filter (fun n -> not (List.mem n before)) (cte_names q')
      in
      if added = [] then None
      else begin
        List.iter
          (fun n -> Rule.record ~detail:("materialized " ^ n) log "common-result")
          added;
        Some q'
      end)

(** The standard AST pipeline: fold, then outer-to-inner, then
    common-result under its switch. [allow_common] is the
    cost-arbitration override for the common-result rewrite. *)
let ast_pipeline ~(options : Options.t) ~allow_common ~lookup :
    Ast.full_query Rule.t =
  let common =
    if options.Options.use_common_result && allow_common then
      [ common_result_rule ~lookup ]
    else []
  in
  Rule.all (fold_rule :: outer_to_inner_rule :: common)

(* ------------------------------------------------------------------ *)
(* Per-CTE rules                                                       *)

(** Predicate push-into-R0 (§V-B) as a rule over the bound
    non-iterative plan: matches when the final part has a sound
    pushable conjunct, constructs the filtered base plan. *)
let pushdown_rule ~cte_name ~columns ~step ~final ~schema : Logical.t Rule.t =
  Rule.make_logged ~name:"predicate-pushdown" (fun log base_plan ->
      match Pushdown.pushable_predicate ~cte_name ~columns ~step ~final with
      | None -> None
      | Some pred ->
        Rule.record
          ~detail:
            (Printf.sprintf "%s: R0 filtered by %s" cte_name
               (Sql_pretty.expr pred))
          log "predicate-pushdown";
        let scope = Binder.scope_of_schema schema in
        Some (Logical.filter (Binder.bind_scalar scope pred) base_plan))

(** Semi-naive eligibility as a pattern-match/construct rule over the
    emitted step: a working-table [Materialize] whose plan passes
    {!Delta.analyze} becomes a [Delta_materialize]. *)
let delta_rule ~loop_id ~cte ~key_idx ~work_name : Program.step Rule.t =
  let delta_name = cte ^ "#delta" and affected_name = cte ^ "#affected" in
  Rule.make_logged ~name:"semi-naive-delta" (fun log step ->
      match step with
      | Program.Materialize { target; plan }
        when String.lowercase_ascii target = String.lowercase_ascii work_name
        -> (
        match Delta.analyze ~cte ~key_idx ~delta_name ~affected_name plan with
        | None -> None
        | Some { Delta.restricted_plan; affected_plans } ->
          Rule.record
            ~detail:
              (Printf.sprintf "%s: delta-driven loop (%d affected-key plans)"
                 cte (List.length affected_plans))
            log "semi-naive-delta";
          Some
            (Program.Delta_materialize
               {
                 loop_id;
                 target = work_name;
                 cte;
                 key_idx;
                 full_plan = plan;
                 restricted_plan;
                 affected_plans;
                 delta_name;
                 affected_name;
               }))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Step-plan phase                                                     *)

(** Rewrite every logical plan inside one step with [f]. *)
let map_step_plans f (step : Program.step) : Program.step =
  match step with
  | Program.Materialize { target; plan } ->
    Program.Materialize { target; plan = f plan }
  | Program.Delta_materialize d ->
    (* The affected plans are filter-free by construction; rewrite the
       two Ri variants only. *)
    Program.Delta_materialize
      {
        d with
        full_plan = f d.full_plan;
        restricted_plan = f d.restricted_plan;
      }
  | Program.Return plan -> Program.Return (f plan)
  | Program.Recursive_cte r ->
    Program.Recursive_cte
      { r with base = f r.base; step_plan = f r.step_plan }
  | Program.Merge _ | Program.Rename _ | Program.Drop_temp _
  | Program.Assert_unique_key _ | Program.Init_loop _ | Program.Loop_end _
  | Program.Snapshot _ ->
    step

(** Generic plan-level filter push down as a rule over one step: fires
    when {!Plan_pushdown.push_filters} moved anything in any of the
    step's plans. *)
let step_pushdown_rule : Program.step Rule.t =
  Rule.make ~name:"plan-filter-pushdown" (fun step ->
      let step' = map_step_plans Plan_pushdown.push_filters step in
      if step' = step then None else Some step')
