(** The rewrite engine: the optimizer passes expressed as named
    {!Rule}s over the AST, bound logical plans and emitted program
    steps. They are the compiler's only rewrite path. *)

module Ast = Dbspinner_sql.Ast
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Schema = Dbspinner_storage.Schema

(** {2 AST phase (whole [full_query])} *)

(** The standard AST pipeline: the [constant-fold], [outer-to-inner]
    and (under [Options.use_common_result]) [common-result] rules, the
    last firing once per materialized common CTE (§V-A).
    [allow_common] is the cost-arbitration override. *)
val ast_pipeline :
  options:Options.t ->
  allow_common:bool ->
  lookup:(string -> Schema.t option) ->
  Ast.full_query Rule.t

(** {2 Per-CTE rules} *)

(** Predicate push-into-R0 (§V-B) over the bound non-iterative plan;
    [schema] is the CTE's schema (for binding the pushed conjunct). *)
val pushdown_rule :
  cte_name:string ->
  columns:string list ->
  step:Ast.query ->
  final:Ast.query ->
  schema:Schema.t ->
  Logical.t Rule.t

(** Semi-naive eligibility as a pattern-match/construct rule: a
    working-table [Materialize] whose plan passes [Delta.analyze]
    becomes a [Delta_materialize]. *)
val delta_rule :
  loop_id:int ->
  cte:string ->
  key_idx:int ->
  work_name:string ->
  Program.step Rule.t

(** {2 Step-plan phase} *)

(** Generic plan-level filter push down over one step's plans. *)
val step_pushdown_rule : Program.step Rule.t
