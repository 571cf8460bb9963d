(** The functional rewrite (paper §IV, Algorithm 1): compiles a full
    query — plain, recursive and iterative CTEs included — into a
    single executable step {!Program} built from ordinary operators
    plus [rename] and [loop]. The §V optimizer rules are applied here,
    the paper's three under their {!Options} switches: outer-to-inner
    simplification and the common-result rewrite reshape the AST
    first; predicate push down filters the bound non-iterative plan
    and then sinks filters through every emitted plan; eligible loop
    bodies always compile for semi-naive evaluation. *)

module Schema = Dbspinner_storage.Schema
module Ast = Dbspinner_sql.Ast
module Program = Dbspinner_plan.Program

exception Rewrite_error of string

(** [compile ~options ~lookup q] — [lookup] resolves base-table
    schemas. [statistics] supplies base-table cardinalities; when given
    the predicate-push vs common-result-hoist decision is arbitrated by
    {!Dbspinner_plan.Cost.program}; without it both rewrites stay
    always-on as in the paper.
    @raise Rewrite_error on invalid iterative CTEs (arity mismatch
    between the parts, unknown KEY column, non-positive counts)
    @raise Dbspinner_plan.Binder.Bind_error on name-resolution
    failures. *)
val compile :
  ?options:Options.t ->
  ?statistics:Dbspinner_plan.Cost.statistics ->
  lookup:(string -> Schema.t option) ->
  Ast.full_query ->
  Program.t

(** What the optimizer did: counts of extracted common results, pushed
    predicates, rename vs merge loop paths, loops compiled for
    semi-naive (delta-driven) evaluation, and the per-rule firing log
    (including cost-guard decisions) the first, second and last
    counts are derived from. *)
type report = {
  mutable common_results_extracted : int;
  mutable predicates_pushed : int;
  mutable rename_paths : int;
  mutable merge_paths : int;
  mutable delta_paths : int;
  rewrite_log : Rule.log;
}

val report_to_string : report -> string

val compile_with_report :
  ?options:Options.t ->
  ?statistics:Dbspinner_plan.Cost.statistics ->
  lookup:(string -> Schema.t option) ->
  Ast.full_query ->
  Program.t * report
