(** Unified error surface of the engine: every subsystem exception is
    converted into [Error of stage * message] so callers handle one
    exception type. *)

type stage =
  | Parse
  | Bind
  | Rewrite
  | Execute
  | Constraint
  | Catalog
  | Resource

exception Error of stage * string

let stage_name = function
  | Parse -> "parse"
  | Bind -> "bind"
  | Rewrite -> "rewrite"
  | Execute -> "execute"
  | Constraint -> "constraint"
  | Catalog -> "catalog"
  | Resource -> "resource"

let to_string = function
  | Error (stage, msg) -> Printf.sprintf "%s error: %s" (stage_name stage) msg
  | e -> Printexc.to_string e

(** Run [f], normalizing known exceptions into {!Error}. *)
let wrap f =
  try f () with
  | Error _ as e -> raise e
  | Dbspinner_sql.Parser.Parse_error (m, line, col) ->
    raise (Error (Parse, Printf.sprintf "%s at line %d, column %d" m line col))
  | Dbspinner_sql.Lexer.Lex_error (m, line, col) ->
    raise (Error (Parse, Printf.sprintf "%s at line %d, column %d" m line col))
  | Dbspinner_plan.Binder.Bind_error m -> raise (Error (Bind, m))
  | Dbspinner_rewrite.Iterative_rewrite.Rewrite_error m ->
    raise (Error (Rewrite, m))
  | Dbspinner_exec.Executor.Execution_error m -> raise (Error (Execute, m))
  | Dbspinner_exec.Eval.Runtime_error m -> raise (Error (Execute, m))
  | Dbspinner_exec.Guards.Resource_exhausted m -> raise (Error (Resource, m))
  | Dbspinner_storage.Value.Type_error m -> raise (Error (Execute, m))
  | Dbspinner_storage.Table.Constraint_violation m ->
    raise (Error (Constraint, m))
  | Dbspinner_storage.Catalog.Unknown_table t ->
    raise (Error (Catalog, Printf.sprintf "relation %s does not exist" t))
  | Dbspinner_storage.Catalog.Duplicate_table t ->
    raise (Error (Catalog, Printf.sprintf "relation %s already exists" t))
  | Division_by_zero -> raise (Error (Execute, "division by zero"))
