(** One client session: a private {!Dbspinner.Engine.t} whose catalog
    is a {!Catalog.with_shared_base} view over the server's shared
    database. Temps (iterative CTE working tables) are session-local,
    so concurrent sessions running the same query cannot collide on
    temp names; DDL/DML go to the shared base tables under the
    server's writer lock. *)

module Engine = Dbspinner.Engine
module Options = Dbspinner_rewrite.Options
module Parallel = Dbspinner_exec.Parallel
module Catalog = Dbspinner_storage.Catalog
module Relation = Dbspinner_storage.Relation
module Trace = Dbspinner_obs.Trace

type t = {
  id : int;
  engine : Engine.t;
  catalog_view : Catalog.t;
      (** the session's shared-base catalog view (same value the engine
          holds); kept here so snapshot pin/unpin does not round-trip
          through the engine *)
  timeout_ceiling : float option;
      (** server-configured statement timeout at session start; [SET
          statement_timeout] may only tighten it — the server relies on
          the ceiling to keep a wedged query from stalling its
          checkpointer or shutdown drain *)
}

let create ~id ~options ~shared_catalog =
  let catalog = Catalog.with_shared_base shared_catalog in
  {
    id;
    engine = Engine.create ~options ~catalog ();
    catalog_view = catalog;
    timeout_ceiling = options.Options.statement_timeout_seconds;
  }

let id t = t.id
let engine t = t.engine

(* ------------------------------------------------------------------ *)
(* MVCC snapshot pinning                                               *)

(** Pin the session's catalog view to an immutable snapshot: until
    {!unpin}, every base-table read resolves against the snapshot's
    frozen tables, so the statement runs lock-free and sees a stable
    database no matter what concurrent writers commit. *)
let pin t snap = Catalog.pin_snapshot t.catalog_view snap

let unpin t = Catalog.unpin_snapshot t.catalog_view
let pinned_version t = Catalog.pinned_version t.catalog_view

(* ------------------------------------------------------------------ *)
(* Result rendering                                                    *)

let render_result = function
  | Engine.Rows rel -> Relation.to_table_string rel
  | Engine.Affected n -> Printf.sprintf "%d row(s) affected\n" n
  | Engine.Executed -> "ok\n"
  | Engine.Explained text -> text ^ "\n"

(** Run a [;]-separated script and render every statement's result,
    concatenated in statement order. *)
let run_script t sql =
  String.concat "" (List.map render_result (Engine.execute_script t.engine sql))

(* ------------------------------------------------------------------ *)
(* SET: per-session options (the server-side mirror of the REPL's
   [\set] meta commands)                                               *)

let parse_bool = function
  | "on" | "true" | "1" -> Some true
  | "off" | "false" | "0" -> Some false
  | _ -> None

(** Apply [SET key value]; [Ok confirmation] or [Error usage]. *)
let set t key value : (string, string) result =
  let options = Engine.options t.engine in
  let off = value = "off" || value = "none" in
  match key with
  | "deadline" -> (
    match (off, float_of_string_opt value) with
    | true, _ ->
      Engine.set_options t.engine
        { options with Options.deadline_seconds = None };
      Ok "deadline off"
    | false, Some s when s > 0.0 ->
      Engine.set_options t.engine
        { options with Options.deadline_seconds = Some s };
      Ok (Printf.sprintf "deadline %gs" s)
    | false, _ -> Error "usage: SET deadline SECONDS|off")
  | "statement_timeout" -> (
    match (off, float_of_string_opt value) with
    | true, _ -> (
      match t.timeout_ceiling with
      | None ->
        Engine.set_options t.engine
          { options with Options.statement_timeout_seconds = None };
        Ok "statement_timeout off"
      | Some ceiling ->
        Error
          (Printf.sprintf
             "statement_timeout may only be tightened (server ceiling %gs)"
             ceiling))
    | false, Some s when s > 0.0 -> (
      match t.timeout_ceiling with
      | Some ceiling when s > ceiling ->
        Error
          (Printf.sprintf
             "statement_timeout may only be tightened (server ceiling %gs)"
             ceiling)
      | _ ->
        Engine.set_options t.engine
          { options with Options.statement_timeout_seconds = Some s };
        Ok (Printf.sprintf "statement_timeout %gs" s))
    | false, _ -> Error "usage: SET statement_timeout SECONDS|off")
  | "budget" -> (
    match (off, int_of_string_opt value) with
    | true, _ ->
      Engine.set_options t.engine { options with Options.row_budget = None };
      Ok "budget off"
    | false, Some n when n > 0 ->
      Engine.set_options t.engine
        { options with Options.row_budget = Some n };
      Ok (Printf.sprintf "budget %d rows" n)
    | false, _ -> Error "usage: SET budget ROWS|off")
  | "workers" -> (
    match int_of_string_opt value with
    | Some n when n >= 1 && n <= Parallel.max_workers ->
      Engine.set_options t.engine
        { options with Options.parallel_workers = n };
      Ok (Printf.sprintf "workers %d" n)
    | _ ->
      Error
        (Printf.sprintf "usage: SET workers N (1 <= N <= %d)"
           Parallel.max_workers))
  | "max_iterations" -> (
    match int_of_string_opt value with
    | Some n when n >= 1 ->
      Engine.set_options t.engine
        { options with Options.max_iterations_guard = n };
      Ok (Printf.sprintf "max_iterations %d" n)
    | _ -> Error "usage: SET max_iterations N (N >= 1)")
  | "trace" -> (
    match parse_bool value with
    | Some true ->
      ignore (Engine.enable_trace t.engine);
      Ok "trace on"
    | Some false ->
      Engine.set_trace t.engine None;
      Ok "trace off"
    | None -> Error "usage: SET trace on|off")
  | _ -> (
    match parse_bool value with
    | Some enabled -> (
      match Options.set_bool_option options key enabled with
      | Some options ->
        Engine.set_options t.engine options;
        Ok (Printf.sprintf "%s %b" key enabled)
      | None ->
        Error
          (Printf.sprintf
             "unknown option %s \
              (%s|deadline|statement_timeout|budget|workers|max_iterations|trace)"
             key
             (String.concat "|" Options.bool_option_keys)))
    | None -> Error (Printf.sprintf "SET %s expects on|off" key))

(** The session's trace buffer as NDJSON ("" when tracing is off). *)
let trace_ndjson t =
  match Engine.trace t.engine with
  | Some tr -> Trace.to_ndjson tr
  | None -> ""
