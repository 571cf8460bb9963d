(** One client session: a private {!Dbspinner.Engine.t} whose catalog
    is a {!Catalog.with_shared_base} view over the server's shared
    database. Temps (iterative CTE working tables) are session-local,
    so concurrent sessions running the same query cannot collide on
    temp names; DDL/DML go to the shared base tables under the
    server's writer lock. *)

module Engine = Dbspinner.Engine
module Options = Dbspinner_rewrite.Options
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
(* SET: per-session options; keys shared with the REPL's [\set] are
   parsed by [Options.set_shared_key]                                  *)

(** Apply [SET key value]; [Ok confirmation] or [Error usage]. *)
let set t key value : (string, string) result =
  let options = Engine.options t.engine in
  match key with
  | "statement_timeout" -> (
    let tightened ceiling =
      Error
        (Printf.sprintf
           "statement_timeout may only be tightened (server ceiling %gs)"
           ceiling)
    in
    match (value = "off" || value = "none", float_of_string_opt value) with
    | true, _ -> (
      match t.timeout_ceiling with
      | None ->
        Engine.set_options t.engine
          { options with Options.statement_timeout_seconds = None };
        Ok "statement_timeout off"
      | Some ceiling -> tightened ceiling)
    | false, Some s when s > 0.0 -> (
      match t.timeout_ceiling with
      | Some ceiling when s > ceiling -> tightened ceiling
      | _ ->
        Engine.set_options t.engine
          { options with Options.statement_timeout_seconds = Some s };
        Ok (Printf.sprintf "statement_timeout %gs" s))
    | false, _ -> Error "usage: SET statement_timeout SECONDS|off")
  | "max_iterations" -> (
    match int_of_string_opt value with
    | Some n when n >= 1 ->
      Engine.set_options t.engine
        { options with Options.max_iterations_guard = n };
      Ok (Printf.sprintf "max_iterations %d" n)
    | _ -> Error "usage: SET max_iterations N (N >= 1)")
  | "trace" -> (
    match Options.parse_bool value with
    | Some true ->
      ignore (Engine.enable_trace t.engine);
      Ok "trace on"
    | Some false ->
      Engine.set_trace t.engine None;
      Ok "trace off"
    | None -> Error "usage: SET trace on|off")
  | _ -> (
    match Options.set_shared_key options key value with
    | Some (Ok (options, reply)) ->
      Engine.set_options t.engine options;
      Ok reply
    | Some (Error usage) -> Error usage
    | None ->
      Error
        (Printf.sprintf
           "unknown option %s \
            (%s|deadline|statement_timeout|budget|workers|max_iterations|trace)"
           key
           (String.concat "|" Options.bool_option_keys)))

(** The session's trace buffer as NDJSON ("" when tracing is off). *)
let trace_ndjson t =
  match Engine.trace t.engine with
  | Some tr -> Trace.to_ndjson tr
  | None -> ""
