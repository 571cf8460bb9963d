(** One client session: a private engine whose catalog shares the
    server's base tables but owns its temps, so concurrent iterative
    CTEs cannot collide on temp names. *)

type t

val create :
  id:int ->
  options:Dbspinner_rewrite.Options.t ->
  shared_catalog:Dbspinner_storage.Catalog.t ->
  t

val id : t -> int
val engine : t -> Dbspinner.Engine.t

(** Pin the session's catalog view to an immutable snapshot: until
    {!unpin}, base-table reads resolve against the snapshot's frozen
    tables, so a read statement runs lock-free and sees a stable
    database regardless of concurrent commits. *)
val pin : t -> Dbspinner_storage.Catalog.snapshot -> unit

val unpin : t -> unit

(** Version of the currently pinned snapshot ([None] when unpinned). *)
val pinned_version : t -> int option

(** Run a [;]-separated script; the rendered results of every
    statement, concatenated in order.
    @raise Dbspinner.Errors.Error on failure. *)
val run_script : t -> string -> string

(** Apply [SET key value]; [Ok confirmation] or [Error usage]. *)
val set : t -> string -> string -> (string, string) result

(** The session's trace buffer as NDJSON ("" when tracing is off). *)
val trace_ndjson : t -> string
