(** The DBSpinner engine session: parses SQL, applies the functional
    and optimization rewrites, and executes the resulting single step
    program. DDL and DML are also supported so the middleware and
    stored-procedure baselines can drive the very same engine
    statement-by-statement.

    All entry points raise {!Errors.Error} on failure. *)

module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Stats = Dbspinner_exec.Stats
module Options = Dbspinner_rewrite.Options
module Trace = Dbspinner_obs.Trace

type t

type result =
  | Rows of Relation.t
  | Affected of int  (** row count of INSERT/UPDATE/DELETE *)
  | Executed  (** DDL *)
  | Explained of string

(** [create ?options ?catalog ()] — [catalog] lets a server hand each
    session a {!Catalog.with_shared_base} view over one shared
    database; by default the session gets a private fresh catalog. *)
val create : ?options:Options.t -> ?catalog:Catalog.t -> unit -> t

(** Install (or clear) the session's cancellation probe. It is folded
    into every statement's resource guards and polled at materialize
    and loop-iteration boundaries; returning [Some reason] aborts the
    statement with a [Resource]-stage error. *)
val set_interrupt : t -> (unit -> string option) option -> unit

(** Install (or clear) a plan memoization hook. When set, each query's
    compilation routes through [hook query compile]: the hook may
    return a previously cached program or call [compile] (which
    parses, rewrites, and pre-evaluates scalar subqueries against the
    session's current catalog view) and cache the result. The hook is
    bypassed while the session has views defined — view bodies are
    per-session state that an external cache key cannot see. The
    server installs its cross-session plan cache here. *)
val set_plan_hook :
  t ->
  (Dbspinner_sql.Ast.full_query ->
  (unit -> Dbspinner_plan.Program.t) ->
  Dbspinner_plan.Program.t)
  option ->
  unit

(** Is a BEGIN ... COMMIT/ROLLBACK transaction open? *)
val in_transaction : t -> bool

val catalog : t -> Catalog.t
val options : t -> Options.t
val set_options : t -> Options.t -> unit

(** Cumulative executor statistics across all statements of the
    session. *)
val session_stats : t -> Stats.t

(** The session's trace collector, if tracing is on. Queries executed
    while one is installed record step / iteration / operator / program
    spans into it (see {!Dbspinner_obs.Trace}); with [None] the
    executors skip all tracing work. EXPLAIN ANALYZE always traces its
    own run (into the session collector when installed, else a
    throwaway one) to render the convergence timeline. *)
val trace : t -> Trace.t option

val set_trace : t -> Trace.t option -> unit

(** Install a fresh collector (default capacity) and return it. *)
val enable_trace : t -> Trace.t

(** Execute one statement. Query temps are cleared afterwards. *)
val execute : t -> string -> result

(** Run a [;]-separated script; returns one result per statement. *)
val execute_script : t -> string -> result list

(** Run a query and return its relation.
    @raise Errors.Error when [sql] is not a query. *)
val query : t -> string -> Relation.t

(** EXPLAIN text of a query under the session's current options. *)
val explain : t -> string -> string

(** Create (or replace) a base table and fill it from a relation. *)
val load_table : ?primary_key:string -> t -> name:string -> Relation.t -> unit

(** Run [f] with a one-off option set, restoring afterwards. *)
val with_options : t -> Options.t -> (unit -> 'a) -> 'a
