(** Concurrent multi-session SQL server over a Unix-domain socket.

    One OS thread per session, query CPU work submitted to the shared
    {!Dbspinner_exec.Parallel} Domain pool, and admission control that
    rejects — never queues — work beyond [max_inflight]. Sessions
    execute over {!Dbspinner_storage.Catalog.with_shared_base} views
    of one shared database, so base tables are shared while iterative
    CTE temps stay session-private.

    Concurrency control is MVCC: read statements pin the latest
    published catalog snapshot and run lock-free; write statements
    serialize on a writer lock and publish a new version before they
    are acknowledged. A cross-session plan cache keyed by (normalized
    SQL, snapshot version, options fingerprint) skips recompilation of
    repeated statements. Shutdown drains in-flight iterative loops at
    an iteration boundary via the engine's interrupt probe. *)

type config = {
  socket_path : string;
  max_sessions : int;  (** concurrent client connections *)
  max_inflight : int;  (** concurrent executing queries (admission) *)
  workers : int;  (** Domain-pool size query work is submitted to *)
  options : Dbspinner_rewrite.Options.t;  (** per-session defaults *)
  data_dir : string option;
      (** durability root (snapshot + WAL). When set, the server
          recovers from it at start, logs every committed write before
          acknowledging it, and checkpoints periodically. [None] = pure
          in-memory operation (prior behavior). *)
  fsync : Dbspinner_durable.Durable.policy;
      (** WAL fsync policy when [data_dir] is set; see
          {!Dbspinner_durable.Wal.policy} for what each mode survives *)
  checkpoint_every : float;
      (** seconds between background checkpoints; <= 0 checkpoints on
          every maintenance tick that finds pending WAL records *)
}

val default_config : config

type t

(** Bind, listen and start the accept thread. [catalog] preloads a
    shared database (e.g. from {!Dbspinner_workload.Loader}); a fresh
    empty one otherwise. Ignores SIGPIPE process-wide. *)
val start : ?config:config -> ?catalog:Dbspinner_storage.Catalog.t -> unit -> t

val catalog : t -> Dbspinner_storage.Catalog.t
val draining : t -> bool

(** What recovery found at boot; [None] when running without a
    [data_dir]. *)
val recovery : t -> Dbspinner_durable.Durable.recovery option

(** Graceful shutdown: stop admitting queries, abort in-flight loops
    at their next iteration boundary, answer every waiting client,
    close sockets, join threads, remove the socket file. Idempotent
    and blocking. *)
val shutdown : t -> unit

(** Block until {!shutdown} has completed (from any thread). *)
val wait : t -> unit

(** Trigger {!shutdown} from a session thread without self-joining
    (used by the SHUTDOWN request; returns immediately). *)
val request_shutdown : t -> unit

(** [with_server f] runs [f] against a started server and always shuts
    it down afterwards. *)
val with_server :
  ?config:config ->
  ?catalog:Dbspinner_storage.Catalog.t ->
  (t -> 'a) ->
  'a
