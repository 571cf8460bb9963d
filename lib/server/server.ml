(** The DBSpinner server: a concurrent multi-session SQL front-end
    over a Unix-domain socket.

    Threading model: one OS thread accepts connections and one OS
    thread per session parses frames and blocks on I/O, while query
    CPU work is submitted to the shared {!Parallel} Domain pool
    ({!Parallel.submit}) — so N idle sessions cost N parked threads,
    not N domains, and the pool bounds actual query parallelism.

    Isolation: every session executes over a
    {!Catalog.with_shared_base} view of one shared database. Base
    tables (and DDL) are shared; iterative CTE temps are
    session-private. Read statements take MVCC snapshots: they pin the
    latest published catalog version (immutable frozen tables over
    persistent row lists) and execute with no lock at all, so
    concurrent read-only scripts (the common case: iterative
    analytics) run fully in parallel, cannot be starved by writers,
    and each sees one stable database for its whole script. Write
    statements serialize on a writer lock and publish a new catalog
    version before their OK is sent (read-your-writes).

    Admission control: at most [max_inflight] queries execute at once;
    excess queries are {e rejected} with [BUSY] rather than queued, so
    overload surfaces immediately instead of as timeout storms.

    Shutdown drains at iteration boundaries: a draining flag flips the
    per-session interrupt probe (polled by {!Guards.check} at
    materialize and loop boundaries), so in-flight iterative loops
    abort cleanly with a [Resource]-stage error at the next boundary —
    the same mechanism the MPP layer's checkpoints hook — and every
    client gets a response before its socket closes. *)

module Engine = Dbspinner.Engine
module Errors = Dbspinner.Errors
module Options = Dbspinner_rewrite.Options
module Catalog = Dbspinner_storage.Catalog
module Parallel = Dbspinner_exec.Parallel
module Durable = Dbspinner_durable.Durable

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  socket_path : string;
  max_sessions : int;  (** concurrent client connections *)
  max_inflight : int;  (** concurrent executing queries (admission) *)
  workers : int;  (** Domain-pool size query work is submitted to *)
  options : Options.t;  (** per-session engine defaults *)
  data_dir : string option;
      (** durability root (snapshot + WAL); [None] = in-memory only *)
  fsync : Durable.policy;  (** WAL fsync policy when [data_dir] is set *)
  checkpoint_every : float;
      (** seconds between background checkpoints (only taken when the
          WAL has pending records); <= 0 checkpoints on every
          maintenance tick that finds pending records *)
}

let default_config =
  {
    socket_path = Filename.concat (Filename.get_temp_dir_name ()) "dbspinner.sock";
    max_sessions = 64;
    max_inflight = 8;
    workers = 4;
    options = Options.default;
    data_dir = None;
    fsync = Durable.Batch;
    checkpoint_every = 30.0;
  }

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  catalog : Catalog.t;  (** the shared database *)
  admission : Admission.t;
  metrics : Metrics.t;
  pool : Parallel.t;
  writer_lock : Mutex.t;
      (** serializes write statements and durable checkpoints; readers
          never touch it *)
  plans : Plan_cache.t;  (** cross-session plan cache *)
  durable : Durable.t option;
  draining : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable maintenance_thread : Thread.t option;
      (** periodic WAL sync + checkpointing; runs iff [durable] is set *)
  conn_lock : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;  (** live session sockets *)
  mutable session_threads : Thread.t list;
  mutable next_session : int;
  shutdown_done : Mutex.t * Condition.t * bool ref;
  mutable on_shutdown_request : unit -> unit;
      (** set at [start]; spawns the drain off the session thread *)
}

let catalog t = t.catalog
let draining t = Atomic.get t.draining

(** What recovery found at boot, when running durably. *)
let recovery t = Option.map Durable.recovery t.durable

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)

let stage_of_exn = function
  | Errors.Error (stage, msg) -> (Errors.stage_name stage, msg)
  | e -> ("internal", Printexc.to_string e)

let durable_error_message = function
  | Durable.Durability_error m -> m
  | Unix.Unix_error (err, call, arg) ->
    Printf.sprintf "%s(%s): %s" call arg (Unix.error_message err)
  | e -> Printexc.to_string e

let exec_query srv session sql : Protocol.response =
  if Atomic.get srv.draining then
    Protocol.Closing "server is shutting down; no new queries"
  else if not (Admission.try_acquire srv.admission) then
    Protocol.Busy
      (Printf.sprintf "server at capacity (%d queries in flight); retry"
         (Admission.limit srv.admission))
  else
    Fun.protect
      ~finally:(fun () -> Admission.release srv.admission)
      (fun () ->
        let read = Protocol.read_only sql in
        let t0 = Unix.gettimeofday () in
        let run () =
          (* The session thread parks here while a pool domain does
             the CPU work. *)
          match
            Parallel.submit srv.pool (fun () -> Session.run_script session sql)
          with
          | body -> Ok body
          | exception e -> Error (stage_of_exn e)
        in
        let finish outcome =
          match outcome with
          | Ok body ->
            Metrics.query_done srv.metrics ~read ~ok:true
              ~seconds:(Unix.gettimeofday () -. t0);
            Protocol.Ok_result body
          | Error (stage, msg) ->
            Metrics.query_done srv.metrics ~read ~ok:false
              ~seconds:(Unix.gettimeofday () -. t0);
            Protocol.Err (stage, msg)
        in
        if read then begin
          (* Read path: pin the latest published snapshot and run with
             NO lock at all. The snapshot's tables are immutable
             (persistent row lists), so concurrent writers — who only
             ever publish whole new versions — cannot perturb this
             statement, and a stream of writes cannot starve it. *)
          Session.pin session (Catalog.snapshot srv.catalog);
          Fun.protect
            ~finally:(fun () -> Session.unpin session)
            (fun () -> finish (run ()))
        end
        else
          Mutex.protect srv.writer_lock (fun () ->
              let digest_before = Catalog.base_digest srv.catalog in
              let outcome = run () in
              let digest = Catalog.base_digest srv.catalog in
              let changed = digest <> digest_before in
              (* Publish-before-ack: the new catalog version must be
                 visible before the client hears OK, so its very next
                 read (which pins the latest snapshot) observes its own
                 write. Failed scripts publish too when they mutated
                 anything — partial DML is committed state here. Stale
                 plan-cache entries are swept in the same breath. *)
              if changed then begin
                let snap = Catalog.publish srv.catalog in
                Plan_cache.sweep srv.plans
                  ~version:(Catalog.snapshot_version snap)
              end;
              (* Log-before-ack: the WAL append happens after execution
                 but before the response, still under the writer lock,
                 so a checkpoint can never slip between a mutation and
                 its log record. Replay is deterministic, so re-running
                 a failed-but-mutating script recovers the exact
                 state. *)
              let log_result =
                match srv.durable with
                | Some d when changed -> (
                  try Ok (Durable.log_script d ~digest ~sql)
                  with e -> Error e)
                | _ -> Ok ()
              in
              match log_result with
              | Error e ->
                (* The mutation happened but could not be made durable;
                   the client must not see an OK it could lose. *)
                Metrics.query_done srv.metrics ~read ~ok:false
                  ~seconds:(Unix.gettimeofday () -. t0);
                Protocol.Err ("durable", durable_error_message e)
              | Ok () -> finish outcome))

(* ------------------------------------------------------------------ *)
(* Session loop                                                        *)

let handle_request srv session (req : Protocol.request) : Protocol.response * bool =
  match req with
  | Protocol.Ping -> (Protocol.Pong, true)
  | Protocol.Query sql -> (exec_query srv session sql, true)
  | Protocol.Set (key, value) -> (
    match Session.set session key value with
    | Ok confirmation -> (Protocol.Ok_result confirmation, true)
    | Error usage -> (Protocol.Err ("set", usage), true))
  | Protocol.Stats ->
    let version = Catalog.snapshot_version (Catalog.snapshot srv.catalog) in
    let read_path_extra =
      [
        ("snapshot_version", string_of_int version);
        ("plan_hits", string_of_int (Plan_cache.hits srv.plans));
        ("plan_misses", string_of_int (Plan_cache.misses srv.plans));
        ("plan_entries", string_of_int (Plan_cache.size srv.plans));
      ]
    in
    let durable_extra =
      match srv.durable with
      | None -> []
      | Some d ->
        let c = Durable.counters d in
        [
          ("fsync_policy", Durable.policy_to_string (Durable.policy d));
          ("wal_records", string_of_int c.Durable.wal_records);
          ("wal_bytes", string_of_int c.Durable.wal_bytes);
          ("wal_fsyncs", string_of_int c.Durable.wal_fsyncs);
          ("checkpoints", string_of_int c.Durable.checkpoints);
          ("ddl_events", string_of_int c.Durable.ddl_events);
        ]
    in
    ( Protocol.Ok_result
        (Metrics.render
           ~extra:(read_path_extra @ durable_extra)
           srv.metrics ~admission:srv.admission
           ~draining:(Atomic.get srv.draining)),
      true )
  | Protocol.Trace -> (Protocol.Ok_result (Session.trace_ndjson session), true)
  | Protocol.Quit -> (Protocol.Bye, false)
  | Protocol.Shutdown ->
    srv.on_shutdown_request ();
    (Protocol.Bye, false)

let session_loop srv fd session =
  let continue = ref true in
  while !continue do
    match Protocol.read_frame fd with
    | None -> continue := false
    | Some payload ->
      (* Pipelining: a [#<id>\n] prefix is split off before parsing
         and echoed on the response. The loop itself already services
         back-to-back frames in arrival order, so a client may stream
         a whole batch and then collect the (order-preserving, id-
         tagged) responses. *)
      let tag, body = Protocol.strip_id payload in
      let response, keep_going =
        match Protocol.parse_request body with
        | Ok req -> handle_request srv session req
        | Error msg -> (Protocol.Err ("protocol", msg), true)
      in
      let rendered = Protocol.render_response response in
      let rendered =
        match tag with
        | Some id -> Protocol.with_id id rendered
        | None -> rendered
      in
      (* The peer may vanish between request and response (EPIPE);
         that ends the session, it must not kill the thread. *)
      (try
         Protocol.write_frame fd rendered;
         continue := keep_going
       with Unix.Unix_error _ -> continue := false)
    | exception (End_of_file | Unix.Unix_error _ | Protocol.Protocol_error _)
      ->
      continue := false
  done

let serve_connection srv id fd =
  let session =
    Session.create ~id ~options:srv.config.options
      ~shared_catalog:srv.catalog
  in
  (* Drain hook: once the server starts draining, the probe makes this
     session's in-flight statements abort at their next guard
     boundary. *)
  Engine.set_interrupt (Session.engine session)
    (Some
       (fun () ->
         if Atomic.get srv.draining then Some "server shutting down"
         else None));
  (* Cross-session plan cache: compiled programs are keyed by
     (normalized SQL, pinned snapshot version, options fingerprint).
     Only snapshot-pinned statements participate — a write is unpinned
     and has no version to key by, and the engine already bypasses the
     hook when the session has views. *)
  let engine = Session.engine session in
  Engine.set_plan_hook engine
    (Some
       (fun q compile ->
         match Session.pinned_version session with
         | Some version ->
           Plan_cache.find_or_compile srv.plans
             ~sql:(Dbspinner_sql.Sql_pretty.full_query q)
             ~version
             ~opts:(Plan_cache.fingerprint (Engine.options engine))
             compile
         | None -> compile ()));
  Metrics.session_opened srv.metrics;
  Fun.protect
    ~finally:(fun () ->
      Metrics.session_closed srv.metrics;
      Mutex.lock srv.conn_lock;
      Hashtbl.remove srv.conns id;
      Mutex.unlock srv.conn_lock;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> session_loop srv fd session)

let accept_loop srv () =
  let continue = ref true in
  while !continue do
    match Unix.accept srv.listen_fd with
    | exception
        Unix.Unix_error
          ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _ ->
      if Atomic.get srv.draining then begin
        (* Late connector during shutdown: answer once, then close —
           and exit the loop rather than re-entering [accept].
           Re-entering would race [shutdown]'s close of the listening
           socket: closing an fd does not wake a thread already
           blocked in accept, and the join would hang forever. *)
        (try
           Protocol.write_frame fd
             (Protocol.render_response
                (Protocol.Closing "server is shutting down"))
         with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        continue := false
      end
      else begin
        Mutex.lock srv.conn_lock;
        let at_capacity =
          Hashtbl.length srv.conns >= srv.config.max_sessions
        in
        let id = srv.next_session in
        if not at_capacity then begin
          srv.next_session <- id + 1;
          Hashtbl.replace srv.conns id fd
        end;
        Mutex.unlock srv.conn_lock;
        if at_capacity then begin
          (try
             Protocol.write_frame fd
               (Protocol.render_response
                  (Protocol.Busy
                     (Printf.sprintf "session limit (%d) reached"
                        srv.config.max_sessions)))
           with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          let thread = Thread.create (fun () -> serve_connection srv id fd) () in
          Mutex.lock srv.conn_lock;
          srv.session_threads <- thread :: srv.session_threads;
          Mutex.unlock srv.conn_lock
        end
      end
  done

(* ------------------------------------------------------------------ *)
(* Durability maintenance                                              *)

(** Background loop: push buffered WAL bytes toward disk every tick
    ([Batch]'s periodic fsync) and checkpoint when the interval has
    elapsed with records pending. The checkpoint takes the writer lock,
    so it sees a quiescent catalog; the statement-timeout guard keeps a
    wedged query from holding that lock forever. *)
let maintenance_loop srv d () =
  let last_checkpoint = ref (Unix.gettimeofday ()) in
  while not (Atomic.get srv.draining) do
    Thread.delay 0.05;
    (try Durable.tick d
     with e -> prerr_endline ("durable tick: " ^ durable_error_message e));
    if
      Unix.gettimeofday () -. !last_checkpoint >= srv.config.checkpoint_every
      && Durable.pending_records d > 0
      && not (Atomic.get srv.draining)
    then begin
      Mutex.protect srv.writer_lock (fun () ->
          try Durable.checkpoint d
          with e ->
            prerr_endline ("durable checkpoint: " ^ durable_error_message e));
      last_checkpoint := Unix.gettimeofday ()
    end
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?(config = default_config) ?catalog () : t =
  (* A dead client mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let catalog = match catalog with Some c -> c | None -> Catalog.create () in
  (* Recover before the socket exists: no client can connect until the
     catalog is fully rebuilt. Replay runs each logged script through a
     throwaway session view exactly like live execution, swallowing
     statement errors (they are deterministic and their partial effects
     are part of the logged digest). *)
  let durable =
    match config.data_dir with
    | None -> None
    | Some dir ->
      let replay sql =
        let eng =
          Engine.create ~options:config.options
            ~catalog:(Catalog.with_shared_base catalog) ()
        in
        match Engine.execute_script eng sql with
        | _ -> ()
        | exception _ -> ()
      in
      Some (Durable.attach ~dir ~policy:config.fsync ~catalog ~replay)
  in
  (* Publish the initial snapshot only after recovery has rebuilt the
     catalog, so the very first pinned reader sees the recovered
     database, not an empty version 0. *)
  ignore (Catalog.publish catalog);
  if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  let srv =
    {
      config;
      listen_fd;
      catalog;
      admission = Admission.create ~limit:config.max_inflight;
      metrics = Metrics.create ();
      pool = Parallel.get config.workers;
      writer_lock = Mutex.create ();
      plans = Plan_cache.create ();
      durable;
      draining = Atomic.make false;
      accept_thread = None;
      maintenance_thread = None;
      conn_lock = Mutex.create ();
      conns = Hashtbl.create 16;
      session_threads = [];
      next_session = 1;
      shutdown_done = (Mutex.create (), Condition.create (), ref false);
      on_shutdown_request = ignore;
    }
  in
  srv.accept_thread <- Some (Thread.create (accept_loop srv) ());
  (match durable with
  | Some d ->
    srv.maintenance_thread <- Some (Thread.create (maintenance_loop srv d) ())
  | None -> ());
  srv

(** Graceful shutdown: stop admitting, let in-flight loops abort at
    their next iteration boundary (interrupt probe), answer every
    waiting client, then close sockets, join threads and remove the
    socket file. Idempotent. *)
let shutdown srv =
  if not (Atomic.exchange srv.draining true) then begin
    (* Wake the accept loop. shutdown(2) on the listening socket
       reliably interrupts a blocked [accept] (unlike close(2), which
       leaves an already-parked accept sleeping); the throwaway
       connection is belt-and-braces for the instant between accepting
       one connection and re-checking the draining flag. Only close
       the fd once the thread is joined. *)
    (try Unix.shutdown srv.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX srv.config.socket_path)
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (match srv.accept_thread with
    | Some t ->
      Thread.join t;
      srv.accept_thread <- None
    | None -> ());
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (* Session threads drain on their own: in-flight statements abort
       at the next guard boundary and are answered with a Resource
       error; subsequent queries get CLOSING. Shut the read side of
       every live connection so sessions parked in [read_frame] (idle
       clients) wake up with EOF instead of blocking shutdown. *)
    Mutex.lock srv.conn_lock;
    let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) srv.conns [] in
    let threads = srv.session_threads in
    srv.session_threads <- [];
    Mutex.unlock srv.conn_lock;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      fds;
    List.iter Thread.join threads;
    (match srv.maintenance_thread with
    | Some t ->
      Thread.join t;
      srv.maintenance_thread <- None
    | None -> ());
    (* Final checkpoint: collapse the WAL into a snapshot so the next
       boot replays nothing, then close the log. *)
    (match srv.durable with
    | Some d -> (
      try
        if Durable.pending_records d > 0 then Durable.checkpoint d;
        Durable.close d
      with e ->
        prerr_endline ("durable shutdown: " ^ durable_error_message e))
    | None -> ());
    if Sys.file_exists srv.config.socket_path then
      Sys.remove srv.config.socket_path;
    let lock, cond, flag = srv.shutdown_done in
    Mutex.lock lock;
    flag := true;
    Condition.broadcast cond;
    Mutex.unlock lock
  end

(** Block until {!shutdown} has completed (from any thread). *)
let wait srv =
  let lock, cond, flag = srv.shutdown_done in
  Mutex.lock lock;
  while not !flag do
    Condition.wait cond lock
  done;
  Mutex.unlock lock

(* A SHUTDOWN request must not run [shutdown] on the session thread
   itself (it would join itself); hand it to a fresh thread. *)
let request_shutdown srv =
  ignore (Thread.create (fun () -> shutdown srv) ())

let start ?config ?catalog () =
  let srv = start ?config ?catalog () in
  srv.on_shutdown_request <- (fun () -> request_shutdown srv);
  srv

let with_server ?config ?catalog f =
  let srv = start ?config ?catalog () in
  Fun.protect ~finally:(fun () -> shutdown srv) (fun () -> f srv)
