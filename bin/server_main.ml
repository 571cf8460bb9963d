(* The dbspinner server binary: serve a shared database over a
   Unix-domain socket until SIGINT/SIGTERM (or a client SHUTDOWN
   request), then drain gracefully.

   A --gen dataset preloads the shared catalog with a synthetic graph
   (edges / vertexStatus), so clients can run the paper's iterative
   workloads immediately. With --data-dir, the preload only happens on
   the first boot — afterwards the recovered state wins (and the
   preload itself is durable, captured by the boot checkpoint). *)

module Server = Dbspinner_server.Server
module Options = Dbspinner_rewrite.Options
module Engine = Dbspinner.Engine
module Durable = Dbspinner_durable.Durable

let preload_catalog gen scale =
  match gen with
  | None -> None
  | Some name ->
    let spec =
      match Dbspinner_graph.Datasets.find name with
      | Some spec -> spec
      | None ->
        Printf.eprintf "unknown dataset %s (try dblp-like, pokec-like)\n" name;
        exit 2
    in
    let graph = Dbspinner_graph.Datasets.generate ~scale spec in
    let engine = Engine.create () in
    Dbspinner_workload.Loader.load_graph engine graph;
    Printf.printf "preloaded %s (scale %g): %d nodes, %d edges\n%!" name scale
      (Dbspinner_graph.Graph_gen.num_nodes graph)
      (Dbspinner_graph.Graph_gen.num_edges graph);
    Some (Engine.catalog engine)

let serve socket_path max_sessions max_inflight workers deadline
    statement_timeout budget max_iterations gen scale data_dir fsync
    checkpoint_every =
  let fsync =
    match Durable.policy_of_string fsync with
    | Some p -> p
    | None ->
      Printf.eprintf "invalid --fsync %s (always|batch|off)\n" fsync;
      exit 2
  in
  let options =
    {
      Options.default with
      Options.deadline_seconds = deadline;
      statement_timeout_seconds = statement_timeout;
      row_budget = budget;
      max_iterations_guard = max_iterations;
    }
  in
  let config =
    {
      Server.socket_path;
      max_sessions;
      max_inflight;
      workers;
      options;
      data_dir;
      fsync;
      checkpoint_every;
    }
  in
  (* A preload would clash with (and be overwritten by) recovered
     state; only the first boot of a data dir gets to seed it. *)
  let catalog =
    match data_dir with
    | Some dir when Durable.has_state ~dir ->
      if gen <> None then
        Printf.printf "skipping --gen preload: %s already holds state\n%!" dir;
      None
    | _ -> preload_catalog gen scale
  in
  let server =
    try Server.start ~config ?catalog ()
    with Durable.Durability_error msg ->
      Printf.eprintf "durability error: %s\n" msg;
      exit 1
  in
  (match Server.recovery server with
  | Some r -> Printf.printf "%s\n%!" (Durable.render_recovery r)
  | None -> ());
  let stop _ = Server.request_shutdown server in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Printf.printf
    "dbspinner server listening on %s (max %d sessions, %d in-flight, %d \
     workers%s)\n\
     %!"
    socket_path max_sessions max_inflight workers
    (match data_dir with
    | Some dir ->
      Printf.sprintf ", durable at %s fsync=%s" dir
        (Durable.policy_to_string fsync)
    | None -> "");
  Server.wait server;
  print_endline "server drained, bye";
  0

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string Server.default_config.Server.socket_path
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let max_sessions_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.max_sessions
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:"Maximum concurrent client connections.")

let max_inflight_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.max_inflight
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Maximum queries executing at once; queries beyond this are \
           rejected with BUSY, never queued.")

let workers_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.workers
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:"Domain-pool size query work is submitted to.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Default per-statement wall-clock budget for every session.")

let statement_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "statement-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-script statement timeout ceiling for every session; sessions \
           may tighten it with SET statement_timeout but never exceed it. \
           Keeps a wedged query from stalling the checkpointer or shutdown \
           drain.")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"ROWS"
        ~doc:"Default per-statement rows-materialized budget.")

let max_iterations_arg =
  Arg.(
    value
    & opt int Options.default.Options.max_iterations_guard
    & info [ "max-iterations" ] ~docv:"N"
        ~doc:"Safety bound on loop iterations per iterative CTE.")

let gen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "gen" ] ~docv:"DATASET"
        ~doc:
          "Preload the shared database with a synthetic graph dataset \
           (e.g. dblp-like).")

let scale_arg =
  Arg.(
    value
    & opt float 0.25
    & info [ "scale" ] ~docv:"FACTOR" ~doc:"Scale factor for --gen.")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Durability directory (snapshot + write-ahead log). The server \
           recovers from it at start, logs every committed write before \
           acknowledging it, and checkpoints periodically. Omit for pure \
           in-memory operation.")

let fsync_arg =
  Arg.(
    value
    & opt string "batch"
    & info [ "fsync" ] ~docv:"MODE"
        ~doc:
          "WAL fsync policy: $(b,always) fsyncs before every \
           acknowledgement (survives OS crash), $(b,batch) writes to the \
           kernel before acknowledging and fsyncs in the background \
           (survives process death; an OS crash may lose the un-synced \
           suffix), $(b,off) buffers in user space ($(b,the only mode that \
           may lose acknowledged writes on process death)).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt float Server.default_config.Server.checkpoint_every
    & info [ "checkpoint-every" ] ~docv:"SECONDS"
        ~doc:
          "Seconds between background checkpoints (taken only when the WAL \
           has pending records); 0 checkpoints as often as possible.")

let cmd =
  Cmd.v
    (Cmd.info "dbspinner-server" ~version:"1.0.0"
       ~doc:
         "Serve DBSpinner over a Unix-domain socket with per-session \
          isolation, admission control, graceful drain and optional \
          crash-safe durability")
    Term.(
      const serve $ socket_arg $ max_sessions_arg $ max_inflight_arg
      $ workers_arg $ deadline_arg $ statement_timeout_arg $ budget_arg
      $ max_iterations_arg $ gen_arg $ scale_arg $ data_dir_arg $ fsync_arg
      $ checkpoint_every_arg)

let () = exit (Cmd.eval' cmd)
