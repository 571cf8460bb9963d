(* The dbspinner command-line interface.

   Subcommands:
     repl              interactive SQL shell (default)
     run FILE          execute a ;-separated SQL script
     demo              load a synthetic graph and run the paper's queries
     trace-check FILE  validate an NDJSON trace file

   The shell supports meta-commands:
     \dt                      list tables
     \load TABLE FILE         load a CSV file into a new table
     \gen NAME [SCALE]        generate a synthetic dataset (dblp-like,
                              pokec-like, webgoogle-like) into edges /
                              vertexStatus
     \set OPTION on|off       toggle rename | common | pushdown |
                              exec_cache | columnar
     \set trace on|off        emit NDJSON trace events to stdout
     \set deadline SECS|off   wall-clock budget per statement
     \set budget ROWS|off     rows-materialized budget per statement
     \set workers N           Domain-pool size for parallel operators
     \set chunk N             min rows before an operator chunks its input
     \options                 show optimizer switches
     \q                       quit *)

module Engine = Dbspinner.Engine
module Options = Dbspinner_rewrite.Options
module Relation = Dbspinner_storage.Relation
module Schema = Dbspinner_storage.Schema
module Column_type = Dbspinner_storage.Column_type
module Catalog = Dbspinner_storage.Catalog
module Trace = Dbspinner_obs.Trace

(* ------------------------------------------------------------------ *)
(* Trace sink: NDJSON events to stdout ("-") or a file                  *)

type trace_sink = {
  sink_trace : Trace.t;
  sink_dest : string;  (** "-" = stdout *)
  mutable sink_last_seq : int;  (** first span seq not yet flushed *)
}

(** Install a fresh session trace on [engine] writing to [dest]
    ("-" = stdout). A file destination is truncated now and appended to
    at each flush. *)
let make_trace_sink engine dest =
  let tr = Engine.enable_trace engine in
  if dest <> "-" then Out_channel.with_open_text dest (fun _ -> ());
  { sink_trace = tr; sink_dest = dest; sink_last_seq = Trace.next_seq tr }

(** Write the spans recorded since the last flush as NDJSON lines. *)
let flush_trace = function
  | None -> ()
  | Some sink ->
    let text = Trace.to_ndjson ~min_seq:sink.sink_last_seq sink.sink_trace in
    sink.sink_last_seq <- Trace.next_seq sink.sink_trace;
    if text <> "" then
      if sink.sink_dest = "-" then print_string text
      else
        Out_channel.with_open_gen
          [ Open_wronly; Open_append; Open_creat ]
          0o644 sink.sink_dest
          (fun oc -> Out_channel.output_string oc text)

let print_result = function
  | Engine.Rows rel -> print_string (Relation.to_table_string rel)
  | Engine.Affected n -> Printf.printf "%d row(s) affected\n" n
  | Engine.Executed -> print_endline "ok"
  | Engine.Explained text -> print_endline text

let safe_exec engine sql =
  match Engine.execute_script engine sql with
  | results -> List.iter print_result results
  | exception Dbspinner.Errors.Error (stage, msg) ->
    Printf.printf "error (%s): %s\n" (Dbspinner.Errors.stage_name stage) msg

let list_tables engine =
  let catalog = Engine.catalog engine in
  match Catalog.table_names catalog with
  | [] -> print_endline "(no tables)"
  | names ->
    List.iter
      (fun name ->
        let table = Catalog.find_table catalog name in
        Printf.printf "%-24s %8d rows  %s\n" name
          (Dbspinner_storage.Table.cardinality table)
          (Format.asprintf "%a" Schema.pp (Dbspinner_storage.Table.schema table)))
      names

let load_csv engine table path =
  (* Infer column types from the first data line: ints, floats,
     otherwise strings. *)
  let ic = open_in path in
  let first = try input_line ic with End_of_file -> "" in
  close_in ic;
  let fields = String.split_on_char ',' first in
  let schema =
    Schema.make
      (List.mapi
         (fun i field ->
           let ty =
             if int_of_string_opt field <> None then Column_type.T_int
             else if float_of_string_opt field <> None then Column_type.T_float
             else Column_type.T_string
           in
           Schema.column ~ty (Printf.sprintf "c%d" i))
         fields)
  in
  let rel = Dbspinner_storage.Csv.load ~schema path in
  Engine.load_table engine ~name:table rel;
  Printf.printf "loaded %d rows into %s\n" (Relation.cardinality rel) table

let generate engine name scale =
  match Dbspinner_graph.Datasets.find name with
  | None ->
    Printf.printf "unknown dataset %s (try dblp-like, pokec-like, webgoogle-like)\n"
      name
  | Some spec ->
    let graph = Dbspinner_graph.Datasets.generate ~scale spec in
    Dbspinner_workload.Loader.load_graph engine graph;
    Printf.printf "generated %s: %d nodes, %d edges -> tables edges, vertexStatus\n"
      name
      (Dbspinner_graph.Graph_gen.num_nodes graph)
      (Dbspinner_graph.Graph_gen.num_edges graph)

(** [\set KEY VALUE] for the keys the server's [SET] shares (see
    {!Options.set_shared_key}); prints the same confirmation or usage
    text the server replies with. *)
let set_shared engine key value =
  match Options.set_shared_key (Engine.options engine) key value with
  | Some (Ok (options, reply)) ->
    Engine.set_options engine options;
    print_endline reply
  | Some (Error usage) -> print_endline usage
  | None ->
    Printf.printf "unknown option %s (%s)\n" key
      (String.concat "|" Options.bool_option_keys)

(** [\set chunk ROWS]: minimum rows before an operator chunks its input. *)
let set_chunk engine value =
  match int_of_string_opt value with
  | Some n when n >= 1 ->
    Engine.set_options engine
      { (Engine.options engine) with Options.parallel_chunk_rows = n };
    Printf.printf "set chunk threshold = %d rows\n" n
  | _ -> print_endline "usage: \\set chunk ROWS (>= 1)"

(** [\set trace on|off]: install / remove a stdout NDJSON trace sink. *)
let set_trace engine sink value =
  match Options.parse_bool value with
  | Some true ->
    sink := Some (make_trace_sink engine "-");
    print_endline "trace on (NDJSON events to stdout)"
  | Some false ->
    flush_trace !sink;
    sink := None;
    Engine.set_trace engine None;
    print_endline "trace off"
  | None -> print_endline "usage: \\set trace on|off"

let handle_meta engine sink line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ "\\q" ] -> `Quit
  | [ "\\dt" ] ->
    list_tables engine;
    `Continue
  | [ "\\load"; table; path ] ->
    (try load_csv engine table path
     with e -> Printf.printf "load failed: %s\n" (Printexc.to_string e));
    `Continue
  | "\\gen" :: name :: rest ->
    let scale =
      match rest with
      | [ s ] -> Option.value (float_of_string_opt s) ~default:1.0
      | _ -> 1.0
    in
    generate engine name scale;
    `Continue
  | [ "\\set"; "chunk"; value ] ->
    set_chunk engine value;
    `Continue
  | [ "\\set"; "trace"; value ] ->
    set_trace engine sink value;
    `Continue
  | [ "\\set"; key; value ] ->
    set_shared engine key value;
    `Continue
  | [ "\\options" ] ->
    print_endline (Options.to_string (Engine.options engine));
    `Continue
  | _ ->
    print_endline
      (Printf.sprintf
         "meta-commands: \\dt  \\load TABLE FILE  \\gen NAME [SCALE]  \\set \
          OPT on|off (%s)  \\set trace on|off  \\set deadline SECS|off  \
          \\set budget ROWS|off  \\set workers N  \\set chunk ROWS  \
          \\options  \\q"
         (String.concat "|" Options.bool_option_keys));
    `Continue

(** Session options for a CLI invocation: [--workers N] sets the
    Domain-pool size for chunk-parallel operators; [--no-exec-cache]
    disables the iteration-aware executor cache; [--no-columnar] falls
    back to row-at-a-time operators. *)
let options_of_workers workers no_cache no_columnar =
  {
    Options.default with
    Options.parallel_workers = max 1 workers;
    use_exec_cache = not no_cache;
    use_columnar = not no_columnar;
  }

let repl workers no_cache no_columnar trace_dest =
  let engine =
    Engine.create ~options:(options_of_workers workers no_cache no_columnar) ()
  in
  let sink = ref (Option.map (make_trace_sink engine) trace_dest) in
  print_endline "dbspinner shell — SQL with WITH ITERATIVE support.";
  print_endline "Type \\gen dblp-like 0.2 to load a sample graph; \\q to quit.";
  let buffer = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "dbspinner> " else "      ...> ");
    match read_line () with
    | exception End_of_file -> flush_trace !sink
    | line when Buffer.length buffer = 0 && String.length line > 0 && line.[0] = '\\'
      -> (
      match handle_meta engine sink (String.trim line) with
      | `Quit -> flush_trace !sink
      | `Continue -> loop ())
    | line ->
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n';
      let text = Buffer.contents buffer in
      (* Execute once the statement is ';'-terminated. *)
      if String.contains line ';' then begin
        Buffer.clear buffer;
        safe_exec engine text;
        flush_trace !sink
      end;
      loop ()
  in
  loop ();
  0

let run_file workers no_cache no_columnar trace_dest path =
  match In_channel.with_open_text path In_channel.input_all with
  | sql ->
    let engine =
      Engine.create
        ~options:(options_of_workers workers no_cache no_columnar)
        ()
    in
    let sink = Option.map (make_trace_sink engine) trace_dest in
    (match Engine.execute_script engine sql with
    | results ->
      List.iter print_result results;
      flush_trace sink;
      0
    | exception Dbspinner.Errors.Error (stage, msg) ->
      flush_trace sink;
      Printf.eprintf "error (%s): %s\n" (Dbspinner.Errors.stage_name stage) msg;
      1)
  | exception Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    1

let demo workers no_cache no_columnar trace_dest =
  let engine =
    Engine.create ~options:(options_of_workers workers no_cache no_columnar) ()
  in
  let sink = Option.map (make_trace_sink engine) trace_dest in
  generate engine "dblp-like" 0.25;
  print_endline "\n== PageRank (10 iterations), top 5 ==";
  print_string
    (Relation.to_table_string
       (Engine.query engine
          (Dbspinner_workload.Queries.pr ~iterations:10
             ~final:"SELECT Node, Rank FROM PageRank ORDER BY Rank DESC LIMIT 5"
             ())));
  print_endline "\n== SSSP from node 0 (15 iterations), 5 nearest ==";
  print_string
    (Relation.to_table_string
       (Engine.query engine
          (Dbspinner_workload.Queries.sssp ~source:0 ~iterations:15
             ~final:
               "SELECT Node, LEAST(Distance, Delta) AS dist FROM sssp WHERE \
                LEAST(Distance, Delta) < 9999999 ORDER BY dist LIMIT 5"
             ())));
  print_endline "\n== Friends forecast (10 periods), 1% sample ==";
  print_string
    (Relation.to_table_string
       (Engine.query engine
          (Dbspinner_workload.Queries.ff ~modulus:100 ~iterations:10 ())));
  flush_trace sink;
  0

(* ------------------------------------------------------------------ *)
(* trace-check: validate an NDJSON trace file                         *)

(** Validate [path] as an NDJSON trace: one event per line, each
    checked against the span schema. Returns a process exit code. *)
let trace_check path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | contents ->
    let lines =
      String.split_on_char '\n' contents
      |> List.filter (fun l -> String.trim l <> "")
    in
    if lines = [] then begin
      Printf.eprintf "%s: empty trace\n" path;
      1
    end
    else begin
      let errors = ref 0 in
      List.iteri
        (fun i line ->
          match Trace.validate_event line with
          | Ok () -> ()
          | Error msg ->
            incr errors;
            if !errors <= 5 then
              Printf.eprintf "%s:%d: invalid trace event: %s\n" path (i + 1)
                msg)
        lines;
      if !errors = 0 then begin
        Printf.printf "%s: ok (%d trace events)\n" path (List.length lines);
        0
      end
      else begin
        Printf.eprintf "%s: %d invalid events\n" path !errors;
        1
      end
    end

(* ------------------------------------------------------------------ *)
(* client: talk to a running dbspinner server                          *)

module Client = Dbspinner_server.Client

(** [SET name value] is a protocol command, not SQL — recognize bare
    [-e "SET budget 100000"] strings and route them through the
    session-option request instead of the query path. *)
let as_set_command sql =
  let s = String.trim sql in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = ';' then
      String.trim (String.sub s 0 (String.length s - 1))
    else s
  in
  let words =
    String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s
    |> String.split_on_char ' '
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ kw; name; value ] when String.lowercase_ascii kw = "set" ->
    Some (name, value)
  | _ -> None

(** Run against a server: execute [-e SQL] strings and/or a script
    file, or print server STATS, or request a graceful SHUTDOWN.
    [pipelined] streams all scripts in one tagged batch (one
    round-trip) instead of request/response per script. *)
let client_mode socket_path commands file show_stats do_shutdown pipelined =
  let scripts =
    commands
    @
    match file with
    | None -> []
    | Some path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | sql -> [ sql ]
      | exception Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1)
  in
  if scripts = [] && not (show_stats || do_shutdown) then begin
    Printf.eprintf
      "nothing to do: pass -e SQL, a script FILE, --stats or --shutdown\n";
    exit 2
  end;
  match Client.connect ~socket_path () with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot connect to %s: %s\n" socket_path
      (Unix.error_message e);
    1
  | client ->
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        let failed = ref false in
        if pipelined then begin
          (* SET commands change session state the later scripts depend
             on, so they stay synchronous even in pipelined mode; runs
             of plain scripts between them go out as one batch. *)
          let flush_batch batch =
            match List.rev batch with
            | [] -> ()
            | sqls ->
              List.iter
                (function
                  | Ok body -> print_string body
                  | Error (status, msg) ->
                    failed := true;
                    Printf.eprintf "%s: %s\n" status msg)
                (Client.pipeline_queries client sqls)
          in
          let batch =
            List.fold_left
              (fun batch sql ->
                match as_set_command sql with
                | Some (name, value) ->
                  flush_batch batch;
                  (match Client.set client name value with
                  | Ok reply -> print_endline reply
                  | Error msg ->
                    failed := true;
                    Printf.eprintf "SET %s: %s\n" name msg);
                  []
                | None -> sql :: batch)
              [] scripts
          in
          flush_batch batch
        end
        else
          List.iter
            (fun sql ->
              match as_set_command sql with
              | Some (name, value) -> (
                match Client.set client name value with
                | Ok reply -> print_endline reply
                | Error msg ->
                  failed := true;
                  Printf.eprintf "SET %s: %s\n" name msg)
              | None -> (
                match Client.query client sql with
                | Ok body -> print_string body
                | Error (status, msg) ->
                  failed := true;
                  Printf.eprintf "%s: %s\n" status msg))
            scripts;
        if show_stats then
          List.iter
            (fun (k, v) -> Printf.printf "%s %s\n" k v)
            (Client.stats client);
        if do_shutdown then Client.shutdown_server client
        else Client.quit client;
        if !failed then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)

open Cmdliner

let workers_arg =
  Arg.(
    value
    & opt int 1
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:
          "Domain-pool size for chunk-parallel operators (1 = sequential; \
           results are identical either way).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-exec-cache" ]
        ~doc:
          "Disable the iteration-aware executor cache (loop-invariant \
           join-build reuse and compiled expressions). Results are \
           identical either way; use for perf comparisons.")

let no_columnar_arg =
  Arg.(
    value & flag
    & info [ "no-columnar" ]
        ~doc:
          "Disable vectorized columnar execution: filter, project, join \
           probe and aggregate fall back to row-at-a-time evaluation. \
           Results are identical either way; use for perf comparisons.")

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record iteration-aware trace spans (steps, loop iterations with \
           convergence gauges, operator families) and emit them as NDJSON \
           events after each statement — to $(docv), or to stdout when no \
           file is given.")

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive SQL shell")
    Term.(
      const repl $ workers_arg $ no_cache_arg $ no_columnar_arg $ trace_arg)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "run" ~doc:"Execute a SQL script")
    Term.(
      const run_file $ workers_arg $ no_cache_arg $ no_columnar_arg $ trace_arg
      $ file)

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's queries on a synthetic graph")
    Term.(
      const demo $ workers_arg $ no_cache_arg $ no_columnar_arg $ trace_arg)

let client_cmd =
  let socket =
    Arg.(
      value
      & opt string
          Dbspinner_server.Server.default_config
            .Dbspinner_server.Server.socket_path
      & info [ "s"; "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the server.")
  in
  let execute =
    Arg.(
      value & opt_all string []
      & info [ "e"; "execute" ] ~docv:"SQL"
          ~doc:"SQL script to run (repeatable; runs before FILE).")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print server counters after the scripts.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the server to shut down gracefully afterwards.")
  in
  let pipeline =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Stream all scripts to the server as one tagged batch (one \
             round-trip) instead of request/response per script; responses \
             come back in order.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Run SQL against a running dbspinner server")
    Term.(
      const client_mode $ socket $ execute $ file $ stats $ shutdown
      $ pipeline)

let trace_check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate an NDJSON trace file against the trace event schema")
    Term.(const trace_check $ file)

let main_cmd =
  let doc = "An analytical SQL engine with native iterative CTEs (DBSpinner)" in
  Cmd.group
    ~default:
      Term.(
        const repl $ workers_arg $ no_cache_arg $ no_columnar_arg $ trace_arg)
    (Cmd.info "dbspinner" ~version:"1.0.0" ~doc)
    [ repl_cmd; run_cmd; demo_cmd; client_cmd; trace_check_cmd ]

let () = exit (Cmd.eval' main_cmd)
