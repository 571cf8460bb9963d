(* The server workload: the built dbspinner-server binary in its own
   process, a reader and a writer connection from this one. Every read
   is checked against the graph oracles, every write against the
   writer's own model of the side table, which is read back at the end.
   A watchdog kills a server that leaves a request unanswered, so a
   wedged server fails the run instead of hanging it. *)

open Common
module Client = Dbspinner_server.Client
module Graph_gen = Dbspinner_graph.Graph_gen
module Rng = Dbspinner_graph.Rng
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader

let name = "server-mixed"

let why =
  "short iterative reads beside single-row writes through the server: \
   parse, compile, protocol, plan cache, snapshot publish and WAL become a \
   visible share of each statement"

let nodes = 1_000
let edges_per_node = 3
let checkpoint_every = 2.0
let side_keys = 200
let rows_per_insert = 250
let setup_reps = 15
let slices = 5

(* A request unanswered this long means a wedged server. *)
let request_timeout = 20.0

let server_exe = "_build/default/bin/server_main.exe"

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)

type server = {
  pid : int;
  started : float;
  dir : string;
  socket : string;
  log : string;
}

let spawn () =
  if not (Sys.file_exists server_exe) then
    broken "%s is missing; build it with: dune build ./bin/server_main.exe"
      server_exe;
  let dir = fresh_dir name in
  let socket = Filename.concat dir "s.sock"
  and log = Filename.concat dir "server.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process server_exe
      [|
        server_exe;
        "--socket"; socket;
        "--data-dir"; Filename.concat dir "data";
        "--fsync"; "batch";
        "--checkpoint-every"; string_of_float checkpoint_every;
        "--workers"; "2";
      |]
      Unix.stdin out out
  in
  Unix.close out;
  { pid; started = now (); dir; socket; log }

let log_tail srv =
  match In_channel.with_open_text srv.log In_channel.input_all with
  | text ->
    let n = String.length text in
    if n > 2000 then String.sub text (n - 2000) 2000 else text
  | exception Sys_error _ -> "(no log)"

(* [Some status] once the process has exited (and been reaped). *)
let exited srv =
  match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255)

let connect ?(seed = 0) srv =
  let deadline = now () +. 15.0 in
  let rec go () =
    match Client.connect ~seed ~socket_path:srv.socket () with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match exited srv with
      | Some _ -> broken "server died while booting:\n%s" (log_tail srv)
      | None -> ());
      if now () > deadline then broken "server did not accept within 15 s";
      (* Polling finely keeps the boot time's resolution. *)
      Thread.delay 0.001;
      go ()
  in
  go ()

let kill srv =
  match exited srv with
  | Some _ -> ()
  | None ->
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] srv.pid)

(* Graceful shutdown: ask, wait for exit, then check the drain (exit
   status 0, socket removed). A server that does not exit in 20 s is
   killed and the run fails. *)
let shutdown srv =
  (match Client.connect ~socket_path:srv.socket () with
  | c -> (try Client.shutdown_server c with _ -> Client.close c)
  | exception Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match exited srv with
    | Some status -> status
    | None when now () > deadline ->
      kill srv;
      broken "server did not drain within 20 s of SHUTDOWN"
    | None ->
      Thread.delay 0.02;
      wait ()
  in
  match wait () with
  | Unix.WEXITED 0 when not (Sys.file_exists srv.socket) -> ()
  | Unix.WEXITED 0 -> broken "server exited but left its socket behind"
  | Unix.WEXITED n -> broken "server exited with %d:\n%s" n (log_tail srv)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    broken "server stopped by signal %d:\n%s" n (log_tail srv)

(* Run [f] against a fresh server on a fresh data directory; the server
   is shut down and its directory removed whatever [f] does. *)
let with_server f =
  let srv = spawn () in
  let result = try Ok (f srv) with e -> Error e in
  let drained = try Ok (shutdown srv) with e -> Error e in
  kill srv;
  remove_tree srv.dir;
  match (result, drained) with
  | Error e, _ | Ok _, Error e -> raise e
  | Ok x, Ok () -> x

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)

(* Requests in flight: start time per connection slot. *)
let in_flight : float option array = Array.make 3 None
let watched : server option ref = ref None
let wedged = ref None

let guarded slot f =
  in_flight.(slot) <- Some (now ());
  Fun.protect ~finally:(fun () -> in_flight.(slot) <- None) f

let start_watchdog () =
  ignore
    (Thread.create
       (fun () ->
         while true do
           Thread.delay 0.1;
           match !watched with
           | Some srv
             when Array.exists
                    (function
                      | Some t0 -> now () -. t0 > request_timeout | None -> false)
                    in_flight ->
             if !wedged = None then begin
               wedged :=
                 Some
                   (Printf.sprintf "a request went %g s without an answer"
                      request_timeout);
               (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ())
             end
           | _ -> ()
         done)
       ())

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let query ~slot c sql = guarded slot (fun () -> Client.query c sql)

let stats ~slot c = guarded slot (fun () -> Util.stats_of_assoc (Client.stats c))

let expect_ok ~slot c sql =
  match query ~slot c sql with
  | Ok _ -> ()
  | Error (status, msg) -> broken "%s: %s %s" (String.sub sql 0 (min 60 (String.length sql))) status msg

(* Data rows of a rendered result table, as trimmed cells. *)
let table_rows body =
  String.split_on_char '\n' body
  |> List.filter (fun l -> String.length l > 1 && String.sub l 0 2 = "| ")
  |> (function [] -> [] | _header :: rows -> rows)
  |> List.map (fun l ->
         String.split_on_char '|' l
         |> List.filter_map (fun c ->
                match String.trim c with "" -> None | c -> Some c))

(* ------------------------------------------------------------------ *)
(* Set-up: graph generation, boot, load through the protocol           *)

let float_literal f =
  let s = Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let load ~slot c g active =
  let insert table rows =
    let rec chunks = function
      | [] -> ()
      | rows ->
        let chunk = List.filteri (fun i _ -> i < rows_per_insert) rows in
        let rest = List.filteri (fun i _ -> i >= rows_per_insert) rows in
        expect_ok ~slot c
          (Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " chunk));
        chunks rest
    in
    chunks rows
  in
  expect_ok ~slot c "CREATE TABLE edges (src INT, dst INT, weight FLOAT)";
  insert "edges"
    (Array.to_list (Graph_gen.edges g)
    |> List.map (fun (e : Graph_gen.edge) ->
           Printf.sprintf "(%d, %d, %s)" e.src e.dst (float_literal e.weight)));
  expect_ok ~slot c
    "CREATE TABLE vertexStatus (node INT, status INT, PRIMARY KEY (node))";
  insert "vertexStatus"
    (List.init (Graph_gen.num_nodes g) (fun n ->
         Printf.sprintf "(%d, %d)" n (if active.(n) then 1 else 0)));
  expect_ok ~slot c "CREATE TABLE side (k INT, v INT, PRIMARY KEY (k))"

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

type read = {
  family : string;  (** one of [Common.server_read_families] *)
  sql : string;
  iterations : int;
  check : string list list -> (unit, string) result;
}

let check_rows expected got =
  if List.length got <> List.length expected then
    mismatch "%d rows, expected %d" (List.length got) (List.length expected)
  else
    List.fold_left2
      (fun acc g e ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let same =
            List.length g = List.length e
            && List.for_all2
                 (fun cell want ->
                   match float_of_string_opt cell with
                   | Some v -> close ~tol:1e-5 v want
                   | None -> false)
                 g e
          in
          if same then Ok ()
          else
            mismatch "row [%s], expected [%s]" (String.concat "; " g)
              (String.concat "; " (List.map (Printf.sprintf "%g") e)))
      (Ok ()) got expected

(* The read mix: three variants of each family, drawn from [seed]. *)
let reads ~seed g active =
  let rng = Rng.create (seed + 1) in
  let n = Graph_gen.num_nodes g in
  let has_edge = Array.make n false in
  Array.iter
    (fun (e : Graph_gen.edge) ->
      has_edge.(e.src) <- true;
      has_edge.(e.dst) <- true)
    (Graph_gen.edges g);
  let nodes_where p = List.filter (fun v -> has_edge.(v) && p v) (List.init n Fun.id) in
  let ff limit =
    let iterations = 5 and modulus = 4 in
    let top = Ref_forecast.final ~limit ~modulus (Ref_forecast.run g ~iterations) in
    {
      family = "ff";
      sql = Queries.ff ~limit ~modulus ~iterations ();
      iterations;
      check =
        check_rows
          (List.map
             (fun (e : Ref_forecast.entry) -> [ float_of_int e.node; e.friends ])
             top);
    }
  in
  let pr_vs residue =
    let iterations = 3 in
    let st = Ref_pagerank.run_vs g ~active ~iterations in
    {
      family = "pr_vs";
      sql =
        Queries.pr_vs ~iterations
          ~final:
            (Printf.sprintf
               "SELECT Node, Rank FROM PageRank WHERE MOD(Node, 50) = %d ORDER \
                BY Node"
               residue)
          ();
      iterations;
      check =
        check_rows
          (List.map
             (fun v -> [ float_of_int v; st.Ref_pagerank.rank.(v) ])
             (nodes_where (fun v -> v mod 50 = residue)));
    }
  in
  let sssp source =
    let iterations = 5 in
    let st = Ref_sssp.run g ~source ~iterations in
    {
      family = "sssp";
      sql =
        Queries.sssp ~source ~iterations
          ~final:
            "SELECT Node, Distance, Delta FROM sssp WHERE MOD(Node, 50) = 0 \
             ORDER BY Node"
          ();
      iterations;
      check =
        check_rows
          (List.map
             (fun v ->
               [ float_of_int v; st.Ref_sssp.distance.(v); st.Ref_sssp.delta.(v) ])
             (nodes_where (fun v -> v mod 50 = 0)));
    }
  in
  (* Every variant of a family costs about the same, so a family's
     median does not depend on which variants the seed drew: FF keeps
     its modulus (the pushed-down filter sets its work) and varies the
     LIMIT; SSSP sources come from the first, best-connected nodes of
     the preferential-attachment graph, which all reach about as far. *)
  let pick k = List.init 3 (fun _ -> Rng.int rng k) in
  Array.of_list
    (List.map (fun m -> ff (5 + m)) (pick 16)
    @ List.map pr_vs (pick 50)
    @ List.map sssp (pick 10))

(* Every read variant [plan_repeats] times in a row with the writer
   idle: nothing is published in between, so each repeat may hit the
   plan cache. Per family: (family, hits, misses, answer checks). *)
let plan_repeats = 3

let repeat_reads ~slot c reads =
  List.map
    (fun f ->
      let mine = List.filter (fun rd -> rd.family = f) (Array.to_list reads) in
      let b = stats ~slot c in
      let checks =
        List.concat_map
          (fun rd ->
            List.init plan_repeats (fun _ ->
                match query ~slot c rd.sql with
                | Ok body -> rd.check (table_rows body)
                | Error (status, msg) -> mismatch "%s %s" status msg))
          mine
      in
      let a = stats ~slot c in
      (f, a.Util.plan_hits - b.Util.plan_hits, a.Util.plan_misses - b.Util.plan_misses, checks))
    server_read_families

(* ------------------------------------------------------------------ *)
(* Writes: single-row statements on [side], mirrored in a model        *)

type writer = {
  model : (int, int) Hashtbl.t;
  wrng : Rng.t;
}

let next_write w =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) w.model [] |> List.sort compare in
  let size = List.length keys in
  let r = Rng.int w.wrng 100 in
  let v = Rng.int w.wrng 1_000_000 in
  if size < 20 || (r < 40 && size < side_keys) then begin
    let rec fresh () =
      let k = Rng.int w.wrng side_keys in
      if Hashtbl.mem w.model k then fresh () else k
    in
    let k = fresh () in
    (Printf.sprintf "INSERT INTO side VALUES (%d, %d)" k v, fun () -> Hashtbl.replace w.model k v)
  end
  else
    let k = List.nth keys (Rng.int w.wrng size) in
    if r < 75 then
      (Printf.sprintf "UPDATE side SET v = %d WHERE k = %d" v k, fun () -> Hashtbl.replace w.model k v)
    else (Printf.sprintf "DELETE FROM side WHERE k = %d" k, fun () -> Hashtbl.remove w.model k)

(* The side table read back in pages against the model; one operation
   per page. *)
let read_back ~slot c w =
  let page = 40 in
  List.init (side_keys / page) (fun i ->
      let lo = i * page in
      let expected =
        Hashtbl.fold (fun k v acc -> if k >= lo && k < lo + page then (k, v) :: acc else acc) w.model []
        |> List.sort compare
        |> List.map (fun (k, v) -> [ float_of_int k; float_of_int v ])
      in
      match
        query ~slot c
          (Printf.sprintf "SELECT k, v FROM side WHERE k >= %d AND k < %d ORDER BY k"
             lo (lo + page))
      with
      | Ok body -> check_rows expected (table_rows body)
      | Error (status, msg) -> mismatch "%s %s" status msg)

(* ------------------------------------------------------------------ *)
(* The measured phase                                                  *)

type sample = {
  kind : string;  (** a read family, or "write" *)
  seconds : float;
}

type side = {
  mutable samples : sample list;
  mutable attempted : int;
  mutable wrong : string list;
}

let side () = { samples = []; attempted = 0; wrong = [] }

let merge sides =
  {
    samples = List.concat_map (fun s -> s.samples) sides;
    attempted = List.fold_left (fun a s -> a + s.attempted) 0 sides;
    wrong = List.concat_map (fun s -> s.wrong) sides;
  }

let outcome s kind = function
  | Ok () -> ()
  | Error msg -> s.wrong <- Printf.sprintf "%s: %s" kind msg :: s.wrong

(* Both connections in closed loops until [until]. With recorders,
   every request gets a span. *)
let phase ~until ~reader ~writer ~reads ~w ~rng ?recorders () =
  let rs = side () and ws = side () in
  (* Statement ids: the reader counts from 0, the writer from 1e6. *)
  let timed recorder stmt name f =
    incr stmt;
    match recorder with
    | None -> time f
    | Some r -> time (fun () -> Util.with_span r ~stmt:!stmt name (fun _ -> f ()))
  in
  let read_loop () =
    let recorder = Option.map fst recorders and stmt = ref 0 in
    while now () < until && !wedged = None do
      let rd = reads.(Rng.int rng (Array.length reads)) in
      rs.attempted <- rs.attempted + 1;
      match timed recorder stmt ("read." ^ rd.family) (fun () -> query ~slot:0 reader rd.sql) with
      | Ok body, dt ->
        rs.samples <- { kind = rd.family; seconds = dt } :: rs.samples;
        outcome rs rd.family (rd.check (table_rows body))
      | Error (status, msg), _ -> outcome rs rd.family (mismatch "%s %s" status msg)
    done
  in
  let write_loop () =
    let recorder = Option.map snd recorders and stmt = ref 1_000_000 in
    while now () < until && !wedged = None do
      let sql, apply = next_write w in
      ws.attempted <- ws.attempted + 1;
      match timed recorder stmt "write" (fun () -> query ~slot:1 writer sql) with
      | Ok "1 row(s) affected\n", dt ->
        apply ();
        ws.samples <- { kind = "write"; seconds = dt } :: ws.samples
      | Ok body, _ -> outcome ws "write" (mismatch "%s: %S" sql body)
      | Error (status, msg), _ -> outcome ws "write" (mismatch "%s: %s %s" sql status msg)
    done
  in
  let guard f () = try f () with e -> if !wedged = None then wedged := Some (Printexc.to_string e) in
  let t = Thread.create (guard write_loop) () in
  guard read_loop ();
  Thread.join t;
  (rs, ws)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let seconds_of kind samples =
  List.filter_map (fun s -> if s.kind = kind then Some s.seconds else None) samples

let family_medians samples =
  List.map
    (fun f ->
      match seconds_of f samples with
      | [] -> broken "no %s read completed" f
      | xs -> Util.median xs)
    server_read_families

(* Parse and compile of one variant of each read family, measured on a
   local engine holding the same tables: the server's own parse and
   compile are not visible from outside it. *)
let compile_values ~seed g reads =
  let engine = Loader.engine_for ~status_seed:seed g in
  let r = Util.recorder () in
  let reps = 20 in
  let reports =
    List.map
      (fun f ->
        let rd = List.find (fun rd -> rd.family = f) (Array.to_list reads) in
        List.init reps (fun stmt -> snd (Embedded.traced_compile r ~parent:(-1) ~stmt engine rd.sql))
        |> List.hd)
      server_read_families
  in
  let mean_ms name =
    1000.0
    *. mean
         (List.filter_map
            (fun (s : Util.span) -> if s.name = name then Some (Util.duration s) else None)
            (Util.spans r))
  in
  [ ("sql.parse_ms", mean_ms "sql.parse"); ("rewrite.compile_ms", mean_ms "rewrite.compile") ]
  @ Embedded.rewrite_values reports

let write_spans path recorders =
  let oc = open_out path in
  List.iter
    (fun r -> List.iter (fun s -> output_string oc (Util.span_to_json s ^ "\n")) (Util.spans r))
    recorders;
  close_out oc;
  match Util.spans_of_ndjson (In_channel.with_open_text path In_channel.input_all) with
  | Ok spans -> spans
  | Error e -> broken "span file %s: %s" path e

let run (args : args) : report =
  start_watchdog ();
  let seed = args.seed in
  let phase_s = if args.trace then args.seconds /. 2.0 else args.seconds in
  say "  set-up: %d times (generate, boot, load through the protocol), median reported"
    setup_reps;
  let setup_rep f =
    let g, gen_s =
      time (fun () -> Graph_gen.power_law ~seed ~num_nodes:nodes ~edges_per_node)
    in
    let active = Graph_gen.vertex_status_array ~seed g in
    with_server (fun srv ->
        watched := Some srv;
        let c = connect ~seed srv in
        let boot_s = now () -. srv.started in
        let (), load_s = time (fun () -> load ~slot:2 c g active) in
        f srv g active c (gen_s, boot_s, load_s))
  in
  (* The spare set-ups run half before and half after the measured
     one, so a burst of host contention meets few of them. *)
  let spare n =
    List.init n (fun _ ->
        setup_rep (fun _ _ _ c t ->
            Client.close c;
            t))
  in
  let before = spare (setup_reps / 2) in
  let last, r = setup_rep (fun srv g active reader last ->
      let writer = connect ~seed:(seed + 1) srv in
      let reads = reads ~seed g active in
      let w = { model = Hashtbl.create 256; wrng = Rng.create (seed + 2) } in
      let rng = Rng.create (seed + 3) in
      say
        "  sizes: dblp-like power-law graph: %d nodes, %d edges, loaded \
         through the protocol; reads: FF (5 iterations, modulus 4, LIMIT 5..20), PR-VS \
         (3 iterations), SSSP (5 iterations), 3 variants each, drawn \
         uniformly; writes: single-row INSERT/UPDATE/DELETE on a %d-key side \
         table; 2 connections (1 reader, 1 writer), closed loops; server \
         --workers 2 --fsync batch --checkpoint-every %g"
        (Graph_gen.num_nodes g) (Graph_gen.num_edges g) side_keys
        checkpoint_every;
      let check_wedge () =
        match !wedged with Some why -> broken "server wedged or failed: %s" why | None -> ()
      in
      (* One unmeasured second fills the plan cache and lazy state; its
         answers count. *)
      let warm_r, warm_w = phase ~until:(now () +. 1.0) ~reader ~writer ~reads ~w ~rng () in
      check_wedge ();
      (* The measured phase runs in [slices] parts with the calibration
         kernel between them, while both loops and the server are idle,
         so its samples follow the host's spells across the run. *)
      let calibrations () = List.init 6 (fun _ -> Gc.full_major (); calibrate ()) in
      let probes = ref (calibrations ()) in
      let s0 = stats ~slot:0 reader in
      let jiffies = cpu_jiffies () in
      let parts =
        List.init slices (fun _ ->
            let t0 = now () in
            let rs, ws =
              phase ~until:(t0 +. (phase_s /. float_of_int slices)) ~reader ~writer ~reads ~w ~rng ()
            in
            let wall = now () -. t0 in
            check_wedge ();
            probes := calibrations () @ !probes;
            (rs, ws, wall))
      in
      let rs = merge (List.map (fun (r, _, _) -> r) parts)
      and ws = merge (List.map (fun (_, w, _) -> w) parts)
      and wall = sum (List.map (fun (_, _, t) -> t) parts) in
      (* Client wall-clock figures are reported with the stolen share of
         the CPU time taken out, at the calibration kernel's reference
         speed. *)
      let scale = (1.0 -. stolen_share jiffies) *. speed_scale !probes in
      let s1 = stats ~slot:0 reader in
      say "  fsync policy: %s" s1.Util.fsync_policy;
      let traced =
        if not args.trace then None
        else begin
          let recorders = (Util.recorder (), Util.recorder ()) in
          let sides =
            phase ~until:(now () +. phase_s) ~reader ~writer ~reads ~w ~rng ~recorders ()
          in
          check_wedge ();
          let path = scratch_path (Printf.sprintf "spans-%s-seed%d.ndjson" name seed) in
          let spans = write_spans path [ fst recorders; snd recorders ] in
          say "  spans written to %s (%d spans)" path (List.length spans);
          Some (sides, repeat_reads ~slot:0 reader reads)
        end
      in
      let checked = read_back ~slot:0 reader w in
      let peak = peak_rss_mb (Some srv.pid) in
      Client.close reader;
      Client.close writer;
      let all = [ warm_r; warm_w; rs; ws ] @ (match traced with Some ((a, b), _) -> [ a; b ] | None -> []) in
      let checked =
        List.map (Result.map_error (( ^ ) "read-back: ")) checked
        @ (match traced with
          | Some (_, repeats) ->
            List.concat_map
              (fun (f, _, _, checks) -> List.map (Result.map_error (( ^ ) (f ^ " repeat: "))) checks)
              repeats
          | None -> [])
      in
      let wrong =
        List.concat_map (fun s -> s.wrong) all
        @ List.filter_map (function Error m -> Some m | Ok () -> None) checked
      in
      List.iteri (fun i m -> if i < 5 then say "  WRONG %s" m) wrong;
      let samples = rs.samples @ ws.samples in
      let writes = seconds_of "write" samples in
      List.iter (fun f -> describe_ms ("read " ^ f) (seconds_of f samples)) server_read_families;
      describe_ms "write" writes;
      let medians = family_medians samples in
      (* The reader's loop iterations per second over one read of each
         family at the median times, as on the embedded workloads: the
         count over the run moves with how the two closed loops happen
         to share the server. Statements per second count every
         completed statement of both connections. *)
      let iterations =
        List.fold_left
          (fun acc f ->
            acc + (List.find (fun rd -> rd.family = f) (Array.to_list reads)).iterations)
          0 server_read_families
      in
      let tails = List.map (fun f -> tail_ms (seconds_of f samples)) server_read_families in
      let n_writes = float_of_int (List.length ws.samples) in
      let d f = float_of_int (f s1 - f s0) in
      let plan = Util.ratio (d (fun s -> s.Util.plan_hits)) (d (fun s -> s.Util.plan_hits + s.Util.plan_misses)) in
      let publishes = Util.ratio (d (fun s -> s.Util.snapshot_version)) n_writes in
      say "  plan-cache hit ratio %s; publishes per write %s" (Util.ratio_to_string plan)
        (Util.ratio_to_string publishes);
      let layer =
        match traced with
        | None -> []
        | Some ((trs, _), repeats) ->
          let family_plan =
            List.concat_map
              (fun (f, hits, misses, _) ->
                let hits = float_of_int hits and misses = float_of_int misses in
                say "  plan cache, %s reads repeated %d times with no write between: %s" f
                  plan_repeats (Util.ratio_to_string (Util.ratio hits (hits +. misses)));
                [ ("server.plan_hits." ^ f, hits); ("server.plan_misses." ^ f, misses) ])
              repeats
          in
          family_plan
          @ compile_values ~seed g reads
          @ [
              ( "obs.trace_overhead_frac",
                Util.geomean (List.map2 ( /. ) (family_medians trs.samples) medians) -. 1.0 );
            ]
      in
      let attempted =
        List.fold_left (fun a s -> a + s.attempted) 0 all + List.length checked
      in
      ( last,
        {
          attempted;
          failed = List.length wrong;
          values =
            [
              ("iter_per_s", float_of_int iterations /. (scale *. sum medians));
              ("stmt_per_s", float_of_int (List.length samples) /. (scale *. wall));
              ("query_p50_ms", scale *. 1000.0 *. Util.geomean medians);
              ("query_p99_ms", if List.mem 0.0 tails then 0.0 else Util.geomean tails);
              ("write_p50_ms", 1000.0 *. Util.median writes);
              ("write_p99_ms", tail_ms writes);
              ("peak_rss_mb", peak);
              ("server.exec_p50_ms", s1.Util.p50_ms);
              ("server.exec_p99_ms", s1.Util.p99_ms);
              ( "server.overhead_p50_ms",
                (1000.0 *. Util.median (List.map (fun s -> s.seconds) samples)) -. s1.Util.p50_ms );
              ("server.plan_hit_ratio", Util.ratio_value plan);
              ("server.plan_hits", plan.Util.num);
              ("server.plan_misses", plan.Util.den -. plan.Util.num);
              ("server.rejected", d (fun s -> s.Util.rejected));
              ("server.writes", n_writes);
              ("server.publishes_per_write", Util.ratio_value publishes);
              ("durable.wal_records", d (fun s -> s.Util.wal_records));
              ("durable.wal_bytes_per_write", d (fun s -> s.Util.wal_bytes) /. Float.max 1.0 n_writes);
              ("durable.wal_fsyncs", d (fun s -> s.Util.wal_fsyncs));
              ("durable.checkpoints", d (fun s -> s.Util.checkpoints));
            ]
            @ layer;
        } ))
  in
  let setups = before @ (last :: spare (setup_reps - 1 - (setup_reps / 2))) in
  let med f = Util.median (List.map f setups) in
  {
    r with
    values =
      [
        ("setup_s", med (fun (a, b, c) -> a +. b +. c));
        ("graph.generate_s", med (fun (a, _, _) -> a));
        ("server.boot_s", med (fun (_, b, _) -> b));
        ("server.load_s", med (fun (_, _, c) -> c));
      ]
      @ r.values;
  }
