(** Server tests: protocol/admission units, concurrent sessions with
    bit-identical results, session-temp isolation, BUSY rejection and
    drain-on-shutdown. *)

module Server = Dbspinner_server.Server
module Client = Dbspinner_server.Client
module Protocol = Dbspinner_server.Protocol
module Admission = Dbspinner_server.Admission
module Metrics = Dbspinner_server.Metrics
module Session = Dbspinner_server.Session
module Engine = Dbspinner.Engine
module Catalog = Dbspinner_storage.Catalog
module Options = Dbspinner_rewrite.Options
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader
module Graph_gen = Dbspinner_graph.Graph_gen

let socket_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dbspinner-test-%s-%d.sock" tag (Unix.getpid ()))

let test_graph () = Graph_gen.power_law ~seed:11 ~num_nodes:120 ~edges_per_node:3

(** Shared catalog preloaded with the test graph. *)
let graph_catalog () =
  let engine = Engine.create () in
  Loader.load_graph engine (test_graph ());
  Engine.catalog engine

(* ------------------------------------------------------------------ *)
(* Protocol units                                                      *)

let test_framing_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let payloads =
        [ ""; "x"; "line one\nline two\n"; String.make 70_000 'q' ]
      in
      List.iter (fun p -> Protocol.write_frame a p) payloads;
      List.iter
        (fun expected ->
          match Protocol.read_frame b with
          | Some got ->
            Alcotest.(check string) "frame payload survives" expected got
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      (* Clean EOF at a frame boundary reads as None. *)
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Alcotest.(check bool) "EOF is None" true (Protocol.read_frame b = None))

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_raw fd s =
  let b = Bytes.of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  Alcotest.(check int) "raw bytes written" (Bytes.length b) n

let test_framing_zero_length () =
  with_socketpair (fun a b ->
      Protocol.write_frame a "";
      (match Protocol.read_frame b with
      | Some "" -> ()
      | Some other ->
        Alcotest.fail (Printf.sprintf "expected empty payload, got %S" other)
      | None -> Alcotest.fail "unexpected EOF");
      (* The stream stays usable after an empty frame. *)
      Protocol.write_frame a "next";
      Alcotest.(check bool) "next frame survives" true
        (Protocol.read_frame b = Some "next"))

let test_framing_oversized_header () =
  (* A declared length over the limit must be rejected before any
     allocation of that size. *)
  with_socketpair (fun a b ->
      write_raw a (Printf.sprintf "%d\n" (Protocol.max_frame_bytes + 1));
      match Protocol.read_frame b with
      | exception Protocol.Protocol_error m ->
        Alcotest.(check bool)
          (Printf.sprintf "limit error mentions excess (%s)" m)
          true
          (Helpers.contains m "exceeds")
      | _ -> Alcotest.fail "oversized frame header must raise")

let test_framing_header_too_long () =
  with_socketpair (fun a b ->
      write_raw a "12345678901\n";
      match Protocol.read_frame b with
      | exception Protocol.Protocol_error _ -> ()
      | _ -> Alcotest.fail ">10-digit header must raise")

let test_framing_garbage_header () =
  with_socketpair (fun a b ->
      write_raw a "hello\n";
      match Protocol.read_frame b with
      | exception Protocol.Protocol_error m ->
        Alcotest.(check bool)
          (Printf.sprintf "names the bad byte (%s)" m)
          true
          (Helpers.contains m "invalid byte")
      | _ -> Alcotest.fail "non-digit header must raise")

let test_framing_peer_death_mid_frame () =
  (* Death inside the header and inside the payload are distinct code
     paths; both must surface as End_of_file, not hang or garbage. *)
  with_socketpair (fun a b ->
      write_raw a "123";
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Protocol.read_frame b with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "death mid-header must raise End_of_file");
  with_socketpair (fun a b ->
      write_raw a "100\npartial payload";
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Protocol.read_frame b with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "death mid-payload must raise End_of_file")

let test_framing_exactly_max_bytes () =
  (* The limit itself is legal. The payload dwarfs the socketpair
     buffer, so a writer thread keeps the pipe moving while this thread
     reads. *)
  with_socketpair (fun a b ->
      let payload = String.make Protocol.max_frame_bytes 'z' in
      let writer = Thread.create (fun () -> Protocol.write_frame a payload) () in
      (match Protocol.read_frame b with
      | Some got ->
        Alcotest.(check int) "full payload length" Protocol.max_frame_bytes
          (String.length got);
        Alcotest.(check bool) "payload intact" true (got = payload)
      | None -> Alcotest.fail "unexpected EOF");
      Thread.join writer)

let test_request_roundtrip () =
  let roundtrip req =
    match Protocol.parse_request (Protocol.render_request req) with
    | Ok got -> got = req
    | Error _ -> false
  in
  Alcotest.(check bool) "query" true
    (roundtrip (Protocol.Query "SELECT 1;\nSELECT 2"));
  Alcotest.(check bool) "set" true (roundtrip (Protocol.Set ("deadline", "1.5")));
  List.iter
    (fun r -> Alcotest.(check bool) "verb" true (roundtrip r))
    [ Protocol.Stats; Protocol.Trace; Protocol.Ping; Protocol.Quit;
      Protocol.Shutdown ];
  (match Protocol.parse_request "FROBNICATE" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb must not parse");
  match Protocol.parse_request "QUERY\n  " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty QUERY body must not parse"

let test_read_only_classification () =
  List.iter
    (fun sql ->
      Alcotest.(check bool) (sql ^ " is read-only") true (Protocol.read_only sql))
    [
      "SELECT 1";
      "  select * from t;  ";
      "WITH ITERATIVE x (n) AS (SELECT 0 ITERATE SELECT n FROM x UNTIL 2 \
       ITERATIONS) SELECT n FROM x";
      "EXPLAIN SELECT 1";
      "VALUES (1)";
      "SELECT 1; SELECT 2";
      (* Leading comments must not hide the read-only verb (the lexer
         already accepts them; the classifier used to misfile these as
         writes and serialize them). *)
      "-- a comment\nSELECT 1";
      "/* block\ncomment */ SELECT 1";
      "/* c1 */ -- c2\nSELECT 1; /* c3 */ SELECT 2";
      (* Semicolons and DML keywords inside string literals are data,
         not statement boundaries. *)
      "SELECT ';DROP TABLE t;' FROM s";
      "SELECT 'it''s; fine'";
      "SELECT \"a;b\" FROM s";
    ];
  List.iter
    (fun sql ->
      Alcotest.(check bool) (sql ^ " is a write") false (Protocol.read_only sql))
    [
      "INSERT INTO t VALUES (1)";
      "SELECT 1; DROP TABLE t";
      "CREATE TABLE t (a INT)";
      "garbage";
      (* A comment prefix on a genuine write must not launder it. *)
      "/* just reading, promise */ DROP TABLE t";
      "-- harmless\nDELETE FROM t";
    ]

let test_split_statements () =
  let check_split label sql expected =
    Alcotest.(check (list string)) label expected
      (List.filter
         (fun s -> String.trim s <> "")
         (List.map String.trim (Protocol.split_statements sql)))
  in
  check_split "plain split" "SELECT 1; SELECT 2" [ "SELECT 1"; "SELECT 2" ];
  check_split "semicolon in string" "SELECT 'a;b'; SELECT 2"
    [ "SELECT 'a;b'"; "SELECT 2" ];
  check_split "doubled-quote escape" "SELECT 'it''s; x'" [ "SELECT 'it''s; x'" ];
  check_split "quoted identifier" "SELECT \"a;b\" FROM t"
    [ "SELECT \"a;b\" FROM t" ];
  check_split "line comment dropped" "-- c; DROP TABLE t\nSELECT 1"
    [ "SELECT 1" ];
  check_split "block comment dropped" "/* x; y */ SELECT 1" [ "SELECT 1" ];
  check_split "comment between statements" "SELECT 1; /* gap */ SELECT 2"
    [ "SELECT 1"; "SELECT 2" ]

let test_request_id_tags () =
  let payload = "QUERY\nSELECT 1" in
  Alcotest.(check (pair (option int) string))
    "tag roundtrip" (Some 7, payload)
    (Protocol.strip_id (Protocol.with_id 7 payload));
  Alcotest.(check (pair (option int) string))
    "untagged passthrough" (None, payload)
    (Protocol.strip_id payload);
  (* A '#' that is not a well-formed tag is payload, not a tag. *)
  Alcotest.(check (pair (option int) string))
    "malformed tag is payload" (None, "#abc\nx")
    (Protocol.strip_id "#abc\nx");
  Alcotest.(check (pair (option int) string))
    "zero is a tag" (Some 0, "x")
    (Protocol.strip_id "#0\nx");
  (* Forms int_of_string reads but with_id never writes would be
     echoed under a different tag; they are payload too. *)
  List.iter
    (fun tag ->
      let p = Printf.sprintf "#%s\nx" tag in
      Alcotest.(check (pair (option int) string))
        (Printf.sprintf "non-canonical #%s is payload" tag)
        (None, p) (Protocol.strip_id p))
    [ "0x10"; "0b11"; "0o7"; "1_0"; "+5"; "007"; "-0"; "-3"; ""; " 1";
      "99999999999999999999" ];
  Alcotest.(check (pair (option int) string))
    "max_int round-trips" (Some max_int, "x")
    (Protocol.strip_id (Protocol.with_id max_int "x"));
  match Protocol.with_id (-1) payload with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative id must be rejected"

(* ------------------------------------------------------------------ *)
(* Hostile frames against a live server                                *)

(** Poll STATS through [client] until [pred kv] or timeout. *)
let wait_for_stats client pred =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec loop () =
    let kv = Client.stats client in
    if pred kv then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      loop ()
    end
  in
  loop ()

let test_hostile_frames () =
  (* A fixed-seed stream of hostile peers: raw random bytes, headers
     and bodies cut short, frames of random payload, tags a lenient
     parser would rewrite, and peers that vanish mid-frame. None may
     wedge or kill the server, leak a session or an admission slot,
     or get a tag echoed in a form other than the one it sent. *)
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "hostile";
      (* Room for every peer at once, so a slow session exit cannot
         turn a later connect into a session-limit BUSY. *)
      max_sessions = 256;
    }
  in
  let rng = Random.State.make [| 20 |] in
  let random_bytes n =
    String.init n (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let frame p = Printf.sprintf "%d\n%s" (String.length p) p in
  let bad_tags =
    [| "0x10"; "0b11"; "1_0"; "+5"; "007"; "-0"; "-1"; ""; "abc"; "1 2";
       "99999999999999999999" |]
  in
  Server.with_server ~config (fun _srv ->
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX config.Server.socket_path);
        (* A server that stops answering fails the read, not the run. *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        fd
      in
      let send fd s =
        (* The server may already have dropped a garbage peer. *)
        try ignore (Unix.write_substring fd s 0 (String.length s))
        with Unix.Unix_error _ -> ()
      in
      let reply fd =
        match Protocol.read_frame fd with
        | Some r -> r
        | None -> Alcotest.fail "server closed instead of answering"
      in
      for _ = 1 to 120 do
        let fd = connect () in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            match Random.State.int rng 6 with
            | 0 -> send fd (random_bytes (1 + Random.State.int rng 64))
            | 1 ->
              (* A length header cut short, with or without digits. *)
              send fd (String.sub "1234567" 0 (Random.State.int rng 8))
            | 2 ->
              (* A body shorter than its header promises. *)
              let p = "QUERY\nSELECT 1" in
              let cut = Random.State.int rng (String.length p) in
              send fd
                (Printf.sprintf "%d\n%s" (String.length p)
                   (String.sub p 0 cut))
            | 3 ->
              (* A well-framed random payload gets an answer. *)
              send fd (frame (random_bytes (Random.State.int rng 48)));
              ignore (reply fd)
            | 4 ->
              (* A non-canonical tag is payload: the answer is an
                 untagged protocol error, never a rewritten tag. *)
              let tag =
                bad_tags.(Random.State.int rng (Array.length bad_tags))
              in
              send fd (frame (Printf.sprintf "#%s\nPING" tag));
              let r = reply fd in
              Alcotest.(check (option int))
                (Printf.sprintf "#%s not echoed as a tag" tag)
                None
                (fst (Protocol.strip_id r))
            | _ ->
              (* A good tagged frame, then death mid-frame. *)
              let id = Random.State.int rng 1000 in
              send fd (frame (Protocol.with_id id "PING"));
              Alcotest.(check string) "tag echoed verbatim"
                (Protocol.with_id id "PONG")
                (reply fd);
              send fd "40\nQUERY\nSELE")
      done;
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          Alcotest.(check bool) "fresh connection answers PING" true
            (Client.ping c);
          (* A session's exit is counted in its finalizer, after its
             socket closes, so poll. *)
          let stat_is key v kv = List.assoc_opt key kv = Some v in
          Alcotest.(check bool) "sessions_active back at 1" true
            (wait_for_stats c (stat_is "sessions_active" "1"));
          Alcotest.(check bool) "inflight back at 0" true
            (wait_for_stats c (stat_is "inflight" "0"))))

(* ------------------------------------------------------------------ *)
(* Writer serialization                                                *)

(** The integer in the first data cell of a rendered one-column
    result. *)
let int_cell body =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.split_on_char '|' line with
         | [ ""; cell; "" ] -> int_of_string_opt (String.trim cell)
         | _ -> None)

let test_writers_serialize () =
  (* Read-modify-write statements from several sessions must not lose
     updates: the writer lock serializes them, so N clients x M
     increments end at exactly N x M. A reader running alongside pins
     published snapshots, so every value it sees is a committed count
     and, read after read, never goes backwards. *)
  let clients = 8 and per_client = 40 in
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "writers";
      max_inflight = clients + 1;
    }
  in
  let total = clients * per_client in
  Server.with_server ~config (fun _srv ->
      let sock = config.Server.socket_path in
      (* Filler rows make every UPDATE scan a while, so unserialized
         writers would overlap and lose increments. *)
      let rows = List.init 2000 (fun k -> Printf.sprintf "(%d, 0)" k) in
      Client.with_client ~socket_path:sock (fun c ->
          match
            Client.query c
              ("CREATE TABLE t (k INT, v INT); INSERT INTO t VALUES "
              ^ String.concat ", " rows)
          with
          | Ok _ -> ()
          | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
      let failures = Atomic.make 0 in
      let writers =
        List.init clients (fun _ ->
            Thread.create
              (fun () ->
                Client.with_client ~socket_path:sock (fun c ->
                    for _ = 1 to per_client do
                      match
                        Client.query c "UPDATE t SET v = v + 1 WHERE k = 0"
                      with
                      | Ok _ -> ()
                      | Error _ -> Atomic.incr failures
                    done))
              ())
      in
      let read c =
        match Client.query c "SELECT v FROM t WHERE k = 0" with
        | Ok body -> (
          match int_cell body with
          | Some v -> v
          | None -> Alcotest.failf "no value in %S" body)
        | Error (s, m) -> Alcotest.fail (s ^ " " ^ m)
      in
      Client.with_client ~socket_path:sock (fun reader ->
          let last = ref 0 in
          for _ = 1 to 20 do
            let v = read reader in
            Alcotest.(check bool)
              (Printf.sprintf "read %d is a committed count" v)
              true
              (v >= !last && v <= total);
            last := v
          done;
          List.iter Thread.join writers;
          Alcotest.(check int) "no write failed" 0 (Atomic.get failures);
          Alcotest.(check int) "no lost update" total (read reader)))

let test_admission_unit () =
  let adm = Admission.create ~limit:2 in
  Alcotest.(check bool) "slot 1" true (Admission.try_acquire adm);
  Alcotest.(check bool) "slot 2" true (Admission.try_acquire adm);
  Alcotest.(check bool) "slot 3 rejected" false (Admission.try_acquire adm);
  Alcotest.(check int) "rejection recorded" 1 (Admission.rejected adm);
  Admission.release adm;
  Alcotest.(check bool) "freed slot reusable" true (Admission.try_acquire adm);
  Alcotest.(check int) "inflight" 2 (Admission.inflight adm)

let test_metrics_render_parse () =
  let m = Metrics.create () in
  Metrics.session_opened m;
  Metrics.query_done m ~ok:true ~seconds:0.010;
  Metrics.query_done m ~ok:true ~seconds:0.020;
  Metrics.query_done m ~ok:false ~seconds:0.500;
  let adm = Admission.create ~limit:4 in
  let kv = Metrics.parse (Metrics.render m ~admission:adm ~draining:false) in
  let get k = List.assoc k kv in
  Alcotest.(check string) "ok count" "2" (get "queries_ok");
  Alcotest.(check string) "err count" "1" (get "queries_err");
  Alcotest.(check string) "active" "1" (get "sessions_active");
  Alcotest.(check string) "draining" "false" (get "draining");
  let s = Metrics.snapshot m in
  Alcotest.(check bool) "p99 >= p50" true
    (s.Metrics.p99_seconds >= s.Metrics.p50_seconds)

(** Percentile totality on tiny reservoirs: n = 0 must yield 0.0 (not
    an out-of-bounds read), n = 1 the lone sample for every p, and the
    rank arithmetic must hold at n = 2; NaN and out-of-range p are
    clamped instead of flowing into [int_of_float]. *)
let test_metrics_percentile_edges () =
  let fl = Alcotest.float 1e-12 in
  let m = Metrics.create () in
  (* n = 0: every percentile is 0. *)
  List.iter
    (fun p -> Alcotest.check fl "empty reservoir" 0.0 (Metrics.percentile m p))
    [ 0.0; 50.0; 100.0; -3.0; 250.0; Float.nan ];
  (* n = 1: every percentile is the lone sample. *)
  Metrics.query_done m ~ok:true ~seconds:0.042;
  List.iter
    (fun p -> Alcotest.check fl "lone sample" 0.042 (Metrics.percentile m p))
    [ 0.0; 50.0; 99.0; 100.0; -3.0; 250.0; Float.nan ];
  (* n = 2: nearest-rank picks the lower sample up to p50, the upper
     one above; clamping maps out-of-range p onto the extremes. *)
  Metrics.query_done m ~ok:true ~seconds:0.010;
  Alcotest.check fl "p0 = min" 0.010 (Metrics.percentile m 0.0);
  Alcotest.check fl "p50 = lower" 0.010 (Metrics.percentile m 50.0);
  Alcotest.check fl "p51 = upper" 0.042 (Metrics.percentile m 51.0);
  Alcotest.check fl "p100 = max" 0.042 (Metrics.percentile m 100.0);
  Alcotest.check fl "negative p clamps to min" 0.010 (Metrics.percentile m (-7.0));
  Alcotest.check fl "p > 100 clamps to max" 0.042 (Metrics.percentile m 1000.0);
  Alcotest.check fl "NaN treated as p0" 0.010 (Metrics.percentile m Float.nan)

(* ------------------------------------------------------------------ *)
(* End-to-end over the socket                                          *)

let pr_sql = Queries.pr ~iterations:5 ()

(** The reference answer, computed sequentially on a private engine
    over the same graph. *)
let sequential_reference () =
  let engine = Loader.engine_for (test_graph ()) in
  Dbspinner_storage.Relation.to_table_string (Engine.query engine pr_sql)

let test_concurrent_sessions_bit_identical () =
  let expected = sequential_reference () in
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "concurrent";
      max_inflight = 16;
      workers = 4;
    }
  in
  Server.with_server ~config ~catalog:(graph_catalog ()) (fun _srv ->
      let n = 8 in
      let results = Array.make n (Error ("unset", "never ran")) in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Client.with_client ~socket_path:config.Server.socket_path
                    (fun c ->
                      match Client.query c pr_sql with
                      | Ok body -> Ok body
                      | Error (s, m) -> Error (s, m)))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i result ->
          match result with
          | Ok body ->
            Alcotest.(check string)
              (Printf.sprintf "session %d bit-identical to sequential" i)
              expected body
          | Error (status, msg) ->
            Alcotest.fail (Printf.sprintf "session %d: %s %s" i status msg))
        results)

let test_session_temp_isolation () =
  (* Two sessions interleave statements that materialize CTE temps of
     the same name over the shared catalog; a shared temp namespace
     would make one session's result leak into the other. *)
  let config =
    { Server.default_config with Server.socket_path = socket_path "isolation" }
  in
  Server.with_server ~config ~catalog:(graph_catalog ()) (fun srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c1 ->
          Client.with_client ~socket_path:config.Server.socket_path (fun c2 ->
              let q tag n =
                Printf.sprintf
                  "WITH ITERATIVE PageRank (who, n) AS (SELECT '%s', 0 ITERATE \
                   SELECT who, n + 1 FROM PageRank UNTIL %d ITERATIONS) SELECT \
                   who, n FROM PageRank"
                  tag n
              in
              let r1 = Client.query c1 (q "one" 3) in
              let r2 = Client.query c2 (q "two" 7) in
              (match r1 with
              | Ok body ->
                Alcotest.(check bool) "session 1 sees its own tag" true
                  (Helpers.contains body "one")
              | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
              (match r2 with
              | Ok body ->
                Alcotest.(check bool) "session 2 sees its own tag" true
                  (Helpers.contains body "two");
                Alcotest.(check bool) "session 2 not polluted" false
                  (Helpers.contains body "one")
              | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
              (* Temps never became shared base tables. *)
              Alcotest.(check bool) "no temp leaked into base" false
                (Catalog.mem_table (Server.catalog srv) "PageRank"))))

let test_shared_base_ddl_visible () =
  let config =
    { Server.default_config with Server.socket_path = socket_path "ddl" }
  in
  Server.with_server ~config (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c1 ->
          Client.with_client ~socket_path:config.Server.socket_path (fun c2 ->
              (match
                 Client.query c1
                   "CREATE TABLE shared (a INT); INSERT INTO shared VALUES \
                    (42)"
               with
              | Ok _ -> ()
              | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
              match Client.query c2 "SELECT a FROM shared" with
              | Ok body ->
                Alcotest.(check bool) "other session reads the row" true
                  (Helpers.contains body "42")
              | Error (s, m) -> Alcotest.fail (s ^ " " ^ m))))

let inflight_at_least n kv =
  match List.assoc_opt "inflight" kv with
  | Some v -> (match int_of_string_opt v with Some i -> i >= n | None -> false)
  | None -> false

(* ------------------------------------------------------------------ *)
(* MVCC snapshot isolation                                             *)

(* Long enough (~0.3 s) that the reader is reliably still in flight
   when the vandal's 20 ms stats poll looks for it; at 30 iterations
   the read could finish before the first poll and the test flaked. *)
let pr_slow_sql = Queries.pr ~iterations:1000 ()

let sequential_slow_reference () =
  let engine = Loader.engine_for (test_graph ()) in
  Dbspinner_storage.Relation.to_table_string (Engine.query engine pr_slow_sql)

let test_snapshot_isolation_under_ddl () =
  (* A pinned reader must return a result bit-identical to the
     sequential pre-DML answer even while a concurrent session drops
     and recreates the very table it is iterating over. *)
  let expected = sequential_slow_reference () in
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "mvcc-iso";
      max_inflight = 8;
      workers = 2;
    }
  in
  Server.with_server ~config ~catalog:(graph_catalog ()) (fun _srv ->
      let reader_result = ref (Error ("unset", "never ran")) in
      let reader =
        Thread.create
          (fun () ->
            reader_result :=
              Client.with_client ~socket_path:config.Server.socket_path
                (fun c -> Client.query c pr_slow_sql))
          ()
      in
      Client.with_client ~socket_path:config.Server.socket_path (fun vandal ->
          Alcotest.(check bool) "reader in flight" true
            (wait_for_stats vandal (inflight_at_least 1));
          (* The reader pinned its snapshot at admission; now wreck the
             live table underneath it. *)
          match
            Client.query vandal
              "DROP TABLE edges; CREATE TABLE edges (src INT, dst INT, \
               weight FLOAT); INSERT INTO edges VALUES (0, 0, 1.0)"
          with
          | Ok _ -> ()
          | Error (s, m) -> Alcotest.fail (Printf.sprintf "vandal: %s %s" s m));
      Thread.join reader;
      (match !reader_result with
      | Ok body ->
        Alcotest.(check string) "pinned reader bit-identical to pre-DML run"
          expected body
      | Error (s, m) -> Alcotest.fail (Printf.sprintf "reader: %s %s" s m));
      (* A fresh read pins the *new* snapshot and sees the wreckage —
         versions move forward, they do not freeze the world. *)
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          match Client.query c "SELECT COUNT(*) AS n FROM edges" with
          | Ok body ->
            Alcotest.(check bool) "later reader sees the new table" true
              (Helpers.contains body "1")
          | Error (s, m) -> Alcotest.fail (s ^ " " ^ m)))

let test_read_your_writes () =
  (* The publish happens before the write's OK, so the same session's
     immediate next read (a fresh snapshot pin) must see the write. *)
  let config =
    { Server.default_config with Server.socket_path = socket_path "ryw" }
  in
  Server.with_server ~config (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (match Client.query c "CREATE TABLE t (a INT)" with
          | Ok _ -> ()
          | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
          for i = 1 to 20 do
            (match
               Client.query c (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
             with
            | Ok _ -> ()
            | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
            match Client.query c "SELECT COUNT(*) AS n FROM t" with
            | Ok body ->
              Alcotest.(check bool)
                (Printf.sprintf "write %d visible to its own session" i)
                true
                (Helpers.contains body (string_of_int i))
            | Error (s, m) -> Alcotest.fail (s ^ " " ^ m)
          done))

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)

let stat_int kv key =
  match List.assoc_opt key kv with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> -1)
  | None -> -1

let test_plan_cache_hit_and_staleness () =
  let config =
    { Server.default_config with Server.socket_path = socket_path "plan" }
  in
  (* The scalar subquery is pre-evaluated at compile time, so its value
     is baked into the cached plan — reusing a stale plan after the
     INSERT would resurrect the old count. *)
  let probe_sql = "SELECT (SELECT COUNT(*) FROM t) AS n" in
  Server.with_server ~config (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c1 ->
          Client.with_client ~socket_path:config.Server.socket_path (fun c2 ->
              (match
                 Client.query c1 "CREATE TABLE t (a INT); INSERT INTO t \
                                  VALUES (1)"
               with
              | Ok _ -> ()
              | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
              let expect_n client label n =
                match Client.query client probe_sql with
                | Ok body ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s returns %d" label n)
                    true
                    (Helpers.contains body (string_of_int n))
                | Error (s, m) -> Alcotest.fail (s ^ " " ^ m)
              in
              expect_n c1 "cold run" 1;
              let kv = Client.stats c1 in
              let misses0 = stat_int kv "plan_misses" in
              Alcotest.(check bool) "cold run was a miss" true (misses0 >= 1);
              expect_n c1 "warm run" 1;
              (* The warm run and the cross-session run hit the cache. *)
              expect_n c2 "other session, same SQL" 1;
              let kv = Client.stats c1 in
              Alcotest.(check bool) "warm runs hit" true
                (stat_int kv "plan_hits" >= 2);
              Alcotest.(check bool) "no extra misses" true
                (stat_int kv "plan_misses" = misses0);
              (* DML bumps the snapshot version: the cached plan (with
                 the stale prevaluated count) must NOT be reused. *)
              (match Client.query c1 "INSERT INTO t VALUES (2)" with
              | Ok _ -> ()
              | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
              expect_n c1 "post-DML run recompiles" 2;
              expect_n c2 "post-DML other session too" 2)))

let test_plan_cache_repeated_derived_table_read () =
  (* PR-VS reads through a derived table whose alias the parser
     generates. With no write in between, the repeat must reuse the
     cached plan: a fresh alias per parse would change the cache key
     and make every such read a miss. *)
  let config =
    { Server.default_config with Server.socket_path = socket_path "plan-vs" }
  in
  let sql = Queries.pr_vs ~iterations:3 () in
  Server.with_server ~config ~catalog:(graph_catalog ()) (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          let run label =
            match Client.query c sql with
            | Ok body -> body
            | Error (s, m) -> Alcotest.fail (label ^ ": " ^ s ^ " " ^ m)
          in
          let cold = run "cold" in
          let kv0 = Client.stats c in
          let warm = run "warm" in
          let kv = Client.stats c in
          Alcotest.(check string) "same answer" cold warm;
          Alcotest.(check int) "repeat is a hit"
            (stat_int kv0 "plan_hits" + 1)
            (stat_int kv "plan_hits");
          Alcotest.(check int) "no extra miss" (stat_int kv0 "plan_misses")
            (stat_int kv "plan_misses")))

let test_plan_cache_opt_out () =
  (* There is no per-session opt-out: SET plan_cache is an unknown
     option, and the session's repeated read still hits the cache. *)
  let config =
    { Server.default_config with Server.socket_path = socket_path "plan-off" }
  in
  Server.with_server ~config (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (match Client.set c "plan_cache" "off" with
          | Error m ->
            Alcotest.(check bool)
              (Printf.sprintf "unknown-option usage error (%s)" m)
              true
              (Helpers.contains m "unknown option plan_cache")
          | Ok _ -> Alcotest.fail "SET plan_cache must be rejected");
          let run () =
            match Client.query c "SELECT 1" with
            | Ok _ -> ()
            | Error (s, m) -> Alcotest.fail (s ^ " " ^ m)
          in
          run ();
          let kv0 = Client.stats c in
          run ();
          let kv = Client.stats c in
          Alcotest.(check int) "repeat is a hit"
            (stat_int kv0 "plan_hits" + 1)
            (stat_int kv "plan_hits");
          Alcotest.(check int) "no extra miss" (stat_int kv0 "plan_misses")
            (stat_int kv "plan_misses")))

(* ------------------------------------------------------------------ *)
(* Pipelining                                                          *)

let test_pipeline_ordered_responses () =
  let config =
    { Server.default_config with Server.socket_path = socket_path "pipeline" }
  in
  Server.with_server ~config ~catalog:(graph_catalog ()) (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (* Distinct per-request payloads prove responses came back in
             request order with the right tags. *)
          let sqls =
            List.init 10 (fun i -> Printf.sprintf "SELECT %d AS tag" (i + 100))
          in
          let results = Client.pipeline_queries c sqls in
          Alcotest.(check int) "one response per request" 10
            (List.length results);
          List.iteri
            (fun i result ->
              match result with
              | Ok body ->
                Alcotest.(check bool)
                  (Printf.sprintf "response %d carries its own tag" i)
                  true
                  (Helpers.contains body (string_of_int (i + 100)))
              | Error (s, m) ->
                Alcotest.fail (Printf.sprintf "request %d: %s %s" i s m))
            results;
          (* A pipelined batch of iterative reads answers each one
             exactly as the engine does on its own. *)
          let sql = Queries.pr ~iterations:2 () in
          let expected =
            Dbspinner_storage.Relation.to_table_string
              (Engine.query (Engine.create ~catalog:(graph_catalog ()) ()) sql)
          in
          List.iteri
            (fun i result ->
              match result with
              | Ok body ->
                Alcotest.(check string)
                  (Printf.sprintf "pipelined PR read %d" i)
                  expected body
              | Error (s, m) ->
                Alcotest.fail (Printf.sprintf "PR read %d: %s %s" i s m))
            (Client.pipeline_queries c (List.init 4 (fun _ -> sql)));
          (* Mixed batches work too, and errors stay position-aligned. *)
          match
            Client.pipeline c
              [
                Protocol.Query "SELECT 1 AS a";
                Protocol.Ping;
                Protocol.Query "SELECT nope FROM nowhere";
                Protocol.Query "SELECT 2 AS b";
              ]
          with
          | [ Protocol.Ok_result _; Protocol.Pong; Protocol.Err _;
              Protocol.Ok_result _ ] ->
            ()
          | _ -> Alcotest.fail "mixed pipeline lost its shape"))

let test_pipeline_untagged_interop () =
  (* An old-style untagged client must keep working against the same
     server (backward compatibility of the wire format). *)
  let config =
    { Server.default_config with Server.socket_path = socket_path "untagged" }
  in
  Server.with_server ~config (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (match Client.query c "SELECT 41 + 1 AS n" with
          | Ok body ->
            Alcotest.(check bool) "untagged query answered untagged" true
              (Helpers.contains body "42")
          | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
          Alcotest.(check bool) "ping still works" true (Client.ping c)))

(** A query that loops long enough to still be running when we probe /
    drain: a counting loop with a generous iteration bound. *)
let slow_sql =
  "WITH ITERATIVE spin (n) AS (SELECT 0 ITERATE SELECT n + 1 FROM spin UNTIL \
   2000000 ITERATIONS) SELECT n FROM spin"

let spin_options = { Options.default with Options.max_iterations_guard = 3_000_000 }

let test_admission_rejects_overload () =
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "busy";
      max_inflight = 1;
      workers = 2;
      options = spin_options;
    }
  in
  Server.with_server ~config (fun _srv ->
      let slow_result = ref (Error ("unset", "")) in
      let slow_thread =
        Thread.create
          (fun () ->
            slow_result :=
              Client.with_client ~socket_path:config.Server.socket_path
                (fun c -> Client.query c slow_sql))
          ()
      in
      Client.with_client ~socket_path:config.Server.socket_path (fun probe ->
          Alcotest.(check bool) "slow query became in-flight" true
            (wait_for_stats probe (inflight_at_least 1));
          (* STATS and PING stay responsive at capacity... *)
          Alcotest.(check bool) "ping at capacity" true (Client.ping probe);
          (* ...but a query beyond max_inflight is rejected immediately. *)
          match Client.query probe "SELECT 1" with
          | Error ("BUSY", _) -> ()
          | Ok _ -> Alcotest.fail "overload query must be rejected"
          | Error (s, m) ->
            Alcotest.fail (Printf.sprintf "expected BUSY, got %s %s" s m));
      Thread.join slow_thread;
      (* The slow query itself completed fine. *)
      match !slow_result with
      | Ok _ -> ()
      | Error (s, m) ->
        Alcotest.fail (Printf.sprintf "slow query failed: %s %s" s m))

let test_busy_retry_eventually_succeeds () =
  (* With retries enabled, a client squeezed out by admission control
     backs off and lands once the slot frees — the bench harness uses
     this for goodput under overload. *)
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "retry";
      max_inflight = 1;
      workers = 2;
      options = spin_options;
    }
  in
  let spin_short =
    "WITH ITERATIVE spin (n) AS (SELECT 0 ITERATE SELECT n + 1 FROM spin \
     UNTIL 150000 ITERATIONS) SELECT n FROM spin"
  in
  Server.with_server ~config (fun _srv ->
      let slow_result = ref (Error ("unset", "")) in
      let slow_thread =
        Thread.create
          (fun () ->
            slow_result :=
              Client.with_client ~socket_path:config.Server.socket_path
                (fun c -> Client.query c spin_short))
          ()
      in
      (* A fixed seed pins the backoff jitter so the retry cadence is
         reproducible run-to-run. *)
      Client.with_client ~seed:7 ~socket_path:config.Server.socket_path
        (fun probe ->
          Alcotest.(check bool) "spin in flight" true
            (wait_for_stats probe (inflight_at_least 1));
          (* Without retries: immediate BUSY. *)
          (match Client.query probe "SELECT 1" with
          | Error ("BUSY", _) -> ()
          | Ok _ -> Alcotest.fail "no-retry query must be rejected"
          | Error (s, m) ->
            Alcotest.fail (Printf.sprintf "expected BUSY, got %s %s" s m));
          (* With retries: backs off until the slot frees. *)
          match Client.query ~retries:200 ~backoff_ms:2.0 probe "SELECT 1" with
          | Ok _ -> ()
          | Error (s, m) ->
            Alcotest.fail (Printf.sprintf "retrying query failed: %s %s" s m));
      Thread.join slow_thread;
      match !slow_result with
      | Ok _ -> ()
      | Error (s, m) ->
        Alcotest.fail (Printf.sprintf "slow query failed: %s %s" s m))

let test_statement_timeout_guard () =
  (* A server-wide statement timeout aborts a wedged query with a
     distinct error, and sessions may only tighten the ceiling. *)
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "stmt-timeout";
      options =
        {
          spin_options with
          Options.statement_timeout_seconds = Some 0.2;
        };
    }
  in
  Server.with_server ~config (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (match Client.query c slow_sql with
          | Error (status, msg) ->
            Alcotest.(check bool)
              (Printf.sprintf "statement timeout error (got %s: %s)" status msg)
              true
              (Helpers.contains status "resource"
              && Helpers.contains msg "statement timeout")
          | Ok _ -> Alcotest.fail "wedged query must time out");
          (* Loosening beyond the server ceiling is refused... *)
          (match Client.set c "statement_timeout" "30" with
          | Error m ->
            Alcotest.(check bool) "refusal names the ceiling" true
              (Helpers.contains m "ceiling")
          | Ok _ -> Alcotest.fail "loosening past the ceiling must fail");
          (match Client.set c "statement_timeout" "off" with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "disabling past the ceiling must fail");
          (* ...tightening is allowed. *)
          match Client.set c "statement_timeout" "0.05" with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m))

let test_drain_aborts_inflight_at_boundary () =
  let config =
    {
      Server.default_config with
      Server.socket_path = socket_path "drain";
      max_inflight = 4;
      workers = 2;
      options = spin_options;
    }
  in
  let srv = Server.start ~config () in
  let slow_result = ref (Error ("unset", "")) in
  let slow_thread =
    Thread.create
      (fun () ->
        slow_result :=
          Client.with_client ~socket_path:config.Server.socket_path (fun c ->
              Client.query c slow_sql))
      ()
  in
  Client.with_client ~socket_path:config.Server.socket_path (fun probe ->
      Alcotest.(check bool) "spin query in flight" true
        (wait_for_stats probe (inflight_at_least 1)));
  (* Graceful shutdown: the in-flight loop must abort at an iteration
     boundary with a Resource error mentioning the drain — not hang,
     not die silently. *)
  Server.shutdown srv;
  Thread.join slow_thread;
  (match !slow_result with
  | Error (status, msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "resource-stage drain error (got %s: %s)" status msg)
      true
      (Helpers.contains status "resource" && Helpers.contains msg "shutting down")
  | Ok _ -> Alcotest.fail "in-flight query must be aborted by drain");
  (* Fully shut down: socket gone, fresh connections refused. *)
  Alcotest.(check bool) "socket file removed" false
    (Sys.file_exists config.Server.socket_path);
  match Client.connect ~socket_path:config.Server.socket_path () with
  | exception Unix.Unix_error _ -> ()
  | c ->
    Client.close c;
    Alcotest.fail "connect after shutdown must fail"

let test_closing_after_drain_starts () =
  let config =
    { Server.default_config with Server.socket_path = socket_path "closing" }
  in
  let srv = Server.start ~config () in
  Client.with_client ~socket_path:config.Server.socket_path (fun c ->
      (match Client.query c "SELECT 1" with
      | Ok _ -> ()
      | Error (s, m) -> Alcotest.fail (s ^ " " ^ m));
      (* Trigger the drain from another thread while this session is
         still connected; its next query must get CLOSING. *)
      Server.request_shutdown srv;
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec await_closing () =
        match Client.query c "SELECT 1" with
        | Error ("CLOSING", _) -> ()
        | Ok _ when Unix.gettimeofday () < deadline ->
          Thread.delay 0.02;
          await_closing ()
        | Ok _ -> Alcotest.fail "draining server kept accepting queries"
        | Error (s, m) ->
          (* The server may already have closed this session's socket:
             that is a valid drain outcome too. *)
          ignore (s, m)
      in
      (* A closed session socket surfaces as End_of_file on read or
         EPIPE/ECONNRESET on write, depending on which side of the
         request the close lands. *)
      (try await_closing () with
      | End_of_file
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        ()));
  Server.wait srv

let test_session_set_and_stats () =
  let config =
    { Server.default_config with Server.socket_path = socket_path "set" }
  in
  Server.with_server ~config (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (match Client.set c "budget" "10" with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m);
          (* The per-session row budget now aborts a too-large query on
             this session... *)
          (match Client.query c slow_sql with
          | Error (status, _) ->
            Alcotest.(check bool) "budget trips as resource error" true
              (Helpers.contains status "resource")
          | Ok _ -> Alcotest.fail "row budget must trip");
          match Client.set c "nonsense" "on" with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unknown option must be rejected"))

(** [SET] takes every key of the shared on/off table and applies it as
    {!Options.set_bool_option} does; a value that is not on|off is
    refused with the same error by {!Options.set_shared_key} and by
    [SET], and changes nothing. A key outside the table, such as the
    deleted rule-engine switch, gets the unknown-option error. *)
let test_session_set_bool_keys () =
  let fresh () =
    Session.create ~id:0 ~options:Options.default
      ~shared_catalog:(Catalog.create ())
  in
  List.iter
    (fun key ->
      let s = fresh () in
      (match Session.set s key "off" with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "SET %s off: %s" key m);
      Alcotest.(check bool)
        (key ^ " applied") true
        (Options.set_bool_option Options.default key false
        = Some (Engine.options (Session.engine s)));
      List.iter
        (fun value ->
          let expected = Printf.sprintf "SET %s expects on|off" key in
          let what = Printf.sprintf "%s %S" key value in
          (match Options.set_shared_key Options.default key value with
          | Some (Error m) ->
            Alcotest.(check string) ("shared parser refuses " ^ what) expected m
          | _ -> Alcotest.failf "shared parser accepted %s" what);
          let s = fresh () in
          (match Session.set s key value with
          | Error m ->
            Alcotest.(check string) ("SET refuses " ^ what) expected m
          | Ok _ -> Alcotest.failf "SET accepted %s" what);
          Alcotest.(check bool)
            ("options unchanged after " ^ what)
            true
            (Engine.options (Session.engine s) = Options.default))
        [ "yes"; "of"; "" ])
    Options.bool_option_keys;
  let removed = "rule" ^ "_engine" in
  List.iter
    (fun (key, value) ->
      match Session.set (fresh ()) key value with
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "unknown-option error for %s %s" key value)
          true
          (Helpers.contains m ("unknown option " ^ key))
      | Ok _ -> Alcotest.failf "SET %s %s must be rejected" key value)
    [ (removed, "off"); ("nonsense", "5") ]

(** A hostile [SET workers] must not wedge the server: a size over
    {!Parallel.max_workers} is refused with the usage error before any
    domain is spawned, and another session's ordinary parallel query
    still answers. *)
let test_session_set_workers_bounded () =
  let bound = Dbspinner_exec.Parallel.max_workers in
  (match
     Session.set
       (Session.create ~id:0 ~options:Options.default
          ~shared_catalog:(Catalog.create ()))
       "workers" (string_of_int bound)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "SET workers %d: %s" bound m);
  let config =
    { Server.default_config with Server.socket_path = socket_path "workers" }
  in
  Server.with_server ~config ~catalog:(graph_catalog ()) (fun _srv ->
      Client.with_client ~socket_path:config.Server.socket_path (fun hostile ->
          List.iter
            (fun n ->
              match Client.set hostile "workers" n with
              | Error m ->
                Alcotest.(check bool) ("usage error for " ^ n) true
                  (Helpers.contains m "usage: SET workers")
              | Ok _ -> Alcotest.failf "SET workers %s must be rejected" n)
            [ string_of_int (bound + 1); "1000000"; "0" ];
          Client.with_client ~socket_path:config.Server.socket_path (fun c ->
              (match Client.set c "workers" "2" with
              | Ok _ -> ()
              | Error m -> Alcotest.fail m);
              match Client.query c "SELECT COUNT(*) AS n FROM edges" with
              | Ok body ->
                Alcotest.(check bool) "parallel session answers" true
                  (Helpers.contains body "n")
              | Error (s, m) -> Alcotest.fail (s ^ " " ^ m))))

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "framing-roundtrip" `Quick test_framing_roundtrip;
          Alcotest.test_case "framing-zero-length" `Quick
            test_framing_zero_length;
          Alcotest.test_case "framing-oversized-header" `Quick
            test_framing_oversized_header;
          Alcotest.test_case "framing-header-too-long" `Quick
            test_framing_header_too_long;
          Alcotest.test_case "framing-garbage-header" `Quick
            test_framing_garbage_header;
          Alcotest.test_case "framing-peer-death-mid-frame" `Quick
            test_framing_peer_death_mid_frame;
          Alcotest.test_case "framing-exactly-max-bytes" `Quick
            test_framing_exactly_max_bytes;
          Alcotest.test_case "request-roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "read-only-classification" `Quick
            test_read_only_classification;
          Alcotest.test_case "split-statements" `Quick test_split_statements;
          Alcotest.test_case "request-id-tags" `Quick test_request_id_tags;
          Alcotest.test_case "hostile-frames" `Quick test_hostile_frames;
        ] );
      ( "admission",
        [
          Alcotest.test_case "rwlock-writer-handoff" `Quick
            test_writers_serialize;
          Alcotest.test_case "unit" `Quick test_admission_unit;
          Alcotest.test_case "metrics" `Quick test_metrics_render_parse;
          Alcotest.test_case "metrics-percentile-edges" `Quick
            test_metrics_percentile_edges;
          Alcotest.test_case "rejects-overload" `Quick
            test_admission_rejects_overload;
          Alcotest.test_case "busy-retry" `Quick
            test_busy_retry_eventually_succeeds;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "concurrent-bit-identical" `Quick
            test_concurrent_sessions_bit_identical;
          Alcotest.test_case "temp-isolation" `Quick test_session_temp_isolation;
          Alcotest.test_case "shared-ddl" `Quick test_shared_base_ddl_visible;
          Alcotest.test_case "set-options" `Quick test_session_set_and_stats;
          Alcotest.test_case "set-bool-keys" `Quick test_session_set_bool_keys;
          Alcotest.test_case "set-workers-bounded" `Quick
            test_session_set_workers_bounded;
          Alcotest.test_case "statement-timeout" `Quick
            test_statement_timeout_guard;
        ] );
      ( "mvcc",
        [
          Alcotest.test_case "snapshot-isolation-under-ddl" `Quick
            test_snapshot_isolation_under_ddl;
          Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
          Alcotest.test_case "plan-cache-hit-and-staleness" `Quick
            test_plan_cache_hit_and_staleness;
          Alcotest.test_case "plan-cache-repeated-derived-table" `Quick
            test_plan_cache_repeated_derived_table_read;
          Alcotest.test_case "plan-cache-opt-out" `Quick
            test_plan_cache_opt_out;
          Alcotest.test_case "pipeline-ordered" `Quick
            test_pipeline_ordered_responses;
          Alcotest.test_case "pipeline-untagged-interop" `Quick
            test_pipeline_untagged_interop;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "drain-aborts-at-boundary" `Quick
            test_drain_aborts_inflight_at_boundary;
          Alcotest.test_case "closing-after-drain" `Quick
            test_closing_after_drain_starts;
        ] );
    ]
