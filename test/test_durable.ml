(** Durability tests: CRC/frame/codec units, snapshot and WAL
    round-trips, recovery invariants (torn tails discarded, corruption
    refused, digests validated), and a kill-the-server chaos harness
    that SIGKILLs the real binary at seeded points and proves recovery
    is bit-identical to a never-crashed oracle. *)

module Crc32 = Dbspinner_durable.Crc32
module Frame = Dbspinner_durable.Frame
module Codec = Dbspinner_durable.Codec
module Snapshot = Dbspinner_durable.Snapshot
module Wal = Dbspinner_durable.Wal
module Durable = Dbspinner_durable.Durable
module Catalog = Dbspinner_storage.Catalog
module Table = Dbspinner_storage.Table
module Relation = Dbspinner_storage.Relation
module Value = Dbspinner_storage.Value
module Engine = Dbspinner.Engine
module Client = Dbspinner_server.Client
module Rng = Dbspinner_graph.Rng

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                  *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(** A fresh (pre-cleaned) scratch directory for one test. *)
let tmp_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-durable-%d-%s" (Unix.getpid ()) tag)
  in
  rm_rf dir;
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(** The single durable file with the given extension in [dir]. *)
let the_file dir suffix =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun e -> Filename.check_suffix e suffix)
  with
  | [ e ] -> Filename.concat dir e
  | files ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one %s in %s, found %d" suffix dir
         (List.length files))

(* ------------------------------------------------------------------ *)
(* CRC32                                                               *)

let test_crc32_vectors () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  (* Incremental update over a split buffer equals one-shot. *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let b = Bytes.of_string s in
  let split = Crc32.update (Crc32.update 0 b 0 9) b 9 (Bytes.length b - 9) in
  Alcotest.(check int) "incremental" (Crc32.string s) split;
  Alcotest.(check bool) "sensitive to a flipped bit" true
    (Crc32.string "abd" <> Crc32.string "abc")

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 10_000 '\x00'; "line\nbreaks\n" ] in
  let blob = String.concat "" (List.map Frame.encode payloads) in
  let scan = Frame.scan_string blob in
  Alcotest.(check bool) "clean tail" true (scan.Frame.tail = Frame.Clean);
  Alcotest.(check (list string)) "payloads" payloads scan.Frame.payloads;
  Alcotest.(check int) "valid covers all" (String.length blob)
    scan.Frame.valid_bytes

let test_frame_torn_tail () =
  let complete = Frame.encode "first" ^ Frame.encode "second" in
  let torn = Frame.encode "third" in
  (* Every possible truncation point inside the final record: the two
     complete records always survive, the tail is always Torn. *)
  for keep = 1 to String.length torn - 1 do
    let blob = complete ^ String.sub torn 0 keep in
    let scan = Frame.scan_string blob in
    Alcotest.(check (list string))
      (Printf.sprintf "prefix intact at cut %d" keep)
      [ "first"; "second" ] scan.Frame.payloads;
    match scan.Frame.tail with
    | Frame.Torn _ -> ()
    | Frame.Clean -> Alcotest.fail "truncated record scanned as clean"
    | Frame.Corrupt m -> Alcotest.fail ("truncation misread as corruption: " ^ m)
  done

let test_frame_corruption () =
  let blob = Frame.encode "payload one" ^ Frame.encode "payload two" in
  (* Flip one byte inside the second record's payload: CRC mismatch. *)
  let corrupted = Bytes.of_string blob in
  let off = String.length (Frame.encode "payload one") + Frame.header_bytes + 3 in
  Bytes.set corrupted off (Char.chr (Char.code (Bytes.get corrupted off) lxor 1));
  let scan = Frame.scan_string (Bytes.to_string corrupted) in
  Alcotest.(check (list string)) "first record survives" [ "payload one" ]
    scan.Frame.payloads;
  (match scan.Frame.tail with
  | Frame.Corrupt m ->
    Alcotest.(check bool)
      (Printf.sprintf "names the checksum (%s)" m)
      true
      (Helpers.contains m "crc")
  | _ -> Alcotest.fail "bit flip must scan as corrupt");
  (* Garbage that is not even a header: bad magic. *)
  match (Frame.scan_string "GARBAGEGARBAGEGARBAGE").Frame.tail with
  | Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic must scan as corrupt"

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let test_codec_value_roundtrip () =
  let values =
    [
      Value.Null;
      Value.Int 0;
      Value.Int max_int;
      Value.Int min_int;
      Value.Bool true;
      Value.Bool false;
      Value.Float 0.0;
      Value.Float (-0.0);
      Value.Float Float.nan;
      Value.Float Float.infinity;
      Value.Float Float.neg_infinity;
      Value.Float 0.1;
      Value.Float 1e-308;
      Value.Float Float.max_float;
      Value.Str "";
      Value.Str "plain";
      Value.Str "with \n newline, 'quotes' and \x00 NUL \xff bytes";
    ]
  in
  let buf = Buffer.create 256 in
  List.iter (Codec.add_value buf) values;
  let cur = Codec.cursor (Buffer.contents buf) in
  List.iter
    (fun expected ->
      let got = Codec.read_value cur in
      let same =
        match (expected, got) with
        | Value.Float a, Value.Float b ->
          (* Bit-exact: NaN round-trips, -0.0 keeps its sign. *)
          Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        | a, b -> a = b
      in
      Alcotest.(check bool)
        (Printf.sprintf "value %s round-trips" (Value.to_string expected))
        true same)
    values;
  Alcotest.(check int) "cursor drained" 0 (Codec.remaining cur)

let test_codec_rejects_malformed () =
  let expect_fail name s =
    match Codec.read_value (Codec.cursor s) with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.fail (name ^ " must raise Decode_error")
  in
  expect_fail "empty" "";
  expect_fail "unknown tag" "Z ";
  expect_fail "unterminated int" "I42";
  expect_fail "bad string length" "VSxx:abc ";
  expect_fail "truncated string" "VS10:abc "

(* ------------------------------------------------------------------ *)
(* Snapshot round-trip                                                 *)

(** Run a script against a catalog the way a server session would,
    swallowing statement errors (their partial effects remain). *)
let exec_catalog catalog sql =
  let eng = Engine.create ~catalog:(Catalog.with_shared_base catalog) () in
  try ignore (Engine.execute_script eng sql) with _ -> ()

(** Render every base table (schema, version and rows in storage
    order): the bit-identity witness used across these tests. *)
let dump_catalog catalog =
  Catalog.table_names catalog
  |> List.map (fun n ->
         let t = Catalog.find_table catalog n in
         Printf.sprintf "== %s (v%d) ==\n%s" n (Table.version t)
           (Relation.to_table_string (Table.to_relation t)))
  |> String.concat "\n"

let populated_catalog () =
  let c = Catalog.create () in
  exec_catalog c
    "CREATE TABLE kv (k INT PRIMARY KEY, v FLOAT);\n\
     INSERT INTO kv VALUES (1, 0.5);\n\
     INSERT INTO kv VALUES (2, 1.25);\n\
     INSERT INTO kv VALUES (3, -0.0);\n\
     UPDATE kv SET v = v * 3.0 WHERE k = 2;\n\
     CREATE TABLE tags (name STRING, ok BOOL);\n\
     INSERT INTO tags VALUES ('line\nbreak', TRUE);\n\
     INSERT INTO tags VALUES ('', FALSE);\n\
     CREATE TABLE empty (a INT, b STRING)";
  c

let test_snapshot_roundtrip () =
  let dir = tmp_dir "snap" in
  Unix.mkdir dir 0o755;
  let c = populated_catalog () in
  let path = Filename.concat dir "snapshot-000007.snap" in
  Snapshot.write ~path ~seq:7 c;
  (match Snapshot.load ~path with
  | Error m -> Alcotest.fail m
  | Ok (seq, tables) ->
    Alcotest.(check int) "seq survives" 7 seq;
    Alcotest.(check int) "all tables" 3 (List.length tables);
    let restored = Catalog.create () in
    Snapshot.restore restored tables;
    Alcotest.(check string) "bit-identical restore" (dump_catalog c)
      (dump_catalog restored);
    Alcotest.(check bool) "digests agree" true
      (Catalog.base_digest c = Catalog.base_digest restored));
  (* Any single-byte corruption must reject the whole snapshot. *)
  let blob = read_file path in
  let rng = Rng.create 42 in
  for _ = 1 to 20 do
    let off = Rng.int rng (String.length blob) in
    let corrupted = Bytes.of_string blob in
    Bytes.set corrupted off
      (Char.chr (Char.code (Bytes.get corrupted off) lxor 0x20));
    write_file path (Bytes.to_string corrupted);
    match Snapshot.load ~path with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.fail
        (Printf.sprintf "snapshot with byte %d corrupted must not load" off)
  done;
  (* A truncated snapshot (missing footer) is invalid too — snapshots
     are atomic, so a short one is damage, not a crash artifact. *)
  write_file path (String.sub blob 0 (String.length blob - 5));
  (match Snapshot.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot must not load");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)

let test_wal_roundtrip_and_torn_tail () =
  let dir = tmp_dir "wal" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal-000001.wal" in
  let records =
    [
      { Wal.seq = 1; digest = 123; sql = "CREATE TABLE t (a INT)" };
      { Wal.seq = 2; digest = -456; sql = "INSERT INTO t VALUES (1);\nmore" };
      { Wal.seq = 3; digest = max_int; sql = String.make 5000 's' };
    ]
  in
  let w = Wal.create ~path ~policy:Wal.Always in
  List.iter (Wal.append w) records;
  Alcotest.(check bool) "always fsyncs per record" true (Wal.fsyncs w >= 3);
  Wal.close w;
  let scan = Wal.scan ~path in
  Alcotest.(check bool) "clean" true (scan.Wal.tail = Frame.Clean);
  Alcotest.(check bool) "records round-trip" true (scan.Wal.records = records);
  (* Truncation at every byte inside the final record: earlier records
     always survive, the tail is Torn, never Clean, never Corrupt. *)
  let blob = read_file path in
  let second_end =
    (* Recompute where record 3's frame begins by re-encoding 1-2. *)
    let enc r =
      let buf = Buffer.create 64 in
      Codec.add_string buf "STMT";
      Codec.add_int buf r.Wal.seq;
      Codec.add_int buf r.Wal.digest;
      Codec.add_string buf r.Wal.sql;
      Frame.encode (Buffer.contents buf)
    in
    String.length (enc (List.nth records 0)) + String.length (enc (List.nth records 1))
  in
  for keep = second_end + 1 to String.length blob - 1 do
    write_file path (String.sub blob 0 keep);
    let scan = Wal.scan ~path in
    Alcotest.(check int)
      (Printf.sprintf "two records at cut %d" keep)
      2
      (List.length scan.Wal.records);
    match scan.Wal.tail with
    | Frame.Torn _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "cut %d must scan as torn" keep)
  done;
  (* A checksum-valid frame that is not a decodable record poisons the
     scan as corrupt (it can never be silently replayed). *)
  write_file path (Frame.encode "NOT A WAL RECORD");
  (match (Wal.scan ~path).Wal.tail with
  | Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "undecodable record must scan as corrupt");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Durable manager: recovery invariants (in-process)                   *)

let attach ~dir catalog =
  Durable.attach ~dir ~policy:Durable.Batch ~catalog
    ~replay:(fun sql -> exec_catalog catalog sql)

(** Execute + log the way the server does: run, digest, log if the
    base state changed. *)
let apply d catalog sql =
  let before = Catalog.base_digest catalog in
  exec_catalog catalog sql;
  let digest = Catalog.base_digest catalog in
  if digest <> before then Durable.log_script d ~digest ~sql

let scripts =
  [
    "CREATE TABLE kv (k INT PRIMARY KEY, v FLOAT)";
    "INSERT INTO kv VALUES (1, 1.5); INSERT INTO kv VALUES (2, 0.25)";
    "UPDATE kv SET v = v * 2.0 WHERE k = 1";
    (* Errors mid-script leave partial effects; they log too. *)
    "INSERT INTO kv VALUES (3, 9.0); INSERT INTO kv VALUES (1, 0.0)";
    "DELETE FROM kv WHERE k = 2";
    (* Pure failure: no state change, nothing to log. *)
    "INSERT INTO kv VALUES (1, 7.7)";
    "CREATE TABLE other (s STRING); INSERT INTO other VALUES ('x')";
  ]

let test_durable_recovery_replays_wal () =
  let dir = tmp_dir "recover" in
  let live = Catalog.create () in
  let d = attach ~dir live in
  List.iter (apply d live) scripts;
  Alcotest.(check int) "6 of 7 scripts logged" 6 (Durable.pending_records d);
  (* Close WITHOUT a checkpoint: recovery must come from snapshot-0 +
     full WAL replay. *)
  Durable.close d;
  let recovered = Catalog.create () in
  let d2 = attach ~dir recovered in
  let r = Durable.recovery d2 in
  Alcotest.(check int) "replayed all logged scripts" 6
    r.Durable.wal_records_applied;
  Alcotest.(check bool) "no tail damage" true (r.Durable.torn_tail = None);
  Alcotest.(check string) "bit-identical catalog" (dump_catalog live)
    (dump_catalog recovered);
  Alcotest.(check bool) "digests agree" true
    (Catalog.base_digest live = Catalog.base_digest recovered);
  (* The boot rotated: a third attach replays nothing. *)
  Durable.close d2;
  let again = Catalog.create () in
  let d3 = attach ~dir again in
  Alcotest.(check int) "post-rotation boot replays nothing" 0
    (Durable.recovery d3).Durable.wal_records_applied;
  Alcotest.(check string) "still bit-identical" (dump_catalog live)
    (dump_catalog again);
  Durable.close d3;
  rm_rf dir

let test_durable_checkpoint_collapses_wal () =
  let dir = tmp_dir "ckpt" in
  let live = Catalog.create () in
  let d = attach ~dir live in
  List.iter (apply d live) scripts;
  Durable.checkpoint d;
  Alcotest.(check int) "wal empty after checkpoint" 0 (Durable.pending_records d);
  apply d live "INSERT INTO kv VALUES (10, 0.125)";
  Durable.close d;
  let recovered = Catalog.create () in
  let d2 = attach ~dir recovered in
  Alcotest.(check int) "only the post-checkpoint record replays" 1
    (Durable.recovery d2).Durable.wal_records_applied;
  Alcotest.(check string) "bit-identical" (dump_catalog live)
    (dump_catalog recovered);
  Durable.close d2;
  rm_rf dir

let test_durable_discards_torn_tail () =
  let dir = tmp_dir "torn" in
  let live = Catalog.create () in
  let d = attach ~dir live in
  List.iter (apply d live) scripts;
  Durable.close d;
  (* Simulate a crash mid-append: only part of one more record made it
     to disk. *)
  let wal = the_file dir ".wal" in
  let partial = Frame.encode "half a record" in
  write_file wal (read_file wal ^ String.sub partial 0 (String.length partial - 4));
  let recovered = Catalog.create () in
  let d2 = attach ~dir recovered in
  let r = Durable.recovery d2 in
  Alcotest.(check int) "valid prefix replayed" 6 r.Durable.wal_records_applied;
  (match r.Durable.torn_tail with
  | Some _ -> ()
  | None -> Alcotest.fail "torn tail must be reported");
  Alcotest.(check bool) "discard counted" true (r.Durable.wal_bytes_discarded > 0);
  Alcotest.(check string) "prefix state recovered exactly" (dump_catalog live)
    (dump_catalog recovered);
  Durable.close d2;
  rm_rf dir

let expect_durability_error name f =
  match f () with
  | exception Durable.Durability_error _ -> ()
  | _ -> Alcotest.fail (name ^ " must raise Durability_error")

let test_durable_refuses_corruption () =
  (* Mid-WAL corruption: hard error, never a silent partial replay. *)
  let dir = tmp_dir "corrupt-wal" in
  let live = Catalog.create () in
  let d = attach ~dir live in
  List.iter (apply d live) scripts;
  Durable.close d;
  let wal = the_file dir ".wal" in
  let blob = read_file wal in
  let corrupted = Bytes.of_string blob in
  let off = String.length blob / 2 in
  Bytes.set corrupted off (Char.chr (Char.code (Bytes.get corrupted off) lxor 1));
  write_file wal (Bytes.to_string corrupted);
  expect_durability_error "corrupt wal" (fun () ->
      attach ~dir (Catalog.create ()));
  rm_rf dir;
  (* Corrupt snapshot: hard error even though a WAL exists — recovery
     must never guess a base state. *)
  let dir = tmp_dir "corrupt-snap" in
  let live = Catalog.create () in
  let d = attach ~dir live in
  List.iter (apply d live) scripts;
  Durable.close d;
  let snap = the_file dir ".snap" in
  let blob = read_file snap in
  let corrupted = Bytes.of_string blob in
  Bytes.set corrupted 20 (Char.chr (Char.code (Bytes.get corrupted 20) lxor 1));
  write_file snap (Bytes.to_string corrupted);
  expect_durability_error "corrupt snapshot" (fun () ->
      attach ~dir (Catalog.create ()));
  rm_rf dir;
  (* A WAL newer than the newest snapshot cannot arise from a crash:
     refuse it rather than replay against the wrong base. *)
  let dir = tmp_dir "newer-wal" in
  let d = attach ~dir (Catalog.create ()) in
  Durable.close d;
  write_file (Filename.concat dir "wal-999999.wal") "";
  expect_durability_error "wal newer than snapshot" (fun () ->
      attach ~dir (Catalog.create ()));
  rm_rf dir

let test_durable_validates_replay_digest () =
  (* A WAL record whose digest does not match what replay produced
     (here: hand-forged) must fail recovery loudly. *)
  let dir = tmp_dir "digest" in
  let d = attach ~dir (Catalog.create ()) in
  Durable.close d;
  let wal = the_file dir ".wal" in
  let buf = Buffer.create 64 in
  Codec.add_string buf "STMT";
  Codec.add_int buf 1;
  Codec.add_int buf 424242 (* not what replaying this script yields *);
  Codec.add_string buf "CREATE TABLE forged (a INT)";
  write_file wal (Frame.encode (Buffer.contents buf));
  expect_durability_error "digest mismatch" (fun () ->
      attach ~dir (Catalog.create ()));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Chaos harness: SIGKILL the real server binary                       *)

(* The server binary sits beside this test's directory in the build
   tree. Resolve it from the test executable's own path rather than
   the working directory: `dune runtest` runs the test from its build
   directory, `dune exec` from the source root. *)
let server_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/server_main.exe"

type run = {
  pid : int;
  log : string;  (** combined stdout+stderr *)
}

let start_server ~dir ~socket ~fsync ~checkpoint_every ~tag =
  let log =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-chaos-%d-%s.log" (Unix.getpid ()) tag)
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process server_exe
      [|
        server_exe;
        "--socket"; socket;
        "--data-dir"; dir;
        "--fsync"; fsync;
        "--checkpoint-every"; string_of_float checkpoint_every;
        "--statement-timeout"; "10";
        "--max-iterations"; "3000000";
      |]
      Unix.stdin out out
  in
  Unix.close out;
  { pid; log }

(** Wait until the server accepts a connection (or fail fast if the
    process already exited). Returns a connected client. *)
let await_server run ~socket =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] run.pid with
    | p, status when p = run.pid ->
      let log = try read_file run.log with _ -> "" in
      Alcotest.fail
        (Printf.sprintf "server died before accepting (%s): %s"
           (match status with
           | Unix.WEXITED c -> Printf.sprintf "exit %d" c
           | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
           | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)
           log)
    | _ -> (
      match Client.connect ~socket_path:socket () with
      | c -> c
      | exception _ ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "server did not come up in 15s"
        else begin
          Thread.delay 0.01;
          loop ()
        end)
  in
  loop ()

let kill_and_reap run =
  (try Unix.kill run.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] run.pid)

(** The workload: deterministic per variant. Mostly single-statement
    DML, some multi-statement scripts (partial-failure coverage), some
    iterative read queries (mid-iterative-kill coverage). Keys are
    unique per statement so replay determinism is easy to reason
    about. *)
let chaos_statements variant =
  let rng = Rng.create (7000 + variant) in
  let spin n =
    Printf.sprintf
      "WITH ITERATIVE spin (n) AS (SELECT 0 ITERATE SELECT n + 1 FROM spin \
       UNTIL %d ITERATIONS) SELECT n FROM spin"
      n
  in
  "CREATE TABLE kv (k INT PRIMARY KEY, v INT)"
  :: List.init 40 (fun i ->
         let k = (variant * 1000) + i in
         match Rng.int rng 10 with
         | 0 | 1 | 2 | 3 ->
           Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" k (Rng.int rng 1000)
         | 4 | 5 ->
           Printf.sprintf "UPDATE kv SET v = v + %d WHERE k < %d"
             (1 + Rng.int rng 9)
             ((variant * 1000) + Rng.int rng 40)
         | 6 -> Printf.sprintf "DELETE FROM kv WHERE v < %d" (Rng.int rng 200)
         | 7 ->
           (* Multi-statement script; second half may or may not fail
              depending on earlier deletes — both are deterministic. *)
           Printf.sprintf
             "INSERT INTO kv VALUES (%d, %d); INSERT INTO kv VALUES (%d, %d)" k
             (Rng.int rng 1000) (100000 + k) (Rng.int rng 1000)
         | 8 -> spin (20_000 + Rng.int rng 60_000)
         | _ ->
           Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" k (Rng.int rng 1000))

(** What the database must contain after the first [j] statements: run
    them on a pristine in-process engine and render the table. *)
let oracle_dump stmts j =
  let eng = Engine.create () in
  List.iteri
    (fun i sql -> if i < j then try ignore (Engine.execute_script eng sql) with _ -> ())
    stmts;
  match Engine.query eng "SELECT * FROM kv" with
  | rel -> Relation.to_table_string rel
  | exception _ -> "ERR no-table"

(** Dump the recovered server's state through the wire. *)
let server_dump client =
  match Client.query client "SELECT * FROM kv" with
  | Ok body -> body
  | Error (_, _) -> "ERR no-table"

(** One chaos round: run the workload against a durable server, SIGKILL
    it at a seeded point mid-stream, restart, and check the recovered
    state against the oracle. Returns how many statements were acked
    before the kill (for reporting). *)
let chaos_round ~seed ~fsync =
  let tag = Printf.sprintf "%s-%d" fsync seed in
  let dir = tmp_dir ("chaos-" ^ tag) in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-chaos-%d-%s.sock" (Unix.getpid ()) tag)
  in
  let rng = Rng.create seed in
  let stmts = chaos_statements (seed mod 5) in
  let run = start_server ~dir ~socket ~fsync ~checkpoint_every:0.05 ~tag in
  let client = await_server run ~socket in
  (* The assassin: SIGKILL after a seeded delay while statements are
     streaming (0-120ms covers mid-DML, mid-iterative-query and — with
     50ms checkpoints — mid-checkpoint). *)
  let delay_ms = Rng.int rng 120 in
  let killer =
    Thread.create
      (fun () ->
        Thread.delay (float_of_int delay_ms /. 1000.0);
        try Unix.kill run.pid Sys.sigkill with Unix.Unix_error _ -> ())
      ()
  in
  let acked = ref 0 in
  (try
     List.iter
       (fun sql ->
         match Client.query client sql with
         | Ok _ | Error _ -> incr acked)
       stmts
   with _ -> ());
  Thread.join killer;
  (try Client.close client with _ -> ());
  (* Reap; if every statement was acked before the kill landed, the
     kill still hits the (idle) server — fine, recovery must be exact
     at k. *)
  ignore (Unix.waitpid [] run.pid);
  (* Restart on the same directory and compare with the oracle. *)
  let run2 = start_server ~dir ~socket ~fsync ~checkpoint_every:1000.0 ~tag in
  let client2 = await_server run2 ~socket in
  let got = server_dump client2 in
  let k = !acked in
  let candidates =
    (* The in-flight statement may or may not have reached the log
       before the kill: both prefixes are legal. With fsync=off,
       acknowledged statements may be lost too, so any prefix <= k+1
       is acceptable. *)
    if fsync = "off" then List.init (k + 2) (fun j -> j)
    else [ k; k + 1 ]
  in
  let matched =
    List.exists (fun j -> got = oracle_dump stmts j) candidates
  in
  if not matched then begin
    let log = try read_file run2.log with _ -> "" in
    Alcotest.fail
      (Printf.sprintf
         "seed %d (%s): recovered state matches no legal prefix (acked %d of \
          %d)\nrecovery log:\n%s\ngot:\n%s\nexpected (at %d):\n%s"
         seed fsync k (List.length stmts) log got k (oracle_dump stmts k))
  end;
  (* The boot printed a recovery report. *)
  let log2 = try read_file run2.log with _ -> "" in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: recovery report printed" seed)
    true
    (Helpers.contains log2 "recovery:");
  Client.shutdown_server client2;
  ignore (Unix.waitpid [] run2.pid);
  rm_rf dir;
  (try Sys.remove run.log with Sys_error _ -> ());
  k

let test_chaos_sigkill_matrix () =
  (* >= 20 seeded kill points across fsync policies. Seeds vary both
     the kill delay and the workload variant; several land mid-DML,
     several mid-iterative-query, and the 50ms checkpoint interval
     makes mid-checkpoint kills routine. *)
  let kill_counts = ref [] in
  for seed = 1 to 14 do
    kill_counts := chaos_round ~seed ~fsync:"batch" :: !kill_counts
  done;
  for seed = 15 to 20 do
    kill_counts := chaos_round ~seed ~fsync:"always" :: !kill_counts
  done;
  for seed = 21 to 24 do
    kill_counts := chaos_round ~seed ~fsync:"off" :: !kill_counts
  done;
  (* Sanity: the kills actually interrupted work somewhere mid-stream
     (not all before the first statement, not all after the last). *)
  let total = List.length (chaos_statements 0) in
  Alcotest.(check bool) "some kills landed mid-stream" true
    (List.exists (fun k -> k > 0 && k < total) !kill_counts)

let test_chaos_corrupt_tail_refused () =
  (* Crash the server, then vandalize the WAL tail (bit flip, not
     truncation): the restarted server must refuse to start, with a
     clear durability error. *)
  let tag = "vandal" in
  let dir = tmp_dir ("chaos-" ^ tag) in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-chaos-%d-%s.sock" (Unix.getpid ()) tag)
  in
  (* Long checkpoint interval: the records stay in the WAL. *)
  let run = start_server ~dir ~socket ~fsync:"batch" ~checkpoint_every:1000.0 ~tag in
  let client = await_server run ~socket in
  List.iter
    (fun sql -> ignore (Client.query client sql))
    [
      "CREATE TABLE kv (k INT PRIMARY KEY, v INT)";
      "INSERT INTO kv VALUES (1, 10)";
      "INSERT INTO kv VALUES (2, 20)";
    ];
  kill_and_reap run;
  (try Client.close client with _ -> ());
  let wal = the_file dir ".wal" in
  let blob = read_file wal in
  Alcotest.(check bool) "wal has content to vandalize" true
    (String.length blob > Frame.header_bytes);
  let corrupted = Bytes.of_string blob in
  let off = String.length blob - 3 in
  Bytes.set corrupted off (Char.chr (Char.code (Bytes.get corrupted off) lxor 1));
  write_file wal (Bytes.to_string corrupted);
  let run2 = start_server ~dir ~socket ~fsync:"batch" ~checkpoint_every:1000.0 ~tag in
  let _, status = Unix.waitpid [] run2.pid in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.fail "server must refuse a corrupt WAL"
  | Unix.WEXITED _ -> ()
  | _ -> Alcotest.fail "server must exit cleanly with an error");
  let log = try read_file run2.log with _ -> "" in
  Alcotest.(check bool)
    (Printf.sprintf "error names durability (%s)" log)
    true
    (Helpers.contains log "durability error");
  rm_rf dir;
  (try Sys.remove run2.log with Sys_error _ -> ())

let test_chaos_preload_survives () =
  (* --gen preload is captured by the boot checkpoint; after a kill the
     restarted server must still have the graph, and must NOT re-run
     the preload. *)
  let tag = "preload" in
  let dir = tmp_dir ("chaos-" ^ tag) in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-chaos-%d-%s.sock" (Unix.getpid ()) tag)
  in
  let log =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbspinner-chaos-%d-%s.log" (Unix.getpid ()) tag)
  in
  let spawn () =
    let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process server_exe
        [|
          server_exe;
          "--socket"; socket;
          "--data-dir"; dir;
          "--gen"; "dblp-like";
          "--scale"; "0.02";
        |]
        Unix.stdin out out
    in
    Unix.close out;
    { pid; log }
  in
  let run = spawn () in
  let client = await_server run ~socket in
  let count () =
    match Client.query client "SELECT COUNT(*) FROM edges" with
    | Ok body -> body
    | Error (s, m) -> Alcotest.fail (s ^ " " ^ m)
  in
  let before = count () in
  kill_and_reap run;
  (try Client.close client with _ -> ());
  let run2 = spawn () in
  let client2 = await_server run2 ~socket in
  let after =
    match Client.query client2 "SELECT COUNT(*) FROM edges" with
    | Ok body -> body
    | Error (s, m) -> Alcotest.fail (s ^ " " ^ m)
  in
  Alcotest.(check string) "graph survives the crash" before after;
  let log2 = try read_file run2.log with _ -> "" in
  Alcotest.(check bool)
    (Printf.sprintf "second boot skips the preload (%s)" log2)
    true
    (Helpers.contains log2 "skipping --gen preload");
  Client.shutdown_server client2;
  ignore (Unix.waitpid [] run2.pid);
  rm_rf dir;
  (try Sys.remove log with Sys_error _ -> ())

let () =
  (* The chaos tests write into sockets the server side of which was
     just SIGKILLed; without this the resulting SIGPIPE would kill the
     test process instead of surfacing as EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "durable"
    [
      ( "units",
        [
          Alcotest.test_case "crc32-vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "frame-roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame-torn-tail" `Quick test_frame_torn_tail;
          Alcotest.test_case "frame-corruption" `Quick test_frame_corruption;
          Alcotest.test_case "codec-values" `Quick test_codec_value_roundtrip;
          Alcotest.test_case "codec-malformed" `Quick
            test_codec_rejects_malformed;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip-torn" `Quick
            test_wal_roundtrip_and_torn_tail;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replays-wal" `Quick
            test_durable_recovery_replays_wal;
          Alcotest.test_case "checkpoint-collapses" `Quick
            test_durable_checkpoint_collapses_wal;
          Alcotest.test_case "discards-torn-tail" `Quick
            test_durable_discards_torn_tail;
          Alcotest.test_case "refuses-corruption" `Quick
            test_durable_refuses_corruption;
          Alcotest.test_case "validates-replay-digest" `Quick
            test_durable_validates_replay_digest;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "sigkill-matrix" `Slow test_chaos_sigkill_matrix;
          Alcotest.test_case "corrupt-tail-refused" `Slow
            test_chaos_corrupt_tail_refused;
          Alcotest.test_case "preload-survives" `Slow test_chaos_preload_survives;
        ] );
    ]
