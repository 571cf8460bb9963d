(* Tests of the benchmark's own helpers: order statistics, ratios,
   STATS and span parsing, the result line, and the metric catalogue
   against BENCHMARK.json. *)

module Json = Dbspinner_obs.Json

let float = Alcotest.float 1e-9

let test_median () =
  Alcotest.check float "odd" 3.0 (Util.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check float "even" 2.5 (Util.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check float "one" 7.0 (Util.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "median: no samples")
    (fun () -> ignore (Util.median []))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Util.quartiles xs in
    Alcotest.check float (name ^ " q1") a q1;
    Alcotest.check float (name ^ " q2") b q2;
    Alcotest.check float (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two" [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  check "three" [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check "seven" [ 5.0; 1.0; 4.0; 2.0; 3.0; 10.0; 7.0 ] (2.0, 4.0, 7.0)

let test_tail_rule () =
  let check n want =
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "n=%d" n) want (Util.tail_percentile n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 50.0);
  check 39 (Some 50.0);
  check 40 (Some 75.0);
  check 100 (Some 90.0);
  check 199 (Some 90.0);
  check 200 (Some 95.0);
  check 1000 (Some 99.0);
  check 10_000 (Some 99.9);
  (* The rule leaves at least ten samples beyond the chosen rank. *)
  List.iter
    (fun n ->
      match Util.tail_percentile n with
      | None -> ()
      | Some p ->
        let xs = List.init n float_of_int in
        let v = Util.percentile xs p in
        let beyond = List.length (List.filter (fun x -> x > v) xs) in
        Alcotest.(check bool) (Printf.sprintf "ten beyond at n=%d" n) true (beyond >= 10))
    [ 20; 21; 57; 100; 150; 333; 1000; 4096; 12_345 ]

let test_percentile_geomean () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check float "p90" 90.0 (Util.percentile xs 90.0);
  Alcotest.check float "p100" 100.0 (Util.percentile xs 100.0);
  Alcotest.check float "p0" 1.0 (Util.percentile xs 0.0);
  Alcotest.check float "geomean" 10.0 (Util.geomean [ 1.0; 100.0 ])

let test_ratio () =
  let r = Util.ratio 3.0 4.0 in
  Alcotest.check float "value" 0.75 (Util.ratio_value r);
  Alcotest.(check string) "printed with base" "0.7500 (3/4)" (Util.ratio_to_string r);
  let empty = Util.ratio 0.0 0.0 in
  Alcotest.check float "empty base" 0.0 (Util.ratio_value empty);
  Alcotest.(check string) "empty printed" "n/a (0/0)" (Util.ratio_to_string empty)

let stats_body =
  String.concat "\n"
    [
      "sessions_total 3"; "sessions_active 2"; "queries_ok 120"; "queries_err 1";
      "queries_read 80"; "queries_write 41"; "rejected 0"; "inflight 1";
      "max_inflight 8"; "p50_ms 4.250"; "p99_ms 31.500"; "draining false";
      "snapshot_version 57"; "plan_hits 4"; "plan_misses 76"; "plan_entries 3";
      "fsync_policy batch"; "wal_records 41"; "wal_bytes 3444"; "wal_fsyncs 9";
      "checkpoints 5"; "ddl_events 3";
    ]

(* The body goes through the same split the client applies. *)
let parse_stats body = Util.stats_of_assoc (Dbspinner_server.Metrics.parse body)

let test_parse_stats () =
  let s = parse_stats stats_body in
  Alcotest.(check int) "queries_ok" 120 s.Util.queries_ok;
  Alcotest.(check int) "snapshot_version" 57 s.Util.snapshot_version;
  Alcotest.(check int) "plan_misses" 76 s.Util.plan_misses;
  Alcotest.(check int) "wal_bytes" 3444 s.Util.wal_bytes;
  Alcotest.(check int) "checkpoints" 5 s.Util.checkpoints;
  Alcotest.check float "p99_ms" 31.5 s.Util.p99_ms;
  Alcotest.(check string) "fsync" "batch" s.Util.fsync_policy;
  let fails name body =
    Alcotest.(check bool) name true
      (match parse_stats body with _ -> false | exception Failure _ -> true)
  in
  fails "no durability keys" "queries_ok 1\np50_ms 2\np99_ms 2";
  fails "not a number"
    (String.concat "\n"
       (List.map
          (fun l -> if String.starts_with ~prefix:"p50_ms" l then "p50_ms fast" else l)
          (String.split_on_char '\n' stats_body)));
  Alcotest.(check int) "a trailing keyless line is ignored" 120
    (parse_stats (stats_body ^ "\nx")).Util.queries_ok

let test_spans () =
  let r = Util.recorder () in
  let inner =
    Util.with_span r ~stmt:7 "statement" (fun parent ->
        Util.with_span r ~parent ~stmt:7 "sql.parse" (fun _ -> ());
        Util.with_span r ~parent ~stmt:7 "exec.run" (fun id -> id))
  in
  (try Util.with_span r ~stmt:8 "statement" (fun _ -> failwith "boom")
   with Failure _ -> ());
  let spans = Util.spans r in
  Alcotest.(check (list string)) "names in id order"
    [ "statement"; "sql.parse"; "exec.run"; "statement" ]
    (List.map (fun s -> s.Util.name) spans);
  Alcotest.(check int) "child id" 2 inner;
  Alcotest.(check (list int)) "parents" [ -1; 0; 0; -1 ]
    (List.map (fun s -> s.Util.parent) spans);
  let text = String.concat "\n" (List.map Util.span_to_json spans) ^ "\n\n" in
  (match Util.spans_of_ndjson text with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check int) "round trip count" 4 (List.length back);
    List.iter2
      (fun a b ->
        Alcotest.(check string) "name" a.Util.name b.Util.name;
        Alcotest.(check int) "stmt" a.Util.stmt b.Util.stmt;
        Alcotest.(check int) "parent" a.Util.parent b.Util.parent;
        Alcotest.(check (float 1e-5)) "start" a.Util.start_s b.Util.start_s)
      spans back);
  match Util.spans_of_ndjson "{\"id\": 1, \"name\": \"x\"}\n" with
  | Ok _ -> Alcotest.fail "a span without times parsed"
  | Error _ -> ()

let test_result_line () =
  Alcotest.(check string) "integral" "3" (Util.json_number 3.0);
  Alcotest.(check string) "all digits" "0.10000000000000001" (Util.json_number 0.1);
  Alcotest.check_raises "nan" (Invalid_argument "json_number: nan is not finite")
    (fun () -> ignore (Util.json_number Float.nan));
  let line =
    Util.result_line ~correct:true ~attempted:12 ~failed:0
      [ ("latency_ms", 1.25, "ms"); ("setup_s", 0.5, "s") ]
  in
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check bool) "keys" true
      (match j with
      | Json.Obj kv -> List.map fst kv = [ "correct"; "attempted"; "failed"; "metrics" ]
      | _ -> false);
    match Option.bind (Json.member "metrics" j) (Json.member "latency_ms") with
    | Some m ->
      Alcotest.(check bool) "value and unit" true
        (Json.member "value" m = Some (Json.Num 1.25)
        && Json.member "unit" m = Some (Json.Str "ms"))
    | None -> Alcotest.fail "no latency_ms"

(* BENCHMARK.json names exactly the catalogue's metrics, with its
   units. *)
let test_catalogue () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let listed key =
      match Json.member key j with
      | Some (Json.Arr xs) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | _ -> Alcotest.fail ("malformed entry in " ^ key))
          xs
      | _ -> Alcotest.fail ("no " ^ key)
    in
    Alcotest.(check (list (pair string string))) "end_to_end"
      Catalogue.end_to_end (listed "end_to_end");
    Alcotest.(check (list (pair string string))) "per_layer"
      Catalogue.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail-rule" `Quick test_tail_rule;
          Alcotest.test_case "percentile-geomean" `Quick test_percentile_geomean;
          Alcotest.test_case "ratio-with-base" `Quick test_ratio;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "server-stats" `Quick test_parse_stats;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "result-line" `Quick test_result_line;
        ] );
      ("contract", [ Alcotest.test_case "catalogue" `Quick test_catalogue ]);
    ]
