(** Engine-level tests: full SQL statements through parse → rewrite →
    plan → execute, DDL/DML, error surfacing, EXPLAIN, session
    statistics, and the baseline drivers (middleware, procedures). *)

module Relation = Dbspinner_storage.Relation
module Stats = Dbspinner_exec.Stats
module Options = Dbspinner_rewrite.Options
module Engine = Dbspinner.Engine
module Errors = Dbspinner.Errors
open Helpers

(* ------------------------------------------------------------------ *)
(* Basic SELECT features                                               *)

let test_select_basics () =
  let e = shop_engine () in
  check_query e "SELECT name FROM people WHERE age > 30 ORDER BY name"
    [ "name" ]
    [ [ vs "ada" ]; [ vs "cy" ] ];
  check_query e "SELECT COUNT(*) AS n, AVG(age) AS a FROM people"
    [ "n"; "a" ]
    [ [ vi 4; vf 34.5 ] ];
  check_query e "SELECT age, COUNT(*) FROM people GROUP BY age HAVING COUNT(*) > 1"
    [ "age"; "count" ]
    [ [ vi 25; vi 2 ] ];
  check_query e "SELECT DISTINCT age FROM people WHERE age = 25"
    [ "age" ]
    [ [ vi 25 ] ]

let test_select_joins () =
  let e = shop_engine () in
  check_query e
    "SELECT p.name, SUM(o.total) AS spent FROM people AS p JOIN orders AS o \
     ON p.id = o.person_id GROUP BY p.name ORDER BY spent DESC"
    [ "name"; "spent" ]
    [ [ vs "ada"; vf 12.5 ]; [ vs "bob"; vf 3.0 ] ];
  (* Left join keeps customers without orders. *)
  check_query e
    "SELECT p.name, COUNT(o.id) AS n FROM people AS p LEFT JOIN orders AS o \
     ON p.id = o.person_id GROUP BY p.name"
    [ "name"; "n" ]
    [
      [ vs "ada"; vi 2 ];
      [ vs "bob"; vi 1 ];
      [ vs "cy"; vi 0 ];
      [ vs "dee"; vi 0 ];
    ]

let test_subquery_and_union () =
  let e = shop_engine () in
  check_query e
    "SELECT big.name FROM (SELECT name, age FROM people WHERE age > 30) AS \
     big ORDER BY big.name"
    [ "name" ]
    [ [ vs "ada" ]; [ vs "cy" ] ];
  check_query e
    "SELECT age FROM people WHERE age < 30 UNION SELECT age FROM people \
     WHERE age > 50"
    [ "age" ]
    [ [ vi 25 ]; [ vi 52 ] ]

let test_set_operations () =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE a (x INT)");
  ignore (Engine.execute e "INSERT INTO a VALUES (1), (1), (2), (3)");
  ignore (Engine.execute e "CREATE TABLE b (x INT)");
  ignore (Engine.execute e "INSERT INTO b VALUES (1), (3), (3), (4)");
  check_query e "SELECT x FROM a INTERSECT SELECT x FROM b"
    [ "x" ]
    [ [ vi 1 ]; [ vi 3 ] ];
  (* INTERSECT ALL takes minimum multiplicities: 1 appears min(2,1)=1
     time, 3 appears min(1,2)=1 time. *)
  check_query e "SELECT x FROM a INTERSECT ALL SELECT x FROM b"
    [ "x" ]
    [ [ vi 1 ]; [ vi 3 ] ];
  check_query e "SELECT x FROM a EXCEPT SELECT x FROM b" [ "x" ] [ [ vi 2 ] ];
  (* EXCEPT ALL subtracts multiplicities: one 1 survives (2-1). *)
  check_query e "SELECT x FROM a EXCEPT ALL SELECT x FROM b"
    [ "x" ]
    [ [ vi 1 ]; [ vi 2 ] ];
  (* INTERSECT binds tighter than EXCEPT (standard precedence):
     a EXCEPT (b INTERSECT b) = a EXCEPT b. *)
  check_query e "SELECT x FROM a EXCEPT SELECT x FROM b INTERSECT SELECT x FROM b"
    [ "x" ]
    [ [ vi 2 ] ];
  check_error ~substring:"columns" e
    "SELECT x FROM a INTERSECT SELECT x, x FROM b"

(* IN / NOT IN compare members under the equality of joins and set
   operators, so an INT probe matches a FLOAT member of equal value. *)
let test_subquery_numeric_equality () =
  let e = Engine.create () in
  List.iter
    (fun sql -> ignore (Engine.execute e sql))
    [
      "CREATE TABLE t (x INT)";
      "INSERT INTO t VALUES (1), (2)";
      "CREATE TABLE u (y FLOAT)";
      "INSERT INTO u VALUES (1.0)";
    ];
  check_query e "SELECT x FROM t WHERE x IN (SELECT y FROM u)" [ "x" ]
    [ [ vi 1 ] ];
  check_query e "SELECT x FROM t WHERE x NOT IN (SELECT y FROM u)" [ "x" ]
    [ [ vi 2 ] ];
  (* The same answers as the literal list, the join and INTERSECT. *)
  check_query e "SELECT x FROM t WHERE x IN (1.0)" [ "x" ] [ [ vi 1 ] ];
  check_query e "SELECT x FROM t JOIN u ON x = y" [ "x" ] [ [ vi 1 ] ];
  check_query e "SELECT x FROM t INTERSECT SELECT y FROM u" [ "x" ] [ [ vi 1 ] ]

let test_subquery_predicates () =
  let e = shop_engine () in
  (* IN (subquery): customers with at least one order. *)
  check_query e
    "SELECT name FROM people WHERE id IN (SELECT person_id FROM orders) \
     ORDER BY name"
    [ "name" ]
    [ [ vs "ada" ]; [ vs "bob" ] ];
  (* NOT IN: customers with none. *)
  check_query e
    "SELECT name FROM people WHERE id NOT IN (SELECT person_id FROM orders) \
     ORDER BY name"
    [ "name" ]
    [ [ vs "cy" ]; [ vs "dee" ] ];
  (* EXISTS / NOT EXISTS (uncorrelated). *)
  check_query e
    "SELECT COUNT(*) FROM people WHERE EXISTS (SELECT id FROM orders WHERE \
     total > 100)"
    [ "count" ]
    [ [ vi 0 ] ];
  check_query e
    "SELECT COUNT(*) FROM people WHERE NOT EXISTS (SELECT id FROM orders \
     WHERE total > 100)"
    [ "count" ]
    [ [ vi 4 ] ];
  (* Null-aware NOT IN: a NULL in the subquery rejects every row. *)
  ignore (Engine.execute e "INSERT INTO orders VALUES (14, NULL, 2.0)");
  check_query e
    "SELECT COUNT(*) FROM people WHERE id NOT IN (SELECT person_id FROM orders)"
    [ "count" ]
    [ [ vi 0 ] ];
  (* ... while IN is unaffected by the NULL member. *)
  check_query e
    "SELECT COUNT(*) FROM people WHERE id IN (SELECT person_id FROM orders)"
    [ "count" ]
    [ [ vi 2 ] ];
  (* NOT IN over an empty subquery keeps everything. *)
  check_query e
    "SELECT COUNT(*) FROM people WHERE id NOT IN (SELECT person_id FROM \
     orders WHERE total > 100)"
    [ "count" ]
    [ [ vi 4 ] ];
  (* Subquery combined with ordinary conjuncts. *)
  check_query e
    "SELECT name FROM people WHERE age > 30 AND id IN (SELECT person_id \
     FROM orders)"
    [ "name" ]
    [ [ vs "ada" ] ];
  (* Errors: arity and non-top-level positions. *)
  check_error ~substring:"one column" e
    "SELECT name FROM people WHERE id IN (SELECT id, person_id FROM orders)";
  check_error ~substring:"top-level" e
    "SELECT name FROM people WHERE age > 30 OR id IN (SELECT person_id FROM \
     orders)"

let test_scalar_subqueries () =
  let e = shop_engine () in
  (* In SELECT items and in predicates. *)
  check_query e "SELECT (SELECT MAX(age) FROM people) AS oldest"
    [ "oldest" ]
    [ [ vi 52 ] ];
  check_query e
    "SELECT name FROM people WHERE age = (SELECT MAX(age) FROM people)"
    [ "name" ]
    [ [ vs "cy" ] ];
  (* Arithmetic around the subquery; empty subquery is NULL. *)
  check_query e
    "SELECT (SELECT MIN(age) FROM people) + 1 AS v, (SELECT age FROM people \
     WHERE age > 100) AS missing"
    [ "v"; "missing" ]
    [ [ vi 26; vnull ] ];
  (* Inside an iterative CTE: evaluated once, before the loop. *)
  check_query e
    "WITH ITERATIVE c (k, n) AS (SELECT 1, 0 ITERATE SELECT k, n + (SELECT \
     COUNT(*) FROM orders) FROM c UNTIL 3 ITERATIONS) SELECT n FROM c"
    [ "n" ]
    [ [ vi 12 ] ];
  (* Errors: multiple rows, multiple columns, CTE references. *)
  check_error ~substring:"returned" e
    "SELECT (SELECT age FROM people) FROM people";
  check_error ~substring:"one column" e
    "SELECT (SELECT id, age FROM people WHERE age = 52)";
  check_error ~substring:"unknown table" e
    "WITH c AS (SELECT 1 AS x) SELECT (SELECT MAX(x) FROM c)";
  (* DML paths evaluate scalar subqueries too. *)
  ignore
    (Engine.execute e
       "UPDATE people SET age = (SELECT MAX(age) FROM people) WHERE name = 'bob'");
  check_query e "SELECT age FROM people WHERE name = 'bob'" [ "age" ]
    [ [ vi 52 ] ];
  (match
     Engine.execute e
       "DELETE FROM orders WHERE total < (SELECT AVG(total) FROM orders)"
   with
  | Engine.Affected n -> Alcotest.(check int) "deleted below average" 2 n
  | _ -> Alcotest.fail "expected Affected")

let test_limit_and_order () =
  let e = shop_engine () in
  check_query e "SELECT name FROM people ORDER BY age DESC, name LIMIT 2"
    [ "name" ]
    [ [ vs "cy" ]; [ vs "ada" ] ];
  (* OFFSET skips rows after ordering; with and without LIMIT. *)
  check_query e "SELECT name FROM people ORDER BY age DESC, name LIMIT 2 OFFSET 1"
    [ "name" ]
    [ [ vs "ada" ]; [ vs "bob" ] ];
  check_query e "SELECT name FROM people ORDER BY age DESC, name OFFSET 3"
    [ "name" ]
    [ [ vs "dee" ] ];
  (* An offset past the end yields nothing. *)
  check_query e "SELECT name FROM people ORDER BY name OFFSET 10" [ "name" ] []

(* ------------------------------------------------------------------ *)
(* DDL / DML                                                           *)

let test_ddl_lifecycle () =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE t (a INT)");
  check_error ~substring:"already exists" e "CREATE TABLE t (a INT)";
  ignore (Engine.execute e "CREATE TABLE IF NOT EXISTS t (a INT)");
  ignore (Engine.execute e "DROP TABLE t");
  check_error ~substring:"does not exist" e "DROP TABLE t";
  ignore (Engine.execute e "DROP TABLE IF EXISTS t")

let test_insert_variants () =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE t (a INT, b VARCHAR)");
  (match Engine.execute e "INSERT INTO t VALUES (1, 'x'), (2, 'y')" with
  | Engine.Affected 2 -> ()
  | _ -> Alcotest.fail "two rows inserted");
  (* Column-list insert fills missing columns with NULL. *)
  ignore (Engine.execute e "INSERT INTO t (a) VALUES (3)");
  check_query e "SELECT a, b FROM t" [ "a"; "b" ]
    [ [ vi 1; vs "x" ]; [ vi 2; vs "y" ]; [ vi 3; vnull ] ];
  (* INSERT ... SELECT *)
  ignore (Engine.execute e "CREATE TABLE u (a INT, b VARCHAR)");
  (match Engine.execute e "INSERT INTO u SELECT a + 10, b FROM t" with
  | Engine.Affected 3 -> ()
  | _ -> Alcotest.fail "insert-select count");
  check_query e "SELECT COUNT(*) FROM u WHERE a > 10" [ "count" ] [ [ vi 3 ] ];
  check_error ~substring:"arity" e "INSERT INTO u SELECT a FROM t"

let test_update_forms () =
  let e = shop_engine () in
  (match Engine.execute e "UPDATE people SET age = age + 1 WHERE age = 25" with
  | Engine.Affected 2 -> ()
  | _ -> Alcotest.fail "two updated");
  check_query e "SELECT COUNT(*) FROM people WHERE age = 26" [ "count" ]
    [ [ vi 2 ] ];
  (* UPDATE ... FROM with an equi key (the middleware's merge). *)
  (match
     Engine.execute e
       "UPDATE people SET age = 0 FROM orders AS o WHERE people.id = \
        o.person_id AND o.total > 4"
   with
  | Engine.Affected 1 -> ()
  | _ -> Alcotest.fail "keyed update");
  check_query e "SELECT age FROM people WHERE id = 1" [ "age" ] [ [ vi 0 ] ]

(** Several FROM rows share the key: the hash path must take the first
    one in FROM order that passes the residual, as the nested loop
    does, not just the first row with the key. *)
let test_update_from_duplicate_keys () =
  List.iter
    (fun cond ->
      let e = Engine.create () in
      List.iter
        (fun sql -> ignore (Engine.execute e sql))
        [
          "CREATE TABLE t (k INT, v INT)";
          "CREATE TABLE f (k INT, x INT)";
          "INSERT INTO t VALUES (1, 15)";
          "INSERT INTO f VALUES (1, 10), (1, 20)";
        ];
      (match
         Engine.execute e
           ("UPDATE t SET v = f.x FROM f WHERE " ^ cond ^ " AND f.x < t.v")
       with
      | Engine.Affected 1 -> ()
      | Engine.Affected n -> Alcotest.failf "%s: %d rows affected" cond n
      | _ -> Alcotest.fail "expected a row count");
      check_query e "SELECT v FROM t" [ "v" ] [ [ vi 10 ] ])
    [ "t.k = f.k"; "t.k - f.k = 0" ]

let test_delete_and_truncate () =
  let e = shop_engine () in
  (match Engine.execute e "DELETE FROM orders WHERE total < 4" with
  | Engine.Affected 2 -> ()
  | _ -> Alcotest.fail "two deleted");
  check_query e "SELECT COUNT(*) FROM orders" [ "count" ] [ [ vi 2 ] ];
  ignore (Engine.execute e "TRUNCATE TABLE orders");
  check_query e "SELECT COUNT(*) FROM orders" [ "count" ] [ [ vi 0 ] ]

let test_views () =
  let e = shop_engine () in
  (* Basic view: expanded per the paper's section III functional
     rewrite (view reference expansion). *)
  ignore
    (Engine.execute e
       "CREATE VIEW adults AS SELECT id, name, age FROM people WHERE age >= 30");
  check_query e "SELECT name FROM adults ORDER BY name"
    [ "name" ]
    [ [ vs "ada" ]; [ vs "cy" ] ];
  (* Views compose: a view over a view, joined with a base table. *)
  ignore
    (Engine.execute e
       "CREATE VIEW adult_spend AS SELECT a.name, o.total FROM adults AS a \
        JOIN orders AS o ON a.id = o.person_id");
  check_query e "SELECT name, SUM(total) AS s FROM adult_spend GROUP BY name"
    [ "name"; "s" ]
    [ [ vs "ada"; vf 12.5 ] ];
  (* Declared column lists rename the view's outputs. *)
  ignore
    (Engine.execute e
       "CREATE VIEW person_ages (who, years) AS SELECT name, age FROM people");
  check_query e "SELECT who FROM person_ages WHERE years = 52"
    [ "who" ]
    [ [ vs "cy" ] ];
  (* Views see base-table updates (no materialization). *)
  ignore (Engine.execute e "UPDATE people SET age = 29 WHERE name = 'ada'");
  check_query e "SELECT COUNT(*) FROM adults" [ "count" ] [ [ vi 1 ] ];
  (* A CTE with the same name shadows the view. *)
  check_query e
    "WITH adults AS (SELECT 99 AS answer) SELECT answer FROM adults"
    [ "answer" ]
    [ [ vi 99 ] ];
  (* Views work inside iterative CTEs. *)
  ignore (Engine.execute e "CREATE VIEW order_count AS SELECT COUNT(*) AS n FROM orders");
  check_query e
    "WITH ITERATIVE c (k, total) AS (SELECT 1, 0 ITERATE SELECT c.k, c.total \
     + v.n FROM c JOIN order_count AS v ON 1 = 1 UNTIL 3 ITERATIONS) SELECT \
     total FROM c"
    [ "total" ]
    [ [ vi 12 ] ];
  (* Errors: duplicates, unknown drops, invalid bodies, column lists. *)
  check_error ~substring:"already exists" e
    "CREATE VIEW adults AS SELECT 1";
  check_error ~substring:"already exists" e
    "CREATE VIEW people AS SELECT 1";
  check_error ~substring:"does not exist" e "DROP VIEW nope";
  ignore (Engine.execute e "DROP VIEW IF EXISTS nope");
  check_error ~substring:"unknown" e "CREATE VIEW broken AS SELECT zap FROM people";
  check_error ~substring:"columns" e
    "CREATE VIEW wrong (a, b) AS SELECT id FROM people";
  (* Dropping restores the name. *)
  ignore (Engine.execute e "DROP VIEW adults");
  check_error ~substring:"unknown table" e "SELECT * FROM adults"

let test_transactions () =
  let e = shop_engine () in
  (* Rollback undoes DML. *)
  ignore (Engine.execute e "BEGIN");
  Alcotest.(check bool) "in transaction" true (Engine.in_transaction e);
  ignore (Engine.execute e "DELETE FROM people");
  ignore (Engine.execute e "UPDATE orders SET total = 0");
  check_query e "SELECT COUNT(*) FROM people" [ "count" ] [ [ vi 0 ] ];
  ignore (Engine.execute e "ROLLBACK");
  check_query e "SELECT COUNT(*) FROM people" [ "count" ] [ [ vi 4 ] ];
  check_query e "SELECT SUM(total) FROM orders" [ "sum" ] [ [ vf 16.5 ] ];
  (* Rollback undoes DDL too: created tables vanish, dropped return. *)
  ignore (Engine.execute e "BEGIN TRANSACTION");
  ignore (Engine.execute e "CREATE TABLE scratch (x INT)");
  ignore (Engine.execute e "DROP TABLE orders");
  ignore (Engine.execute e "ROLLBACK TRANSACTION");
  check_error ~substring:"unknown table" e "SELECT * FROM scratch";
  check_query e "SELECT COUNT(*) FROM orders" [ "count" ] [ [ vi 4 ] ];
  (* Commit persists. *)
  ignore (Engine.execute e "BEGIN");
  ignore (Engine.execute e "DELETE FROM orders WHERE total < 4");
  ignore (Engine.execute e "COMMIT");
  Alcotest.(check bool) "transaction closed" false (Engine.in_transaction e);
  check_query e "SELECT COUNT(*) FROM orders" [ "count" ] [ [ vi 2 ] ];
  (* Protocol errors. *)
  check_error ~substring:"no transaction" e "COMMIT";
  check_error ~substring:"no transaction" e "ROLLBACK";
  ignore (Engine.execute e "BEGIN");
  check_error ~substring:"already open" e "BEGIN";
  ignore (Engine.execute e "ROLLBACK")

let test_transaction_around_iterative_query () =
  (* The paper's ACID argument: the whole iterative computation is one
     statement, so a surrounding transaction wraps it atomically. *)
  let e = tiny_graph_engine () in
  ignore (Engine.execute e "BEGIN");
  ignore (Engine.execute e "DELETE FROM edges WHERE src = 4");
  let result =
    Engine.query e
      (Dbspinner_workload.Queries.pr ~iterations:3
         ~final:"SELECT COUNT(*) FROM PageRank" ())
  in
  Alcotest.check relation_testable "sees transaction-local state"
    (rel [ "count" ] [ [ vi 3 ] ])
    result;
  ignore (Engine.execute e "ROLLBACK");
  let result =
    Engine.query e
      (Dbspinner_workload.Queries.pr ~iterations:3
         ~final:"SELECT COUNT(*) FROM PageRank" ())
  in
  Alcotest.check relation_testable "restored after rollback"
    (rel [ "count" ] [ [ vi 4 ] ])
    result

let test_primary_key_enforced () =
  let e = shop_engine () in
  check_error ~substring:"duplicate" e "INSERT INTO people VALUES (1, 'dup', 1)"

(* ------------------------------------------------------------------ *)
(* Iterative CTEs end to end via the engine                            *)

let test_simple_iterative () =
  let e = Engine.create () in
  check_query e
    "WITH ITERATIVE c (k, n) AS (SELECT 1, 0 ITERATE SELECT k, n + 1 FROM c \
     UNTIL 5 ITERATIONS) SELECT n FROM c"
    [ "n" ]
    [ [ vi 5 ] ]

let test_iterative_multi_row_partial_update () =
  (* Only even keys are updated each round; odd keys must keep their
     initial values through the merge path. *)
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE seed (k INT, v INT)");
  ignore (Engine.execute e "INSERT INTO seed VALUES (1, 100), (2, 200), (3, 300), (4, 400)");
  check_query e
    "WITH ITERATIVE r (k, v) AS (SELECT k, v FROM seed ITERATE SELECT k, v + \
     1 FROM r WHERE MOD(k, 2) = 0 UNTIL 3 ITERATIONS) SELECT k, v FROM r"
    [ "k"; "v" ]
    [
      [ vi 1; vi 100 ];
      [ vi 2; vi 203 ];
      [ vi 3; vi 300 ];
      [ vi 4; vi 403 ];
    ]

let test_iterative_duplicate_key_runtime_error () =
  (* The §II requirement: duplicate row keys in the working table are a
     run-time error telling the user to aggregate. *)
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE d (k INT)");
  ignore (Engine.execute e "INSERT INTO d VALUES (1), (1)");
  check_error ~substring:"duplicate" e
    "WITH ITERATIVE r (k) AS (SELECT 7 ITERATE SELECT k FROM d UNTIL 2 \
     ITERATIONS) SELECT * FROM r"

let test_iterative_data_termination_sql () =
  let e = Engine.create () in
  check_query e
    "WITH ITERATIVE c (k, n) AS (SELECT 1, 0 ITERATE SELECT k, n + 2 FROM c \
     UNTIL ANY n >= 10) SELECT n FROM c"
    [ "n" ]
    [ [ vi 10 ] ]

let test_iterative_delta_termination_sql () =
  let e = Engine.create () in
  check_query e
    "WITH ITERATIVE c (k, n) AS (SELECT 1, 0 ITERATE SELECT k, LEAST(n + 1, \
     4) FROM c UNTIL DELTA = 0) SELECT n FROM c"
    [ "n" ]
    [ [ vi 4 ] ]

let test_recursive_cte_sql () =
  let e = tiny_graph_engine () in
  (* Reachability from node 4 over 4 -> 1 -> {2, 3} -> ... *)
  check_query e
    "WITH RECURSIVE reach (n) AS (SELECT 4 UNION SELECT e.dst FROM reach \
     JOIN edges AS e ON reach.n = e.src) SELECT n FROM reach ORDER BY n"
    [ "n" ]
    [ [ vi 1 ]; [ vi 2 ]; [ vi 3 ]; [ vi 4 ] ]

let test_plain_cte_and_mixed () =
  let e = tiny_graph_engine () in
  check_query e
    "WITH deg AS (SELECT src AS node, COUNT(*) AS d FROM edges GROUP BY src) \
     SELECT node FROM deg WHERE d > 1"
    [ "node" ]
    [ [ vi 1 ] ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN, options, stats                                             *)

let test_explain_matches_table1 () =
  let e = tiny_graph_engine () in
  let text = Engine.explain e (Dbspinner_workload.Queries.pr ~iterations:10 ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in plan") true (contains text needle))
    [
      "Materialize PageRank";
      "InitLoop";
      "Metadata(iterations=10)";
      "Rename PageRank#work -> PageRank";
      "LoopEnd";
      "Return";
    ]

let test_explain_analyze () =
  let e = tiny_graph_engine () in
  match
    Engine.execute e
      ("EXPLAIN ANALYZE " ^ Dbspinner_workload.Queries.pr ~iterations:3 ())
  with
  | Engine.Explained text ->
    Alcotest.(check bool) "estimate present" true (contains text "Cost estimate");
    Alcotest.(check bool) "actuals present" true (contains text "Actual:");
    Alcotest.(check bool) "actual iterations reported" true
      (contains text "iterations=3");
    (* The analyzed run must not leak temps. *)
    Alcotest.(check (list string)) "no leaked temps" []
      (Dbspinner_storage.Catalog.temp_names (Engine.catalog e))
  | _ -> Alcotest.fail "expected Explained"

let test_option_sets_agree () =
  let e = tiny_graph_engine () in
  let q = Dbspinner_workload.Queries.pr ~iterations:6 ~final:"SELECT Node, Rank FROM PageRank" () in
  let reference = Engine.query e q in
  List.iter
    (fun (label, options) ->
      let got = Engine.with_options e options (fun () -> Engine.query e q) in
      Alcotest.check relation_testable label reference got)
    [
      ("unoptimized", Options.unoptimized);
      ("rename only", { Options.unoptimized with use_rename = true });
      ("pushdown only", { Options.unoptimized with use_pushdown = true });
      ("common only", { Options.unoptimized with use_common_result = true });
    ]

let test_session_stats_accumulate () =
  let e = tiny_graph_engine () in
  let before = (Engine.session_stats e).Stats.statements in
  ignore (Engine.query e "SELECT COUNT(*) FROM edges");
  ignore (Engine.query e "SELECT COUNT(*) FROM edges");
  Alcotest.(check int) "two statements recorded" (before + 2)
    (Engine.session_stats e).Stats.statements

let test_temps_cleared_between_queries () =
  let e = tiny_graph_engine () in
  ignore
    (Engine.query e "WITH c AS (SELECT 1 AS one) SELECT one FROM c");
  (* The CTE name must not leak into the next statement. *)
  check_error ~substring:"unknown table" e "SELECT * FROM c"

let test_error_stages () =
  let e = Engine.create () in
  (match Engine.execute e "SELEC 1" with
  | exception Errors.Error (Errors.Parse, _) -> ()
  | _ -> Alcotest.fail "parse error expected");
  (match Engine.execute e "SELECT nope FROM nowhere" with
  | exception Errors.Error (Errors.Bind, _) -> ()
  | _ -> Alcotest.fail "bind error expected");
  match Engine.execute e "SELECT 1 / 0" with
  | exception Errors.Error (Errors.Execute, _) -> ()
  | _ -> Alcotest.fail "runtime error expected"

(** A statement whose whole cost sits inside ONE operator — a
    nested-loop double self-join, hundreds of millions of candidate
    pairs with no intermediate materialization boundary — must still
    honor the statement timeout. Guards used to be checked only at
    materialize and loop boundaries, so such a statement ran to
    completion regardless of the timeout; the in-operator probes
    (Guards.tick) abort it mid-join. The elapsed-time bound is the
    actual regression check: without probes this join runs for far
    longer than the allowance before the boundary check fires. *)
let test_statement_timeout_inside_operator () =
  let e =
    Engine.create
      ~options:
        { Options.default with Options.statement_timeout_seconds = Some 0.05 }
      ()
  in
  Engine.load_table e ~name:"big"
    (rel [ "x" ] (List.init 700 (fun i -> [ vi i ])));
  let t0 = Unix.gettimeofday () in
  (match
     Engine.execute e
       "SELECT COUNT(*) FROM big AS a JOIN big AS b ON a.x < b.x JOIN big AS \
        c ON b.x < c.x"
   with
  | exception Errors.Error (Errors.Resource, msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "reported as statement timeout: %s" msg)
      true (contains msg "timeout")
  | _ -> Alcotest.fail "expected the statement timeout to trip");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "aborted mid-operator (%.2fs)" elapsed)
    true (elapsed < 2.0)

let test_execute_script () =
  let e = Engine.create () in
  let results =
    Engine.execute_script e
      "CREATE TABLE s (x INT); INSERT INTO s VALUES (1), (2); SELECT SUM(x) \
       FROM s"
  in
  match results with
  | [ Engine.Executed; Engine.Affected 2; Engine.Rows result ] ->
    Alcotest.check relation_testable "script result"
      (rel [ "sum" ] [ [ vi 3 ] ])
      result
  | _ -> Alcotest.fail "unexpected script results"

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)

let test_middleware_pagerank_matches_native () =
  let e = tiny_graph_engine () in
  let native =
    Engine.query e
      (Dbspinner_workload.Queries.pr ~iterations:5
         ~final:"SELECT Node, Rank FROM PageRank" ())
  in
  let outcome =
    Dbspinner.Middleware.run e (Dbspinner.Middleware.pagerank_script ~iterations:5)
  in
  Alcotest.check relation_testable "middleware matches native" native
    outcome.Dbspinner.Middleware.rows;
  Alcotest.(check bool) "many statements issued" true
    (outcome.Dbspinner.Middleware.statements_issued > 3 * 5)

let test_procedure_counts () =
  let proc = Dbspinner_workload.Queries.ff_procedure ~modulus:10 ~iterations:4 () in
  (* 2 creates + 1 insert + 4 * 3 loop stmts + 1 drop + 1 return *)
  Alcotest.(check int) "static statement count" 17
    (Dbspinner.Procedure.static_statement_count proc)

let () =
  Alcotest.run "engine"
    [
      ( "select",
        [
          Alcotest.test_case "basics" `Quick test_select_basics;
          Alcotest.test_case "joins" `Quick test_select_joins;
          Alcotest.test_case "subquery-union" `Quick test_subquery_and_union;
          Alcotest.test_case "set-operations" `Quick test_set_operations;
          Alcotest.test_case "subquery-predicates" `Quick test_subquery_predicates;
          Alcotest.test_case "subquery-int-float" `Quick
            test_subquery_numeric_equality;
          Alcotest.test_case "scalar-subqueries" `Quick test_scalar_subqueries;
          Alcotest.test_case "limit-order" `Quick test_limit_and_order;
        ] );
      ( "ddl-dml",
        [
          Alcotest.test_case "ddl-lifecycle" `Quick test_ddl_lifecycle;
          Alcotest.test_case "insert" `Quick test_insert_variants;
          Alcotest.test_case "update" `Quick test_update_forms;
          Alcotest.test_case "update-from-duplicate-keys" `Quick
            test_update_from_duplicate_keys;
          Alcotest.test_case "delete-truncate" `Quick test_delete_and_truncate;
          Alcotest.test_case "views" `Quick test_views;
          Alcotest.test_case "transactions" `Quick test_transactions;
          Alcotest.test_case "transaction-iterative" `Quick
            test_transaction_around_iterative_query;
          Alcotest.test_case "primary-key" `Quick test_primary_key_enforced;
        ] );
      ( "iterative",
        [
          Alcotest.test_case "counter" `Quick test_simple_iterative;
          Alcotest.test_case "partial-update" `Quick
            test_iterative_multi_row_partial_update;
          Alcotest.test_case "duplicate-key" `Quick
            test_iterative_duplicate_key_runtime_error;
          Alcotest.test_case "data-termination" `Quick
            test_iterative_data_termination_sql;
          Alcotest.test_case "delta-termination" `Quick
            test_iterative_delta_termination_sql;
          Alcotest.test_case "recursive" `Quick test_recursive_cte_sql;
          Alcotest.test_case "plain-cte" `Quick test_plain_cte_and_mixed;
        ] );
      ( "session",
        [
          Alcotest.test_case "explain-table1" `Quick test_explain_matches_table1;
          Alcotest.test_case "explain-analyze" `Quick test_explain_analyze;
          Alcotest.test_case "option-sets-agree" `Quick test_option_sets_agree;
          Alcotest.test_case "stats" `Quick test_session_stats_accumulate;
          Alcotest.test_case "temps-cleared" `Quick
            test_temps_cleared_between_queries;
          Alcotest.test_case "error-stages" `Quick test_error_stages;
          Alcotest.test_case "timeout-inside-operator" `Quick
            test_statement_timeout_inside_operator;
          Alcotest.test_case "script" `Quick test_execute_script;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "middleware-pagerank" `Quick
            test_middleware_pagerank_matches_native;
          Alcotest.test_case "procedure-counts" `Quick test_procedure_counts;
        ] );
    ]
