(** Unit tests for the SQL front end: lexer, parser, pretty-printer. *)

module Token = Dbspinner_sql.Token
module Lexer = Dbspinner_sql.Lexer
module Ast = Dbspinner_sql.Ast
module Parser = Dbspinner_sql.Parser
module Pretty = Dbspinner_sql.Sql_pretty

let tokens src =
  Array.to_list (Array.map (fun t -> t.Token.token) (Lexer.tokenize src))

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let test_lex_basic () =
  Alcotest.(check bool) "keywords uppercased" true
    (tokens "select From WHERE"
    = [ Token.Kw "SELECT"; Token.Kw "FROM"; Token.Kw "WHERE"; Token.Eof ]);
  Alcotest.(check bool) "identifiers keep case" true
    (tokens "PageRank" = [ Token.Ident "PageRank"; Token.Eof ]);
  Alcotest.(check bool) "numbers" true
    (tokens "1 2.5 .5 1e3 1.5e-2"
    = [
        Token.Int_lit 1;
        Token.Float_lit 2.5;
        Token.Float_lit 0.5;
        Token.Float_lit 1000.0;
        Token.Float_lit 0.015;
        Token.Eof;
      ]);
  Alcotest.(check bool) "string with escape" true
    (tokens "'o''brien'" = [ Token.Str_lit "o'brien"; Token.Eof ]);
  Alcotest.(check bool) "multi-char operators" true
    (tokens "<= >= <> != ||"
    = [
        Token.Symbol "<=";
        Token.Symbol ">=";
        Token.Symbol "<>";
        Token.Symbol "!=";
        Token.Symbol "||";
        Token.Eof;
      ])

let test_lex_comments () =
  Alcotest.(check bool) "line comment" true
    (tokens "1 -- the rest\n2" = [ Token.Int_lit 1; Token.Int_lit 2; Token.Eof ]);
  Alcotest.(check bool) "block comment" true
    (tokens "1 /* x\ny */ 2" = [ Token.Int_lit 1; Token.Int_lit 2; Token.Eof ]);
  Alcotest.(check bool) "unterminated block raises" true
    (match Lexer.tokenize "/* never closed" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false)

let test_lex_int_range () =
  (* max_int (2^62 - 1 on a 64-bit OCaml) still lexes exactly. *)
  Alcotest.(check bool) "max_int is exact" true
    (tokens (string_of_int max_int) = [ Token.Int_lit max_int; Token.Eof ]);
  (* One past max_int must be a lex error, not a silent demotion to a
     float literal (which would round away the low bits and make exact
     Int/Float comparison moot). *)
  let past_max = "4611686018427387904" in
  (match Lexer.tokenize past_max with
  | exception Lexer.Lex_error (msg, _, _) ->
    Alcotest.(check bool) "message names the literal" true
      (Helpers.contains msg past_max && Helpers.contains msg "out of range")
  | _ -> Alcotest.fail "out-of-range int literal must not lex");
  (* Well past the float-exact range too. *)
  (match Lexer.tokenize "99999999999999999999999" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "huge int literal must not lex");
  (* An explicit float spelling of the same magnitude stays legal. *)
  Alcotest.(check bool) "float spelling is fine" true
    (tokens (past_max ^ ".0") = [ Token.Float_lit 0x1p62; Token.Eof ])

(* Parser-level: the lex error surfaces through the engine as a Parse
   stage error, so a client sees a clear message instead of silently
   wrong results. *)
let test_parse_int_overflow_statement () =
  let engine = Dbspinner.Engine.create () in
  (match Dbspinner.Engine.execute engine "SELECT 4611686018427387904" with
  | exception Dbspinner.Errors.Error (Dbspinner.Errors.Parse, msg) ->
    Alcotest.(check bool) "parse-stage error" true
      (Helpers.contains msg "out of range")
  | _ -> Alcotest.fail "expected a parse error");
  (* A negated in-range literal still works: '-' is a separate token,
     so min_int itself is only reachable via arithmetic, not as one
     literal. *)
  match
    Dbspinner.Engine.query engine
      (Printf.sprintf "SELECT -%d" max_int)
  with
  | rel ->
    Alcotest.check Helpers.value_testable "negated max_int"
      (Helpers.vi (-max_int))
      (Dbspinner_storage.Relation.rows rel).(0).(0)
  | exception _ -> Alcotest.fail "negated in-range literal must evaluate"

let test_lex_quoted_ident () =
  Alcotest.(check bool) "quoted identifier" true
    (tokens "\"weird name\"" = [ Token.Ident "weird name"; Token.Eof ]);
  Alcotest.(check bool) "quoted keyword is an ident" true
    (tokens "\"select\"" = [ Token.Ident "select"; Token.Eof ])

let test_lex_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  Alcotest.(check int) "line of b" 2 toks.(1).Token.line;
  Alcotest.(check int) "col of b" 3 toks.(1).Token.col

(* ------------------------------------------------------------------ *)
(* Expression parsing                                                  *)

let expr = Parser.parse_expression

let test_precedence () =
  Alcotest.(check bool) "mul binds tighter" true
    (Ast.expr_equal
       (expr "1 + 2 * 3")
       (Ast.Binop
          ( Ast.Add,
            Ast.int_lit 1,
            Ast.Binop (Ast.Mul, Ast.int_lit 2, Ast.int_lit 3) )));
  Alcotest.(check bool) "and binds tighter than or" true
    (Ast.expr_equal
       (expr "a OR b AND c")
       (Ast.Binop
          (Ast.Or, Ast.col "a", Ast.Binop (Ast.And, Ast.col "b", Ast.col "c"))));
  Alcotest.(check bool) "comparison below arithmetic" true
    (Ast.expr_equal
       (expr "x + 1 > y * 2")
       (Ast.Binop
          ( Ast.Gt,
            Ast.Binop (Ast.Add, Ast.col "x", Ast.int_lit 1),
            Ast.Binop (Ast.Mul, Ast.col "y", Ast.int_lit 2) )))

let test_expr_constructs () =
  Alcotest.(check bool) "qualified column" true
    (Ast.expr_equal (expr "t.col") (Ast.col ~qualifier:"t" "col"));
  Alcotest.(check bool) "case" true
    (Ast.expr_equal
       (expr "CASE WHEN x = 1 THEN 'a' ELSE 'b' END")
       (Ast.Case
          ( [ (Ast.Binop (Ast.Eq, Ast.col "x", Ast.int_lit 1), Ast.str_lit "a") ],
            Some (Ast.str_lit "b") )));
  Alcotest.(check bool) "simple case desugars" true
    (Ast.expr_equal
       (expr "CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' ELSE 'c' END")
       (Ast.Case
          ( [
              (Ast.Binop (Ast.Eq, Ast.col "x", Ast.int_lit 1), Ast.str_lit "a");
              (Ast.Binop (Ast.Eq, Ast.col "x", Ast.int_lit 2), Ast.str_lit "b");
            ],
            Some (Ast.str_lit "c") )));
  Alcotest.(check bool) "is not null" true
    (Ast.expr_equal (expr "x IS NOT NULL") (Ast.Is_null (Ast.col "x", false)));
  Alcotest.(check bool) "in list" true
    (Ast.expr_equal
       (expr "x IN (1, 2)")
       (Ast.In_list (Ast.col "x", [ Ast.int_lit 1; Ast.int_lit 2 ], false)));
  Alcotest.(check bool) "not in" true
    (Ast.expr_equal
       (expr "x NOT IN (1)")
       (Ast.In_list (Ast.col "x", [ Ast.int_lit 1 ], true)));
  Alcotest.(check bool) "between" true
    (Ast.expr_equal
       (expr "x BETWEEN 1 AND 2")
       (Ast.Between (Ast.col "x", Ast.int_lit 1, Ast.int_lit 2)));
  Alcotest.(check bool) "mod keyword form" true
    (Ast.expr_equal
       (expr "MOD(x, 10)")
       (Ast.Binop (Ast.Mod, Ast.col "x", Ast.int_lit 10)));
  Alcotest.(check bool) "percent form" true
    (Ast.expr_equal
       (expr "x % 10")
       (Ast.Binop (Ast.Mod, Ast.col "x", Ast.int_lit 10)));
  Alcotest.(check bool) "count star" true
    (Ast.expr_equal (expr "COUNT(*)") (Ast.Agg (Ast.Count_star, false, Ast.Star)));
  Alcotest.(check bool) "distinct agg" true
    (Ast.expr_equal
       (expr "COUNT(DISTINCT x)")
       (Ast.Agg (Ast.Count, true, Ast.col "x")));
  Alcotest.(check bool) "cast with precision" true
    (Ast.expr_equal
       (expr "CAST(x AS NUMERIC(10, 2))")
       (Ast.Cast (Ast.col "x", Dbspinner_storage.Column_type.T_float)));
  Alcotest.(check bool) "like" true
    (Ast.expr_equal (expr "name LIKE 'a%'") (Ast.Like (Ast.col "name", "a%", false)))

(* ------------------------------------------------------------------ *)
(* Statement parsing                                                   *)

let parse = Parser.parse_statement

let test_select_clauses () =
  match
    parse
      "SELECT DISTINCT a AS x, b FROM t WHERE a > 1 GROUP BY a, b HAVING \
       COUNT(*) > 2 ORDER BY x DESC, 2 LIMIT 5"
  with
  | Ast.S_query { ctes = []; body = Ast.Q_select s; order_by; limit; offset = _ } ->
    Alcotest.(check bool) "distinct" true s.distinct;
    Alcotest.(check int) "items" 2 (List.length s.items);
    Alcotest.(check bool) "where" true (s.where <> None);
    Alcotest.(check int) "group by" 2 (List.length s.group_by);
    Alcotest.(check bool) "having" true (s.having <> None);
    Alcotest.(check int) "order by" 2 (List.length order_by);
    Alcotest.(check bool) "first desc" true
      (List.hd order_by).Ast.descending;
    Alcotest.(check (option int)) "limit" (Some 5) limit
  | _ -> Alcotest.fail "unexpected shape"

let test_joins () =
  match parse "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y" with
  | Ast.S_query { body = Ast.Q_select { from = Some from; _ }; _ } -> (
    match from with
    | Ast.From_join
        { kind = Ast.Left_outer; left = Ast.From_join { kind = Ast.Inner; _ }; _ }
      ->
      ()
    | _ -> Alcotest.fail "join tree shape")
  | _ -> Alcotest.fail "unexpected shape"

let test_comma_cross_join () =
  match parse "SELECT * FROM a, b WHERE a.x = b.x" with
  | Ast.S_query
      {
        body = Ast.Q_select { from = Some (Ast.From_join { kind = Ast.Cross; _ }); _ };
        _;
      } ->
    ()
  | _ -> Alcotest.fail "comma should mean cross join"

let test_parenthesized_join () =
  match parse "SELECT * FROM a LEFT JOIN (b JOIN c ON b.x = c.x) ON a.y = b.y" with
  | Ast.S_query
      {
        body =
          Ast.Q_select
            {
              from =
                Some
                  (Ast.From_join
                     {
                       right = Ast.From_join { kind = Ast.Inner; _ };
                       kind = Ast.Left_outer;
                       _;
                     });
              _;
            };
        _;
      } ->
    ()
  | _ -> Alcotest.fail "parenthesized join tree"

let test_union () =
  match
    parse "SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT c FROM v"
  with
  | Ast.S_query
      { body = Ast.Q_union { all = false; left = Ast.Q_union { all = true; _ }; _ }; _ }
    ->
    ()
  | _ -> Alcotest.fail "union associativity"

let test_subquery_alias_generated () =
  match parse "SELECT * FROM (SELECT src FROM edges)" with
  | Ast.S_query
      { body = Ast.Q_select { from = Some (Ast.From_subquery { alias; _ }); _ }; _ }
    ->
    Alcotest.(check bool) "generated alias" true
      (String.length alias > 0 && alias.[0] = '_')
  | _ -> Alcotest.fail "unexpected shape"

let test_subquery_alias_deterministic () =
  (* Generated aliases are numbered per statement: the same text parses
     to the same tree every time, and two derived tables in one
     statement still get distinct names. *)
  let sql =
    "SELECT a.src FROM (SELECT src FROM edges) JOIN (SELECT dst FROM \
     edges) ON src = dst"
  in
  let once () = Pretty.full_query (Parser.parse_query sql) in
  let first = once () in
  Alcotest.(check string) "same text, same tree" first (once ());
  Alcotest.(check bool) "distinct aliases" true
    (Helpers.contains first "_subquery1" && Helpers.contains first "_subquery2");
  let script = "SELECT * FROM (SELECT 1); SELECT * FROM (SELECT 2)" in
  match Parser.parse_script script with
  | [ s1; s2 ] ->
    Alcotest.(check bool) "numbering restarts per statement" true
      (Helpers.contains (Pretty.statement s1) "_subquery1"
      && Helpers.contains (Pretty.statement s2) "_subquery1")
  | _ -> Alcotest.fail "expected two statements"

let test_iterative_cte () =
  match
    parse
      "WITH ITERATIVE r (a, b) KEY a AS (SELECT 1, 2 ITERATE SELECT a, b + 1 \
       FROM r UNTIL 7 ITERATIONS) SELECT * FROM r"
  with
  | Ast.S_query { ctes = [ Ast.Cte_iterative { name; columns; key; until; _ } ]; _ }
    ->
    Alcotest.(check string) "name" "r" name;
    Alcotest.(check (option (list string))) "columns" (Some [ "a"; "b" ]) columns;
    Alcotest.(check (option string)) "key" (Some "a") key;
    Alcotest.(check bool) "until" true (until = Ast.T_iterations 7)
  | _ -> Alcotest.fail "unexpected shape"

let test_termination_variants () =
  let until_of sql =
    match parse sql with
    | Ast.S_query { ctes = [ Ast.Cte_iterative { until; _ } ]; _ } -> until
    | _ -> Alcotest.fail "no iterative cte"
  in
  Alcotest.(check bool) "updates" true
    (until_of
       "WITH ITERATIVE r AS (SELECT 1 AS a ITERATE SELECT a FROM r UNTIL 3 \
        UPDATES) SELECT * FROM r"
    = Ast.T_updates 3);
  Alcotest.(check bool) "delta eq" true
    (until_of
       "WITH ITERATIVE r AS (SELECT 1 AS a ITERATE SELECT a FROM r UNTIL \
        DELTA = 0) SELECT * FROM r"
    = Ast.T_delta 0);
  Alcotest.(check bool) "delta lt" true
    (until_of
       "WITH ITERATIVE r AS (SELECT 1 AS a ITERATE SELECT a FROM r UNTIL \
        DELTA < 5) SELECT * FROM r"
    = Ast.T_delta 4);
  (match
     until_of
       "WITH ITERATIVE r AS (SELECT 1 AS a ITERATE SELECT a FROM r UNTIL ANY \
        a > 10) SELECT * FROM r"
   with
  | Ast.T_data { any = true; _ } -> ()
  | _ -> Alcotest.fail "any data condition");
  match
    until_of
      "WITH ITERATIVE r AS (SELECT 1 AS a ITERATE SELECT a FROM r UNTIL ALL \
       a > 10) SELECT * FROM r"
  with
  | Ast.T_data { any = false; _ } -> ()
  | _ -> Alcotest.fail "all data condition"

let test_recursive_cte () =
  match
    parse
      "WITH RECURSIVE r AS (SELECT 1 AS n UNION ALL SELECT n + 1 FROM r \
       WHERE n < 5) SELECT * FROM r"
  with
  | Ast.S_query { ctes = [ Ast.Cte_recursive { union_all = true; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "recursive cte shape"

let test_ddl_dml () =
  (match parse "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), v FLOAT)" with
  | Ast.S_create_table { table = "t"; primary_key = Some "id"; columns; _ } ->
    Alcotest.(check int) "columns" 3 (List.length columns)
  | _ -> Alcotest.fail "create shape");
  (match parse "CREATE TABLE t (a INT, b INT, PRIMARY KEY (b))" with
  | Ast.S_create_table { primary_key = Some "b"; _ } -> ()
  | _ -> Alcotest.fail "table-level pk");
  (match parse "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')" with
  | Ast.S_insert { columns = Some [ "a"; "b" ]; source = Ast.I_values [ _; _ ]; _ }
    ->
    ()
  | _ -> Alcotest.fail "insert values");
  (match parse "INSERT INTO t SELECT a FROM u" with
  | Ast.S_insert { source = Ast.I_query _; columns = None; _ } -> ()
  | _ -> Alcotest.fail "insert select");
  (match parse "UPDATE t SET a = 1, b = b + 1 FROM u WHERE t.id = u.id" with
  | Ast.S_update { set = [ _; _ ]; from = Some _; where = Some _; _ } -> ()
  | _ -> Alcotest.fail "update from");
  (match parse "DELETE FROM t WHERE a = 1" with
  | Ast.S_delete { where = Some _; _ } -> ()
  | _ -> Alcotest.fail "delete");
  (match parse "DROP TABLE IF EXISTS t" with
  | Ast.S_drop_table { if_exists = true; _ } -> ()
  | _ -> Alcotest.fail "drop if exists");
  (match parse "EXPLAIN SELECT 1" with
  | Ast.S_explain { analyze = false; target = Ast.S_query _ } -> ()
  | _ -> Alcotest.fail "explain");
  match parse "EXPLAIN ANALYZE SELECT 1" with
  | Ast.S_explain { analyze = true; target = Ast.S_query _ } -> ()
  | _ -> Alcotest.fail "explain analyze"

let test_script () =
  let stmts = Parser.parse_script "SELECT 1; SELECT 2;\n-- comment\nSELECT 3" in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

let test_parse_errors () =
  let fails sql =
    match parse sql with exception Parser.Parse_error _ -> true | _ -> false
  in
  Alcotest.(check bool) "missing FROM table" true (fails "SELECT a FROM");
  Alcotest.(check bool) "unbalanced paren" true (fails "SELECT (1 + 2");
  Alcotest.(check bool) "trailing garbage" true (fails "SELECT 1 garbage extra");
  Alcotest.(check bool) "iterate without until" true
    (fails "WITH ITERATIVE r AS (SELECT 1 ITERATE SELECT 1) SELECT 1");
  Alcotest.(check bool) "empty case" true (fails "SELECT CASE END")

(* ------------------------------------------------------------------ *)
(* Pretty round-trips                                                  *)

let roundtrip_query sql =
  let q1 = Parser.parse_query sql in
  let printed = Pretty.full_query q1 in
  let q2 =
    try Parser.parse_query printed
    with Parser.Parse_error (m, l, c) ->
      Alcotest.failf "re-parse failed (%s at %d:%d) for: %s" m l c printed
  in
  Alcotest.(check string) "idempotent print" printed (Pretty.full_query q2)

let test_pretty_roundtrip () =
  List.iter roundtrip_query
    [
      "SELECT 1";
      "SELECT a, b + 1 AS c FROM t WHERE a IS NOT NULL ORDER BY c DESC LIMIT 3";
      "SELECT COUNT(*), SUM(x) FROM t GROUP BY y HAVING COUNT(*) > 1";
      "SELECT * FROM a LEFT JOIN b ON a.x = b.x";
      "WITH c AS (SELECT 1 AS one) SELECT one FROM c";
      "WITH ITERATIVE r (a) AS (SELECT 1 ITERATE SELECT a + 1 FROM r UNTIL 3 \
       ITERATIONS) SELECT a FROM r";
      "SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM t";
      "SELECT src FROM edges UNION SELECT dst FROM edges";
    ]

let test_pretty_unary_minus () =
  (* Unary minus prints as negation, not as the old "(0 - x)"
     subtraction encoding; literal chains fold to signed literals. *)
  let p sql = Pretty.expr (Parser.parse_expression sql) in
  Alcotest.(check string) "negated column" "(-x)" (p "-x");
  Alcotest.(check string) "negated literal folds" "-5" (p "-5");
  Alcotest.(check string) "negated float folds" "-2.5" (p "-2.5");
  Alcotest.(check string) "negated expression" "(-(x + 1))" (p "-(x + 1)");
  (* Hand-built Neg chains over literals fold flat (never "--"). *)
  let lit n = Ast.int_lit n in
  let neg e = Ast.Unop (Ast.Neg, e) in
  Alcotest.(check string) "double negation folds" "5" (Pretty.expr (neg (neg (lit 5))));
  Alcotest.(check string) "triple negation folds" "-5"
    (Pretty.expr (neg (neg (neg (lit 5)))));
  Alcotest.(check string) "neg of neg column" "(-(-x))"
    (Pretty.expr (neg (neg (Ast.Col (None, "x")))));
  (* Each of those still round-trips through the parser. *)
  List.iter
    (fun e ->
      let printed = Pretty.expr e in
      Alcotest.(check string)
        (Printf.sprintf "idempotent: %s" printed)
        printed
        (Pretty.expr (Parser.parse_expression printed)))
    [
      neg (Ast.Col (None, "x"));
      neg (neg (lit 5));
      neg (neg (neg (lit 5)));
      neg (neg (Ast.Col (None, "x")));
      neg (Ast.Binop (Ast.Add, Ast.Col (None, "x"), lit 1));
      neg (lit 0);
    ]

let test_paper_queries_parse () =
  let pr = Dbspinner_workload.Queries.pr ~iterations:10 () in
  let sssp = Dbspinner_workload.Queries.sssp ~source:1 ~iterations:10 () in
  let ff = Dbspinner_workload.Queries.ff ~modulus:100 ~iterations:5 () in
  List.iter (fun q -> ignore (Parser.parse_statement q)) [ pr; sssp; ff ]

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basic;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "quoted-idents" `Quick test_lex_quoted_ident;
          Alcotest.test_case "int-range" `Quick test_lex_int_range;
          Alcotest.test_case "int-overflow-statement" `Quick
            test_parse_int_overflow_statement;
          Alcotest.test_case "positions" `Quick test_lex_positions;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "constructs" `Quick test_expr_constructs;
        ] );
      ( "statements",
        [
          Alcotest.test_case "select-clauses" `Quick test_select_clauses;
          Alcotest.test_case "joins" `Quick test_joins;
          Alcotest.test_case "comma-cross-join" `Quick test_comma_cross_join;
          Alcotest.test_case "parenthesized-join" `Quick test_parenthesized_join;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "subquery-alias" `Quick test_subquery_alias_generated;
          Alcotest.test_case "subquery-alias-deterministic" `Quick
            test_subquery_alias_deterministic;
          Alcotest.test_case "iterative-cte" `Quick test_iterative_cte;
          Alcotest.test_case "termination-variants" `Quick
            test_termination_variants;
          Alcotest.test_case "recursive-cte" `Quick test_recursive_cte;
          Alcotest.test_case "ddl-dml" `Quick test_ddl_dml;
          Alcotest.test_case "script" `Quick test_script;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "unary-minus" `Quick test_pretty_unary_minus;
          Alcotest.test_case "paper-queries" `Quick test_paper_queries_parse;
        ] );
    ]
