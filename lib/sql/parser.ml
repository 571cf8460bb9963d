(** Recursive-descent parser for the supported SQL dialect.

    Entry points: {!parse_statement} for a single statement,
    {!parse_script} for a [;]-separated script, {!parse_query} when the
    caller knows the input is a query. *)

module Value = Dbspinner_storage.Value
module Column_type = Dbspinner_storage.Column_type

exception Parse_error of string * int * int  (** message, line, col *)

type state = {
  tokens : Token.positioned array;
  mutable pos : int;
  mutable subqueries : int;
      (** derived tables aliased so far in the current statement *)
}

let current st = st.tokens.(st.pos)
let peek st = (current st).Token.token

let peek_ahead st n =
  if st.pos + n < Array.length st.tokens then
    Some st.tokens.(st.pos + n).Token.token
  else None

let error st msg =
  let t = current st in
  raise
    (Parse_error
       ( Printf.sprintf "%s (found %s)" msg (Token.to_string t.Token.token),
         t.Token.line,
         t.Token.col ))

let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let eat st tok =
  if Token.equal (peek st) tok then advance st
  else error st (Printf.sprintf "expected %s" (Token.to_string tok))

let accept st tok =
  if Token.equal (peek st) tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw = accept st (Token.Kw kw)
let eat_kw st kw = eat st (Token.Kw kw)
let eat_sym st s = eat st (Token.Symbol s)
let accept_sym st s = accept st (Token.Symbol s)

let ident st =
  match peek st with
  | Token.Ident name ->
    advance st;
    name
  (* Non-reserved keywords usable as identifiers in practice. *)
  | Token.Kw (("KEY" | "DELTA" | "COUNT" | "SUM" | "MIN" | "MAX" | "AVG"
              | "ITERATIONS" | "UPDATES" | "ANY" | "LOOP" | "DUAL") as k) ->
    advance st;
    String.lowercase_ascii k
  | _ -> error st "expected identifier"

let int_lit st =
  match peek st with
  | Token.Int_lit i ->
    advance st;
    i
  | _ -> error st "expected integer literal"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

(* Generated derived-table aliases are numbered per statement, so the
   same text always parses to the same tree (the server's plan cache
   keys on the printed tree). *)
let fresh_subquery_alias st =
  st.subqueries <- st.subqueries + 1;
  Printf.sprintf "_subquery%d" st.subqueries

let agg_of_kw = function
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "AVG" -> Some Ast.Avg
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if accept_kw st "OR" then Ast.Binop (Ast.Or, left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if accept_kw st "AND" then Ast.Binop (Ast.And, left, parse_and st) else left

and parse_not st =
  if accept_kw st "NOT" then begin
    match parse_not st with
    (* Normalize so the binder sees the negation on the subquery node. *)
    | Ast.Exists_subquery (q, neg) -> Ast.Exists_subquery (q, not neg)
    | Ast.In_subquery (e, q, neg) -> Ast.In_subquery (e, q, not neg)
    | e -> Ast.Unop (Ast.Not, e)
  end
  else parse_predicate st

and parse_predicate st =
  let left = parse_additive st in
  match peek st with
  | Token.Symbol "=" ->
    advance st;
    Ast.Binop (Ast.Eq, left, parse_additive st)
  | Token.Symbol ("<>" | "!=") ->
    advance st;
    Ast.Binop (Ast.Neq, left, parse_additive st)
  | Token.Symbol "<" ->
    advance st;
    Ast.Binop (Ast.Lt, left, parse_additive st)
  | Token.Symbol "<=" ->
    advance st;
    Ast.Binop (Ast.Le, left, parse_additive st)
  | Token.Symbol ">" ->
    advance st;
    Ast.Binop (Ast.Gt, left, parse_additive st)
  | Token.Symbol ">=" ->
    advance st;
    Ast.Binop (Ast.Ge, left, parse_additive st)
  | Token.Kw "IS" ->
    advance st;
    let negated = accept_kw st "NOT" in
    eat_kw st "NULL";
    Ast.Is_null (left, not negated)
  | Token.Kw "BETWEEN" ->
    advance st;
    let lo = parse_additive st in
    eat_kw st "AND";
    let hi = parse_additive st in
    Ast.Between (left, lo, hi)
  | Token.Kw "IN" ->
    advance st;
    parse_in_rhs st left false
  | Token.Kw "LIKE" ->
    advance st;
    parse_like st left false
  | Token.Kw "NOT" -> (
    advance st;
    match peek st with
    | Token.Kw "IN" ->
      advance st;
      parse_in_rhs st left true
    | Token.Kw "LIKE" ->
      advance st;
      parse_like st left true
    | Token.Kw "BETWEEN" ->
      advance st;
      let lo = parse_additive st in
      eat_kw st "AND";
      let hi = parse_additive st in
      Ast.Unop (Ast.Not, Ast.Between (left, lo, hi))
    | _ -> error st "expected IN, LIKE or BETWEEN after NOT")
  | _ -> left

and parse_in_rhs st left negated =
  (* IN may take either a parenthesized expression list or a subquery:
     look past any run of opening parentheses for SELECT. *)
  let is_subquery =
    Token.equal (peek st) (Token.Symbol "(")
    &&
    let rec scan n =
      match peek_ahead st n with
      | Some (Token.Symbol "(") -> scan (n + 1)
      | Some (Token.Kw "SELECT") -> true
      | _ -> false
    in
    scan 1
  in
  if is_subquery then begin
    eat_sym st "(";
    let q = parse_query_body st in
    eat_sym st ")";
    Ast.In_subquery (left, q, negated)
  end
  else Ast.In_list (left, parse_paren_expr_list st, negated)

and parse_like st left negated =
  match peek st with
  | Token.Str_lit pat ->
    advance st;
    Ast.Like (left, pat, negated)
  | _ -> error st "LIKE requires a string literal pattern"

and parse_paren_expr_list st =
  eat_sym st "(";
  let rec items acc =
    let e = parse_expr st in
    if accept_sym st "," then items (e :: acc) else List.rev (e :: acc)
  in
  let es = items [] in
  eat_sym st ")";
  es

and parse_additive st =
  let rec loop left =
    match peek st with
    | Token.Symbol "+" ->
      advance st;
      loop (Ast.Binop (Ast.Add, left, parse_multiplicative st))
    | Token.Symbol "-" ->
      advance st;
      loop (Ast.Binop (Ast.Sub, left, parse_multiplicative st))
    | Token.Symbol "||" ->
      advance st;
      loop (Ast.Binop (Ast.Concat, left, parse_multiplicative st))
    | _ -> left
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop left =
    match peek st with
    | Token.Symbol "*" ->
      advance st;
      loop (Ast.Binop (Ast.Mul, left, parse_unary st))
    | Token.Symbol "/" ->
      advance st;
      loop (Ast.Binop (Ast.Div, left, parse_unary st))
    | Token.Symbol "%" ->
      advance st;
      loop (Ast.Binop (Ast.Mod, left, parse_unary st))
    | _ -> left
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.Symbol "-" -> (
    advance st;
    (* Fold negative numeric literals so -9 is a literal, not Neg 9. *)
    match peek st with
    | Token.Int_lit i ->
      advance st;
      Ast.int_lit (-i)
    | Token.Float_lit f ->
      advance st;
      Ast.float_lit (-.f)
    | _ -> Ast.Unop (Ast.Neg, parse_unary st))
  | Token.Symbol "+" ->
    advance st;
    parse_unary st
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Token.Int_lit i ->
    advance st;
    Ast.int_lit i
  | Token.Float_lit f ->
    advance st;
    Ast.float_lit f
  | Token.Str_lit s ->
    advance st;
    Ast.str_lit s
  | Token.Kw "NULL" ->
    advance st;
    Ast.Lit Value.Null
  | Token.Kw "TRUE" ->
    advance st;
    Ast.Lit (Value.Bool true)
  | Token.Kw "FALSE" ->
    advance st;
    Ast.Lit (Value.Bool false)
  | Token.Symbol "(" ->
    advance st;
    if Token.equal (peek st) (Token.Kw "SELECT") then begin
      let q = parse_query_body st in
      eat_sym st ")";
      Ast.Scalar_subquery q
    end
    else begin
      let e = parse_expr st in
      eat_sym st ")";
      e
    end
  | Token.Symbol "*" ->
    advance st;
    Ast.Star
  | Token.Kw "CASE" -> parse_case st
  | Token.Kw "CAST" -> parse_cast st
  | Token.Kw "EXISTS" ->
    advance st;
    eat_sym st "(";
    let q = parse_query_body st in
    eat_sym st ")";
    Ast.Exists_subquery (q, false)
  | Token.Kw "MOD" ->
    (* MOD(a, b) scalar form. *)
    advance st;
    eat_sym st "(";
    let a = parse_expr st in
    eat_sym st ",";
    let b = parse_expr st in
    eat_sym st ")";
    Ast.Binop (Ast.Mod, a, b)
  | Token.Kw kw when agg_of_kw kw <> None && peek_ahead st 1 = Some (Token.Symbol "(")
    ->
    parse_aggregate st kw
  | Token.Kw (("KEY" | "DELTA" | "ITERATIONS" | "UPDATES" | "ANY" | "LOOP"
              | "DUAL") )
  | Token.Ident _ ->
    parse_name_or_call st
  | _ -> error st "expected expression"

and parse_case st =
  eat_kw st "CASE";
  (* Simple form [CASE subject WHEN v THEN r ... END] desugars to the
     searched form with [subject = v] conditions. *)
  let subject =
    match peek st with
    | Token.Kw ("WHEN" | "END" | "ELSE") -> None
    | _ -> Some (parse_expr st)
  in
  let rec branches acc =
    if accept_kw st "WHEN" then begin
      let cond = parse_expr st in
      let cond =
        match subject with
        | None -> cond
        | Some subject -> Ast.Binop (Ast.Eq, subject, cond)
      in
      eat_kw st "THEN";
      let v = parse_expr st in
      branches ((cond, v) :: acc)
    end
    else List.rev acc
  in
  let bs = branches [] in
  if bs = [] then error st "CASE requires at least one WHEN branch";
  let else_ = if accept_kw st "ELSE" then Some (parse_expr st) else None in
  eat_kw st "END";
  Ast.Case (bs, else_)

and parse_cast st =
  eat_kw st "CAST";
  eat_sym st "(";
  let e = parse_expr st in
  eat_kw st "AS";
  let ty_name = ident st in
  let ty =
    match Column_type.of_string ty_name with
    | Some ty -> ty
    | None -> error st (Printf.sprintf "unknown type %S in CAST" ty_name)
  in
  (* Swallow optional precision, e.g. NUMERIC(10, 2). *)
  if accept_sym st "(" then begin
    let _ = int_lit st in
    if accept_sym st "," then ignore (int_lit st);
    eat_sym st ")"
  end;
  eat_sym st ")";
  Ast.Cast (e, ty)

and parse_aggregate st kw =
  advance st;
  eat_sym st "(";
  let kind = Option.get (agg_of_kw kw) in
  if kind = Ast.Count && accept_sym st "*" then begin
    eat_sym st ")";
    Ast.Agg (Ast.Count_star, false, Ast.Star)
  end
  else begin
    let distinct = accept_kw st "DISTINCT" in
    let arg = parse_expr st in
    eat_sym st ")";
    Ast.Agg (kind, distinct, arg)
  end

and parse_name_or_call st =
  let name = ident st in
  match peek st with
  | Token.Symbol "(" ->
    advance st;
    let args =
      if accept_sym st ")" then []
      else begin
        let rec items acc =
          let e = parse_expr st in
          if accept_sym st "," then items (e :: acc) else List.rev (e :: acc)
        in
        let es = items [] in
        eat_sym st ")";
        es
      end
    in
    Ast.Func (String.uppercase_ascii name, args)
  | Token.Symbol "." ->
    advance st;
    let column = ident st in
    Ast.Col (Some name, column)
  | _ -> Ast.Col (None, name)

(* ------------------------------------------------------------------ *)
(* FROM clause                                                         *)

and parse_alias st =
  if accept_kw st "AS" then Some (ident st)
  else
    match peek st with
    | Token.Ident name ->
      advance st;
      Some name
    | _ -> None

and parse_from_item st = parse_join_chain st

and parse_join_chain st =
  let rec loop left =
    match peek st with
    | Token.Kw "JOIN" ->
      advance st;
      loop (finish_join st left Ast.Inner)
    | Token.Kw "INNER" ->
      advance st;
      eat_kw st "JOIN";
      loop (finish_join st left Ast.Inner)
    | Token.Kw "LEFT" ->
      advance st;
      ignore (accept_kw st "OUTER");
      eat_kw st "JOIN";
      loop (finish_join st left Ast.Left_outer)
    | Token.Kw "RIGHT" ->
      advance st;
      ignore (accept_kw st "OUTER");
      eat_kw st "JOIN";
      loop (finish_join st left Ast.Right_outer)
    | Token.Kw "FULL" ->
      advance st;
      ignore (accept_kw st "OUTER");
      eat_kw st "JOIN";
      loop (finish_join st left Ast.Full_outer)
    | Token.Kw "CROSS" ->
      advance st;
      eat_kw st "JOIN";
      let right = parse_from_primary st in
      loop
        (Ast.From_join { left; kind = Ast.Cross; right; condition = None })
    | _ -> left
  in
  loop (parse_from_primary st)

and finish_join st left kind =
  let right = parse_from_primary st in
  eat_kw st "ON";
  let condition = parse_expr st in
  Ast.From_join { left; kind; right; condition = Some condition }

and parse_from_primary st =
  match peek st with
  | Token.Symbol "(" -> (
    advance st;
    match peek st with
    | Token.Kw ("SELECT" | "WITH") ->
      let q = parse_query_body st in
      eat_sym st ")";
      (* The paper's queries omit derived-table aliases; generate one. *)
      let alias =
        match parse_alias st with
        | Some a -> a
        | None -> fresh_subquery_alias st
      in
      Ast.From_subquery { query = q; alias }
    | _ ->
      let inner = parse_from_item st in
      eat_sym st ")";
      inner)
  | _ ->
    let table = ident st in
    let alias = parse_alias st in
    Ast.From_table { table; alias }

(* ------------------------------------------------------------------ *)
(* SELECT and query bodies                                             *)

and parse_select_core st =
  eat_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let rec items acc =
    let expr = parse_expr st in
    let alias =
      if accept_kw st "AS" then Some (ident st)
      else
        match peek st with
        | Token.Ident name ->
          advance st;
          Some name
        | _ -> None
    in
    let acc = { Ast.expr; alias } :: acc in
    if accept_sym st "," then items acc else List.rev acc
  in
  let items = items [] in
  let from =
    if accept_kw st "FROM" then begin
      let rec cross_list left =
        if accept_sym st "," then
          let right = parse_from_item st in
          cross_list
            (Ast.From_join { left; kind = Ast.Cross; right; condition = None })
        else left
      in
      Some (cross_list (parse_from_item st))
    end
    else None
  in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      eat_kw st "BY";
      let rec exprs acc =
        let e = parse_expr st in
        if accept_sym st "," then exprs (e :: acc) else List.rev (e :: acc)
      in
      exprs []
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr st) else None in
  { Ast.distinct; items; from; where; group_by; having }

and parse_set_operand st : Ast.query =
  match peek st with
  | Token.Symbol "(" ->
    advance st;
    let q = parse_query_body st in
    eat_sym st ")";
    q
  | _ -> Ast.Q_select (parse_select_core st)

(* INTERSECT binds tighter than UNION / EXCEPT, as in the standard. *)
and parse_intersect_level st : Ast.query =
  let rec loop left =
    if accept_kw st "INTERSECT" then begin
      let all = accept_kw st "ALL" in
      let right = parse_set_operand st in
      loop (Ast.Q_intersect { all; left; right })
    end
    else left
  in
  loop (parse_set_operand st)

and parse_query_body st : Ast.query =
  let rec loop left =
    match peek st with
    | Token.Kw "UNION" ->
      advance st;
      let all = accept_kw st "ALL" in
      let right = parse_intersect_level st in
      loop (Ast.Q_union { all; left; right })
    | Token.Kw "EXCEPT" ->
      advance st;
      let all = accept_kw st "ALL" in
      let right = parse_intersect_level st in
      loop (Ast.Q_except { all; left; right })
    | _ -> left
  in
  loop (parse_intersect_level st)

(* ------------------------------------------------------------------ *)
(* CTEs and full queries                                               *)

let parse_termination st : Ast.termination =
  match peek st with
  | Token.Int_lit n ->
    advance st;
    if accept_kw st "ITERATIONS" then Ast.T_iterations n
    else if accept_kw st "UPDATES" then Ast.T_updates n
    else error st "expected ITERATIONS or UPDATES after count"
  | Token.Kw "DELTA" ->
    advance st;
    let n =
      if accept_sym st "=" then int_lit st
      else if accept_sym st "<=" then int_lit st
      else if accept_sym st "<" then int_lit st - 1
      else error st "expected comparison after DELTA"
    in
    if n < 0 then error st "DELTA bound must be non-negative";
    Ast.T_delta n
  | Token.Kw "ANY" ->
    advance st;
    Ast.T_data { any = true; cond = parse_expr st }
  | Token.Kw "ALL" ->
    advance st;
    Ast.T_data { any = false; cond = parse_expr st }
  | _ -> Ast.T_data { any = false; cond = parse_expr st }

let parse_cte st ~recursive ~iterative : Ast.cte =
  let recursive = recursive || accept_kw st "RECURSIVE" in
  let iterative = iterative || accept_kw st "ITERATIVE" in
  let name = ident st in
  let columns =
    if accept_sym st "(" then begin
      let rec cols acc =
        let c = ident st in
        if accept_sym st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let cs = cols [] in
      eat_sym st ")";
      Some cs
    end
    else None
  in
  let key = if accept_kw st "KEY" then Some (ident st) else None in
  eat_kw st "AS";
  eat_sym st "(";
  let body = parse_query_body st in
  if iterative then begin
    eat_kw st "ITERATE";
    let step = parse_query_body st in
    eat_kw st "UNTIL";
    let until = parse_termination st in
    eat_sym st ")";
    Ast.Cte_iterative { name; columns; key; base = body; step; until }
  end
  else begin
    eat_sym st ")";
    if recursive then
      (* Split the top-level UNION into base and recursive step. *)
      match body with
      | Ast.Q_union { all; left; right } ->
        Ast.Cte_recursive { name; columns; base = left; step = right; union_all = all }
      | Ast.Q_select _ | Ast.Q_intersect _ | Ast.Q_except _ ->
        Ast.Cte_plain { name; columns; body }
    else Ast.Cte_plain { name; columns; body }
  end

let rec parse_full_query st : Ast.full_query =
  let ctes =
    if accept_kw st "WITH" then begin
      let recursive = accept_kw st "RECURSIVE" in
      let iterative = (not recursive) && accept_kw st "ITERATIVE" in
      let rec list acc ~recursive ~iterative =
        let cte = parse_cte st ~recursive ~iterative in
        if accept_sym st "," then
          (* modifiers may also be written per-CTE after the comma *)
          list (cte :: acc) ~recursive:false ~iterative:false
        else List.rev (cte :: acc)
      in
      list [] ~recursive ~iterative
    end
    else []
  in
  let body = parse_query_body st in
  let order_by =
    if accept_kw st "ORDER" then begin
      eat_kw st "BY";
      let rec items acc =
        let sort_expr = parse_expr st in
        let descending =
          if accept_kw st "DESC" then true
          else begin
            ignore (accept_kw st "ASC");
            false
          end
        in
        let acc = { Ast.sort_expr; descending } :: acc in
        if accept_sym st "," then items acc else List.rev acc
      in
      items []
    end
    else []
  in
  let limit = if accept_kw st "LIMIT" then Some (int_lit st) else None in
  let offset = if accept_kw st "OFFSET" then int_lit st else 0 in
  { Ast.ctes; body; order_by; limit; offset }

(* ------------------------------------------------------------------ *)
(* DDL / DML statements                                                *)

and parse_create_view st : Ast.statement =
  eat_kw st "VIEW";
  let view = ident st in
  let view_columns =
    if accept_sym st "(" then begin
      let rec cols acc =
        let c = ident st in
        if accept_sym st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let cs = cols [] in
      eat_sym st ")";
      Some cs
    end
    else None
  in
  eat_kw st "AS";
  let body = parse_query_body st in
  Ast.S_create_view { view; view_columns; body }

and parse_create st : Ast.statement =
  eat_kw st "CREATE";
  ignore (accept_kw st "TEMP");
  ignore (accept_kw st "TEMPORARY");
  if Token.equal (peek st) (Token.Kw "VIEW") then parse_create_view st
  else begin
  eat_kw st "TABLE";
  let if_not_exists =
    if accept_kw st "IF" then begin
      eat_kw st "NOT";
      eat_kw st "EXISTS";
      true
    end
    else false
  in
  let table = ident st in
  eat_sym st "(";
  let primary_key = ref None in
  let rec defs acc =
    if accept_kw st "PRIMARY" then begin
      eat_kw st "KEY";
      eat_sym st "(";
      primary_key := Some (ident st);
      eat_sym st ")";
      if accept_sym st "," then defs acc else List.rev acc
    end
    else begin
      let col_name = ident st in
      let ty_name = ident st in
      let col_type =
        match Column_type.of_string ty_name with
        | Some ty -> ty
        | None -> error st (Printf.sprintf "unknown column type %S" ty_name)
      in
      (* Swallow optional precision, e.g. VARCHAR(64). *)
      if accept_sym st "(" then begin
        let _ = int_lit st in
        if accept_sym st "," then ignore (int_lit st);
        eat_sym st ")"
      end;
      if accept_kw st "PRIMARY" then begin
        eat_kw st "KEY";
        primary_key := Some col_name
      end;
      let acc = { Ast.col_name; col_type } :: acc in
      if accept_sym st "," then defs acc else List.rev acc
    end
  in
  let columns = defs [] in
  eat_sym st ")";
  Ast.S_create_table { table; if_not_exists; columns; primary_key = !primary_key }
  end

and parse_drop st : Ast.statement =
  eat_kw st "DROP";
  let is_view = accept_kw st "VIEW" in
  if not is_view then eat_kw st "TABLE";
  let if_exists =
    if accept_kw st "IF" then begin
      eat_kw st "EXISTS";
      true
    end
    else false
  in
  if is_view then Ast.S_drop_view { view = ident st; if_exists }
  else Ast.S_drop_table { table = ident st; if_exists }

and parse_insert st : Ast.statement =
  eat_kw st "INSERT";
  eat_kw st "INTO";
  let table = ident st in
  let columns =
    (* Disambiguate a column list from INSERT INTO t (SELECT ...). *)
    if
      Token.equal (peek st) (Token.Symbol "(")
      && peek_ahead st 1 <> Some (Token.Kw "SELECT")
      && peek_ahead st 1 <> Some (Token.Kw "WITH")
    then begin
      eat_sym st "(";
      let rec cols acc =
        let c = ident st in
        if accept_sym st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let cs = cols [] in
      eat_sym st ")";
      Some cs
    end
    else None
  in
  let source =
    if accept_kw st "VALUES" then begin
      let rec tuples acc =
        let t = parse_paren_expr_list st in
        if accept_sym st "," then tuples (t :: acc) else List.rev (t :: acc)
      in
      Ast.I_values (tuples [])
    end
    else begin
      let wrapped = accept_sym st "(" in
      let q = parse_full_query st in
      if wrapped then eat_sym st ")";
      Ast.I_query q
    end
  in
  Ast.S_insert { table; columns; source }

and parse_update st : Ast.statement =
  eat_kw st "UPDATE";
  let table = ident st in
  eat_kw st "SET";
  let rec assignments acc =
    let c = ident st in
    eat_sym st "=";
    let e = parse_expr st in
    if accept_sym st "," then assignments ((c, e) :: acc)
    else List.rev ((c, e) :: acc)
  in
  let set = assignments [] in
  let from = if accept_kw st "FROM" then Some (parse_from_item st) else None in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  Ast.S_update { table; set; from; where }

and parse_delete st : Ast.statement =
  eat_kw st "DELETE";
  eat_kw st "FROM";
  let table = ident st in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  Ast.S_delete { table; where }

and parse_statement_inner st : Ast.statement =
  match peek st with
  | Token.Kw "EXPLAIN" ->
    advance st;
    let analyze = accept_kw st "ANALYZE" in
    Ast.S_explain { analyze; target = parse_statement_inner st }
  | Token.Kw "CREATE" -> parse_create st
  | Token.Kw "DROP" -> parse_drop st
  | Token.Kw "INSERT" -> parse_insert st
  | Token.Kw "UPDATE" -> parse_update st
  | Token.Kw "DELETE" -> parse_delete st
  | Token.Kw "TRUNCATE" ->
    advance st;
    ignore (accept_kw st "TABLE");
    Ast.S_truncate (ident st)
  | Token.Kw "BEGIN" ->
    advance st;
    ignore (accept_kw st "TRANSACTION");
    Ast.S_begin
  | Token.Kw "COMMIT" ->
    advance st;
    ignore (accept_kw st "TRANSACTION");
    Ast.S_commit
  | Token.Kw "ROLLBACK" ->
    advance st;
    ignore (accept_kw st "TRANSACTION");
    Ast.S_rollback
  | Token.Kw ("SELECT" | "WITH") | Token.Symbol "(" ->
    Ast.S_query (parse_full_query st)
  | _ -> error st "expected a SQL statement"

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let make_state src = { tokens = Lexer.tokenize src; pos = 0; subqueries = 0 }

let finish st =
  ignore (accept_sym st ";");
  if not (Token.equal (peek st) Token.Eof) then
    error st "trailing input after statement"

(** Parse exactly one statement (a trailing [;] is allowed). *)
let parse_statement src : Ast.statement =
  let st = make_state src in
  let stmt = parse_statement_inner st in
  finish st;
  stmt

(** Parse a query (SELECT / WITH ...). *)
let parse_query src : Ast.full_query =
  let st = make_state src in
  let q = parse_full_query st in
  finish st;
  q

(** Parse a [;]-separated script. *)
let parse_script src : Ast.statement list =
  let st = make_state src in
  let rec loop acc =
    if Token.equal (peek st) Token.Eof then List.rev acc
    else begin
      st.subqueries <- 0;
      let stmt = parse_statement_inner st in
      let _ = accept_sym st ";" in
      loop (stmt :: acc)
    end
  in
  loop []

(** Parse a standalone expression (used by tests and the REPL). *)
let parse_expression src : Ast.expr =
  let st = make_state src in
  let e = parse_expr st in
  finish st;
  e
