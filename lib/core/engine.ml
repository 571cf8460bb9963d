(** The DBSpinner engine session: parses SQL, applies the functional
    and optimization rewrites, and executes the resulting single step
    program — the native path the paper argues for. DDL and DML are
    also supported so the middleware and stored-procedure baselines can
    drive the very same engine statement-by-statement. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Table = Dbspinner_storage.Table
module Catalog = Dbspinner_storage.Catalog
module Column_type = Dbspinner_storage.Column_type
module Ast = Dbspinner_sql.Ast
module Parser = Dbspinner_sql.Parser
module Binder = Dbspinner_plan.Binder
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Explain = Dbspinner_plan.Explain
module Executor = Dbspinner_exec.Executor
module Operators = Dbspinner_exec.Operators
module Eval = Dbspinner_exec.Eval
module Stats = Dbspinner_exec.Stats
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Trace = Dbspinner_obs.Trace

(** Snapshot taken at BEGIN: the base-table bindings plus every
    table's row list (rows are immutable, so this is O(tables)). *)
type transaction_snapshot = {
  snapshot_bindings : (string * Table.t) list;
  snapshot_rows : (Table.t * Row.t list) list;
}

type t = {
  catalog : Catalog.t;
  views : (string, Ast.query) Hashtbl.t;
      (** view name (lowercased) -> stored body, expanded per §III *)
  mutable options : Options.t;
  mutable transaction : transaction_snapshot option;
  stats : Stats.t;  (** cumulative across all statements of the session *)
  mutable trace : Trace.t option;
      (** session trace collector; [None] (the default) disables
          tracing entirely — the executors then do no tracing work *)
  mutable interrupt : (unit -> string option) option;
      (** external cancellation probe folded into every statement's
          guards; the server installs one per session so shutdown can
          drain in-flight iterative loops at an iteration boundary *)
  mutable plan_hook :
    (Ast.full_query -> (unit -> Program.t) -> Program.t) option;
      (** plan memoization seam: when set, [run_query] routes the
          (query, compile thunk) pair through the hook instead of
          compiling directly; the server installs a cross-session plan
          cache here. Skipped when the session has views — view bodies
          are session state no external cache key can see. *)
}

type result =
  | Rows of Relation.t
  | Affected of int  (** row count of INSERT/UPDATE/DELETE *)
  | Executed  (** DDL *)
  | Explained of string

let create ?(options = Options.default) ?catalog () =
  {
    catalog = (match catalog with Some c -> c | None -> Catalog.create ());
    views = Hashtbl.create 8;
    options;
    transaction = None;
    stats = Stats.create ();
    trace = None;
    interrupt = None;
    plan_hook = None;
  }

let in_transaction t = t.transaction <> None

let catalog t = t.catalog
let options t = t.options
let set_options t options = t.options <- options
let session_stats t = t.stats
let trace t = t.trace
let set_trace t tr = t.trace <- tr

(** Install a fresh trace collector and return it. *)
let enable_trace t =
  let tr = Trace.create () in
  t.trace <- Some tr;
  tr

let set_interrupt t probe = t.interrupt <- probe
let set_plan_hook t hook = t.plan_hook <- hook

let lookup t name =
  match Catalog.find_temp_opt t.catalog name with
  | Some rel -> Some (Relation.schema rel)
  | None -> Option.map Table.schema (Catalog.find_table_opt t.catalog name)

(* ------------------------------------------------------------------ *)
(* Query path: the single-plan native execution                        *)

let view_body t name = Hashtbl.find_opt t.views (String.lowercase_ascii name)

(** Pre-evaluate uncorrelated scalar subqueries against the current
    base tables: sound because base tables cannot change during the
    statement. Subqueries referencing CTE names surface as
    unknown-table binding errors. *)
let prevaluate_scalar_subqueries t (q : Ast.full_query) : Ast.full_query =
  let evaluate sub =
    let expanded =
      Dbspinner_rewrite.View_expansion.expand ~lookup:(view_body t)
        (Ast.plain_query sub)
    in
    let plan =
      Binder.bind_query (Binder.env_of_lookup (lookup t)) expanded.Ast.body
    in
    if Schema.arity (Logical.schema plan) <> 1 then
      raise
        (Errors.Error
           (Errors.Bind, "a scalar subquery must return exactly one column"));
    let stats = Stats.create () in
    let rel = Executor.run_plan ~stats t.catalog plan in
    Stats.add ~into:t.stats stats;
    match Relation.cardinality rel with
    | 0 -> Value.Null
    | 1 -> (Relation.rows rel).(0).(0)
    | n ->
      raise
        (Errors.Error
           ( Errors.Execute,
             Printf.sprintf "a scalar subquery returned %d rows" n ))
  in
  let has_scalar e =
    Ast.fold_expr
      (fun acc n -> acc || match n with Ast.Scalar_subquery _ -> true | _ -> false)
      false e
  in
  Dbspinner_rewrite.Fold.map_exprs
    (fun e ->
      if not (has_scalar e) then e
      else
        Ast.map_expr
          (function
            | Ast.Scalar_subquery sub -> Ast.Lit (evaluate sub)
            | n -> n)
          e)
    q

(** Pre-evaluate scalar subqueries inside one expression (DML SET /
    WHERE clauses). *)
let prevaluate_expr t (e : Ast.expr) : Ast.expr =
  let q = prevaluate_scalar_subqueries t (Ast.plain_query (Ast.simple_select [ Ast.item e ])) in
  match q.Ast.body with
  | Ast.Q_select { items = [ { Ast.expr; _ } ]; _ } -> expr
  | _ -> e

(** Catalog-backed cardinalities for the cost model: base tables by
    table cardinality, already-materialized temps by relation size.
    Supplying this to the compiler is what arms cost-based rewrite
    arbitration; compiling without it keeps the paper's always-on
    rewrites. *)
let statistics_of t : Dbspinner_plan.Cost.statistics =
  {
    Dbspinner_plan.Cost.cardinality_of =
      (fun name ->
        match Catalog.find_table_opt t.catalog name with
        | Some tbl -> Some (Table.cardinality tbl)
        | None ->
          Option.map Relation.cardinality (Catalog.find_temp_opt t.catalog name));
  }

let compile_query t (q : Ast.full_query) : Program.t =
  let q =
    Dbspinner_rewrite.View_expansion.expand ~lookup:(view_body t) q
  in
  let q = prevaluate_scalar_subqueries t q in
  Iterative_rewrite.compile ~options:t.options ~statistics:(statistics_of t)
    ~lookup:(lookup t) q

(** Resource guards for one statement, from the session options plus
    the session interrupt probe. Built per statement so the wall-clock
    deadline starts at statement start. *)
let guards_of t : Dbspinner_exec.Guards.t =
  Dbspinner_exec.Guards.make
    ?deadline_seconds:t.options.Options.deadline_seconds
    ?timeout_seconds:t.options.Options.statement_timeout_seconds
    ?row_budget:t.options.Options.row_budget ?interrupt:t.interrupt ()

(** Chunk-parallel execution context from the session options ([None]
    when [parallel_workers <= 1], i.e. sequential). *)
let parallel_of_options (options : Options.t) :
    Dbspinner_exec.Parallel.ctx option =
  Dbspinner_exec.Parallel.context ~chunk_rows:options.parallel_chunk_rows
    ~workers:options.parallel_workers ()

let run_query ?(keep_temps = false) t (q : Ast.full_query) : Relation.t =
  let program =
    match t.plan_hook with
    | Some hook when Hashtbl.length t.views = 0 ->
      hook q (fun () -> compile_query t q)
    | _ -> compile_query t q
  in
  let stats = Stats.create () in
  let guards = guards_of t in
  let parallel = parallel_of_options t.options in
  Fun.protect
    ~finally:(fun () ->
      Stats.add ~into:t.stats stats;
      if not keep_temps then Catalog.clear_temps t.catalog)
    (fun () ->
      Executor.run_program ?parallel ~stats ~guards
        ~use_cache:t.options.Options.use_exec_cache
        ~columnar:t.options.Options.use_columnar ?trace:t.trace t.catalog
        program)

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)

let bind_constant_row t exprs =
  List.map
    (fun e -> Eval.eval [||] (Binder.bind_scalar [||] (prevaluate_expr t e)))
    exprs

(** Build the full row for an INSERT with an explicit column list:
    unlisted columns become NULL. *)
let widen_row schema columns (values : Value.t list) : Row.t =
  match columns with
  | None ->
    if List.length values <> Schema.arity schema then
      raise
        (Errors.Error
           ( Errors.Bind,
             Printf.sprintf "INSERT supplies %d values for %d columns"
               (List.length values) (Schema.arity schema) ));
    Array.of_list values
  | Some cols ->
    if List.length cols <> List.length values then
      raise
        (Errors.Error
           (Errors.Bind, "INSERT column list and VALUES have different arity"));
    let row = Array.make (Schema.arity schema) Value.Null in
    List.iter2
      (fun c v ->
        match Schema.index_of schema c with
        | Some i -> row.(i) <- v
        | None ->
          raise
            (Errors.Error
               (Errors.Bind, Printf.sprintf "unknown column %s in INSERT" c)))
      cols values;
    row

let exec_insert t ~table ~columns ~source =
  let tbl = Catalog.find_table t.catalog table in
  let schema = Table.schema tbl in
  let inserted = ref 0 in
  (match source with
  | Ast.I_values tuples ->
    List.iter
      (fun tuple ->
        Table.insert tbl (widen_row schema columns (bind_constant_row t tuple));
        incr inserted)
      tuples
  | Ast.I_query q ->
    let rel = run_query t q in
    if
      Schema.arity (Relation.schema rel)
      <> (match columns with
         | None -> Schema.arity schema
         | Some cs -> List.length cs)
    then
      raise
        (Errors.Error
           (Errors.Bind, "INSERT ... SELECT arity does not match target"));
    Relation.iter
      (fun row ->
        Table.insert tbl (widen_row schema columns (Array.to_list row));
        incr inserted)
      rel);
  t.stats.Stats.dml_rows_touched <- t.stats.Stats.dml_rows_touched + !inserted;
  !inserted

(** UPDATE [table] SET ... [FROM f] [WHERE pred]: rows of [table] that
    have a matching [f] row satisfying [pred] are rewritten with the
    SET expressions evaluated over (table row ++ f row). Matching uses
    a hash join when an equi-conjunct exists — the middleware baseline
    issues large keyed updates every iteration and would otherwise be
    quadratic. *)
let exec_update t ~table ~set ~from ~where =
  let set = List.map (fun (c, e) -> (c, prevaluate_expr t e)) set in
  let where = Option.map (prevaluate_expr t) where in
  let tbl = Catalog.find_table t.catalog table in
  let schema = Table.schema tbl in
  let own_scope = Binder.scope_of_schema ~qualifier:table schema in
  let env = Binder.env_of_lookup (lookup t) in
  match from with
  | None ->
    let pred = Option.map (Binder.bind_scalar own_scope) where in
    let assignments =
      List.map
        (fun (c, e) ->
          match Schema.index_of schema c with
          | Some i -> (i, Binder.bind_scalar own_scope e)
          | None ->
            raise
              (Errors.Error
                 (Errors.Bind, Printf.sprintf "unknown column %s in UPDATE" c)))
        set
    in
    let n =
      Table.update tbl
        ~pred:(fun row ->
          match pred with None -> true | Some p -> Eval.eval_pred row p)
        ~set:(fun row ->
          let row' = Array.copy row in
          List.iter (fun (i, e) -> row'.(i) <- Eval.eval row e) assignments;
          row')
    in
    t.stats.Stats.dml_rows_touched <- t.stats.Stats.dml_rows_touched + n;
    n
  | Some f ->
    let stats = Stats.create () in
    let fplan, fscope = Binder.bind_from env f in
    let frel = Executor.run_plan ~stats t.catalog fplan in
    Stats.add ~into:t.stats stats;
    let scope = Binder.scope_concat own_scope fscope in
    let pred = Option.map (Binder.bind_scalar scope) where in
    let assignments =
      List.map
        (fun (c, e) ->
          match Schema.index_of schema c with
          | Some i -> (i, Binder.bind_scalar scope e)
          | None ->
            raise
              (Errors.Error
                 (Errors.Bind, Printf.sprintf "unknown column %s in UPDATE" c)))
        set
    in
    (* Hash the FROM relation on any equi-key against the target. *)
    let arity = Schema.arity schema in
    let keys, residual =
      match pred with
      | None -> ([], [])
      | Some p -> Operators.split_equi_condition ~left_arity:arity p
    in
    let matching : Row.t -> Row.t option =
      if keys = [] then fun row ->
        let rec first i =
          if i >= Relation.cardinality frel then None
          else
            let combined = Row.concat row (Relation.rows frel).(i) in
            let ok =
              match pred with None -> true | Some p -> Eval.eval_pred combined p
            in
            if ok then Some combined else first (i + 1)
        in
        first 0
      else begin
        (* Every FROM row per key: like the nested loop, take the first
           one in FROM order that passes the residual. *)
        let module Row_tbl = Operators.Row_tbl in
        let table_idx = Row_tbl.create (max 16 (Relation.cardinality frel)) in
        let right_keys = Array.of_list (List.map snd keys) in
        Relation.iter
          (fun frow ->
            let k = Array.map (fun e -> Eval.eval frow e) right_keys in
            if not (Array.exists Value.is_null k) then Row_tbl.add table_idx k frow)
          frel;
        let left_keys = Array.of_list (List.map fst keys) in
        fun row ->
          let k = Array.map (fun e -> Eval.eval row e) left_keys in
          List.find_map
            (fun frow ->
              let combined = Row.concat row frow in
              if List.for_all (fun p -> Eval.eval_pred combined p) residual then
                Some combined
              else None)
            (List.rev (Row_tbl.find_all table_idx k))
      end
    in
    let n =
      Table.update tbl
        ~pred:(fun row -> Option.is_some (matching row))
        ~set:(fun row ->
          match matching row with
          | None -> row
          | Some combined ->
            let row' = Array.copy row in
            List.iter
              (fun (i, e) -> row'.(i) <- Eval.eval combined e)
              assignments;
            row')
    in
    t.stats.Stats.dml_rows_touched <- t.stats.Stats.dml_rows_touched + n;
    n

let exec_delete t ~table ~where =
  let where = Option.map (prevaluate_expr t) where in
  let tbl = Catalog.find_table t.catalog table in
  let scope = Binder.scope_of_schema ~qualifier:table (Table.schema tbl) in
  let pred = Option.map (Binder.bind_scalar scope) where in
  let n =
    Table.delete tbl ~pred:(fun row ->
        match pred with None -> true | Some p -> Eval.eval_pred row p)
  in
  t.stats.Stats.dml_rows_touched <- t.stats.Stats.dml_rows_touched + n;
  n

(* ------------------------------------------------------------------ *)
(* Statement dispatch                                                  *)

let rec exec_statement t (stmt : Ast.statement) : result =
  t.stats.Stats.statements <- t.stats.Stats.statements + 1;
  match stmt with
  | Ast.S_query q -> Rows (run_query t q)
  | Ast.S_create_table { table; if_not_exists; columns; primary_key } ->
    if if_not_exists && Catalog.mem_table t.catalog table then Executed
    else begin
      let schema =
        Schema.make
          (List.map
             (fun (c : Ast.column_def) -> Schema.column ~ty:c.col_type c.col_name)
             columns)
      in
      ignore (Catalog.create_table ?primary_key t.catalog ~name:table schema);
      Executed
    end
  | Ast.S_drop_table { table; if_exists } ->
    if if_exists && not (Catalog.mem_table t.catalog table) then Executed
    else begin
      Catalog.drop_table t.catalog table;
      Executed
    end
  | Ast.S_insert { table; columns; source } ->
    Affected (exec_insert t ~table ~columns ~source)
  | Ast.S_update { table; set; from; where } ->
    Affected (exec_update t ~table ~set ~from ~where)
  | Ast.S_delete { table; where } -> Affected (exec_delete t ~table ~where)
  | Ast.S_truncate table ->
    Table.truncate (Catalog.find_table t.catalog table);
    Executed
  | Ast.S_create_view { view; view_columns; body } ->
    if Catalog.mem_table t.catalog view || Hashtbl.mem t.views (String.lowercase_ascii view)
    then
      raise
        (Errors.Error
           (Errors.Catalog, Printf.sprintf "relation %s already exists" view));
    (* Validate the body now (binding it against the current catalog,
       with other views expanded) and fold a declared column list into
       the stored body. *)
    let expanded =
      Dbspinner_rewrite.View_expansion.expand ~lookup:(view_body t)
        (Ast.plain_query body)
    in
    let plan = Binder.bind_query (Binder.env_of_lookup (lookup t)) expanded.Ast.body in
    let body =
      match view_columns with
      | None -> body
      | Some names ->
        let schema = Logical.schema plan in
        if List.length names <> Schema.arity schema then
          raise
            (Errors.Error
               ( Errors.Bind,
                 Printf.sprintf
                   "view column list has %d names but the query returns %d \
                    columns"
                   (List.length names) (Schema.arity schema) ));
        let outputs = Schema.column_names schema in
        let distinct_outputs =
          List.length (List.sort_uniq String.compare
                         (List.map String.lowercase_ascii outputs))
          = List.length outputs
        in
        if not distinct_outputs then
          raise
            (Errors.Error
               ( Errors.Bind,
                 "a view column list requires the underlying query to \
                  produce distinct column names" ));
        Ast.Q_select
          {
            Ast.distinct = false;
            items =
              List.map2
                (fun orig renamed ->
                  {
                    Ast.expr = Ast.Col (Some "_view_body", orig);
                    alias = Some renamed;
                  })
                outputs names;
            from = Some (Ast.From_subquery { query = body; alias = "_view_body" });
            where = None;
            group_by = [];
            having = None;
          }
    in
    Hashtbl.replace t.views (String.lowercase_ascii view) body;
    Executed
  | Ast.S_drop_view { view; if_exists } ->
    let key = String.lowercase_ascii view in
    if Hashtbl.mem t.views key then begin
      Hashtbl.remove t.views key;
      Executed
    end
    else if if_exists then Executed
    else
      raise
        (Errors.Error
           (Errors.Catalog, Printf.sprintf "view %s does not exist" view))
  | Ast.S_begin ->
    if t.transaction <> None then
      raise (Errors.Error (Errors.Execute, "a transaction is already open"));
    let bindings = Catalog.base_bindings t.catalog in
    t.transaction <-
      Some
        {
          snapshot_bindings = bindings;
          snapshot_rows =
            List.map (fun (_, tbl) -> (tbl, Table.snapshot_rows tbl)) bindings;
        };
    Executed
  | Ast.S_commit -> (
    match t.transaction with
    | None -> raise (Errors.Error (Errors.Execute, "no transaction is open"))
    | Some _ ->
      t.transaction <- None;
      Executed)
  | Ast.S_rollback -> (
    match t.transaction with
    | None -> raise (Errors.Error (Errors.Execute, "no transaction is open"))
    | Some snapshot ->
      Catalog.restore_base t.catalog snapshot.snapshot_bindings;
      List.iter
        (fun (tbl, rows) -> Table.restore_rows tbl rows)
        snapshot.snapshot_rows;
      t.transaction <- None;
      Executed)
  | Ast.S_explain { analyze; target } -> (
    match target with
    | Ast.S_query q ->
      let expanded =
        Dbspinner_rewrite.View_expansion.expand ~lookup:(view_body t) q
      in
      let expanded = prevaluate_scalar_subqueries t expanded in
      let statistics = statistics_of t in
      let program, report =
        Iterative_rewrite.compile_with_report ~options:t.options ~statistics
          ~lookup:(lookup t) expanded
      in
      let estimate = Dbspinner_plan.Cost.program statistics program in
      let rewrite_log =
        match
          Dbspinner_rewrite.Rule.to_lines
            report.Iterative_rewrite.rewrite_log
        with
        | [] -> ""
        | lines -> "\nRewrite log:\n  " ^ String.concat "\n  " lines
      in
      let base =
        Explain.program_to_string program
        ^ Format.asprintf "@\n@\nRewrites applied: %s@\nCost estimate: %a"
            (Iterative_rewrite.report_to_string report)
            Dbspinner_plan.Cost.pp_program_estimate estimate
        ^ rewrite_log
      in
      if not analyze then Explained base
      else begin
        (* EXPLAIN ANALYZE: execute the program and report the actual
           executor counters next to the estimates. Always traced — the
           session trace if one is installed, else a throwaway local
           collector — so the convergence timeline can be rendered for
           iterative queries. *)
        let stats = Stats.create () in
        let guards = guards_of t in
        let parallel = parallel_of_options t.options in
        let tr =
          match t.trace with
          | Some tr -> tr
          | None -> Trace.create ()
        in
        let seq0 = Trace.next_seq tr in
        let rel, seconds =
          let t0 = Unix.gettimeofday () in
          let rel =
            Fun.protect
              ~finally:(fun () ->
                Stats.add ~into:t.stats stats;
                Catalog.clear_temps t.catalog)
              (fun () ->
                Executor.run_program ?parallel ~stats ~guards
                  ~use_cache:t.options.Options.use_exec_cache
                  ~columnar:t.options.Options.use_columnar ~trace:tr
                  t.catalog program)
          in
          (rel, Unix.gettimeofday () -. t0)
        in
        let timeline = Trace.render_timeline ~min_seq:seq0 tr in
        Explained
          (Format.asprintf "%s@\n@\nActual: %.4f s, %d rows returned@\n  %a%s"
             base seconds (Relation.cardinality rel) Stats.pp stats
             (if timeline = "" then "" else "\n\n" ^ timeline))
      end
    | other -> Explained (Dbspinner_sql.Sql_pretty.statement other))

and execute t sql : result =
  Errors.wrap (fun () -> exec_statement t (Parser.parse_statement sql))

(** Run a [;]-separated script; returns the result of each statement. *)
let execute_script t sql : result list =
  Errors.wrap (fun () ->
      List.map (exec_statement t) (Parser.parse_script sql))

(** Convenience: run a query and return its relation.
    @raise Errors.Error if [sql] is not a query. *)
let query t sql : Relation.t =
  match execute t sql with
  | Rows rel -> rel
  | Affected _ | Executed | Explained _ ->
    raise (Errors.Error (Errors.Execute, "statement did not return rows"))

(** EXPLAIN text of a query under the session's current options. *)
let explain t sql : string =
  match execute t ("EXPLAIN " ^ sql) with
  | Explained s -> s
  | _ -> raise (Errors.Error (Errors.Execute, "EXPLAIN did not return a plan"))

(* ------------------------------------------------------------------ *)
(* Bulk loading (used by workloads and examples)                       *)

(** Create (or replace) a base table and fill it from a relation. *)
let load_table ?primary_key t ~name (rel : Relation.t) =
  if Catalog.mem_table t.catalog name then Catalog.drop_table t.catalog name;
  let tbl =
    Catalog.create_table ?primary_key t.catalog ~name (Relation.schema rel)
  in
  Relation.iter (fun row -> Table.insert tbl row) rel

(** Run a query with a one-off option set, restoring afterwards. *)
let with_options t options f =
  let saved = t.options in
  t.options <- options;
  Fun.protect ~finally:(fun () -> t.options <- saved) f
