(** Textual rendering of logical plans and step programs (the engine's
    EXPLAIN output). The program rendering matches the paper's Table I
    style: numbered steps with loop back-edges spelled out. *)

module Schema = Dbspinner_storage.Schema

let join_kind = function
  | Logical.Inner -> "Inner"
  | Logical.Left_outer -> "LeftOuter"
  | Logical.Right_outer -> "RightOuter"
  | Logical.Full_outer -> "FullOuter"
  | Logical.Cross -> "Cross"

let agg_to_string (a : Logical.agg) =
  let name = Dbspinner_sql.Sql_pretty.agg_name a.agg_kind in
  match a.agg_kind with
  | Dbspinner_sql.Ast.Count_star -> "COUNT(*)"
  | _ ->
    Printf.sprintf "%s(%s%s)" name
      (if a.agg_distinct then "DISTINCT " else "")
      (Bound_expr.to_string a.agg_arg)

let rec plan_lines indent (t : Logical.t) acc =
  let pad = String.make (indent * 2) ' ' in
  let line s rest = (pad ^ s) :: rest in
  match t with
  | Logical.L_scan { name; _ } -> line (Printf.sprintf "Scan %s" name) acc
  | Logical.L_values rel ->
    line
      (Printf.sprintf "Values [%d rows]" (Dbspinner_storage.Relation.cardinality rel))
      acc
  | Logical.L_filter { pred; input } ->
    line
      (Printf.sprintf "Filter %s" (Bound_expr.to_string pred))
      (plan_lines (indent + 1) input acc)
  | Logical.L_project { exprs; input } ->
    let items =
      List.map
        (fun (e, n) -> Printf.sprintf "%s AS %s" (Bound_expr.to_string e) n)
        exprs
    in
    line
      (Printf.sprintf "Project [%s]" (String.concat ", " items))
      (plan_lines (indent + 1) input acc)
  | Logical.L_join { kind; cond; left; right; _ } ->
    let cond_s =
      match cond with
      | None -> ""
      | Some c -> " ON " ^ Bound_expr.to_string c
    in
    line
      (Printf.sprintf "%sJoin%s" (join_kind kind) cond_s)
      (plan_lines (indent + 1) left (plan_lines (indent + 1) right acc))
  | Logical.L_aggregate { keys; aggs; input; _ } ->
    let keys_s = List.map Bound_expr.to_string keys in
    let aggs_s = List.map agg_to_string aggs in
    line
      (Printf.sprintf "Aggregate keys=[%s] aggs=[%s]"
         (String.concat ", " keys_s) (String.concat ", " aggs_s))
      (plan_lines (indent + 1) input acc)
  | Logical.L_distinct input ->
    line "Distinct" (plan_lines (indent + 1) input acc)
  | Logical.L_sort { keys; input } ->
    let keys_s =
      List.map
        (fun (e, desc) ->
          Bound_expr.to_string e ^ if desc then " DESC" else " ASC")
        keys
    in
    line
      (Printf.sprintf "Sort [%s]" (String.concat ", " keys_s))
      (plan_lines (indent + 1) input acc)
  | Logical.L_limit (n, input) ->
    line (Printf.sprintf "Limit %d" n) (plan_lines (indent + 1) input acc)
  | Logical.L_offset (n, input) ->
    line (Printf.sprintf "Offset %d" n) (plan_lines (indent + 1) input acc)
  | Logical.L_union { all; left; right } ->
    line
      (if all then "UnionAll" else "Union")
      (plan_lines (indent + 1) left (plan_lines (indent + 1) right acc))
  | Logical.L_intersect { all; left; right } ->
    line
      (if all then "IntersectAll" else "Intersect")
      (plan_lines (indent + 1) left (plan_lines (indent + 1) right acc))
  | Logical.L_except { all; left; right } ->
    line
      (if all then "ExceptAll" else "Except")
      (plan_lines (indent + 1) left (plan_lines (indent + 1) right acc))
  | Logical.L_subquery_filter { anti; key; input; sub } ->
    let label =
      match key, anti with
      | Some k, false -> Printf.sprintf "SemiJoin (IN %s)" (Bound_expr.to_string k)
      | Some k, true -> Printf.sprintf "AntiJoin (NOT IN %s)" (Bound_expr.to_string k)
      | None, false -> "SemiJoin (EXISTS)"
      | None, true -> "AntiJoin (NOT EXISTS)"
    in
    line label (plan_lines (indent + 1) input (plan_lines (indent + 1) sub acc))

let plan_to_string t = String.concat "\n" (plan_lines 0 t [])

let step_to_lines idx (s : Program.step) =
  let head = Printf.sprintf "%2d. " (idx + 1) in
  match s with
  | Program.Materialize { target; plan } ->
    (head ^ Printf.sprintf "Materialize %s:" target)
    :: List.map (fun l -> "      " ^ l) (plan_lines 0 plan [])
  | Program.Delta_materialize { target; restricted_plan; affected_plans; _ } ->
    (head
    ^ Printf.sprintf "DeltaMaterialize %s (%d affected-key plan%s):" target
        (List.length affected_plans)
        (if List.length affected_plans = 1 then "" else "s"))
    :: List.map (fun l -> "      " ^ l) (plan_lines 0 restricted_plan [])
  | Program.Merge { cte; work; target; key_idx; _ } ->
    [
      head
      ^ Printf.sprintf "Merge %s into %s as %s (key column %d)" work cte target
          key_idx;
    ]
  | Program.Rename { from_; into } ->
    [ head ^ Printf.sprintf "Rename %s -> %s" from_ into ]
  | Program.Drop_temp name -> [ head ^ Printf.sprintf "Drop %s" name ]
  | Program.Assert_unique_key { temp; key_idx } ->
    [ head ^ Printf.sprintf "AssertUniqueKey %s (column %d)" temp key_idx ]
  | Program.Init_loop { loop_id; termination; cte; _ } ->
    [
      head
      ^ Printf.sprintf "InitLoop #%d over %s <<%s>>" loop_id cte
          (Program.termination_to_string termination);
    ]
  | Program.Loop_end { loop_id; body_start } ->
    [
      head
      ^ Printf.sprintf "LoopEnd #%d: go to step %d while continue" loop_id
          (body_start + 1);
    ]
  | Program.Snapshot { loop_id } ->
    [ head ^ Printf.sprintf "Snapshot #%d" loop_id ]
  | Program.Recursive_cte { name; union_all; _ } ->
    [
      head
      ^ Printf.sprintf "RecursiveCTE %s (UNION%s, semi-naive)" name
          (if union_all then " ALL" else "");
    ]
  | Program.Return plan ->
    (head ^ "Return:")
    :: List.map (fun l -> "      " ^ l) (plan_lines 0 plan [])

let program_to_string (p : Program.t) =
  let lines =
    Array.to_list (Array.mapi step_to_lines (Program.steps p)) |> List.concat
  in
  String.concat "\n" lines
