(** Cost and cardinality estimation, including the paper's stated
    future work: {e "estimating number of iterations for more accurate
    optimizer costing"} (§IX).

    The model is deliberately simple — textbook selectivity constants
    and per-row operator weights — because its purpose is {e relative}
    comparison of rewrites (e.g. how much of a program's cost sits
    inside the loop), not absolute prediction. Step programs multiply
    the loop body's cost by an estimated iteration count derived from
    the termination condition. *)

module Schema = Dbspinner_storage.Schema
module Ast = Dbspinner_sql.Ast

(** Source of base-table cardinalities (the "statistics subsystem"). *)
type statistics = {
  cardinality_of : string -> int option;
      (** base table or already-materialized temp *)
}

let default_selectivity = 0.33
let equality_selectivity = 0.1

(* Per-row operator weights; arbitrary units. *)
let w_scan = 1.0
let w_filter = 0.5
let w_project = 0.5
let w_build = 2.0
let w_probe = 1.5
let w_aggregate = 2.0
let w_sort_factor = 2.0
let w_materialize = 1.0

type estimate = {
  rows : float;  (** estimated output cardinality *)
  cost : float;  (** estimated total work, arbitrary units *)
}

let is_equality_pred = function
  | Bound_expr.B_binop (Ast.Eq, _, _) -> true
  | _ -> false

(** Selectivity of a (possibly compound) predicate: conjuncts multiply,
    each contributing the equality or default constant — [a = 1 AND
    b = 2] is 0.1 × 0.1, not a flat 0.33. *)
let pred_selectivity pred =
  List.fold_left
    (fun acc conjunct ->
      acc
      *. (if is_equality_pred conjunct then equality_selectivity
          else default_selectivity))
    1.0 (Bound_expr.conjuncts pred)

let rec plan (stats : statistics) (p : Logical.t) : estimate =
  match p with
  | Logical.L_scan { name; _ } ->
    let rows =
      float_of_int (Option.value (stats.cardinality_of name) ~default:1000)
    in
    { rows; cost = rows *. w_scan }
  | Logical.L_values rel ->
    let rows = float_of_int (Dbspinner_storage.Relation.cardinality rel) in
    { rows; cost = rows }
  | Logical.L_filter { pred; input } ->
    let inp = plan stats input in
    let selectivity = pred_selectivity pred in
    {
      rows = Float.max 1.0 (inp.rows *. selectivity);
      cost = inp.cost +. (inp.rows *. w_filter);
    }
  | Logical.L_project { input; _ } ->
    let inp = plan stats input in
    { rows = inp.rows; cost = inp.cost +. (inp.rows *. w_project) }
  | Logical.L_join { kind; cond; left; right; _ } -> (
    let l = plan stats left in
    let r = plan stats right in
    match kind, cond with
    | Logical.Cross, _ | _, None ->
      {
        rows = l.rows *. r.rows;
        cost = l.cost +. r.cost +. (l.rows *. r.rows *. w_probe);
      }
    | _, Some _ ->
      (* Equi-join estimate: the larger side survives; outer joins keep
         at least the preserved side. *)
      let matched = Float.max l.rows r.rows in
      let rows =
        match kind with
        | Logical.Inner -> matched
        | Logical.Left_outer -> Float.max matched l.rows
        | Logical.Right_outer -> Float.max matched r.rows
        | Logical.Full_outer -> Float.max matched (l.rows +. r.rows)
        | Logical.Cross -> assert false
      in
      {
        rows;
        cost = l.cost +. r.cost +. (r.rows *. w_build) +. (l.rows *. w_probe);
      })
  | Logical.L_aggregate { keys; input; _ } ->
    let inp = plan stats input in
    let groups =
      if keys = [] then 1.0
      else Float.max 1.0 (inp.rows /. 2.0)
    in
    { rows = groups; cost = inp.cost +. (inp.rows *. w_aggregate) }
  | Logical.L_distinct input ->
    let inp = plan stats input in
    { rows = Float.max 1.0 (inp.rows *. 0.9); cost = inp.cost +. inp.rows }
  | Logical.L_sort { input; _ } ->
    let inp = plan stats input in
    {
      rows = inp.rows;
      cost = inp.cost +. (inp.rows *. w_sort_factor *. Float.log (inp.rows +. 2.0));
    }
  | Logical.L_limit (n, input) ->
    let inp = plan stats input in
    { rows = Float.min (float_of_int n) inp.rows; cost = inp.cost }
  | Logical.L_offset (n, input) ->
    let inp = plan stats input in
    { rows = Float.max 0.0 (inp.rows -. float_of_int n); cost = inp.cost }
  | Logical.L_union { left; right; _ } ->
    let l = plan stats left in
    let r = plan stats right in
    { rows = l.rows +. r.rows; cost = l.cost +. r.cost }
  | Logical.L_intersect { left; right; _ } ->
    let l = plan stats left in
    let r = plan stats right in
    {
      rows = Float.max 1.0 (Float.min l.rows r.rows *. 0.5);
      cost = l.cost +. r.cost +. l.rows +. r.rows;
    }
  | Logical.L_except { left; right; _ } ->
    let l = plan stats left in
    let r = plan stats right in
    {
      rows = Float.max 1.0 (l.rows *. 0.5);
      cost = l.cost +. r.cost +. l.rows +. r.rows;
    }
  | Logical.L_subquery_filter { input; sub; _ } ->
    let i = plan stats input in
    let sq = plan stats sub in
    {
      rows = Float.max 1.0 (i.rows *. 0.5);
      cost = i.cost +. sq.cost +. (i.rows *. w_probe) +. (sq.rows *. w_build);
    }

(** Estimated iteration count for a termination condition, given the
    estimated CTE cardinality (paper §IX future work). Metadata counts
    are exact; UPDATES divides the budget by the expected per-iteration
    update volume; Delta/Data conditions are data-dependent, so a
    convergence heuristic logarithmic in the working-set size is used
    (relaxation-style iterations shrink the active set geometrically). *)
let estimate_iterations ~(cte_rows : float) (t : Program.termination) : float =
  match t with
  | Program.Max_iterations n -> float_of_int n
  | Program.Max_updates n ->
    Float.max 1.0 (float_of_int n /. Float.max 1.0 cte_rows)
  | Program.Delta_at_most _ | Program.Data _ ->
    Float.max 8.0 (4.0 *. (Float.log (cte_rows +. 2.0) /. Float.log 2.0))

type loop_estimate = {
  body_cost : float;  (** one iteration of this loop's body *)
  loop_iterations : float;
}

type program_estimate = {
  setup_cost : float;  (** work outside any loop *)
  per_iteration_cost : float;  (** first loop's body (0 without loops) *)
  iterations : float;  (** first loop's estimate (1 without loops) *)
  loops : loop_estimate list;  (** every loop, in program order *)
  total_cost : float;
}

(** Clamp an estimated row count to a sane [0, max_int] cardinality:
    NaN and non-positive estimates collapse to 0, overflow saturates —
    a degenerate estimate must not poison later steps' lookups. *)
let cardinality_of_rows rows =
  if Float.is_nan rows || rows <= 0.0 then 0
  else if rows >= float_of_int max_int then max_int
  else int_of_float rows

(** Estimate a full step program: steps between [Init_loop] and its
    [Loop_end] are charged once per that loop's estimated iteration
    count — each loop keeps its own (body, iterations) pair, so a
    program with two iterative CTEs costs each region independently.
    Materialized temp cardinalities are propagated so later steps see
    earlier estimates. *)
let program (stats : statistics) (p : Program.t) : program_estimate =
  let temp_rows : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let lookup name =
    match Hashtbl.find_opt temp_rows (String.lowercase_ascii name) with
    | Some n -> Some n
    | None -> stats.cardinality_of name
  in
  let stats = { cardinality_of = lookup } in
  let steps = Program.steps p in
  let setup = ref 0.0 in
  let loops = ref [] in  (* closed loops, reversed *)
  let current = ref None in  (* (body so far, iterations) of the open loop *)
  let charge c =
    match !current with
    | Some (body, iters) -> current := Some (body +. c, iters)
    | None -> setup := !setup +. c
  in
  let close_loop () =
    match !current with
    | Some (body, iters) ->
      loops := { body_cost = body; loop_iterations = iters } :: !loops;
      current := None
    | None -> ()
  in
  Array.iter
    (fun step ->
      match step with
      | Program.Materialize { target; plan = pl } ->
        let est = plan stats pl in
        Hashtbl.replace temp_rows
          (String.lowercase_ascii target)
          (cardinality_of_rows est.rows);
        charge (est.cost +. (est.rows *. w_materialize))
      | Program.Delta_materialize { target; full_plan; _ } ->
        (* Costed as the full plan: the delta restriction is a runtime
           win whose magnitude (the affected fraction) the planner
           cannot know, and the step falls back to the full plan
           whenever most keys changed. *)
        let est = plan stats full_plan in
        Hashtbl.replace temp_rows
          (String.lowercase_ascii target)
          (cardinality_of_rows est.rows);
        charge (est.cost +. (est.rows *. w_materialize))
      | Program.Merge { cte; work; target; _ } ->
        (* One lookup per working-table row, then a copy of the CTE
           with the matched rows overwritten; the result has the CTE's
           cardinality. *)
        let rows name = Option.value (lookup name) ~default:1000 in
        let cte_rows = rows cte in
        Hashtbl.replace temp_rows (String.lowercase_ascii target) cte_rows;
        charge
          ((float_of_int (rows work) *. w_probe)
          +. (float_of_int cte_rows *. w_materialize))
      | Program.Return pl -> charge (plan stats pl).cost
      | Program.Recursive_cte { base; step_plan; _ } ->
        (* Recursive CTEs: base once plus a log-bounded number of
           rounds of the step. *)
        let b = plan stats base in
        let s = plan stats step_plan in
        charge (b.cost +. (s.cost *. Float.max 4.0 (Float.log (b.rows +. 2.0))))
      | Program.Init_loop { termination; cte; _ } ->
        close_loop ();
        let cte_rows =
          float_of_int (Option.value (lookup cte) ~default:1000)
        in
        current := Some (0.0, estimate_iterations ~cte_rows termination)
      | Program.Loop_end _ -> close_loop ()
      | Program.Snapshot _ -> ()
      | Program.Rename _ ->
        (* The O(1) pointer swap: effectively free, the point of §VI-A. *)
        charge 1.0
      | Program.Drop_temp _ -> ()
      | Program.Assert_unique_key { temp; _ } ->
        charge
          (float_of_int (Option.value (lookup temp) ~default:1000) *. 0.25))
    steps;
  close_loop ();
  let loops = List.rev !loops in
  let loop_total =
    List.fold_left
      (fun acc l -> acc +. (l.body_cost *. l.loop_iterations))
      0.0 loops
  in
  let per_iteration_cost, iterations =
    match loops with
    | [] -> (0.0, 1.0)
    | first :: _ -> (first.body_cost, first.loop_iterations)
  in
  {
    setup_cost = !setup;
    per_iteration_cost;
    iterations;
    loops;
    total_cost = !setup +. loop_total;
  }

let pp_program_estimate fmt e =
  Format.fprintf fmt
    "setup=%.0f per-iteration=%.0f estimated-iterations=%.1f total=%.0f"
    e.setup_cost e.per_iteration_cost e.iterations e.total_cost;
  match e.loops with
  | [] | [ _ ] -> ()
  | loops ->
    Format.fprintf fmt " loops=[%s]"
      (String.concat "; "
         (List.map
            (fun l ->
              Printf.sprintf "%.0fx%.1f" l.body_cost l.loop_iterations)
            loops))
