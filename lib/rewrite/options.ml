(** Optimizer switches and operator controls. Each on/off rewrite flag
    is one of the paper's optimizations so that benchmarks can measure
    them independently (Figures 8, 9, 10); constant folding,
    outer-to-inner demotion, semi-naive evaluation and cost arbitration
    always run. *)

type t = {
  use_rename : bool;
      (** §IV / §VII-B: swap the working table into the CTE table with
          the O(1) [rename] operator instead of copying data back and
          diffing updated rows *)
  use_common_result : bool;
      (** §V-A: materialize loop-invariant joins of the iterative part
          once, before the loop *)
  use_pushdown : bool;
      (** §V-B: push final-part predicates over update-invariant
          columns into the non-iterative part *)
  max_recursion : int;  (** safety bound for recursive CTEs *)
  max_iterations_guard : int;
      (** safety bound for iterative CTEs with Data/Delta termination
          that never converge *)
  deadline_seconds : float option;
      (** wall-clock budget per statement; crossing it raises a
          Resource-stage error at the next materialize or loop boundary *)
  statement_timeout_seconds : float option;
      (** per-script statement timeout, reported distinctly from the
          deadline; the server uses it to keep a wedged query from
          stalling its checkpointer or shutdown drain *)
  row_budget : int option;
      (** cap on total rows materialized per statement; same Resource
          surfacing as the deadline *)
  parallel_workers : int;
      (** Domain-pool size for chunk-parallel single-node operators;
          1 = sequential execution (results are identical either way) *)
  parallel_chunk_rows : int;
      (** minimum relation cardinality before an operator splits its
          input across the pool *)
  use_exec_cache : bool;
      (** iteration-aware executor cache: memoize loop-invariant join
          builds / subquery digests under source generations and
          closure-compile expressions once per program run. An executor
          concern, not a paper rewrite, so [unoptimized] keeps it on. *)
  use_columnar : bool;
      (** vectorized columnar execution: filter, project, equi-join
          probe and aggregate run batch-at-a-time over typed column
          arrays ({!Dbspinner_exec.Vec_eval}) instead of row-at-a-time.
          Results and logical stats are bit-identical with the row
          engine. An executor concern, not a paper rewrite, so
          [unoptimized] keeps it on. *)
}

let default =
  {
    use_rename = true;
    use_common_result = true;
    use_pushdown = true;
    max_recursion = 10_000;
    max_iterations_guard = 100_000;
    deadline_seconds = None;
    statement_timeout_seconds = None;
    row_budget = None;
    parallel_workers = 1;
    parallel_chunk_rows = 4096;
    use_exec_cache = true;
    use_columnar = true;
  }

(** The paper's three rewrites (rename, common-result, pushdown) off:
    the baseline its Figs 8–10 ablations measure against. *)
let unoptimized =
  {
    default with
    use_rename = false;
    use_common_result = false;
    use_pushdown = false;
  }

(** The switches settable by name, in usage order. *)
let bool_options =
  [
    ("rename", fun t b -> { t with use_rename = b });
    ("common", fun t b -> { t with use_common_result = b });
    ("pushdown", fun t b -> { t with use_pushdown = b });
    ("exec_cache", fun t b -> { t with use_exec_cache = b });
    ("columnar", fun t b -> { t with use_columnar = b });
  ]

let bool_option_keys = List.map fst bool_options

let set_bool_option t key enabled =
  Option.map (fun set -> set t enabled) (List.assoc_opt key bool_options)

let parse_bool = function
  | "on" | "true" | "1" -> Some true
  | "off" | "false" | "0" -> Some false
  | _ -> None

let set_shared_key t key value =
  let ok t reply = Some (Ok (t, reply)) and usage m = Some (Error m) in
  match key with
  | "deadline" -> (
    match (value, float_of_string_opt value) with
    | ("off" | "none"), _ ->
      ok { t with deadline_seconds = None } "deadline off"
    | _, Some s when s > 0.0 ->
      ok { t with deadline_seconds = Some s } (Printf.sprintf "deadline %gs" s)
    | _ -> usage "usage: SET deadline SECONDS|off")
  | "budget" -> (
    match (value, int_of_string_opt value) with
    | ("off" | "none"), _ -> ok { t with row_budget = None } "budget off"
    | _, Some n when n > 0 ->
      ok { t with row_budget = Some n } (Printf.sprintf "budget %d rows" n)
    | _ -> usage "usage: SET budget ROWS|off")
  | "workers" -> (
    let bound = Dbspinner_exec.Parallel.max_workers in
    match int_of_string_opt value with
    | Some n when n >= 1 && n <= bound ->
      ok { t with parallel_workers = n } (Printf.sprintf "workers %d" n)
    | _ -> usage (Printf.sprintf "usage: SET workers N (1 <= N <= %d)" bound))
  | _ -> (
    match (List.assoc_opt key bool_options, parse_bool value) with
    | None, _ -> None
    | Some set, Some b -> ok (set t b) (Printf.sprintf "%s %b" key b)
    | Some _, None -> usage (Printf.sprintf "SET %s expects on|off" key))

let to_string t =
  let guards =
    let deadline =
      match t.deadline_seconds with
      | None -> ""
      | Some s -> Printf.sprintf " deadline=%gs" s
    in
    let timeout =
      match t.statement_timeout_seconds with
      | None -> ""
      | Some s -> Printf.sprintf " statement_timeout=%gs" s
    in
    let budget =
      match t.row_budget with
      | None -> ""
      | Some n -> Printf.sprintf " row_budget=%d" n
    in
    deadline ^ timeout ^ budget
  in
  let parallel =
    if t.parallel_workers > 1 then
      Printf.sprintf " workers=%d chunk=%d" t.parallel_workers
        t.parallel_chunk_rows
    else ""
  in
  (* Only shown when disabled, keeping the default rendering stable. *)
  let cache = if t.use_exec_cache then "" else " exec_cache=off" in
  let columnar = if t.use_columnar then "" else " columnar=off" in
  Printf.sprintf "rename=%b common_result=%b pushdown=%b%s%s%s%s"
    t.use_rename t.use_common_result t.use_pushdown guards parallel cache
    columnar
