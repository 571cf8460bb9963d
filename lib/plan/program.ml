(** Step programs: the single executable plan an iterative query
    compiles to, mirroring the paper's Table I.

    A program is a flat array of steps executed by a program counter;
    [Loop_end] conditionally jumps backwards, which is exactly the
    paper's "Go to step 3 if counter < 10". All intermediate state
    lives in the catalog's temp lookup table, so [Rename] is the O(1)
    pointer swap of §VI-A. *)

module Schema = Dbspinner_storage.Schema

(** Executable form of the termination condition [Tc] (§VI-B). *)
type termination =
  | Max_iterations of int
  | Max_updates of int  (** cumulative updated-row count reaches N *)
  | Delta_at_most of int
      (** stop once an iteration changes at most N rows *)
  | Data of { any : bool; pred : Bound_expr.t }
      (** predicate over the CTE table; [any] = stop when some row
          satisfies it, otherwise when all rows do *)

type step =
  | Materialize of { target : string; plan : Logical.t }
      (** evaluate [plan] and store it as temp [target] *)
  | Delta_materialize of {
      loop_id : int;
      target : string;  (** the loop's working table *)
      cte : string;  (** the CTE temp the loop iterates over *)
      key_idx : int;
      full_plan : Logical.t;  (** [Ri] as compiled for full re-evaluation *)
      restricted_plan : Logical.t;
          (** [Ri] with the driver scan semijoined against
              [affected_name], evaluating only keys whose inputs
              changed *)
      affected_plans : Logical.t list;
          (** one single-column plan per non-driver CTE occurrence,
              mapping rows of [delta_name] to the driver keys they can
              reach through the loop body's joins *)
      delta_name : string;  (** temp holding rows changed last iteration *)
      affected_name : string;  (** temp holding the affected key set *)
    }
      (** semi-naive working-table materialization: produce exactly what
          [Materialize target full_plan] would, evaluating [Ri] only for
          affected keys and stitching unaffected keys from the previous
          iteration's working table (full re-evaluation on the first
          iteration, after recovery, or when most keys changed) *)
  | Merge of {
      loop_id : int;
      cte : string;  (** the CTE temp the loop iterates over *)
      work : string;  (** the loop's working table *)
      target : string;  (** temp that receives the merged version *)
      key_idx : int;
    }
      (** the partial update of Algorithm 1, lines 8–10: the CTE with
          every row whose key the working table holds replaced by that
          working-table row; keys only the working table holds are
          dropped *)
  | Rename of { from_ : string; into : string }  (** O(1) pointer swap *)
  | Drop_temp of string
  | Assert_unique_key of { temp : string; key_idx : int }
      (** runtime duplicate-row-key check required by §II *)
  | Init_loop of {
      loop_id : int;
      termination : termination;
      cte : string;  (** temp name of the main CTE table *)
      key_idx : int;  (** row-identifier column, for update counting *)
      guard : int;
          (** hard iteration cap for Data/Delta conditions that never
              converge *)
    }
  | Loop_end of { loop_id : int; body_start : int }
      (** update loop state; jump to [body_start] if another iteration
          is needed *)
  | Snapshot of { loop_id : int }
      (** record the CTE table version at the top of an iteration so
          Loop_end can count updates / compute deltas *)
  | Recursive_cte of {
      name : string;
      work_name : string;
      base : Logical.t;
      step_plan : Logical.t;  (** reads [work_name] as the reference *)
      union_all : bool;
      max_recursion : int;
    }
      (** standard recursive CTE, evaluated semi-naively *)
  | Return of Logical.t

type t = {
  steps : step array;
  result_schema : Schema.t;
}

let make steps ~result_schema = { steps = Array.of_list steps; result_schema }

let steps t = t.steps
let result_schema t = t.result_schema

(** Count of steps of each interesting kind — used by tests asserting
    plan shape (e.g. "the optimized PR program contains exactly one
    Rename and no Merge inside the loop"). *)
let count_steps t ~f = Array.fold_left (fun n s -> if f s then n + 1 else n) 0 t.steps

let has_rename t =
  count_steps t ~f:(function Rename _ -> true | _ -> false) > 0

let termination_to_string = function
  | Max_iterations n -> Printf.sprintf "Metadata(iterations=%d)" n
  | Max_updates n -> Printf.sprintf "Metadata(updates=%d)" n
  | Delta_at_most n -> Printf.sprintf "Delta(<=%d)" n
  | Data { any; pred } ->
    Printf.sprintf "Data(%s %s)"
      (if any then "ANY" else "ALL")
      (Bound_expr.to_string pred)
