(** Step programs: the single executable plan an iterative query
    compiles to, mirroring the paper's Table I. A program is a flat
    step array executed by a program counter; [Loop_end] conditionally
    jumps backwards ("go to step 3 if counter < 10"). *)

module Schema = Dbspinner_storage.Schema

(** Executable form of the termination condition [Tc] (§VI-B). *)
type termination =
  | Max_iterations of int
  | Max_updates of int  (** stop once the cumulative updated-row count reaches N *)
  | Delta_at_most of int  (** stop once an iteration changes at most N rows *)
  | Data of { any : bool; pred : Bound_expr.t }
      (** predicate over the CTE table; [any] = stop when some row
          satisfies it, otherwise when all rows do *)

type step =
  | Materialize of { target : string; plan : Logical.t }
  | Delta_materialize of {
      loop_id : int;
      target : string;
      cte : string;
      key_idx : int;
      full_plan : Logical.t;
      restricted_plan : Logical.t;
          (** [Ri] with the driver scan semijoined against
              [affected_name] *)
      affected_plans : Logical.t list;
          (** single-column plans mapping [delta_name] rows to reachable
              driver keys, one per non-driver CTE occurrence *)
      delta_name : string;
      affected_name : string;
    }
      (** semi-naive working-table materialization: bag-identical to
          [Materialize target full_plan], but evaluates [Ri] only for
          keys whose inputs changed since the previous iteration *)
  | Merge of {
      loop_id : int;
      cte : string;
      work : string;
      target : string;
      key_idx : int;
    }
      (** the partial update (Algorithm 1, lines 8–10): bind [target]
          to [cte] with each row whose key [work] holds replaced by
          that [work] row, in [cte] order; [work]-only keys are
          dropped and a NULL [work] key matches nothing. A [cte] that
          is not keyed, or two [work] rows with one key, raise the §II
          error. *)
  | Rename of { from_ : string; into : string }  (** O(1) pointer swap *)
  | Drop_temp of string
  | Assert_unique_key of { temp : string; key_idx : int }
      (** the §II runtime check that no key of [temp] is NULL or
          repeated; compiled loops run it on R0 and on every working
          table *)
  | Init_loop of {
      loop_id : int;
      termination : termination;
      cte : string;
      key_idx : int;
      guard : int;  (** hard cap for non-converging Data/Delta loops *)
    }
  | Loop_end of { loop_id : int; body_start : int }
  | Snapshot of { loop_id : int }
      (** record the CTE version at the top of an iteration for update
          counting / deltas *)
  | Recursive_cte of {
      name : string;
      work_name : string;
      base : Logical.t;
      step_plan : Logical.t;
      union_all : bool;
      max_recursion : int;
    }
  | Return of Logical.t

type t

val make : step list -> result_schema:Schema.t -> t
val steps : t -> step array
val result_schema : t -> Schema.t

(** Count steps matching a predicate — used by plan-shape tests. *)
val count_steps : t -> f:(step -> bool) -> int

val has_rename : t -> bool
val termination_to_string : termination -> string
