(** Optimizer switches — one per paper optimization so benchmarks can
    measure each independently (Figures 8–10) — and operator controls.
    Constant folding, outer-to-inner demotion, semi-naive evaluation
    and cost arbitration are not switches: they always run. *)

type t = {
  use_rename : bool;
      (** §IV / §VII-B: swap the working table in with the O(1) rename
          instead of copying back and diffing *)
  use_common_result : bool;
      (** §V-A: materialize loop-invariant joins once, before the loop
          (includes the inner-join reordering future work) *)
  use_pushdown : bool;
      (** §V-B: push final-part predicates over update-invariant
          columns into the non-iterative part, plus generic plan-level
          filter push down *)
  max_recursion : int;  (** safety bound for recursive CTEs *)
  max_iterations_guard : int;
      (** hard cap for Data/Delta terminations that never converge *)
  deadline_seconds : float option;
      (** wall-clock budget per statement; crossing it raises a
          Resource-stage error at the next materialize or loop boundary *)
  statement_timeout_seconds : float option;
      (** per-script statement timeout, reported distinctly from the
          deadline ("statement timeout"); the server uses it to keep a
          wedged query from stalling its checkpointer or drain *)
  row_budget : int option;
      (** cap on total rows materialized per statement *)
  parallel_workers : int;
      (** Domain-pool size for chunk-parallel single-node operators;
          1 = sequential execution (results are identical either way) *)
  parallel_chunk_rows : int;
      (** minimum relation cardinality before an operator splits its
          input across the pool *)
  use_exec_cache : bool;
      (** iteration-aware executor cache (loop-invariant join-build
          reuse + compiled expressions); an executor concern, not a
          paper rewrite, so [unoptimized] keeps it on *)
  use_columnar : bool;
      (** vectorized columnar execution for filter/project/join/
          aggregate; bit-identical results and logical stats vs the
          row engine. An executor concern, so [unoptimized] keeps it
          on *)
}

(** Everything on. *)
val default : t

(** The paper's three rewrites (rename, common-result, pushdown) off —
    the experimental baseline of Figs 8–10. Executor controls keep
    their defaults. *)
val unoptimized : t

(** The on/off switches settable by name, shared by the server's
    [SET key on|off] and the REPL's [\set key on|off]. *)
val bool_option_keys : string list

(** [set_bool_option t key enabled] flips the switch named [key];
    [None] when [key] is not in {!bool_option_keys}. *)
val set_bool_option : t -> string -> bool -> t option

(** [on|true|1] is [Some true], [off|false|0] is [Some false]. *)
val parse_bool : string -> bool option

(** Parse [SET key value] for the keys the server and the REPL share
    ({!bool_option_keys}, [deadline], [budget], [workers]): the new
    options and reply, or the usage error; [None] for other keys. *)
val set_shared_key : t -> string -> string -> (t * string, string) result option

val to_string : t -> string
