(** A fixed-size pool of worker {!Domain}s with a helping barrier.

    Determinism contract: work is split into contiguous index ranges,
    results are merged in index order after the barrier, and counters
    go to per-task private {!Stats.t} instances folded into the
    caller's stats in index order — so parallel execution is
    bit-identical to sequential execution, including stats totals.

    Fault propagation contract: an exception raised inside a worker
    domain is caught there, the barrier still completes, and the
    lowest-index exception is re-raised on the submitting domain —
    checkpoint/retry machinery above the pool observes the same
    exception it would have seen sequentially.

    The submitting domain executes task 0 inline and then helps drain
    the shared queue, so nested batches cannot deadlock. *)

type t

(** The inline pool: size 1, batches run entirely on the caller. *)
val sequential : t

(** Total parallelism of the pool, including the submitting domain. *)
val size : t -> int

(** [create n] spawns [n - 1] worker domains ([sequential] when
    [n <= 1]). Workers are released automatically at process exit.
    When the runtime refuses a domain, the workers already spawned are
    stopped and the exception is re-raised. *)
val create : int -> t

(** Largest pool size a client may request ([SET workers], [\set
    workers]). The runtime caps live domains at 128 and pools are
    memoized per size, so an unbounded request could exhaust them. *)
val max_workers : int

(** Memoized pools by size — [get n] returns the same pool for the
    same [n]. A failed [create] leaves the memo table usable. *)
val get : int -> t

(** The shared default pool, sized
    [min 8 (Domain.recommended_domain_count ())], created lazily. *)
val default : unit -> t

(** Stop and join the workers. Idempotent; a shut-down pool still
    works, running batches inline. *)
val shutdown : t -> unit

(** Barrier: run every task, task 0 on the caller; re-raises the
    lowest-index exception after all tasks finished. *)
val run : t -> (unit -> unit) array -> unit

(** [run_indexed pool ~stats n f] runs [f private_stats i] for each
    [i < n], returns results in index order, and merges the private
    stats into [stats] in index order after the barrier. *)
val run_indexed : t -> stats:Stats.t -> int -> (Stats.t -> int -> 'a) -> 'a array

(** [submit pool f] runs [f] on a worker domain and blocks the calling
    thread until it completes, returning the result or re-raising the
    task's exception. Designed for OS threads (server sessions)
    offloading CPU work to the Domain pool: the caller parks on a
    condition variable rather than helping. Runs inline when the pool
    is sequential or shut down. A task must not call [submit] on its
    own pool (use {!run}, which helps, for nesting). *)
val submit : t -> (unit -> 'a) -> 'a

(** How a single-node operator may split its input: a pool plus the
    minimum relation cardinality worth chunking. *)
type ctx = {
  pool : t;
  chunk_rows : int;
}

val default_chunk_rows : int

(** [context ~workers ()] is [None] when [workers <= 1]. *)
val context : ?chunk_rows:int -> workers:int -> unit -> ctx option

(** [chunked ctx ~stats ~n f] splits [0, n) into contiguous chunks and
    runs [f chunk_stats lo len] on each, returning per-chunk results
    in chunk order; sequential single-chunk execution when [ctx] is
    [None] or [n] is below the chunk threshold. *)
val chunked :
  ctx option -> stats:Stats.t -> n:int -> (Stats.t -> int -> int -> 'a) -> 'a array
