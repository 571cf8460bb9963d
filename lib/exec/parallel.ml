(** A fixed-size pool of worker {!Domain}s with a helping barrier —
    the multicore substrate for partition-parallel distributed
    execution and chunk-parallel single-node operators.

    Design constraints, in order:

    - {b Determinism.} Results must be bit-identical to sequential
      execution. Work is split into contiguous index ranges, each task
      produces its output into its own slot, and slots are merged in
      index order after the barrier. Counters are accumulated into
      per-task private {!Stats.t} instances and folded into the
      caller's stats in index order once every task has finished.
    - {b Fault propagation.} An exception raised inside a worker
      domain (including {!Dbspinner_exec} execution errors and the MPP
      layer's transient faults) is caught in the domain, the barrier
      still completes, and the {e lowest-index} exception is re-raised
      on the submitting domain — so checkpoint/retry machinery above
      observes the same exception it would have seen sequentially.
    - {b No deadlock under nesting.} The submitting domain does not
      block idly at the barrier: it executes its own first task inline
      and then {e helps} drain the shared queue, so a task that itself
      submits a batch always makes progress even when every worker is
      busy. *)

type t = {
  size : int;  (** total parallelism, including the submitting domain *)
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work : Condition.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

(** The inline pool: size 1, every batch runs on the caller. *)
let sequential =
  {
    size = 1;
    queue = Queue.create ();
    lock = Mutex.create ();
    work = Condition.create ();
    live = false;
    workers = [];
  }

let size t = t.size

let worker_loop pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && pool.live do
      Condition.wait pool.work pool.lock
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.lock
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.lock;
      (* Tasks trap their own exceptions into result slots; nothing a
         task raises may kill the worker. *)
      (try task () with _ -> ());
      loop ()
    end
  in
  loop ()

(** Stop the workers and join them. Idempotent; pending tasks are
    drained first. A shut-down pool still works — batches simply run
    inline on the caller. *)
let shutdown pool =
  if pool.live then begin
    Mutex.lock pool.lock;
    pool.live <- false;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let create size =
  if size <= 1 then sequential
  else begin
    let pool =
      {
        size;
        queue = Queue.create ();
        lock = Mutex.create ();
        work = Condition.create ();
        live = true;
        workers = [];
      }
    in
    (* Spawn one at a time: the runtime caps live domains, and when it
       refuses one the workers already started must be stopped, not
       leaked. *)
    (try
       for _ = 2 to size do
         pool.workers <- Domain.spawn (worker_loop pool) :: pool.workers
       done
     with e ->
       shutdown pool;
       raise e);
    (* Idle workers block on the condition variable; release them when
       the process exits so domains never outlive the main one. *)
    at_exit (fun () -> shutdown pool);
    pool
  end

(* Pools are cheap (size-1 blocked domains) and callers ask for small
   fixed sizes (1, 2, 4, ...), so memoize by size instead of making
   every caller manage lifetimes. *)
let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_lock = Mutex.create ()

let max_workers = 64

let get size =
  if size <= 1 then sequential
  else
    (* [create] may raise (domain allocation); the lock must not stay
       held, or every later [get] would block forever. *)
    Mutex.protect pools_lock (fun () ->
        match Hashtbl.find_opt pools size with
        | Some pool -> pool
        | None ->
          let pool = create size in
          Hashtbl.replace pools size pool;
          pool)

let default_pool =
  lazy (get (min 8 (Domain.recommended_domain_count ())))

let default () = Lazy.force default_pool

(* ------------------------------------------------------------------ *)
(* Barrier execution                                                   *)

(** Run every task and return once all have finished. Task 0 runs on
    the submitting domain; the rest are queued for workers, and the
    submitter helps drain the queue while waiting. If tasks raised,
    the lowest-index exception is re-raised after the barrier. *)
let run pool (fns : (unit -> unit) array) : unit =
  let n = Array.length fns in
  if n = 0 then ()
  else if pool.size <= 1 || n = 1 || not pool.live then
    Array.iter (fun f -> f ()) fns
  else begin
    let errors : exn option array = Array.make n None in
    let remaining = Atomic.make n in
    let task i () =
      (try fns.(i) () with e -> errors.(i) <- Some e);
      (* fetch_and_add is an RMW: the decrement chain gives the
         submitting domain a happens-before edge over every task's
         writes once it reads 0. *)
      ignore (Atomic.fetch_and_add remaining (-1))
    in
    Mutex.lock pool.lock;
    for i = 1 to n - 1 do
      Queue.push (task i) pool.queue
    done;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    task 0 ();
    while Atomic.get remaining > 0 do
      let next =
        Mutex.lock pool.lock;
        let t =
          if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue)
        in
        Mutex.unlock pool.lock;
        t
      in
      match next with
      | Some t -> t ()
      | None -> Domain.cpu_relax ()
    done;
    Array.iter (function Some e -> raise e | None -> ()) errors
  end

(** Run [n] indexed tasks, each against a {e private} [Stats.t];
    results come back in index order and the private stats are merged
    into [stats] in index order after the barrier, so counter totals
    are independent of scheduling. *)
let run_indexed pool ~(stats : Stats.t) n (f : Stats.t -> int -> 'a) : 'a array =
  if n = 0 then [||]
  else if pool.size <= 1 || n = 1 || not pool.live then
    Array.init n (fun i -> f stats i)
  else begin
    let locals = Array.init n (fun _ -> Stats.create ()) in
    let out = Array.make n None in
    run pool (Array.init n (fun i () -> out.(i) <- Some (f locals.(i) i)));
    Array.iter (fun local -> Stats.add ~into:stats local) locals;
    Array.map
      (function Some r -> r | None -> assert false (* run re-raised *))
      out
  end

(* ------------------------------------------------------------------ *)
(* Fire-and-wait single-task submission (server worker offload)        *)

(** Run one closure on a worker domain and block the calling thread
    until it finishes, returning its result (or re-raising its
    exception). Unlike {!run}, the caller does {e not} help drain the
    queue — this is meant for OS threads (server sessions) parking
    while a Domain does the CPU work, so a systhread blocked here
    releases the runtime lock instead of spinning. Inline when the
    pool is sequential or shut down. A submitted task must not itself
    call [submit] on the same pool (nested batches inside the task go
    through {!run}, which helps, so they stay deadlock-free). *)
let submit pool (f : unit -> 'a) : 'a =
  if pool.size <= 1 || not pool.live then f ()
  else begin
    let slot : ('a, exn) result option ref = ref None in
    let slot_lock = Mutex.create () in
    let done_cond = Condition.create () in
    let task () =
      let result = try Ok (f ()) with e -> Error e in
      Mutex.lock slot_lock;
      slot := Some result;
      Condition.signal done_cond;
      Mutex.unlock slot_lock
    in
    Mutex.lock pool.lock;
    Queue.push task pool.queue;
    Condition.signal pool.work;
    Mutex.unlock pool.lock;
    Mutex.lock slot_lock;
    (* Option.is_none, not [= None]: ['a] may contain closures, which
       structural equality would raise on. *)
    while Option.is_none !slot do
      Condition.wait done_cond slot_lock
    done;
    Mutex.unlock slot_lock;
    match !slot with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false
  end

(* ------------------------------------------------------------------ *)
(* Chunk-parallel execution context (single-node operators)            *)

(** How a single-node operator may split its input: a pool plus the
    minimum relation size worth chunking. *)
type ctx = {
  pool : t;
  chunk_rows : int;
}

let default_chunk_rows = 4096

(** [context ~workers ()] is [None] when [workers <= 1] (operators stay
    on their sequential path). *)
let context ?(chunk_rows = default_chunk_rows) ~workers () : ctx option =
  if workers <= 1 then None else Some { pool = get workers; chunk_rows = max 1 chunk_rows }

(** Split [0, n) into contiguous chunks and run [f stats lo len] on
    each, returning per-chunk results in chunk order. Sequential (one
    chunk on the caller's stats) when [ctx] is [None] or [n] is below
    the chunk threshold — so the parallel path degenerates to exactly
    the sequential one. *)
let chunked (ctx : ctx option) ~(stats : Stats.t) ~n
    (f : Stats.t -> int -> int -> 'a) : 'a array =
  match ctx with
  | Some { pool; chunk_rows }
    when n >= chunk_rows && pool.size > 1 && pool.live ->
    let k = min pool.size n in
    run_indexed pool ~stats k (fun st i ->
        let lo = i * n / k and hi = (i + 1) * n / k in
        f st lo (hi - lo))
  | _ -> [| f stats 0 n |]
