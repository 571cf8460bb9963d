(** Cross-session prepared-statement / plan cache.

    Compiled programs (parsed + bound + rewritten, including
    pre-evaluated scalar subqueries) are memoized under
    [(normalized SQL text, catalog snapshot version, options
    fingerprint)]. The snapshot version is in the key, so a cached
    plan can never be reused across a committed base-table change —
    stale reuse is impossible by construction, mirroring the executor
    cache's generation-number discipline. Entries for superseded
    versions are swept on every publish, keeping the cache bounded by
    the live statement working set.

    Programs are immutable plan values, so one cached program is
    safely shared by any number of concurrently executing sessions. *)

module Program = Dbspinner_plan.Program
module Options = Dbspinner_rewrite.Options

type key = {
  sql : string;  (** normalized statement text (pretty-printed AST) *)
  version : int;  (** catalog snapshot version the plan was built against *)
  opts : string;  (** fingerprint of the compile-relevant options *)
}

type t = {
  lock : Mutex.t;
  entries : (key, Program.t) Hashtbl.t;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 512) () =
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    capacity = max 1 capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(** Fingerprint of the options that affect compilation (rewrites and
    loop bounds). Runtime-only knobs — deadlines, budgets, parallelism,
    executor/columnar toggles — deliberately excluded: they change how
    a program runs, not what program is built, so sessions differing
    only in them share plans. *)
let fingerprint (o : Options.t) =
  Printf.sprintf "%b%b%b:%d:%d" o.Options.use_rename
    o.Options.use_common_result o.Options.use_pushdown o.Options.max_recursion
    o.Options.max_iterations_guard

(** Drop every entry built against a version older than [version].
    Readers still pinned to an older snapshot simply recompile on
    their next statement — a perf ripple, never a correctness one. *)
let sweep_locked t ~version =
  let stale =
    Hashtbl.fold
      (fun k _ acc -> if k.version < version then k :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) stale;
  t.evictions <- t.evictions + List.length stale

let sweep t ~version = locked t (fun () -> sweep_locked t ~version)

(** Look up the plan for [(sql, version, opts)], compiling (outside
    the cache lock — compilation may itself execute scalar subqueries)
    and inserting on a miss. Two sessions racing on the same cold key
    both compile; last insert wins, which is harmless because both
    compiled against the same immutable snapshot version. *)
let find_or_compile t ~sql ~version ~opts compile =
  let key = { sql; version; opts } in
  match
    locked t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some program ->
          t.hits <- t.hits + 1;
          Some program
        | None ->
          t.misses <- t.misses + 1;
          None)
  with
  | Some program -> program
  | None ->
    let program = compile () in
    locked t (fun () ->
        if Hashtbl.length t.entries >= t.capacity then begin
          (* Full: stale versions go first; if the working set itself
             exceeds capacity, drop everything rather than thrash. *)
          sweep_locked t ~version;
          if Hashtbl.length t.entries >= t.capacity then begin
            t.evictions <- t.evictions + Hashtbl.length t.entries;
            Hashtbl.reset t.entries
          end
        end;
        Hashtbl.replace t.entries key program);
    program

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let size t = locked t (fun () -> Hashtbl.length t.entries)
