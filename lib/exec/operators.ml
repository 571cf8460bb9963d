(** Physical relational operators. Each consumes and produces
    materialized {!Relation.t} values; joins are hash joins whenever an
    equi-conjunct can be extracted from the condition, with a
    nested-loop fallback.

    [filter], [project] and the hash-join probe accept an optional
    {!Parallel.ctx} and split large inputs into contiguous chunks
    executed across the Domain pool. Chunk outputs are concatenated in
    chunk order and per-chunk counters are merged in chunk order, so
    the parallel path is bit-identical to the sequential one. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Colbatch = Dbspinner_storage.Colbatch
module Keyhash = Dbspinner_storage.Keyhash
module Ast = Dbspinner_sql.Ast
module Bound_expr = Dbspinner_plan.Bound_expr
module Logical = Dbspinner_plan.Logical

module Row_tbl = Row.Tbl

(* With a cache the expression is closure-compiled once per program run
   and fetched here (a hit after the first call); without one it falls
   back to the tree-walking interpreter, so the legacy path executes
   exactly the code it always did. Either way the resolution happens
   once per operator call, outside the per-row loop. *)
let compiled_val ?cache ~stats (e : Bound_expr.t) : Row.t -> Value.t =
  match cache with
  | Some c -> Cache.compiled c ~stats e
  | None -> fun row -> Eval.eval row e

let compiled_pred ?cache ~stats (e : Bound_expr.t) : Row.t -> bool =
  match cache with
  | Some c -> Cache.compiled_pred c ~stats e
  | None -> fun row -> Eval.eval_pred row e

(* Columnar twin of [compiled_val]: a memoized (or fresh)
   {!Vec_eval.compile} kernel. *)
let compiled_kernel ?cache ~stats (e : Bound_expr.t) : Vec_eval.kernel =
  match cache with
  | Some c -> Cache.compiled_kernel c ~stats e
  | None -> Vec_eval.compile e

let filter ?parallel ?cache ?guards ?(columnar = false) ~(stats : Stats.t)
    pred (rel : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_filter @@ fun () ->
  if columnar then begin
    (* Batch path: evaluate the predicate kernel over each chunk, turn
       the truthy rows into a selection vector, and gather — rows kept
       and chunk order are exactly the row loop's, so the result is
       bit-identical. *)
    let kern = compiled_kernel ?cache ~stats pred in
    let batch = Relation.columnar rel in
    let n = Colbatch.length batch in
    let chunk (st : Stats.t) lo len =
      st.Stats.rows_filtered <- st.Stats.rows_filtered + len;
      let probe = Guards.probe () in
      Guards.tick_n guards probe ~stats:st len;
      let sub = Colbatch.slice batch lo len in
      Colbatch.gather sub (Vec_eval.truthy_sel (kern sub) len)
    in
    let chunks = Parallel.chunked parallel ~stats ~n chunk in
    Relation.of_batch (Relation.schema rel) (Colbatch.concat chunks)
  end
  else begin
    let pred = compiled_pred ?cache ~stats pred in
    let rows = Relation.rows rel in
    let n = Array.length rows in
    let chunk (st : Stats.t) lo len =
      st.Stats.rows_filtered <- st.Stats.rows_filtered + len;
      let probe = Guards.probe () in
      let kept = ref [] in
      for j = lo + len - 1 downto lo do
        Guards.tick guards probe ~stats:st;
        let r = rows.(j) in
        if pred r then kept := r :: !kept
      done;
      Array.of_list !kept
    in
    let chunks = Parallel.chunked parallel ~stats ~n chunk in
    Relation.make_trusted (Relation.schema rel)
      (Array.concat (Array.to_list chunks))
  end

let project ?parallel ?cache ?guards ?(columnar = false) ~(stats : Stats.t)
    exprs (rel : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_project @@ fun () ->
  let schema = Schema.of_names (List.map snd exprs) in
  if columnar then begin
    let kerns =
      Array.of_list
        (List.map (fun (e, _) -> compiled_kernel ?cache ~stats e) exprs)
    in
    let batch = Relation.columnar rel in
    let n = Colbatch.length batch in
    let chunk (st : Stats.t) lo len =
      st.Stats.rows_projected <- st.Stats.rows_projected + len;
      let probe = Guards.probe () in
      Guards.tick_n guards probe ~stats:st len;
      let sub = Colbatch.slice batch lo len in
      Colbatch.make ~len (Array.map (fun k -> k sub) kerns)
    in
    let chunks = Parallel.chunked parallel ~stats ~n chunk in
    Relation.of_batch schema (Colbatch.concat chunks)
  end
  else begin
    let exprs =
      Array.of_list
        (List.map (fun (e, _) -> compiled_val ?cache ~stats e) exprs)
    in
    let rows = Relation.rows rel in
    let n = Array.length rows in
    (* Chunks write disjoint index ranges of one pre-sized output array,
       so the merged result is position-identical to the sequential map. *)
    let out = Array.make n [||] in
    let chunk (st : Stats.t) lo len =
      st.Stats.rows_projected <- st.Stats.rows_projected + len;
      let probe = Guards.probe () in
      for j = lo to lo + len - 1 do
        Guards.tick guards probe ~stats:st;
        let r = rows.(j) in
        out.(j) <- Array.map (fun f -> f r) exprs
      done
    in
    ignore (Parallel.chunked parallel ~stats ~n chunk);
    Relation.make_trusted schema out
  end

(* A selection vector of the indices [keep] accepts, ascending. *)
let select n keep =
  let sel = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      sel.(!k) <- i;
      incr k
    end
  done;
  Array.sub sel 0 !k

(** DISTINCT: the first row of every group of equal rows, in
    first-appearance order. *)
let distinct ~stats (rel : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_distinct @@ fun () ->
  let batch = Relation.columnar rel in
  let t = Keyhash.build (Colbatch.cols batch) (Colbatch.length batch) in
  if Keyhash.groups t = Colbatch.length batch then rel
  else
    Relation.of_batch (Relation.schema rel)
      (Colbatch.gather batch (Keyhash.reps t))

let sort ?cache ~stats keys (rel : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_sort @@ fun () ->
  let keys =
    Array.of_list
      (List.map (fun (e, desc) -> (compiled_val ?cache ~stats e, desc)) keys)
  in
  let compare_rows a b =
    let rec go i =
      if i >= Array.length keys then 0
      else
        let f, descending = keys.(i) in
        let c = Value.compare (f a) (f b) in
        let c = if descending then -c else c in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let rows = Array.copy (Relation.rows rel) in
  Array.stable_sort compare_rows rows;
  Relation.make_trusted (Relation.schema rel) rows

let limit ~stats n (rel : Relation.t) : Relation.t =
  ignore stats;
  let n = min n (Relation.cardinality rel) in
  Relation.make_trusted (Relation.schema rel) (Array.sub (Relation.rows rel) 0 n)

let offset ~stats n (rel : Relation.t) : Relation.t =
  ignore stats;
  let n = min n (Relation.cardinality rel) in
  Relation.make_trusted (Relation.schema rel)
    (Array.sub (Relation.rows rel) n (Relation.cardinality rel - n))

let union_all ~stats (a : Relation.t) (b : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_setop @@ fun () ->
  Relation.of_batch (Relation.schema a)
    (Colbatch.concat [| Relation.columnar a; Relation.columnar b |])

(* Each distinct right row's multiplicity, and a lookup from a left
   row to its right group ([-1] when the right lacks it). *)
let right_counts (a : Colbatch.t) (b : Colbatch.t) =
  let t = Keyhash.build (Colbatch.cols b) (Colbatch.length b) in
  let counts = Array.make (Keyhash.groups t) 0 in
  Array.iter (fun g -> counts.(g) <- counts.(g) + 1) (Keyhash.ids t);
  (counts, Keyhash.prober t (Colbatch.cols a))

(** INTERSECT [ALL]: bag semantics take the minimum multiplicity; set
    semantics emit each common row once. Rows come in left order. *)
let intersect ~stats ~all (a : Relation.t) (b : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_setop @@ fun () ->
  let ab = Relation.columnar a in
  let counts, find = right_counts ab (Relation.columnar b) in
  let keep r =
    let g = find r in
    if g >= 0 && counts.(g) > 0 then begin
      counts.(g) <- (if all then counts.(g) - 1 else 0);
      true
    end
    else false
  in
  Relation.of_batch (Relation.schema a)
    (Colbatch.gather ab (select (Colbatch.length ab) keep))

(** EXCEPT [ALL]: bag semantics subtract multiplicities; set semantics
    emit each left-only row once. Rows come in left order. *)
let except ~stats ~all (a : Relation.t) (b : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_setop @@ fun () ->
  let ab = Relation.columnar a in
  let counts, find = right_counts ab (Relation.columnar b) in
  let sel =
    if all then
      select (Colbatch.length ab) (fun r ->
          let g = find r in
          if g >= 0 && counts.(g) > 0 then begin
            counts.(g) <- counts.(g) - 1;
            false
          end
          else true)
    else
      (* The left's distinct rows, first appearances, minus the right's. *)
      let left = Keyhash.build (Colbatch.cols ab) (Colbatch.length ab) in
      let reps = Keyhash.reps left in
      Array.of_seq (Seq.filter (fun r -> find r < 0) (Array.to_seq reps))
  in
  Relation.of_batch (Relation.schema a) (Colbatch.gather ab sel)

(** Digest a subquery result for IN / EXISTS filtering. The membership
    set is only built when [need_members] (an IN probe exists); EXISTS
    only needs emptiness, and reading column 0 of a multi-column EXISTS
    subquery would be wrong. Cacheable: depends only on [sub]. *)
let make_sub_set ~stats ~need_members (sub : Relation.t) : Cache.sub_set =
  Stats.timed stats Stats.Op_setop @@ fun () ->
  let members, has_null =
    if need_members then begin
      let batch = Relation.columnar sub in
      let n = Colbatch.length batch in
      let c = Colbatch.col batch 0 in
      let has_null = ref false in
      for i = 0 to n - 1 do
        if Colbatch.is_null_at c i then has_null := true
      done;
      (Keyhash.build [| c |] n, !has_null)
    end
    else (Keyhash.build [| Colbatch.of_values_raw [||] |] 0, false)
  in
  {
    Cache.ss_empty = Relation.is_empty sub;
    ss_has_null = has_null;
    ss_members = members;
  }

(** Uncorrelated IN / EXISTS subquery predicates as semi / anti joins
    over a prepared {!make_sub_set} digest.
    [key = Some e]: keep input rows per SQL IN / NOT IN semantics,
    including the null-aware NOT IN rules (a NULL probe or a NULL in a
    non-empty subquery makes the predicate unknown, which rejects);
    [key = None]: EXISTS — keep all rows iff the subquery is non-empty
    (inverted for [anti]). The probe expression is evaluated over the
    whole input, as a column kernel, even where the answer is already
    known, so it raises where the row-at-a-time predicate would. *)
let subquery_filter_with_set ?cache ~stats ~anti ~(key : Bound_expr.t option)
    (input : Relation.t) (set : Cache.sub_set) : Relation.t =
  Stats.timed stats Stats.Op_setop @@ fun () ->
  match key with
  | None ->
    let nonempty = not set.Cache.ss_empty in
    if nonempty <> anti then input
    else Relation.empty (Relation.schema input)
  | Some probe ->
    let batch = Relation.columnar input in
    let n = Colbatch.length batch in
    let c = compiled_kernel ?cache ~stats probe batch in
    let find = Keyhash.prober set.Cache.ss_members [| c |] in
    let keep =
      if not anti then fun i -> (not (Colbatch.is_null_at c i)) && find i >= 0
      else if set.Cache.ss_empty then fun _ -> true (* NOT IN (empty) *)
      else if set.Cache.ss_has_null then fun _ -> false
      else fun i -> (not (Colbatch.is_null_at c i)) && find i < 0
    in
    Relation.of_batch (Relation.schema input)
      (Colbatch.gather batch (select n keep))

let subquery_filter ?cache ~stats ~anti ~(key : Bound_expr.t option)
    (input : Relation.t) (sub : Relation.t) : Relation.t =
  let set = make_sub_set ~stats ~need_members:(key <> None) sub in
  subquery_filter_with_set ?cache ~stats ~anti ~key input set

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)

(** Split a join condition (over the concatenated row) into hashable
    equi-key pairs and a residual predicate. A conjunct [a = b]
    qualifies when [a] reads only left columns and [b] only right
    columns (or vice versa). *)
let split_equi_condition ~left_arity cond =
  let conjuncts =
    let rec split acc = function
      | Bound_expr.B_binop (Ast.And, a, b) -> split (split acc a) b
      | e -> e :: acc
    in
    List.rev (split [] cond)
  in
  let side e =
    let cols = Bound_expr.columns_of e in
    if cols = [] then `Either
    else if List.for_all (fun i -> i < left_arity) cols then `Left
    else if List.for_all (fun i -> i >= left_arity) cols then `Right
    else `Both
  in
  let keys = ref [] in
  let residual = ref [] in
  List.iter
    (fun conj ->
      match conj with
      | Bound_expr.B_binop (Ast.Eq, a, b) -> (
        match side a, side b with
        | `Left, `Right -> keys := (a, Bound_expr.shift (-left_arity) b) :: !keys
        | `Right, `Left -> keys := (b, Bound_expr.shift (-left_arity) a) :: !keys
        | _ -> residual := conj :: !residual)
      | _ -> residual := conj :: !residual)
    conjuncts;
  (List.rev !keys, List.rev !residual)

let null_row n : Row.t = Array.make n Value.Null

let key_has_null (k : Row.t) = Array.exists Value.is_null k

(** Build the hash table for [hash_join_probe] over the right side.
    Split out of the join so the executor can memoize it: when the
    build side is loop-invariant, the table survives across iterations
    of the loop (see {!Cache}). The result carries no per-probe state —
    outer-join matched-row tracking is allocated by each probe call. *)
let make_join_build ?cache ?guards ~(stats : Stats.t) keys
    (right : Relation.t) : Cache.join_build =
  Stats.timed stats Stats.Op_join @@ fun () ->
  let right_keys =
    Array.of_list (List.map (fun e -> compiled_val ?cache ~stats e) keys)
  in
  let n = Relation.cardinality right in
  let gprobe = Guards.probe () in
  Guards.tick_n guards gprobe ~stats n;
  (* The boxed table is deferred behind an atomic memo: the columnar
     probe answers single-Int-key joins from the unboxed mirror alone,
     so the per-row boxing below is only paid when a boxed lookup is
     actually needed. The builder is pure (guard ticks were applied
     above), so a racy double force from worker domains is benign. *)
  let memo = Atomic.make None in
  let jb_table () =
    match Atomic.get memo with
    | Some t -> t
    | None ->
      let table = Row_tbl.create (max 16 n) in
      Array.iteri
        (fun idx row ->
          let k = Array.map (fun f -> f row) right_keys in
          if not (key_has_null k) then
            Row_tbl.replace table k
              ((idx, row) :: (try Row_tbl.find table k with Not_found -> [])))
        (Relation.rows right);
      Atomic.set memo (Some table);
      table
  in
  { Cache.jb_rel = right; jb_table; jb_int = None }

(** The flat mirror of a build table, for single-Int-key builds.
    Eligibility requires every build key to be [[| Value.Int _ |]]:
    {!Value.equal} admits cross-type Int/Float equality and structural
    NULL matching, but against an all-Int build side an int-indexed
    lookup returns exactly the buckets the boxed lookup would (a NULL
    or Float probe key can only match nothing — build keys are
    null-free by construction). Memoized on the build record so a
    cached (loop-invariant) build pays the scan once; must be forced
    on the coordinator before any parallel probe fan-out. *)
let mirror_capacity count =
  let rec up c = if c >= 2 * count + 1 then c else up (2 * c) in
  up 16

(* Linear probe from slot [s]; a slot owning no rows is free. *)
let rec hashed_slot (start : int array) keys mask k s =
  if start.(s + 1) = start.(s) then -1
  else if keys.(s) = k then s
  else hashed_slot start keys mask k ((s + 1) land mask)

(** Slot of key [k] in the mirror, or [-1] when no build row has it. *)
let mirror_slot (im : Cache.int_mirror) k =
  let start = im.Cache.im_start in
  match im.Cache.im_layout with
  | Cache.Direct { lo; hi } ->
    if k < lo || k > hi then -1
    else
      let s = k - lo in
      if start.(s + 1) = start.(s) then -1 else s
  | Cache.Hashed { mask; keys } ->
    hashed_slot start keys mask k (Keyhash.mix_int k land mask)

(* Mirror construction from an unboxed key column; masked (NULL) slots
   are skipped exactly as the boxed build skips NULL keys. The layout
   depends only on the keys: direct addressing when they span a narrow
   range, so the slot table stays within [2 * count + 17] words,
   hashing otherwise. Rows are counted per slot, the counts are turned
   into end offsets, and ascending-index rows are written back to front
   — leaving each slot in descending build index (the boxed table's
   most-recent-first bucket order) and [im_start] at each slot's
   first row. *)
let int_mirror_of_column (ka : int array) (nulls : bool array option) =
  let n = Array.length ka in
  let live idx = match nulls with Some m -> not m.(idx) | None -> true in
  let layout =
    match Keyhash.int_layout ka nulls n with
    | Keyhash.Dense { lo; hi } -> Cache.Direct { lo; hi }
    | Keyhash.Sparse { count } ->
      let cap = mirror_capacity count in
      Cache.Hashed { mask = cap - 1; keys = Array.make cap 0 }
  in
  let slots =
    match layout with
    | Cache.Direct { lo; hi } -> hi - lo + 1
    | Cache.Hashed { mask; _ } -> mask + 1
  in
  (* Per-slot row counts first; a hashed slot with no rows yet is free. *)
  let start = Array.make (slots + 1) 0 in
  let slot = Array.make n (-1) in
  for idx = 0 to n - 1 do
    if live idx then begin
      let k = ka.(idx) in
      let s =
        match layout with
        | Cache.Direct { lo; _ } -> k - lo
        | Cache.Hashed { mask; keys } ->
          let s = ref (Keyhash.mix_int k land mask) in
          while start.(!s) > 0 && keys.(!s) <> k do
            s := (!s + 1) land mask
          done;
          keys.(!s) <- k;
          !s
      in
      slot.(idx) <- s;
      start.(s) <- start.(s) + 1
    end
  done;
  for s = 1 to slots - 1 do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let count = if slots = 0 then 0 else start.(slots - 1) in
  start.(slots) <- count;
  let rows = Array.make count 0 in
  for idx = 0 to n - 1 do
    let s = slot.(idx) in
    if s >= 0 then begin
      start.(s) <- start.(s) - 1;
      rows.(start.(s)) <- idx
    end
  done;
  { Cache.im_layout = layout; im_start = start; im_rows = rows }

(* [build_key], when given, is the single build key column already
   evaluated over the build relation. *)
let int_mirror ?cache ?build_key ~(stats : Stats.t) keys
    (build : Cache.join_build) =
  match build.Cache.jb_int with
  | Some m -> m
  | None ->
    let direct =
      match keys with
      | [ (_, rexpr) ] -> (
        let c =
          match build_key with
          | Some c -> c
          | None ->
            compiled_kernel ?cache ~stats rexpr
              (Relation.columnar build.Cache.jb_rel)
        in
        match c.Colbatch.data with
        | Colbatch.D_int ka ->
          Some (Some (int_mirror_of_column ka c.Colbatch.nulls))
        | _ -> None (* undecided: scan the boxed table below *))
      | _ -> None
    in
    let m =
      match direct with
      | Some m -> m
      | None ->
        (* Unpack an all-Int boxed table into a masked key column; rows
           the table lacks are exactly the NULL-key rows. *)
        let table = build.Cache.jb_table () in
        let n = Relation.cardinality build.Cache.jb_rel in
        let ka = Array.make n 0 and nulls = Array.make n true in
        let eligible = ref true in
        Row_tbl.iter
          (fun k bucket ->
            match k with
            | [| Value.Int key |] ->
              List.iter
                (fun (idx, _) ->
                  ka.(idx) <- key;
                  nulls.(idx) <- false)
                bucket
            | _ -> eligible := false)
          table;
        if !eligible then Some (int_mirror_of_column ka (Some nulls)) else None
    in
    build.Cache.jb_int <- Some m;
    m

(** Columnar probe: evaluate the left key expressions as column
    kernels and emit [(left, right)] index pairs per left row in index
    order — [-1] marks an outer-join pad — then materialize the output
    as one [gather_pad ++ gather_pad] per side. Each chunk runs two
    passes: the first resolves every probe row to its bucket and sums
    the exact output size, the second fills selection vectors of that
    size in place. Candidate order, pad placement, [join_probes] and
    [rows_joined] are exactly the row probe's. Only called when there
    is no residual predicate (a residual wants the combined row; those
    joins stay row-based).

    With a [site], an inner or left-outer single-key probe whose probe
    and build key columns are both unboxed ints is memoized: when both
    columns are {!Colbatch.same_int_column} to the previous call's at the
    site, the previous [lsel]/[rsel] are returned as they are — the
    same inputs give the same vectors — with [join_probes], the guard
    ticks and [rows_joined] applied in bulk as the probe applies them
    ({!Stats.probe_reuses} counts the hit). An unchanged build key also
    reuses the previous mirror. The output gathers then reuse the
    cells of earlier calls ({!Colbatch.gather_pad_reusing}). *)
let hash_join_probe_columnar ?parallel ?cache ?guards ?site ~(stats : Stats.t)
    kind keys (build : Cache.join_build) (left : Relation.t) schema : Relation.t =
  let right = build.Cache.jb_rel in
  let key_kerns =
    Array.of_list
      (List.map (fun (l, _) -> compiled_kernel ?cache ~stats l) keys)
  in
  let right_matched =
    match kind with
    | Logical.Full_outer | Logical.Right_outer ->
      Some (Array.make (Relation.cardinality right) false)
    | _ -> None
  in
  let mark ridx =
    match right_matched with Some arr -> arr.(ridx) <- true | None -> ()
  in
  let pad =
    match kind with
    | Logical.Left_outer | Logical.Full_outer -> true
    | Logical.Inner | Logical.Right_outer | Logical.Cross -> false
  in
  let lbatch = Relation.columnar left in
  let n = Colbatch.length lbatch in
  let key_cols = Array.map (fun k -> k lbatch) key_kerns in
  (* The memoizable shape, with the build key column evaluated. *)
  let memo =
    match site, kind, keys, key_cols with
    | ( Some (s : Cache.join_site),
        (Logical.Inner | Logical.Left_outer),
        [ (_, rexpr) ],
        [| ({ Colbatch.data = Colbatch.D_int _; _ } as pk) |] ) -> (
      let bk = compiled_kernel ?cache ~stats rexpr (Relation.columnar right) in
      match bk.Colbatch.data with
      | Colbatch.D_int _ -> Some (s, pk, bk)
      | _ -> None)
    | _ -> None
  in
  (* The previous probe at the site, when the build key is unchanged
     (its mirror serves again), and the probe to reuse when the probe
     key is unchanged too. *)
  let same_build =
    match memo with
    | Some ({ Cache.js_probe = Some pm; _ }, _, bk)
      when Colbatch.same_int_column pm.Cache.pm_build_key bk ->
      Some pm
    | _ -> None
  in
  let reused =
    match memo, same_build with
    | Some (_, pk, _), Some pm
      when Colbatch.same_int_column pm.Cache.pm_probe_key pk ->
      Some pm
    | _ -> None
  in
  (* Forced here, on the coordinator, so worker domains never write
     the memo field. *)
  let mirror =
    match same_build with
    | Some pm ->
      if Option.is_none build.Cache.jb_int then
        build.Cache.jb_int <- Some (Some pm.Cache.pm_mirror);
      Some pm.Cache.pm_mirror
    | None ->
      if Array.length key_kerns = 1 then
        int_mirror ?cache
          ?build_key:(Option.map (fun (_, _, bk) -> bk) memo)
          ~stats keys build
      else None
  in
  (* Returns the chunk's selection vectors and whether it emitted a
     left-row pad (a [-1] in the right selection). *)
  let probe (st : Stats.t) lo len =
    let gprobe = Guards.probe () in
    let size = ref 0 and padded = ref false in
    match mirror, key_cols with
    | Some im, [| { Colbatch.data = Colbatch.D_int ka; nulls } |] ->
      (* Unboxed probe: int key column against the flat mirror. A
         masked (NULL) slot matches nothing, same as the boxed path's
         [key_has_null] skip against a null-free build table. Guard
         ticks and the probe counter are applied in bulk (both are
         totals; the row path reaches the same values). *)
      st.Stats.join_probes <- st.Stats.join_probes + len;
      Guards.tick_n guards gprobe ~stats:st len;
      let start = im.Cache.im_start and rows = im.Cache.im_rows in
      let slots = Array.make len (-1) in
      for j = 0 to len - 1 do
        let isnull = match nulls with Some m -> m.(lo + j) | None -> false in
        let s = if isnull then -1 else mirror_slot im ka.(lo + j) in
        if s >= 0 then begin
          slots.(j) <- s;
          size := !size + start.(s + 1) - start.(s)
        end
        else if pad then begin
          incr size;
          padded := true
        end
      done;
      let lsel = Array.make !size 0 and rsel = Array.make !size (-1) in
      let o = ref 0 in
      for j = 0 to len - 1 do
        let s = slots.(j) in
        if s >= 0 then
          for p = start.(s) to start.(s + 1) - 1 do
            let ridx = rows.(p) in
            mark ridx;
            lsel.(!o) <- lo + j;
            rsel.(!o) <- ridx;
            incr o
          done
        else if pad then begin
          lsel.(!o) <- lo + j;
          incr o
        end
      done;
      (lsel, rsel, !padded)
    | _ ->
      let table = build.Cache.jb_table () in
      let buckets = Array.make len [] in
      for j = 0 to len - 1 do
        Guards.tick guards gprobe ~stats:st;
        st.Stats.join_probes <- st.Stats.join_probes + 1;
        let k = Array.map (fun c -> Colbatch.get c (lo + j)) key_cols in
        let bucket =
          if key_has_null k then []
          else Option.value (Row_tbl.find_opt table k) ~default:[]
        in
        buckets.(j) <- bucket;
        match bucket with
        | [] ->
          if pad then begin
            incr size;
            padded := true
          end
        | _ -> size := !size + List.length bucket
      done;
      let lsel = Array.make !size 0 and rsel = Array.make !size (-1) in
      let o = ref 0 in
      for j = 0 to len - 1 do
        match buckets.(j) with
        | [] ->
          if pad then begin
            lsel.(!o) <- lo + j;
            incr o
          end
        | bucket ->
          List.iter
            (fun ((ridx, _) : int * Row.t) ->
              mark ridx;
              lsel.(!o) <- lo + j;
              rsel.(!o) <- ridx;
              incr o)
            bucket
      done;
      (lsel, rsel, !padded)
  in
  let lsel, rsel, left_padded, right_padded =
    match reused with
    | Some pm ->
      stats.Stats.probe_reuses <- stats.Stats.probe_reuses + 1;
      stats.Stats.join_probes <- stats.Stats.join_probes + n;
      Guards.tick_n guards (Guards.probe ()) ~stats n;
      (pm.Cache.pm_lsel, pm.Cache.pm_rsel, false, pm.Cache.pm_padded)
    | None ->
      let chunks = Parallel.chunked parallel ~stats ~n probe in
      (* Right/full outer: unmatched build rows, ascending, after every
         chunk. *)
      let right_pad =
        Option.map
          (fun arr ->
            let rsel =
              Array.of_seq
                (Seq.filter (fun ridx -> not arr.(ridx))
                   (Seq.init (Array.length arr) Fun.id))
            in
            (Array.make (Array.length rsel) (-1), rsel))
          right_matched
      in
      let lsel, rsel =
        match chunks, right_pad with
        | [| (lsel, rsel, _) |], None -> (lsel, rsel)
        | _ ->
          let parts =
            Array.to_list (Array.map (fun (l, r, _) -> (l, r)) chunks)
            @ Option.to_list right_pad
          in
          (Array.concat (List.map fst parts), Array.concat (List.map snd parts))
      in
      let left_padded =
        match right_pad with Some (l, _) -> Array.length l > 0 | None -> false
      in
      (lsel, rsel, left_padded, Array.exists (fun (_, _, p) -> p) chunks)
  in
  stats.Stats.rows_joined <- stats.Stats.rows_joined + Array.length lsel;
  let rbatch = Relation.columnar right in
  let out =
    match memo, mirror with
    | Some (s, pk, bk), Some im ->
      (* Each call stores its own key columns: a stable column then
         compares physically next time. *)
      s.Cache.js_probe <-
        Some
          {
            Cache.pm_probe_key = pk;
            pm_build_key = bk;
            pm_mirror = im;
            pm_lsel = lsel;
            pm_rsel = rsel;
            pm_padded = right_padded;
          };
      let l, lr =
        Colbatch.gather_pad_reusing s.Cache.js_left ~has_neg:left_padded lbatch lsel
      in
      let r, rr =
        Colbatch.gather_pad_reusing s.Cache.js_right ~has_neg:right_padded rbatch rsel
      in
      s.Cache.js_left <- lr;
      s.Cache.js_right <- rr;
      Colbatch.hstack l r
    | _ ->
      Option.iter
        (fun (s : Cache.join_site) ->
          s.Cache.js_probe <- None;
          s.Cache.js_left <- Colbatch.no_reuse;
          s.Cache.js_right <- Colbatch.no_reuse)
        site;
      Colbatch.hstack
        (Colbatch.gather_pad ~has_neg:left_padded lbatch lsel)
        (Colbatch.gather_pad ~has_neg:right_padded rbatch rsel)
  in
  Relation.of_batch schema out

(** Probe a {!make_join_build} table with the left rows. Emits
    left++right rows; [kind] controls unmatched-row padding. The probe
    is chunk-parallel over the left rows, with per-chunk outputs
    concatenated in chunk order (probe order == left order, identical
    to sequential). *)
let hash_join_probe ?parallel ?cache ?guards ?(columnar = false) ?site
    ~(stats : Stats.t) kind keys residual (build : Cache.join_build)
    (left : Relation.t) schema : Relation.t =
  Stats.timed stats Stats.Op_join @@ fun () ->
  if columnar && residual = [] then
    hash_join_probe_columnar ?parallel ?cache ?guards ?site ~stats kind keys
      build left schema
  else begin
  let right = build.Cache.jb_rel in
  let table = build.Cache.jb_table () in
  let left_keys =
    Array.of_list
      (List.map (fun (l, _) -> compiled_val ?cache ~stats l) keys)
  in
  let residual =
    List.map (fun p -> compiled_pred ?cache ~stats p) residual
  in
  let passes_residual row = List.for_all (fun p -> p row) residual in
  let right_matched =
    match kind with
    | Logical.Full_outer | Logical.Right_outer ->
      Some (Array.make (Relation.cardinality right) false)
    | _ -> None
  in
  let l_arity = Schema.arity (Relation.schema left) in
  let r_arity = Schema.arity (Relation.schema right) in
  let lrows = Relation.rows left in
  let n = Array.length lrows in
  (* Chunks only ever write [true] into [right_matched]; writes become
     visible at the barrier, before the padding pass reads the array. *)
  let probe (st : Stats.t) lo len =
    let out = ref [] in
    let emit row = out := row :: !out in
    let gprobe = Guards.probe () in
    for j = lo to lo + len - 1 do
      Guards.tick guards gprobe ~stats:st;
      let lrow = lrows.(j) in
      st.Stats.join_probes <- st.Stats.join_probes + 1;
      let k = Array.map (fun f -> f lrow) left_keys in
      let matched = ref false in
      if not (key_has_null k) then begin
        match Row_tbl.find_opt table k with
        | None -> ()
        | Some candidates ->
          List.iter
            (fun (ridx, rrow) ->
              let combined = Row.concat lrow rrow in
              if passes_residual combined then begin
                matched := true;
                Option.iter (fun arr -> arr.(ridx) <- true) right_matched;
                emit combined
              end)
            candidates
      end;
      if not !matched then
        match kind with
        | Logical.Left_outer | Logical.Full_outer ->
          emit (Row.concat lrow (null_row r_arity))
        | Logical.Inner | Logical.Right_outer | Logical.Cross -> ()
    done;
    Array.of_list (List.rev !out)
  in
  let chunks = Parallel.chunked parallel ~stats ~n probe in
  let pad =
    match right_matched, kind with
    | Some arr, (Logical.Right_outer | Logical.Full_outer) ->
      let extra = ref [] in
      let rrows = Relation.rows right in
      for idx = Array.length arr - 1 downto 0 do
        if not arr.(idx) then
          extra := Row.concat (null_row l_arity) rrows.(idx) :: !extra
      done;
      [ Array.of_list !extra ]
    | _ -> []
  in
  let rows = Array.concat (Array.to_list chunks @ pad) in
  stats.Stats.rows_joined <- stats.Stats.rows_joined + Array.length rows;
  Relation.make_trusted schema rows
  end

(* The row of [right] that [index] numbers as group [g]: a unique
   index gives every row its own group. *)
let index_rows index groups =
  let reps = Keyhash.reps index in
  Array.map (fun g -> if g < 0 then -1 else reps.(g)) groups

(** The rows of [right] whose key equals some key in column 0 of
    [keys], each once, in [right]'s order. [index] numbers [right]'s
    key column and has no NULL key, so a NULL in [keys] matches
    nothing. *)
let index_semijoin ~(stats : Stats.t) ~index (keys : Relation.t)
    (right : Relation.t) : Relation.t =
  Stats.timed stats Stats.Op_setop @@ fun () ->
  let kb = Relation.columnar keys in
  let pos =
    index_rows index
      (Keyhash.probe index [| Colbatch.col kb 0 |] (Colbatch.length kb))
  in
  Array.sort Int.compare pos;
  let n = Array.length pos in
  let sel =
    select n (fun i -> pos.(i) >= 0 && (i = 0 || pos.(i) <> pos.(i - 1)))
  in
  Relation.of_batch (Relation.schema right)
    (Colbatch.gather (Relation.columnar right) (Array.map (Array.get pos) sel))

(** An inner or left-outer join of [left] to [right] through a unique
    index of [right]'s key: each left row's [probe] key is looked up in
    [index], the matched row must pass [filter] (over [right]'s row)
    and then every [residual] conjunct (over the joined row), and rows
    come out in left order, a left-outer miss padded with NULLs. No
    table is built, and [filter] and [residual] see matched rows only.
    Keys compare as the hash join compares them, so rows and order are
    the hash join's over [Filter (filter, right)]. *)
let index_join ?cache ?guards ~(stats : Stats.t) kind ~probe ~index ~filter
    ~residual (left : Relation.t) (right : Relation.t) schema : Relation.t =
  Stats.timed stats Stats.Op_join @@ fun () ->
  let lbatch = Relation.columnar left and rbatch = Relation.columnar right in
  let n = Colbatch.length lbatch in
  stats.Stats.join_probes <- stats.Stats.join_probes + n;
  Guards.tick_n guards (Guards.probe ()) ~stats n;
  let hits =
    index_rows index
      (Keyhash.probe index [| compiled_kernel ?cache ~stats probe lbatch |] n)
  in
  let lsel = select n (fun j -> hits.(j) >= 0) in
  let rsel = Array.map (Array.get hits) lsel in
  (* Narrow the matched pairs by one predicate over [batch], a batch
     of one row per pair. *)
  let narrow (lsel, rsel) pred batch =
    let keep =
      Vec_eval.truthy_sel
        (compiled_kernel ?cache ~stats pred batch)
        (Array.length lsel)
    in
    (Array.map (Array.get lsel) keep, Array.map (Array.get rsel) keep)
  in
  let pairs =
    match filter with
    | None -> (lsel, rsel)
    | Some p ->
      stats.Stats.rows_filtered <-
        stats.Stats.rows_filtered + Array.length rsel;
      narrow (lsel, rsel) p (Colbatch.gather rbatch rsel)
  in
  let lsel, rsel =
    List.fold_left
      (fun ((l, r) as pairs) conj ->
        narrow pairs conj
          (Colbatch.hstack (Colbatch.gather lbatch l)
             (Colbatch.gather rbatch r)))
      pairs residual
  in
  let lsel, rsel, padded =
    match kind with
    | Logical.Left_outer when Array.length lsel < n ->
      let r = Array.make n (-1) in
      Array.iteri (fun k j -> r.(j) <- rsel.(k)) lsel;
      (Array.init n Fun.id, r, true)
    | _ -> (lsel, rsel, false)
  in
  stats.Stats.rows_joined <- stats.Stats.rows_joined + Array.length lsel;
  Relation.of_batch schema
    (Colbatch.hstack
       (Colbatch.gather lbatch lsel)
       (Colbatch.gather_pad ~has_neg:padded rbatch rsel))

(** Hash join over extracted keys: build on the right, probe with the
    left. *)
let hash_join ?parallel ?cache ?guards ?columnar ~(stats : Stats.t) kind keys
    residual (left : Relation.t) (right : Relation.t) schema : Relation.t =
  let build = make_join_build ?cache ?guards ~stats (List.map snd keys) right in
  hash_join_probe ?parallel ?cache ?guards ?columnar ~stats kind keys residual
    build left schema

(** Nested-loop fallback when no equi-key exists. *)
let nested_loop_join ?cache ?guards ~(stats : Stats.t) kind cond
    (left : Relation.t) (right : Relation.t) schema : Relation.t =
  Stats.timed stats Stats.Op_join @@ fun () ->
  let l_arity = Schema.arity (Relation.schema left) in
  let r_arity = Schema.arity (Relation.schema right) in
  let right_matched =
    match kind with
    | Logical.Full_outer | Logical.Right_outer ->
      Some (Array.make (Relation.cardinality right) false)
    | _ -> None
  in
  let out = ref [] in
  let emit row = out := row :: !out in
  let passes =
    match cond with
    | None -> fun _ -> true
    | Some c -> compiled_pred ?cache ~stats c
  in
  let gprobe = Guards.probe () in
  Relation.iter
    (fun lrow ->
      stats.Stats.join_probes <- stats.Stats.join_probes + 1;
      let matched = ref false in
      Array.iteri
        (fun ridx rrow ->
          (* tick per candidate pair: a cross join is quadratic in its
             inputs, so probing only per left row would still leave
             arbitrarily long gaps between guard checks *)
          Guards.tick guards gprobe ~stats;
          let combined = Row.concat lrow rrow in
          if passes combined then begin
            matched := true;
            Option.iter (fun arr -> arr.(ridx) <- true) right_matched;
            emit combined
          end)
        (Relation.rows right);
      if not !matched then
        match kind with
        | Logical.Left_outer | Logical.Full_outer ->
          emit (Row.concat lrow (null_row r_arity))
        | Logical.Inner | Logical.Right_outer | Logical.Cross -> ())
    left;
  (match right_matched, kind with
  | Some arr, (Logical.Right_outer | Logical.Full_outer) ->
    Array.iteri
      (fun idx m ->
        if not m then emit (Row.concat (null_row l_arity) (Relation.rows right).(idx)))
      arr
  | _ -> ());
  let rows = Array.of_list (List.rev !out) in
  stats.Stats.rows_joined <- stats.Stats.rows_joined + Array.length rows;
  Relation.make_trusted schema rows

let join ?parallel ?cache ?guards ?columnar ~stats kind cond
    (left : Relation.t) (right : Relation.t) schema : Relation.t =
  match kind, cond with
  | Logical.Cross, _ ->
    nested_loop_join ?cache ?guards ~stats kind None left right schema
  | _, None -> nested_loop_join ?cache ?guards ~stats kind None left right schema
  | _, Some c -> (
    let left_arity = Schema.arity (Relation.schema left) in
    match split_equi_condition ~left_arity c with
    | [], _ ->
      nested_loop_join ?cache ?guards ~stats kind (Some c) left right schema
    | keys, residual ->
      hash_join ?parallel ?cache ?guards ?columnar ~stats kind keys residual
        left right schema)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

type accumulator = {
  mutable count : int;  (** non-null inputs, or rows for COUNT star *)
  mutable sum : Value.t;  (** running sum; Null until first input *)
  mutable min : Value.t;
  mutable max : Value.t;
  seen : unit Row_tbl.t option;  (** per-group distinct set *)
}

let new_accumulator distinct =
  {
    count = 0;
    sum = Value.Null;
    min = Value.Null;
    max = Value.Null;
    seen = (if distinct then Some (Row_tbl.create 8) else None);
  }

(* Only SUM and AVG read the running sum, so only they add: MIN, MAX
   and COUNT accept any comparable input, strings and bools included. *)
let accumulate (kind : Ast.agg_kind) acc (v : Value.t) =
  let fresh =
    match acc.seen with
    | None -> true
    | Some seen ->
      let key = [| v |] in
      if Row_tbl.mem seen key then false
      else begin
        Row_tbl.replace seen key ();
        true
      end
  in
  if fresh then begin
    if not (Value.is_null v) then begin
      acc.count <- acc.count + 1;
      (match kind with
      | Ast.Sum | Ast.Avg ->
        acc.sum <- (if Value.is_null acc.sum then v else Value.add acc.sum v)
      | Ast.Count | Ast.Count_star | Ast.Min | Ast.Max -> ());
      if Value.is_null acc.min || Value.compare v acc.min < 0 then acc.min <- v;
      if Value.is_null acc.max || Value.compare v acc.max > 0 then acc.max <- v
    end
  end

let finalize (kind : Ast.agg_kind) acc : Value.t =
  match kind with
  | Ast.Count | Ast.Count_star -> Value.Int acc.count
  | Ast.Sum -> acc.sum
  | Ast.Min -> acc.min
  | Ast.Max -> acc.max
  | Ast.Avg ->
    if acc.count = 0 then Value.Null
    else Value.Float (Value.to_float acc.sum /. float_of_int acc.count)

(* Two-phase columnar aggregation. Phase 1 ({!Keyhash.group_ids}) numbers the
   groups of the evaluated key columns; phase 2 ({!agg_column} and
   {!boxed_columns}) folds each aggregate's argument column into
   per-group cells indexed by those numbers. Grouping follows
   {!Value.equal} on every column shape, so the result is the row
   path's: same groups, same first-appearance order, same first-seen
   key values. *)

(* NULL mask of a typed aggregate column: exactly the groups that saw
   no non-NULL input, where the boxed [finalize] returns Null. *)
let empty_groups cnt =
  if Array.exists (fun c -> c = 0) cnt then Some (Array.map (fun c -> c = 0) cnt)
  else None

(** Phase 2 for an aggregate with unboxed cells, or [None] when it
    needs the boxed {!accumulator}: COUNT over any column, and
    non-DISTINCT SUM/AVG/MIN/MAX over an int or float column. The
    struct-of-arrays cells replicate [accumulate] exactly: NULLs are
    skipped, the first value seeds sum, min and max, and min/max
    replace only on a strict comparison. *)
let agg_column (a : Logical.agg) (arg : Colbatch.col option) gid ng :
    Colbatch.col option =
  let n = Array.length gid in
  let counts live =
    let cnt = Array.make ng 0 in
    for r = 0 to n - 1 do
      if live r then cnt.(gid.(r)) <- cnt.(gid.(r)) + 1
    done;
    Some { Colbatch.data = Colbatch.D_int cnt; nulls = None }
  in
  match a.agg_kind, arg with
  | Ast.Count_star, _ -> counts (fun _ -> true)
  | Ast.Count, Some c when not a.agg_distinct -> (
    match c.Colbatch.nulls, c.Colbatch.data with
    | Some m, _ -> counts (fun r -> not m.(r))
    | None, Colbatch.D_value v -> counts (fun r -> not (Value.is_null v.(r)))
    | None, _ -> counts (fun _ -> true))
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), Some { Colbatch.data = D_int v; nulls }
    when not a.agg_distinct ->
    let cnt = Array.make ng 0 and acc = Array.make ng 0 in
    for r = 0 to n - 1 do
      if match nulls with None -> true | Some m -> not m.(r) then begin
        let g = gid.(r) and x = v.(r) in
        (if cnt.(g) = 0 then acc.(g) <- x
         else
           match a.agg_kind with
           | Ast.Min -> if x < acc.(g) then acc.(g) <- x
           | Ast.Max -> if x > acc.(g) then acc.(g) <- x
           | _ -> acc.(g) <- acc.(g) + x);
        cnt.(g) <- cnt.(g) + 1
      end
    done;
    let data =
      match a.agg_kind with
      | Ast.Avg ->
        Colbatch.D_float
          (Array.mapi (fun g s -> float_of_int s /. float_of_int cnt.(g)) acc)
      | _ -> Colbatch.D_int acc
    in
    Some { Colbatch.data; nulls = empty_groups cnt }
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), Some { Colbatch.data = D_float v; nulls }
    when not a.agg_distinct ->
    let cnt = Array.make ng 0 and acc = Array.make ng 0.0 in
    for r = 0 to n - 1 do
      if match nulls with None -> true | Some m -> not m.(r) then begin
        let g = gid.(r) and x = v.(r) in
        (if cnt.(g) = 0 then acc.(g) <- x
         else
           match a.agg_kind with
           | Ast.Min -> if Float.compare x acc.(g) < 0 then acc.(g) <- x
           | Ast.Max -> if Float.compare x acc.(g) > 0 then acc.(g) <- x
           | _ -> acc.(g) <- acc.(g) +. x);
        cnt.(g) <- cnt.(g) + 1
      end
    done;
    let data =
      match a.agg_kind with
      | Ast.Avg ->
        Colbatch.D_float (Array.mapi (fun g s -> s /. float_of_int cnt.(g)) acc)
      | _ -> Colbatch.D_float acc
    in
    Some { Colbatch.data; nulls = empty_groups cnt }
  | _ -> None

(** Phase 2 for the aggregates [agg_column] leaves boxed (arguments of
    mixed, string or bool columns, and DISTINCT): the per-group
    {!accumulator}. [boxed.(i)] is [Some (agg, arg)] for each such
    aggregate, and the result holds its finished column at the same
    index. The rows are fed row-major across these aggregates, so a
    {!Value.add} type error surfaces at the same row as on the row
    path. *)
let boxed_columns (boxed : (Logical.agg * Colbatch.col) option array) gid ng :
    Colbatch.col option array =
  let cells =
    Array.map
      (Option.map (fun ((a : Logical.agg), c) ->
           (a, c, Array.init ng (fun _ -> new_accumulator a.agg_distinct))))
      boxed
  in
  for r = 0 to Array.length gid - 1 do
    let g = gid.(r) in
    Array.iter
      (function
        | Some ((a : Logical.agg), c, accs) ->
          accumulate a.agg_kind accs.(g) (Colbatch.get c r)
        | None -> ())
      cells
  done;
  Array.map
    (Option.map (fun ((a : Logical.agg), _, accs) ->
         Colbatch.of_values (Array.map (finalize a.agg_kind) accs)))
    cells

(** The source-row numbering of a batch of [n] rows that gathers a
    source of [len] rows through [chain] (see
    {!Colbatch.gather_chain}): each input row's position among the
    distinct source rows in first-appearance order, the source row
    behind each position (every pad shares one position, [-1]), and
    whether a pad is among them. *)
let source_rows len chain n : Cache.source_memo =
  let sel = Colbatch.compose_chain chain in
  let pos = Array.make n 0 in
  let slot = Array.make len (-1) in
  let csel = Array.make (min n (len + 1)) 0 in
  let m = ref 0 and pad = ref (-1) in
  let fresh s =
    let c = !m in
    csel.(c) <- s;
    m := c + 1;
    c
  in
  for r = 0 to n - 1 do
    let s = sel.(r) in
    pos.(r) <-
      (if s < 0 then begin
         if !pad < 0 then pad := fresh (-1);
         !pad
       end
       else begin
         if slot.(s) < 0 then slot.(s) <- fresh s;
         slot.(s)
       end)
  done;
  {
    Cache.sm_chain = chain;
    sm_pos = pos;
    sm_csel = Array.sub csel 0 !m;
    sm_pad = !pad >= 0;
  }

(** Columnar hash aggregation: number the groups (phase 1), fold every
    aggregate's argument column, vectorized over the whole batch, into
    per-group cells (phase 2), and emit the keys at each group's first
    row beside the aggregate columns.

    Phase 1 groups by source row when every column the keys read
    gathers one source batch through one chain, as the CTE's columns do
    after the loop body's joins and filters, and the batch is no shorter
    than that source. Bound key expressions are pure row functions, so
    input rows from one source row share their keys: the keys are
    evaluated and numbered over the distinct source rows only
    ({!source_rows}), and each input row takes its source row's group.
    The groups, their first-appearance numbering and their first-seen
    key values are those of {!Keyhash.group_ids} over all [n] rows, and a key
    that raises on some source row raises exactly when that row
    appears in the input. Any other batch (keys from both join sides,
    row-built, sliced or concatenated) evaluates the keys over all [n]
    rows.

    The numbering depends only on the chain's vectors, so with a [site]
    a chain physically equal to the previous call's reuses that call's
    numbering without composing the chain; a numbering is kept only
    when every vector of its chain is one a join site holds. *)
let columnar_aggregate ?cache ?guards ?site ~stats ~keys
    ~(aggs : Logical.agg array) (input : Relation.t) schema : Relation.t =
  let batch = Relation.columnar input in
  let n = Colbatch.length batch in
  let eval b e = (compiled_kernel ?cache ~stats e) b in
  let by_source =
    match
      Colbatch.gather_chain batch (List.concat_map Bound_expr.columns_of keys)
    with
    | Some (root, chain) when Colbatch.length root <= n ->
      let len = Colbatch.length root in
      let sm =
        match site, cache with
        | Some (s : Cache.agg_site), Some c -> (
          match s.Cache.as_source with
          | Some sm when List.equal ( == ) sm.Cache.sm_chain chain -> sm
          | _ ->
            let sm = source_rows len chain n in
            s.Cache.as_source <-
              (if List.for_all (Cache.holds_vector c) chain then Some sm else None);
            sm)
        | _ -> source_rows len chain n
      in
      Some
        ( sm.Cache.sm_pos,
          Colbatch.gather_pad ~has_neg:sm.Cache.sm_pad root sm.Cache.sm_csel )
    | _ -> None
  in
  let key_rows =
    match by_source with Some (_, compact) -> compact | None -> batch
  in
  let key_cols = Array.of_list (List.map (eval key_rows) keys) in
  let arg_cols =
    Array.map
      (fun (a : Logical.agg) ->
        match a.agg_kind with
        | Ast.Count_star -> None
        | _ -> Some (eval batch a.agg_arg))
      aggs
  in
  let gprobe = Guards.probe () in
  let tick = Guards.tick_n guards gprobe ~stats in
  let gid, rep =
    match by_source with
    | None -> Keyhash.group_ids ~tick key_cols n
    | Some (pos, compact) ->
      let cgid, rep =
        Keyhash.group_ids key_cols (Colbatch.length compact)
      in
      (* The guards still count all [n] input rows. When every source
         row is its own group (a unique key), the groups are numbered
         as the source rows are and [pos] is already the answer;
         otherwise remap into a fresh array, as [pos] may be a kept
         numbering. Nothing downstream writes [gid]. *)
      let r = ref 0 in
      while !r < n do
        tick (min 4096 (n - !r));
        r := !r + 4096
      done;
      if Array.length rep = Array.length cgid then (pos, rep)
      else (Array.map (fun p -> cgid.(p)) pos, rep)
  in
  let ng = Array.length rep in
  let typed = Array.mapi (fun i a -> agg_column a arg_cols.(i) gid ng) aggs in
  let boxed =
    boxed_columns
      (Array.mapi
         (fun i t ->
           match t, arg_cols.(i) with
           | None, Some c -> Some (aggs.(i), c)
           | _ -> None)
         typed)
      gid ng
  in
  let agg_cols =
    Array.mapi
      (fun i t ->
        match t, boxed.(i) with
        | Some c, _ | None, Some c -> c
        | None, None -> assert false (* COUNT star is always typed *))
      typed
  in
  let kbatch =
    Colbatch.gather (Colbatch.make ~len:(Colbatch.length key_rows) key_cols) rep
  in
  Relation.of_batch schema
    (Colbatch.hstack kbatch (Colbatch.make ~len:ng agg_cols))

(** Row-at-a-time hash aggregation over boxed key rows. *)
let row_aggregate ?cache ?guards ~stats ~keys ~(aggs : Logical.agg array)
    (input : Relation.t) schema : Relation.t =
  let groups : (Row.t * accumulator array) Row_tbl.t =
    Row_tbl.create (max 16 (Relation.cardinality input / 4))
  in
  let order = ref [] in
  let gprobe = Guards.probe () in
  let key_fns =
    Array.of_list (List.map (fun e -> compiled_val ?cache ~stats e) keys)
  in
  let agg_args =
    Array.map
      (fun (a : Logical.agg) ->
        match a.agg_kind with
        | Ast.Count_star -> fun _ -> Value.Null  (* unused *)
        | _ -> compiled_val ?cache ~stats a.agg_arg)
      aggs
  in
  Relation.iter
    (fun row ->
      Guards.tick guards gprobe ~stats;
      let key = Array.map (fun f -> f row) key_fns in
      let accs =
        match Row_tbl.find_opt groups key with
        | Some (_, accs) -> accs
        | None ->
          let accs =
            Array.map (fun (a : Logical.agg) -> new_accumulator a.agg_distinct) aggs
          in
          Row_tbl.replace groups key (key, accs);
          order := key :: !order;
          accs
      in
      Array.iteri
        (fun i (a : Logical.agg) ->
          match a.agg_kind with
          | Ast.Count_star ->
            (* COUNT star counts rows regardless of nulls *)
            accs.(i).count <- accs.(i).count + 1
          | kind -> accumulate kind accs.(i) (agg_args.(i) row))
        aggs)
    input;
  let emit key =
    let _, accs = Row_tbl.find groups key in
    Row.concat key
      (Array.mapi (fun i (a : Logical.agg) -> finalize a.agg_kind accs.(i)) aggs)
  in
  let rows =
    if keys = [] && Row_tbl.length groups = 0 then
      (* Global aggregate over an empty input yields one default row. *)
      [|
        Array.map
          (fun (a : Logical.agg) -> finalize a.agg_kind (new_accumulator false))
          aggs;
      |]
    else Array.of_list (List.rev_map emit !order)
  in
  Relation.make_trusted schema rows

let aggregate ?cache ?guards ?(columnar = false) ?site ~(stats : Stats.t) ~keys
    ~(aggs : Logical.agg list) (input : Relation.t) schema : Relation.t =
  Stats.timed stats Stats.Op_aggregate @@ fun () ->
  stats.Stats.rows_aggregated <-
    stats.Stats.rows_aggregated + Relation.cardinality input;
  let aggs = Array.of_list aggs in
  if columnar then
    columnar_aggregate ?cache ?guards ?site ~stats ~keys ~aggs input schema
  else row_aggregate ?cache ?guards ~stats ~keys ~aggs input schema
