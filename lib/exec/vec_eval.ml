(** Columnar expression evaluation: compile a {!Bound_expr} into a
    kernel that evaluates a whole {!Colbatch} at a time.

    The hot kernels are tight loops over unboxed int/float arrays
    (arithmetic, comparisons, Kleene logic, CAST, ROUND); everything
    else falls back to a boxed per-element loop built from the exact
    same value combinators the row interpreter uses ({!Eval}), so the
    two paths are bit-identical by construction — including error
    messages, NULL propagation and [Division_by_zero]. The only node
    that abandons vectorization for its whole subtree is [B_case]:
    its branches short-circuit per row, so evaluating a branch over
    the full batch could raise errors the row path never reaches. A
    CASE whose branches are column references or literals, under
    conditions that cannot raise, is the exception: it becomes a
    per-row column select.

    NULL convention: typed columns carry an optional bitmap whose
    masked slots hold placeholder values (0 / 0.0 / "" / false).
    Kernels compute placeholder slots freely — int/float arithmetic
    on garbage cannot raise — and carry the union of the input masks.
    Division is the exception: its per-element loop must skip masked
    slots {e before} the zero-divisor test, mirroring
    [Value.div]'s NULL-first check. *)

module Value = Dbspinner_storage.Value
module Column_type = Dbspinner_storage.Column_type
module Colbatch = Dbspinner_storage.Colbatch
module Ast = Dbspinner_sql.Ast
module Bound_expr = Dbspinner_plan.Bound_expr

type kernel = Colbatch.t -> Colbatch.col

let error fmt = Printf.ksprintf (fun s -> raise (Eval.Runtime_error s)) fmt

(* [Array.init]'s application order is unspecified; kernels that can
   raise must visit rows in index order so the first error matches the
   row engine's. *)
let tabulate n (f : int -> 'a) : 'a array =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

(* Masks are immutable once built, so sharing one input's mask is
   safe. *)
let union_mask (a : Colbatch.col) (b : Colbatch.col) : bool array option =
  match a.Colbatch.nulls, b.Colbatch.nulls with
  | None, None -> None
  | (Some _ as m), None | None, (Some _ as m) -> m
  | Some ma, Some mb ->
    Some (Array.init (Array.length ma) (fun i -> ma.(i) || mb.(i)))

let is_masked (nulls : bool array option) i =
  match nulls with Some m -> m.(i) | None -> false

(* Boxed per-element fallbacks. [of_values] re-classifies the output so
   a monomorphic result feeds the typed kernels downstream. *)
let map1 f (a : Colbatch.col) n : Colbatch.col =
  Colbatch.of_values (tabulate n (fun i -> f (Colbatch.get a i)))

let map2 f (a : Colbatch.col) (b : Colbatch.col) n : Colbatch.col =
  Colbatch.of_values
    (tabulate n (fun i -> f (Colbatch.get a i) (Colbatch.get b i)))

(* ------------------------------------------------------------------ *)
(* Column-level combinators                                            *)

(* Mixed boxed-numeric x float arithmetic: a [D_value] column whose
   cells are all Int/Float/NULL combined with a [D_float] column
   always yields Float ([Value.arith]'s mixed rule), so the result can
   stay typed even though the input could not. Returns [None] when the
   boxed side holds a non-numeric cell — the caller's boxed fallback
   then raises the row engine's type error at the same element. *)
let vf_arith op ~v_left (v_side : Value.t array) (f_side : float array)
    (fnulls : bool array option) n : Colbatch.col option =
  let clean = ref true in
  let i = ref 0 in
  while !clean && !i < n do
    (match v_side.(!i) with
    | Value.Int _ | Value.Float _ | Value.Null -> ()
    | Value.Str _ | Value.Bool _ -> clean := false);
    incr i
  done;
  if not !clean then None
  else begin
    let f =
      match op with
      | Ast.Add -> ( +. )
      | Ast.Sub -> ( -. )
      | Ast.Mul -> ( *. )
      | _ -> assert false
    in
    let mask = Array.make n false in
    let any = ref false in
    let out = Array.make n 0.0 in
    for k = 0 to n - 1 do
      match v_side.(k) with
      | Value.Null -> mask.(k) <- true; any := true
      | v ->
        if match fnulls with Some m -> m.(k) | None -> false then begin
          mask.(k) <- true;
          any := true
        end
        else begin
          let x =
            match v with
            | Value.Int i -> float_of_int i
            | Value.Float g -> g
            | _ -> 0.0
          in
          out.(k) <-
            (if v_left then f x f_side.(k) else f f_side.(k) x)
        end
    done;
    Some
      {
        Colbatch.data = Colbatch.D_float out;
        nulls = (if !any then Some mask else None);
      }
  end

let arith_cols op (a : Colbatch.col) (b : Colbatch.col) n : Colbatch.col =
  match a.Colbatch.data, b.Colbatch.data with
  | Colbatch.D_int xa, Colbatch.D_int xb ->
    let out =
      match op with
      | Ast.Add -> tabulate n (fun i -> xa.(i) + xb.(i))
      | Ast.Sub -> tabulate n (fun i -> xa.(i) - xb.(i))
      | Ast.Mul -> tabulate n (fun i -> xa.(i) * xb.(i))
      | _ -> assert false
    in
    { Colbatch.data = Colbatch.D_int out; nulls = union_mask a b }
  | ( (Colbatch.D_int _ | Colbatch.D_float _),
      (Colbatch.D_int _ | Colbatch.D_float _) ) ->
    let fa =
      match a.Colbatch.data with
      | Colbatch.D_float x -> x
      | Colbatch.D_int x -> Array.map float_of_int x
      | _ -> assert false
    in
    let fb =
      match b.Colbatch.data with
      | Colbatch.D_float x -> x
      | Colbatch.D_int x -> Array.map float_of_int x
      | _ -> assert false
    in
    let out =
      match op with
      | Ast.Add -> tabulate n (fun i -> fa.(i) +. fb.(i))
      | Ast.Sub -> tabulate n (fun i -> fa.(i) -. fb.(i))
      | Ast.Mul -> tabulate n (fun i -> fa.(i) *. fb.(i))
      | _ -> assert false
    in
    { Colbatch.data = Colbatch.D_float out; nulls = union_mask a b }
  | _ ->
    let f =
      match op with
      | Ast.Add -> Value.add
      | Ast.Sub -> Value.sub
      | Ast.Mul -> Value.mul
      | _ -> assert false
    in
    let typed =
      match a.Colbatch.data, b.Colbatch.data with
      | Colbatch.D_value va, Colbatch.D_float fb ->
        vf_arith op ~v_left:true va fb b.Colbatch.nulls n
      | Colbatch.D_float fa, Colbatch.D_value vb ->
        vf_arith op ~v_left:false vb fa a.Colbatch.nulls n
      | _ -> None
    in
    (match typed with Some c -> c | None -> map2 f a b n)

let div_cols (a : Colbatch.col) (b : Colbatch.col) n : Colbatch.col =
  match a.Colbatch.data, b.Colbatch.data with
  (* Float/Float is the only typed fast path: Int/Int division returns
     Int on exact quotients and Float otherwise, so its output cannot
     stay unboxed. NULL is checked before the divisor, like
     [Value.div]. *)
  | Colbatch.D_float xa, Colbatch.D_float xb ->
    let mask = union_mask a b in
    let out = Array.make n 0.0 in
    for i = 0 to n - 1 do
      if not (is_masked mask i) then begin
        let d = xb.(i) in
        if d = 0.0 then raise Division_by_zero;
        out.(i) <- xa.(i) /. d
      end
    done;
    { Colbatch.data = Colbatch.D_float out; nulls = mask }
  | _ -> map2 Value.div a b n

let mod_cols (a : Colbatch.col) (b : Colbatch.col) n : Colbatch.col =
  match a.Colbatch.data, b.Colbatch.data with
  (* Same-typed pairs only: mixed Int/Float returns Float and the
     min_int/-1 trap only exists on the Int/Int path. NULL (mask) is
     checked before the divisor, like [Value.modulo]. *)
  | Colbatch.D_int xa, Colbatch.D_int xb ->
    let mask = union_mask a b in
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      if not (is_masked mask i) then begin
        let y = xb.(i) in
        if y = 0 then raise Division_by_zero;
        out.(i) <- (if y = -1 && xa.(i) = min_int then 0 else xa.(i) mod y)
      end
    done;
    { Colbatch.data = Colbatch.D_int out; nulls = mask }
  | Colbatch.D_float xa, Colbatch.D_float xb ->
    let mask = union_mask a b in
    let out = Array.make n 0.0 in
    for i = 0 to n - 1 do
      if not (is_masked mask i) then begin
        let y = xb.(i) in
        if y = 0.0 then raise Division_by_zero;
        out.(i) <- Float.rem xa.(i) y
      end
    done;
    { Colbatch.data = Colbatch.D_float out; nulls = mask }
  | _ -> map2 Value.modulo a b n

(* Two-argument LEAST/GREATEST over same-typed numeric columns.
   Row semantics ({!Eval.apply_func}): NULLs are dropped, both-NULL
   yields NULL, and ties keep the first argument — so the comparison
   against the second argument is strict. Floats compare with
   [Float.compare] (matching [Value.compare]): LEAST propagates NaN,
   which [(<)] would not. *)
let minmax2_cols ~greatest (a : Colbatch.col) (b : Colbatch.col) n :
    Colbatch.col =
  let ma = a.Colbatch.nulls and mb = b.Colbatch.nulls in
  match a.Colbatch.data, b.Colbatch.data with
  | Colbatch.D_int xa, Colbatch.D_int xb ->
    let out = Array.make n 0 in
    let mask = ref None in
    for i = 0 to n - 1 do
      match is_masked ma i, is_masked mb i with
      | true, true ->
        (match !mask with
        | Some m -> m.(i) <- true
        | None ->
          let m = Array.make n false in
          m.(i) <- true;
          mask := Some m)
      | true, false -> out.(i) <- xb.(i)
      | false, true -> out.(i) <- xa.(i)
      | false, false ->
        let x = xa.(i) and y = xb.(i) in
        out.(i) <- (if (if greatest then y > x else y < x) then y else x)
    done;
    { Colbatch.data = Colbatch.D_int out; nulls = !mask }
  | Colbatch.D_float xa, Colbatch.D_float xb ->
    let out = Array.make n 0.0 in
    let mask = ref None in
    for i = 0 to n - 1 do
      match is_masked ma i, is_masked mb i with
      | true, true ->
        (match !mask with
        | Some m -> m.(i) <- true
        | None ->
          let m = Array.make n false in
          m.(i) <- true;
          mask := Some m)
      | true, false -> out.(i) <- xb.(i)
      | false, true -> out.(i) <- xa.(i)
      | false, false ->
        let x = xa.(i) and y = xb.(i) in
        let c = Float.compare y x in
        out.(i) <- (if (if greatest then c > 0 else c < 0) then y else x)
    done;
    { Colbatch.data = Colbatch.D_float out; nulls = !mask }
  | _ ->
    let f = if greatest then Bound_expr.F_greatest else Bound_expr.F_least in
    map2 (fun x y -> Eval.apply_func f [ x; y ]) a b n

(* A computed typed column of [n] cells with [nulls] of them masked (in
   [mask], which may be [None] when [nulls = 0]), in the representation
   [Colbatch.of_values] gives the same cells: no mask without NULLs, and
   a boxed all-NULL column when nothing else is left. *)
let typed_col n data mask nulls : Colbatch.col =
  if nulls = n then Colbatch.of_values_raw (Array.make n Value.Null)
  else { Colbatch.data; nulls = (if nulls = 0 then None else mask) }

let cmp_cols op (a : Colbatch.col) (b : Colbatch.col) n : Colbatch.col =
  let test : int -> bool =
    match op with
    | Ast.Eq -> fun c -> c = 0
    | Ast.Neq -> fun c -> c <> 0
    | Ast.Lt -> fun c -> c < 0
    | Ast.Le -> fun c -> c <= 0
    | Ast.Gt -> fun c -> c > 0
    | Ast.Ge -> fun c -> c >= 0
    | _ -> assert false
  in
  match a.Colbatch.data, b.Colbatch.data with
  | Colbatch.D_int xa, Colbatch.D_int xb ->
    {
      Colbatch.data =
        Colbatch.D_bool (tabulate n (fun i -> test (Int.compare xa.(i) xb.(i))));
      nulls = union_mask a b;
    }
  | Colbatch.D_float xa, Colbatch.D_float xb ->
    {
      Colbatch.data =
        Colbatch.D_bool
          (tabulate n (fun i -> test (Float.compare xa.(i) xb.(i))));
      nulls = union_mask a b;
    }
  | Colbatch.D_str xa, Colbatch.D_str xb ->
    {
      Colbatch.data =
        Colbatch.D_bool
          (tabulate n (fun i -> test (String.compare xa.(i) xb.(i))));
      nulls = union_mask a b;
    }
  (* Any other pair (a boxed column, or mixed Int/Float) goes through
     [Value.compare], whose integer-space comparison keeps 2^62-scale
     ints exact, writing [Eval.compare_values]'s answer straight into a
     bool column. *)
  | _ ->
    let out = Array.make n false and mask = Array.make n false in
    let nulls = ref 0 in
    for i = 0 to n - 1 do
      let x = Colbatch.get a i and y = Colbatch.get b i in
      if Value.is_null x || Value.is_null y then begin
        mask.(i) <- true;
        incr nulls
      end
      else out.(i) <- test (Value.compare x y)
    done;
    typed_col n (Colbatch.D_bool out) (Some mask) !nulls

let and_cols (a : Colbatch.col) (b : Colbatch.col) n : Colbatch.col =
  match a.Colbatch.data, b.Colbatch.data with
  | Colbatch.D_bool xa, Colbatch.D_bool xb ->
    let na = a.Colbatch.nulls and nb = b.Colbatch.nulls in
    let out = Array.make n false in
    let mask = Array.make n false in
    let any_null = ref false in
    for i = 0 to n - 1 do
      let a_null = is_masked na i and b_null = is_masked nb i in
      if ((not a_null) && not xa.(i)) || ((not b_null) && not xb.(i)) then ()
        (* definite false dominates NULL *)
      else if a_null || b_null then begin
        mask.(i) <- true;
        any_null := true
      end
      else out.(i) <- true
    done;
    {
      Colbatch.data = Colbatch.D_bool out;
      nulls = (if !any_null then Some mask else None);
    }
  | _ -> map2 Eval.kleene_and a b n

let or_cols (a : Colbatch.col) (b : Colbatch.col) n : Colbatch.col =
  match a.Colbatch.data, b.Colbatch.data with
  | Colbatch.D_bool xa, Colbatch.D_bool xb ->
    let na = a.Colbatch.nulls and nb = b.Colbatch.nulls in
    let out = Array.make n false in
    let mask = Array.make n false in
    let any_null = ref false in
    for i = 0 to n - 1 do
      let a_null = is_masked na i and b_null = is_masked nb i in
      if ((not a_null) && xa.(i)) || ((not b_null) && xb.(i)) then
        out.(i) <- true (* definite true dominates NULL *)
      else if a_null || b_null then begin
        mask.(i) <- true;
        any_null := true
      end
    done;
    {
      Colbatch.data = Colbatch.D_bool out;
      nulls = (if !any_null then Some mask else None);
    }
  | _ -> map2 Eval.kleene_or a b n

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

(* B_case falls back to the row interpreter over a scratch row: only
   the columns the expression references are filled, in index order, so
   branch short-circuiting (and which row first raises) is exactly the
   row engine's. *)
let scalar_batch (e : Bound_expr.t) : kernel =
  let needed = Bound_expr.columns_of e in
  let f = Eval.compile e in
  fun batch ->
    let n = Colbatch.length batch in
    let scratch = Array.make (max 1 (Colbatch.arity batch)) Value.Null in
    Colbatch.of_values
      (tabulate n (fun i ->
           List.iter (fun j -> scratch.(j) <- Colbatch.value_at batch j i) needed;
           f scratch))

(* CASE branches that are plain column references or literals, under
   conditions that cannot raise (NULL tests and comparisons of columns
   and literals): every condition can then be evaluated over the whole
   batch, and each row picks its branch's cell. The merge rewrite's
   [CASE WHEN $k IS NOT NULL THEN $k ELSE $j END] has this shape. *)
let is_leaf = function
  | Bound_expr.B_col _ | Bound_expr.B_lit _ -> true
  | _ -> false

let safe_condition = function
  | Bound_expr.B_is_null (a, _) -> is_leaf a
  | Bound_expr.B_binop
      ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), a, b) ->
    is_leaf a && is_leaf b
  | _ -> false

(* [choose i] is the source column row [i] of [n] takes its cell from,
   or [-1] for NULL. The result is the column [Colbatch.of_values]
   builds from those cells: typed when every source is an int column,
   or every source a float column; boxed otherwise. It is one pass with
   no temporary beyond a NULL mask made at the first NULL: a merge loop
   runs this over the whole CTE every iteration, and CTE-sized
   temporaries go straight to the major heap. *)
let select_cells (srcs : Colbatch.col array) (choose : int -> int) n :
    Colbatch.col =
  let masks = Array.map (fun (c : Colbatch.col) -> c.Colbatch.nulls) srcs in
  (* Fill [set i k] for every row whose chosen cell is not NULL; the
     result's mask and NULL count. *)
  let fill set =
    let mask = ref None and nulls = ref 0 in
    for i = 0 to n - 1 do
      let k = choose i in
      let null =
        k < 0 || match masks.(k) with Some m -> m.(i) | None -> false
      in
      if null then begin
        let m =
          match !mask with
          | Some m -> m
          | None ->
            let m = Array.make n false in
            mask := Some m;
            m
        in
        m.(i) <- true;
        incr nulls
      end
      else set i k
    done;
    (!mask, !nulls)
  in
  let ints =
    Array.map
      (fun (c : Colbatch.col) ->
        match c.Colbatch.data with Colbatch.D_int a -> a | _ -> [||])
      srcs
  and floats =
    Array.map
      (fun (c : Colbatch.col) ->
        match c.Colbatch.data with Colbatch.D_float a -> a | _ -> [||])
      srcs
  in
  let all_of arrs = n > 0 && Array.for_all (fun a -> Array.length a = n) arrs in
  if all_of ints then begin
    let out = Array.make n 0 in
    let mask, nulls = fill (fun i k -> out.(i) <- ints.(k).(i)) in
    typed_col n (Colbatch.D_int out) mask nulls
  end
  else if all_of floats then begin
    let out = Array.make n 0.0 in
    let mask, nulls = fill (fun i k -> out.(i) <- floats.(k).(i)) in
    typed_col n (Colbatch.D_float out) mask nulls
  end
  else
    Colbatch.of_values
      (Array.init n (fun i ->
           let k = choose i in
           if k < 0 then Value.Null else Colbatch.get srcs.(k) i))

(* A safe CASE condition as a per-row test, or [None] when its column
   is not a bool column. A NULL test reads its column's NULLs directly;
   a comparison is evaluated as a column. *)
let condition_test (cond : Bound_expr.t) (k : kernel) batch =
  match cond with
  | Bound_expr.B_is_null (Bound_expr.B_col j, want_null) ->
    let c = Colbatch.col batch j in
    Some (fun i -> Colbatch.is_null_at c i = want_null)
  | _ -> (
    let c = k batch in
    match c.Colbatch.data with
    | Colbatch.D_bool xa ->
      let nulls = c.Colbatch.nulls in
      Some (fun i -> xa.(i) && not (is_masked nulls i))
    | _ -> None)

let rec compile (e : Bound_expr.t) : kernel =
  match e with
  | Bound_expr.B_lit v -> fun batch -> Colbatch.const v (Colbatch.length batch)
  | Bound_expr.B_col i ->
    fun batch ->
      let arity = Colbatch.arity batch in
      if i >= arity then
        error "column index %d out of range (row arity %d)" i arity
      else Colbatch.col batch i
  | Bound_expr.B_binop (op, a, b) -> (
    let ka = compile a and kb = compile b in
    let lift2 f =
     fun batch ->
      let ca = ka batch in
      let cb = kb batch in
      f ca cb (Colbatch.length batch)
    in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul -> lift2 (arith_cols op)
    | Ast.Div -> lift2 div_cols
    | Ast.Mod -> lift2 mod_cols
    | Ast.Concat -> lift2 (map2 Eval.concat)
    | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      lift2 (cmp_cols op)
    | Ast.And -> lift2 and_cols
    | Ast.Or -> lift2 or_cols)
  | Bound_expr.B_unop (Ast.Neg, a) -> (
    let ka = compile a in
    fun batch ->
      let c = ka batch in
      let n = Colbatch.length batch in
      match c.Colbatch.data with
      | Colbatch.D_int xa ->
        {
          Colbatch.data = Colbatch.D_int (tabulate n (fun i -> -xa.(i)));
          nulls = c.Colbatch.nulls;
        }
      | Colbatch.D_float xa ->
        {
          Colbatch.data = Colbatch.D_float (tabulate n (fun i -> -.xa.(i)));
          nulls = c.Colbatch.nulls;
        }
      | _ -> map1 Value.neg c n)
  | Bound_expr.B_unop (Ast.Not, a) -> (
    let ka = compile a in
    fun batch ->
      let c = ka batch in
      let n = Colbatch.length batch in
      match c.Colbatch.data with
      | Colbatch.D_bool xa ->
        {
          Colbatch.data = Colbatch.D_bool (Array.map not xa);
          nulls = c.Colbatch.nulls;
        }
      | _ ->
        map1
          (function
            | Value.Bool b -> Value.Bool (not b)
            | Value.Null -> Value.Null
            | _ -> error "NOT requires a boolean operand")
          c n)
  (* ROUND(x, literal-digits) over a numeric column is PageRank's and
     Friends-Forever's per-iteration workhorse — worth its own loop. *)
  | Bound_expr.B_func (Bound_expr.F_round, [ a; Bound_expr.B_lit (Value.Int d) ])
    -> (
    let ka = compile a in
    fun batch ->
      let c = ka batch in
      let n = Colbatch.length batch in
      match c.Colbatch.data with
      | Colbatch.D_float xa ->
        {
          Colbatch.data =
            Colbatch.D_float
              (tabulate n (fun i -> Eval.round_to_digits xa.(i) d));
          nulls = c.Colbatch.nulls;
        }
      | Colbatch.D_int xa ->
        {
          Colbatch.data =
            Colbatch.D_float
              (tabulate n (fun i ->
                   Eval.round_to_digits (float_of_int xa.(i)) d));
          nulls = c.Colbatch.nulls;
        }
      | _ ->
        map1 (fun v -> Eval.apply_func Bound_expr.F_round [ v; Value.Int d ]) c n)
  | Bound_expr.B_func (Bound_expr.F_coalesce, args) -> (
    let ks = List.map compile args in
    fun batch ->
      let n = Colbatch.length batch in
      let cols = List.map (fun k -> k batch) ks in
      match cols with
      | [ c ] -> c (* COALESCE(x) = x, NULLs included *)
      (* Two-argument form: a typed first column with no NULL mask wins
         outright; a masked typed column only consults the fallback on
         masked slots (PageRank's COALESCE over the outer-join SUM). *)
      | [ c1; _ ]
        when c1.Colbatch.nulls = None
             && (match c1.Colbatch.data with
                | Colbatch.D_value _ -> false
                | _ -> true) ->
        c1
      | [ { Colbatch.data = Colbatch.D_float xa; nulls = Some m }; c2 ] ->
        Colbatch.of_values
          (tabulate n (fun i ->
               if m.(i) then Colbatch.get c2 i else Value.Float xa.(i)))
      | [ { Colbatch.data = Colbatch.D_int xa; nulls = Some m }; c2 ] ->
        Colbatch.of_values
          (tabulate n (fun i ->
               if m.(i) then Colbatch.get c2 i else Value.Int xa.(i)))
      | _ ->
        Colbatch.of_values
          (tabulate n (fun i ->
               let rec first = function
                 | [] -> Value.Null
                 | c :: rest ->
                   let v = Colbatch.get c i in
                   if Value.is_null v then first rest else v
               in
               first cols)))
  (* SSSP computes LEAST(distance, delta) in its group key every
     iteration — keep the two-argument form typed. *)
  | Bound_expr.B_func ((Bound_expr.F_least | Bound_expr.F_greatest) as f, [ a; b ])
    ->
    let greatest = f = Bound_expr.F_greatest in
    let ka = compile a and kb = compile b in
    fun batch ->
      minmax2_cols ~greatest (ka batch) (kb batch) (Colbatch.length batch)
  | Bound_expr.B_func (f, args) ->
    let ks = List.map compile args in
    fun batch ->
      let n = Colbatch.length batch in
      let cols = List.map (fun k -> k batch) ks in
      Colbatch.of_values
        (tabulate n (fun i ->
             Eval.apply_func f (List.map (fun c -> Colbatch.get c i) cols)))
  | Bound_expr.B_case (branches, else_)
    when List.for_all (fun (c, v) -> safe_condition c && is_leaf v) branches
         && Option.fold ~none:true ~some:is_leaf else_ ->
    let fallback = scalar_batch e in
    let conds = List.map (fun (c, _) -> (c, compile c)) branches in
    let values =
      List.map compile (List.map snd branches @ Option.to_list else_)
    in
    let read = Bound_expr.columns_of e in
    let in_range batch =
      List.for_all (fun i -> i < Colbatch.arity batch) read
    in
    let default = if Option.is_some else_ then List.length branches else -1 in
    fun batch ->
      let tests =
        if in_range batch then
          List.map (fun (c, k) -> condition_test c k batch) conds
        else [ None ]
      in
      if List.exists Option.is_none tests then fallback batch
      else begin
        (* Each row takes the first branch whose condition is true, else
           the ELSE cell, else NULL. *)
        let tests = Array.of_list (List.map Option.get tests) in
        let nb = Array.length tests in
        let choose i =
          let rec first k =
            if k = nb then default else if tests.(k) i then k else first (k + 1)
          in
          first 0
        in
        select_cells
          (Array.of_list (List.map (fun k -> k batch) values))
          choose (Colbatch.length batch)
      end
  | Bound_expr.B_case _ -> scalar_batch e
  | Bound_expr.B_cast (ty, a) -> (
    let ka = compile a in
    fun batch ->
      let c = ka batch in
      let n = Colbatch.length batch in
      match ty, c.Colbatch.data with
      | Column_type.T_any, _
      | Column_type.T_int, Colbatch.D_int _
      | Column_type.T_float, Colbatch.D_float _
      | Column_type.T_string, Colbatch.D_str _
      | Column_type.T_bool, Colbatch.D_bool _ ->
        c
      | Column_type.T_float, Colbatch.D_int xa ->
        {
          Colbatch.data = Colbatch.D_float (Array.map float_of_int xa);
          nulls = c.Colbatch.nulls;
        }
      | Column_type.T_int, Colbatch.D_float xa ->
        {
          Colbatch.data = Colbatch.D_int (Array.map int_of_float xa);
          nulls = c.Colbatch.nulls;
        }
      | _ -> map1 (Eval.cast_value ty) c n)
  | Bound_expr.B_is_null (a, want_null) ->
    let ka = compile a in
    fun batch ->
      let c = ka batch in
      let n = Colbatch.length batch in
      {
        Colbatch.data =
          Colbatch.D_bool
            (tabulate n (fun i -> Colbatch.is_null_at c i = want_null));
        nulls = None;
      }
  | Bound_expr.B_in (a, items, negated) ->
    let ka = compile a in
    let kitems = List.map compile items in
    fun batch ->
      let n = Colbatch.length batch in
      let ca = ka batch in
      let citems = List.map (fun k -> k batch) kitems in
      Colbatch.of_values
        (tabulate n (fun i ->
             let v = Colbatch.get ca i in
             if Value.is_null v then Value.Null
             else begin
               let found = ref false in
               let saw_null = ref false in
               List.iter
                 (fun c ->
                   let iv = Colbatch.get c i in
                   if Value.is_null iv then saw_null := true
                   else if Value.equal v iv then found := true)
                 citems;
               if !found then Value.Bool (not negated)
               else if !saw_null then Value.Null
               else Value.Bool negated
             end))
  | Bound_expr.B_between (a, lo, hi) ->
    let ka = compile a and klo = compile lo and khi = compile hi in
    fun batch ->
      let n = Colbatch.length batch in
      let ca = ka batch in
      let clo = klo batch in
      let chi = khi batch in
      and_cols (cmp_cols Ast.Ge ca clo n) (cmp_cols Ast.Le ca chi n) n
  | Bound_expr.B_like (a, pattern, negated) -> (
    let ka = compile a in
    let matcher = Eval.like_matcher pattern in
    fun batch ->
      let c = ka batch in
      let n = Colbatch.length batch in
      match c.Colbatch.data with
      | Colbatch.D_str xa ->
        {
          Colbatch.data =
            Colbatch.D_bool
              (tabulate n (fun i ->
                   let r = matcher xa.(i) in
                   if negated then not r else r));
          nulls = c.Colbatch.nulls;
        }
      | _ ->
        map1
          (function
            | Value.Null -> Value.Null
            | v ->
              let r = matcher (Eval.as_text v) in
              Value.Bool (if negated then not r else r))
          c n)

(* ------------------------------------------------------------------ *)
(* Predicates → selection vectors                                      *)

let pred_error () = error "predicate did not evaluate to a boolean"

let truthy_sel (c : Colbatch.col) n : int array =
  match c.Colbatch.data with
  | Colbatch.D_bool xa ->
    let nulls = c.Colbatch.nulls in
    let sel = Array.make n 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if xa.(i) && not (is_masked nulls i) then begin
        sel.(!j) <- i;
        incr j
      end
    done;
    if !j = n then sel else Array.sub sel 0 !j
  | Colbatch.D_value xa ->
    let sel = Array.make n 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      match xa.(i) with
      | Value.Bool true ->
        sel.(!j) <- i;
        incr j
      | Value.Bool false | Value.Null -> ()
      | _ -> pred_error ()
    done;
    if !j = n then sel else Array.sub sel 0 !j
  | Colbatch.D_int _ | Colbatch.D_float _ | Colbatch.D_str _ ->
    (* A typed non-boolean column: every unmasked slot is the row
       engine's per-row type error; an all-NULL column rejects every
       row. *)
    (match c.Colbatch.nulls with
    | None -> if n > 0 then pred_error () else [||]
    | Some m ->
      for i = 0 to n - 1 do
        if not m.(i) then pred_error ()
      done;
      [||])

let compile_sel (e : Bound_expr.t) : Colbatch.t -> int array =
  let k = compile e in
  fun batch -> truthy_sel (k batch) (Colbatch.length batch)
