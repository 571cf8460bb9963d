(** Property-based tests (qcheck, registered as alcotest cases):

    - value ordering is a total order consistent with equality/hash;
    - SQL pretty-printing round-trips through the parser;
    - hash join = nested-loop join on random relations, all join kinds;
    - aggregates agree with straightforward folds;
    - the merge path of the functional rewrite behaves like a keyed
      dictionary update;
    - distributed execution returns the same bag as single-node;
    - partitioning is a bag-preserving split;
    - delta_count is a pseudo-metric. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Ast = Dbspinner_sql.Ast
module Parser = Dbspinner_sql.Parser
module Pretty = Dbspinner_sql.Sql_pretty
module Bound_expr = Dbspinner_plan.Bound_expr
module Logical = Dbspinner_plan.Logical
module Operators = Dbspinner_exec.Operators
module Stats = Dbspinner_exec.Stats
module Partition = Dbspinner_mpp.Partition
module Distributed = Dbspinner_mpp.Distributed

let stats () = Stats.create ()

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let value_gen : Value.t QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun i -> Value.Int i) (int_range (-20) 20));
        (2, map (fun f -> Value.Float f) (float_range (-5.0) 5.0));
        (1, map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'd') (int_range 0 3)));
        (1, map (fun b -> Value.Bool b) bool);
        (1, return Value.Null);
      ])

(** Rows of a fixed arity with small int keys in column 0 (so joins
    and key-updates collide often enough to be interesting). *)
let row_gen arity : Row.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map2
      (fun key rest -> Array.of_list (Value.Int key :: rest))
      (int_range 0 8)
      (list_size (return (arity - 1)) value_gen))

let relation_gen ~arity ~max_rows : Relation.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun rows ->
        Relation.make
          (Schema.of_names (List.init arity (Printf.sprintf "c%d")))
          (Array.of_list rows))
      (list_size (int_range 0 max_rows) (row_gen arity)))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Value properties                                                    *)

let value_order_total =
  qtest "compare is antisymmetric and hash-consistent"
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = -c2 || (c1 = 0 && c2 = 0))
      && (c1 <> 0 || (Value.equal a b && Value.hash a = Value.hash b)))

let value_order_transitive =
  qtest "compare is transitive"
    QCheck2.Gen.(triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let ( <= ) x y = Value.compare x y <= 0 in
      if a <= b && b <= c then a <= c else true)

let value_arith_null =
  qtest "arithmetic propagates NULL" value_gen (fun v ->
      Value.is_null (Value.add v Value.Null)
      && Value.is_null (Value.mul Value.Null v))

(* ------------------------------------------------------------------ *)
(* Parser round-trip on generated expressions                          *)

let expr_gen : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun i -> Ast.int_lit i) (int_range (-9) 9);
               map (fun i -> Ast.float_lit (float_of_int i /. 4.0)) (int_range 0 20);
               map (fun s -> Ast.str_lit s)
                 (string_size ~gen:(char_range 'a' 'z') (int_range 0 4));
               return (Ast.Lit Value.Null);
               map (fun c -> Ast.col (String.make 1 c)) (char_range 'a' 'e');
               map2
                 (fun q c -> Ast.col ~qualifier:(String.make 1 q) (String.make 1 c))
                 (char_range 's' 'u') (char_range 'a' 'e');
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map2
                 (fun op (a, b) -> Ast.Binop (op, a, b))
                 (oneofl
                    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Eq; Ast.Lt; Ast.And; Ast.Or ])
                 (pair sub sub);
               map (fun a -> Ast.Unop (Ast.Not, a)) sub;
               map (fun a -> Ast.Unop (Ast.Neg, a)) sub;
               map2 (fun a b -> Ast.Func ("COALESCE", [ a; b ])) sub sub;
               map2
                 (fun c (t, e) -> Ast.Case ([ (c, t) ], Some e))
                 sub (pair sub sub);
               map (fun a -> Ast.Is_null (a, true)) sub;
               map2 (fun a items -> Ast.In_list (a, items, false)) sub
                 (list_size (int_range 1 3) sub);
             ])

let parser_roundtrip =
  (* Print-idempotence: parse (print e) prints identically. Plain AST
     equality would be too strict (e.g. Neg applied to a literal parses
     back as a folded negative literal). *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"expression print/parse round-trip"
       ~print:Pretty.expr expr_gen (fun e ->
         let printed = Pretty.expr e in
         match Parser.parse_expression printed with
         | e' -> Pretty.expr e' = printed
         | exception _ ->
           QCheck2.Test.fail_reportf "failed to re-parse: %s" printed))

let neg_chain_roundtrip =
  (* Deep [Neg] chains stress the printer's literal folding: a naive
     leading "-" would print "--5" (a SQL comment) or drift across
     re-parses as the parser folds negated literals. The generic
     [expr_gen] rarely nests Neg deeply, so bias for it here. *)
  let gen =
    let open QCheck2.Gen in
    let base =
      oneof
        [
          map (fun i -> Ast.int_lit i) (int_range (-9) 9);
          map (fun i -> Ast.float_lit (float_of_int i /. 4.0)) (int_range 0 20);
          return (Ast.Col (None, "x"));
          map2
            (fun a b -> Ast.Binop (Ast.Add, Ast.int_lit a, Ast.int_lit b))
            (int_range 0 5) (int_range 0 5);
        ]
    in
    map2
      (fun depth b ->
        let rec wrap n e = if n = 0 then e else wrap (n - 1) (Ast.Unop (Ast.Neg, e)) in
        wrap depth b)
      (int_range 1 6) base
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"neg-chain print/parse round-trip"
       ~print:Pretty.expr gen (fun e ->
         let printed = Pretty.expr e in
         match Parser.parse_expression printed with
         | e' -> Pretty.expr e' = printed
         | exception _ ->
           QCheck2.Test.fail_reportf "failed to re-parse: %s" printed))

(* ------------------------------------------------------------------ *)
(* Join properties                                                     *)

let join_schema l r = Schema.append (Relation.schema l) (Relation.schema r)

let equi_cond = Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col 2)

let kind_name = function
  | Logical.Inner -> "inner"
  | Logical.Left_outer -> "left"
  | Logical.Right_outer -> "right"
  | Logical.Full_outer -> "full"
  | Logical.Cross -> "cross"

(** The join kinds a hash join serves. *)
let hash_kinds =
  [ Logical.Inner; Logical.Left_outer; Logical.Right_outer; Logical.Full_outer ]

(** Hash join (row or columnar probe) = nested loop, as bags. *)
let hash_matches_nested ~columnar kind (l, r) =
  let schema = join_schema l r in
  let hash =
    Operators.hash_join ~columnar ~stats:(stats ()) kind
      [ (Bound_expr.B_col 0, Bound_expr.B_col 0) ]
      [] l r schema
  in
  let nested =
    Operators.nested_loop_join ~stats:(stats ()) kind (Some equi_cond) l r
      schema
  in
  Relation.equal_bag hash nested

let join_consistency ~columnar kind =
  qtest ~count:100
    (Printf.sprintf "%shash join = nested loop (%s)"
       (if columnar then "columnar " else "")
       (kind_name kind))
    QCheck2.Gen.(pair (relation_gen ~arity:2 ~max_rows:12) (relation_gen ~arity:2 ~max_rows:12))
    (hash_matches_nested ~columnar kind)

let join_consistency_cases ~columnar =
  List.map (join_consistency ~columnar) hash_kinds

(** Rows whose join key (column 0) is frequently NULL — NULL keys must
    never match but outer kinds must still pad the unmatched rows. *)
let nullable_key_row_gen arity : Row.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map2
      (fun key rest -> Array.of_list (key :: rest))
      (frequency
         [
           (3, map (fun i -> Value.Int i) (int_range 0 5));
           (1, return Value.Null);
         ])
      (list_size (return (arity - 1)) value_gen))

let nullable_key_relation_gen ~arity ~max_rows : Relation.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun rows ->
        Relation.make
          (Schema.of_names (List.init arity (Printf.sprintf "c%d")))
          (Array.of_list rows))
      (list_size (int_range 0 max_rows) (nullable_key_row_gen arity)))

let join_null_keys ~columnar kind =
  qtest ~count:100
    (if columnar then
       Printf.sprintf "columnar %s hash = nested loop with NULL keys"
         (kind_name kind)
     else
       Printf.sprintf "hash = nested loop with NULL keys (%s)" (kind_name kind))
    QCheck2.Gen.(
      pair
        (nullable_key_relation_gen ~arity:2 ~max_rows:12)
        (nullable_key_relation_gen ~arity:2 ~max_rows:12))
    (hash_matches_nested ~columnar kind)

let join_null_cases ~columnar = List.map (join_null_keys ~columnar) hash_kinds

(** Rows whose join key spans the whole int range — multiples of
    1 000 003 plus [min_int] and [max_int] — so the columnar build
    takes its hashed layout (the small-key generators above take the
    direct one), with NULL keys mixed in. *)
let wide_key_relation_gen ~max_rows : Relation.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let key =
      frequency
        [
          (6, map (fun i -> Value.Int (i * 1_000_003)) (int_range (-4) 4));
          (1, oneofl [ Value.Int min_int; Value.Int max_int ]);
          (1, return Value.Null);
        ]
    in
    map
      (fun rows ->
        Relation.make (Schema.of_names [ "c0"; "c1" ]) (Array.of_list rows))
      (list_size (int_range 0 max_rows)
         (map2 (fun k v -> [| k; v |]) key value_gen)))

let join_wide_keys ~columnar kind =
  qtest ~count:100
    (Printf.sprintf "%swide keys %s: hash = nested loop"
       (if columnar then "columnar " else "")
       (kind_name kind))
    QCheck2.Gen.(
      pair (wide_key_relation_gen ~max_rows:12) (wide_key_relation_gen ~max_rows:12))
    (hash_matches_nested ~columnar kind)

let join_wide_cases ~columnar = List.map (join_wide_keys ~columnar) hash_kinds

(** A residual predicate rejecting every key match: inner joins become
    empty while outer kinds must pad {e all} rows of their outer
    sides — hash and nested-loop must agree on that padding. *)
let join_residual_rejects kind =
  qtest ~count:100
    (Printf.sprintf "residual rejecting all matches (%s)" (kind_name kind))
    QCheck2.Gen.(
      pair (relation_gen ~arity:2 ~max_rows:12) (relation_gen ~arity:2 ~max_rows:12))
    (fun (l, r) ->
      let schema = join_schema l r in
      let hash =
        Operators.hash_join ~stats:(stats ()) kind
          [ (Bound_expr.B_col 0, Bound_expr.B_col 0) ]
          [ Bound_expr.B_lit (Value.Bool false) ]
          l r schema
      in
      let cond =
        Bound_expr.B_binop (Ast.And, equi_cond, Bound_expr.B_lit (Value.Bool false))
      in
      let nested =
        Operators.nested_loop_join ~stats:(stats ()) kind (Some cond) l r schema
      in
      Relation.equal_bag hash nested
      &&
      match kind with
      | Logical.Inner -> Relation.is_empty hash
      | Logical.Left_outer -> Relation.cardinality hash = Relation.cardinality l
      | Logical.Right_outer -> Relation.cardinality hash = Relation.cardinality r
      | Logical.Full_outer ->
        Relation.cardinality hash
        = Relation.cardinality l + Relation.cardinality r
      | Logical.Cross -> true)

let join_residual_inner = join_residual_rejects Logical.Inner
let join_residual_left = join_residual_rejects Logical.Left_outer
let join_residual_right = join_residual_rejects Logical.Right_outer
let join_residual_full = join_residual_rejects Logical.Full_outer

(** Chunk-parallel operators must be bit-identical (row order included)
    to the sequential path, with equal logical counters. *)
let exact_equal a b =
  Relation.cardinality a = Relation.cardinality b
  && Array.for_all2 Row.equal (Relation.rows a) (Relation.rows b)

let parallel_ops_match_sequential ~columnar =
  let parallel = Dbspinner_exec.Parallel.context ~chunk_rows:1 ~workers:3 () in
  qtest ~count:100
    ((if columnar then "columnar " else "")
    ^ "chunk-parallel filter/project/hash-probe = sequential")
    QCheck2.Gen.(
      pair
        (nullable_key_relation_gen ~arity:2 ~max_rows:24)
        (nullable_key_relation_gen ~arity:2 ~max_rows:24))
    (fun (l, r) ->
      let pred =
        Bound_expr.B_binop
          (Ast.Lt, Bound_expr.B_col 0, Bound_expr.B_lit (Value.Int 3))
      in
      let seq_stats = stats () and par_stats = stats () in
      let f_seq = Operators.filter ~columnar ~stats:seq_stats pred l in
      let f_par = Operators.filter ?parallel ~columnar ~stats:par_stats pred l in
      let exprs = [ (Bound_expr.B_col 0, "k") ] in
      let p_seq = Operators.project ~columnar ~stats:seq_stats exprs l in
      let p_par = Operators.project ?parallel ~columnar ~stats:par_stats exprs l in
      let schema = join_schema l r in
      let j_seq =
        Operators.hash_join ~columnar ~stats:seq_stats Logical.Full_outer
          [ (Bound_expr.B_col 0, Bound_expr.B_col 0) ]
          [] l r schema
      in
      let j_par =
        Operators.hash_join ?parallel ~columnar ~stats:par_stats Logical.Full_outer
          [ (Bound_expr.B_col 0, Bound_expr.B_col 0) ]
          [] l r schema
      in
      exact_equal f_seq f_par && exact_equal p_seq p_par
      && exact_equal j_seq j_par
      && Stats.logical_equal seq_stats par_stats)

let inner_join_cardinality =
  qtest ~count:100 "inner join row count = sum over keys of |L_k|*|R_k|"
    QCheck2.Gen.(pair (relation_gen ~arity:2 ~max_rows:12) (relation_gen ~arity:2 ~max_rows:12))
    (fun (l, r) ->
      let count_by_key rel =
        let h = Hashtbl.create 8 in
        Relation.iter
          (fun row ->
            if not (Value.is_null row.(0)) then
              Hashtbl.replace h row.(0)
                (1 + Option.value (Hashtbl.find_opt h row.(0)) ~default:0))
          rel;
        h
      in
      let lh = count_by_key l and rh = count_by_key r in
      let expected =
        Hashtbl.fold
          (fun k n acc ->
            acc + (n * Option.value (Hashtbl.find_opt rh k) ~default:0))
          lh 0
      in
      let joined =
        Operators.join ~stats:(stats ()) Logical.Inner (Some equi_cond) l r
          (join_schema l r)
      in
      Relation.cardinality joined = expected)

(* ------------------------------------------------------------------ *)
(* Aggregate properties                                                *)

let sum_matches_fold =
  qtest ~count:150 "SUM/COUNT agree with folds"
    (relation_gen ~arity:2 ~max_rows:20)
    (fun input ->
      let out =
        Operators.aggregate ~stats:(stats ()) ~keys:[]
          ~aggs:
            [
              {
                Logical.agg_kind = Ast.Sum;
                agg_distinct = false;
                agg_arg = Bound_expr.B_col 0;
              };
              {
                Logical.agg_kind = Ast.Count;
                agg_distinct = false;
                agg_arg = Bound_expr.B_col 0;
              };
            ]
          input
          (Schema.of_names [ "s"; "c" ])
      in
      let expected_sum =
        Relation.fold
          (fun acc row ->
            if Value.is_null row.(0) then acc
            else if Value.is_null acc then row.(0)
            else Value.add acc row.(0))
          Value.Null input
      in
      let expected_count =
        Relation.fold
          (fun acc row -> if Value.is_null row.(0) then acc else acc + 1)
          0 input
      in
      match (Relation.rows out).(0) with
      | [| s; c |] -> Value.equal s expected_sum && Value.equal c (Value.Int expected_count)
      | _ -> false)

let group_partition_property =
  qtest ~count:150 "grouped counts sum to the input size"
    (relation_gen ~arity:2 ~max_rows:25)
    (fun input ->
      let out =
        Operators.aggregate ~stats:(stats ()) ~keys:[ Bound_expr.B_col 0 ]
          ~aggs:
            [
              {
                Logical.agg_kind = Ast.Count_star;
                agg_distinct = false;
                agg_arg = Bound_expr.B_lit Value.Null;
              };
            ]
          input
          (Schema.of_names [ "k"; "n" ])
      in
      let total =
        Relation.fold (fun acc row -> acc + Value.to_int row.(1)) 0 out
      in
      total = Relation.cardinality input)

let distinct_idempotent =
  qtest ~count:150 "distinct is idempotent and bag-bounded"
    (relation_gen ~arity:2 ~max_rows:20)
    (fun input ->
      let d1 = Operators.distinct ~stats:(stats ()) input in
      let d2 = Operators.distinct ~stats:(stats ()) d1 in
      Relation.equal_bag d1 d2
      && Relation.cardinality d1 <= Relation.cardinality input)

let sort_is_permutation =
  qtest ~count:150 "sort permutes and orders"
    (relation_gen ~arity:2 ~max_rows:20)
    (fun input ->
      let sorted =
        Operators.sort ~stats:(stats ()) [ (Bound_expr.B_col 0, false) ] input
      in
      let rows = Relation.rows sorted in
      let ordered = ref true in
      for i = 0 to Array.length rows - 2 do
        if Value.compare rows.(i).(0) rows.(i + 1).(0) > 0 then ordered := false
      done;
      !ordered && Relation.equal_bag input sorted)

(* ------------------------------------------------------------------ *)
(* Merge path = dictionary update                                      *)

let merge_is_keyed_update =
  qtest ~count:150 "merge plan behaves as a keyed dictionary update"
    QCheck2.Gen.(pair (relation_gen ~arity:2 ~max_rows:10) (relation_gen ~arity:2 ~max_rows:10))
    (fun (cte, work) ->
      (* Deduplicate keys first (the rewrite guarantees this via
         Assert_unique_key). *)
      let dedupe rel =
        let seen = Hashtbl.create 8 in
        let rows =
          Array.of_list
            (List.filter
               (fun (row : Row.t) ->
                 if Hashtbl.mem seen row.(0) then false
                 else begin
                   Hashtbl.replace seen row.(0) ();
                   true
                 end)
               (Array.to_list (Relation.rows rel)))
        in
        Relation.make (Relation.schema rel) rows
      in
      let cte = dedupe cte and work = dedupe work in
      let catalog = Catalog.create () in
      Catalog.set_temp catalog "cte" cte;
      Catalog.set_temp catalog "work" work;
      let plan =
        (* Reconstruct the rewrite's merge plan by hand. *)
        let n = 2 in
        let cond =
          Bound_expr.B_binop (Ast.Eq, Bound_expr.B_col 0, Bound_expr.B_col n)
        in
        let joined =
          Logical.join Logical.Left_outer ~cond
            (Logical.scan ~name:"cte" ~schema:(Relation.schema cte))
            (Logical.scan ~name:"work" ~schema:(Relation.schema work))
        in
        Logical.project
          (List.init n (fun i ->
               ( Bound_expr.B_case
                   ( [
                       ( Bound_expr.B_is_null (Bound_expr.B_col n, false),
                         Bound_expr.B_col (n + i) );
                     ],
                     Some (Bound_expr.B_col i) ),
                 Printf.sprintf "c%d" i )))
          joined
      in
      let merged =
        Dbspinner_exec.Executor.run_plan ~stats:(stats ()) catalog plan
      in
      (* Expected: for every cte key, the work row if present else the
         cte row; work-only keys do not appear. *)
      let work_by_key = Hashtbl.create 8 in
      Relation.iter (fun row -> Hashtbl.replace work_by_key row.(0) row) work;
      let expected =
        Array.map
          (fun (row : Row.t) ->
            match Hashtbl.find_opt work_by_key row.(0) with
            | Some w when not (Value.is_null row.(0)) -> w
            | _ -> row)
          (Relation.rows cte)
      in
      Relation.equal_bag merged (Relation.make (Relation.schema cte) expected))

(* ------------------------------------------------------------------ *)
(* Set-operation laws                                                  *)

let set_op_laws =
  qtest ~count:150 "INTERSECT/EXCEPT bag laws"
    QCheck2.Gen.(pair (relation_gen ~arity:2 ~max_rows:15) (relation_gen ~arity:2 ~max_rows:15))
    (fun (a, b) ->
      let inter_all = Operators.intersect ~stats:(stats ()) ~all:true a b in
      let except_all = Operators.except ~stats:(stats ()) ~all:true a b in
      (* |A INTERSECT ALL B| + |A EXCEPT ALL B| = |A| *)
      Relation.cardinality inter_all + Relation.cardinality except_all
      = Relation.cardinality a
      (* A INTERSECT ALL B is symmetric in cardinality *)
      && Relation.cardinality inter_all
         = Relation.cardinality (Operators.intersect ~stats:(stats ()) ~all:true b a)
      (* distinct variants are sub-bags of distinct A *)
      && Relation.cardinality (Operators.intersect ~stats:(stats ()) ~all:false a b)
         <= Relation.cardinality (Operators.distinct ~stats:(stats ()) a)
      && Relation.cardinality (Operators.except ~stats:(stats ()) ~all:false a b)
         <= Relation.cardinality (Operators.distinct ~stats:(stats ()) a))

let except_self_is_empty =
  qtest ~count:100 "A EXCEPT ALL A is empty"
    (relation_gen ~arity:2 ~max_rows:15)
    (fun a ->
      Relation.is_empty (Operators.except ~stats:(stats ()) ~all:true a a))

(* ------------------------------------------------------------------ *)
(* Partitioning and distributed execution                              *)

let partition_preserves_bag =
  qtest ~count:150 "hash partition then merge preserves the bag"
    QCheck2.Gen.(pair (int_range 1 8) (relation_gen ~arity:2 ~max_rows:30))
    (fun (workers, relation) ->
      let parts =
        Partition.by_key ~workers ~key:(fun row -> [| row.(0) |]) relation
      in
      Array.length parts = workers
      && Partition.total_cardinality parts = Relation.cardinality relation
      && Relation.equal_bag (Partition.merge parts) relation)

let partition_colocates_keys =
  qtest ~count:150 "equal keys land on the same worker"
    QCheck2.Gen.(pair (int_range 1 8) (relation_gen ~arity:2 ~max_rows:30))
    (fun (workers, relation) ->
      let parts =
        Partition.by_key ~workers ~key:(fun row -> [| row.(0) |]) relation
      in
      let owner = Hashtbl.create 8 in
      let ok = ref true in
      Array.iteri
        (fun w part ->
          Relation.iter
            (fun row ->
              match Hashtbl.find_opt owner row.(0) with
              | None -> Hashtbl.replace owner row.(0) w
              | Some w' -> if w <> w' then ok := false)
            part)
        parts;
      !ok)

let distributed_matches_single_node =
  qtest ~count:75 "distributed plan = single-node plan"
    QCheck2.Gen.(
      triple (int_range 1 5)
        (relation_gen ~arity:2 ~max_rows:15)
        (relation_gen ~arity:2 ~max_rows:15))
    (fun (workers, l, r) ->
      let catalog = Catalog.create () in
      Catalog.set_temp catalog "l" l;
      Catalog.set_temp catalog "r" r;
      let plan =
        (* join + aggregate + sort: exercises repartition and gather *)
        let joined =
          Logical.join Logical.Left_outer ~cond:equi_cond
            (Logical.scan ~name:"l" ~schema:(Relation.schema l))
            (Logical.scan ~name:"r" ~schema:(Relation.schema r))
        in
        let agg =
          Logical.aggregate
            ~keys:[ Bound_expr.B_col 0 ]
            ~key_names:[ "k" ]
            ~aggs:
              [
                {
                  Logical.agg_kind = Ast.Count_star;
                  agg_distinct = false;
                  agg_arg = Bound_expr.B_lit Value.Null;
                };
              ]
            ~agg_names:[ "n" ] joined
        in
        Logical.sort [ (Bound_expr.B_col 0, false) ] agg
      in
      let single =
        Dbspinner_exec.Executor.run_plan ~stats:(stats ()) catalog plan
      in
      let dist, _ = Distributed.run_plan ~workers catalog plan in
      Relation.equal_bag single dist)

(* ------------------------------------------------------------------ *)
(* delta_count pseudo-metric                                           *)

let dedupe_keys rel =
  let seen = Hashtbl.create 8 in
  let rows =
    Array.of_list
      (List.filter
         (fun (row : Row.t) ->
           if Hashtbl.mem seen row.(0) then false
           else begin
             Hashtbl.replace seen row.(0) ();
             true
           end)
         (Array.to_list (Relation.rows rel)))
  in
  Relation.make (Relation.schema rel) rows

let delta_count_properties =
  (* delta_count assumes unique keys (the rewrite guarantees this via
     Assert_unique_key), so the property deduplicates first. *)
  qtest ~count:150 "delta_count: identity, symmetry, bound"
    QCheck2.Gen.(pair (relation_gen ~arity:2 ~max_rows:15) (relation_gen ~arity:2 ~max_rows:15))
    (fun (a, b) ->
      let a = dedupe_keys a and b = dedupe_keys b in
      let d_aa = Relation.delta_count ~key_idx:0 a a in
      let d_ab = Relation.delta_count ~key_idx:0 a b in
      let d_ba = Relation.delta_count ~key_idx:0 b a in
      d_aa = 0 && d_ab = d_ba
      && d_ab <= Relation.cardinality a + Relation.cardinality b)

let () =
  Alcotest.run "properties"
    [
      ("value", [ value_order_total; value_order_transitive; value_arith_null ]);
      ("parser", [ parser_roundtrip; neg_chain_roundtrip ]);
      ( "joins",
        join_consistency_cases ~columnar:false
        @ [ inner_join_cardinality ]
        @ join_consistency_cases ~columnar:true
        @ join_wide_cases ~columnar:false
        @ join_wide_cases ~columnar:true );
      ( "join-edges",
        join_null_cases ~columnar:false
        @ [
            join_residual_inner;
            join_residual_left;
            join_residual_right;
            join_residual_full;
            parallel_ops_match_sequential ~columnar:false;
          ]
        @ join_null_cases ~columnar:true
        @ [ parallel_ops_match_sequential ~columnar:true ] );
      ( "aggregates",
        [
          sum_matches_fold;
          group_partition_property;
          distinct_idempotent;
          sort_is_permutation;
        ] );
      ("merge", [ merge_is_keyed_update ]);
      ("set-ops", [ set_op_laws; except_self_is_empty ]);
      ( "mpp",
        [
          partition_preserves_bag;
          partition_colocates_keys;
          distributed_matches_single_node;
        ] );
      ("delta", [ delta_count_properties ]);
    ]
