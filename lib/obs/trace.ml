type counters = {
  c_rows_scanned : int;
  c_rows_joined : int;
  c_rows_materialized : int;
  c_cache_hits : int;
  c_cache_misses : int;
}

let zero_counters =
  {
    c_rows_scanned = 0;
    c_rows_joined = 0;
    c_rows_materialized = 0;
    c_cache_hits = 0;
    c_cache_misses = 0;
  }

type kind = Program | Step | Iteration | Operator

let kind_to_string = function
  | Program -> "program"
  | Step -> "step"
  | Iteration -> "iteration"
  | Operator -> "op"

let kind_of_string = function
  | "program" -> Some Program
  | "step" -> Some Step
  | "iteration" -> Some Iteration
  | "op" -> Some Operator
  | _ -> None

type span = {
  seq : int;
  kind : kind;
  label : string;
  loop_id : int;
  iteration : int;
  rows : int;
  delta : int;
  cum_updates : int;
  wall_ms : float;
  counters : counters;
}

let dummy_span =
  {
    seq = -1;
    kind = Program;
    label = "";
    loop_id = -1;
    iteration = 0;
    rows = -1;
    delta = -1;
    cum_updates = -1;
    wall_ms = 0.;
    counters = zero_counters;
  }

type t = {
  capacity : int;
  buf : span array;
  mutable len : int;  (* number of live spans, <= capacity *)
  mutable head : int;  (* index of the oldest live span *)
  mutable next_seq : int;
  mutable dropped : int;
}

let create ?(capacity = 8192) () =
  let capacity = max 1 capacity in
  {
    capacity;
    buf = Array.make capacity dummy_span;
    len = 0;
    head = 0;
    next_seq = 0;
    dropped = 0;
  }

let emit t ~kind ~label ?(loop_id = -1) ?(iteration = 0) ?(rows = -1)
    ?(delta = -1) ?(cum_updates = -1) ~wall_ms ~counters () =
  let span =
    {
      seq = t.next_seq;
      kind;
      label;
      loop_id;
      iteration;
      rows;
      delta;
      cum_updates;
      wall_ms;
      counters;
    }
  in
  t.next_seq <- t.next_seq + 1;
  if t.len < t.capacity then begin
    t.buf.((t.head + t.len) mod t.capacity) <- span;
    t.len <- t.len + 1
  end
  else begin
    (* full: overwrite the oldest span *)
    t.buf.(t.head) <- span;
    t.head <- (t.head + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end

let next_seq t = t.next_seq

let dropped t = t.dropped

let spans ?(min_seq = 0) t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let s = t.buf.((t.head + i) mod t.capacity) in
    if s.seq >= min_seq then out := s :: !out
  done;
  !out

let iteration_spans ?min_seq t =
  List.filter (fun s -> s.kind = Iteration) (spans ?min_seq t)

(* NDJSON export ------------------------------------------------------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let span_to_json s =
  let c = s.counters in
  (* Every string field goes through [escape_string]: OCaml's [%S]
     emits decimal escapes like [\123] that are not valid JSON, so it
     must never be used here. *)
  Printf.sprintf
    "{\"seq\": %d, \"kind\": \"%s\", \"label\": \"%s\", \"loop\": %d, \
     \"iter\": %d, \"rows\": %d, \"delta\": %d, \"cum_updates\": %d, \
     \"wall_ms\": %.4f, \"scanned\": %d, \"joined\": %d, \"materialized\": \
     %d, \"cache_hits\": %d, \"cache_misses\": %d}"
    s.seq
    (escape_string (kind_to_string s.kind))
    (escape_string s.label) s.loop_id s.iteration
    s.rows s.delta s.cum_updates s.wall_ms c.c_rows_scanned c.c_rows_joined
    c.c_rows_materialized c.c_cache_hits c.c_cache_misses

let to_ndjson ?min_seq t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf (span_to_json s);
      Buffer.add_char buf '\n')
    (spans ?min_seq t);
  Buffer.contents buf

(* EXPLAIN ANALYZE timeline ------------------------------------------- *)

let render_timeline ?min_seq t =
  let iters = iteration_spans ?min_seq t in
  if iters = [] then ""
  else begin
    let loops =
      List.sort_uniq compare (List.map (fun s -> s.loop_id) iters)
    in
    let buf = Buffer.create 512 in
    List.iter
      (fun loop_id ->
        let rows_of =
          List.filter (fun s -> s.loop_id = loop_id) iters
        in
        Buffer.add_string buf
          (Printf.sprintf "Convergence timeline (loop @%d):\n" loop_id);
        Buffer.add_string buf
          "  iter |     rows |    delta |  cum_upd |  wall_ms | cache h/m\n";
        List.iter
          (fun s ->
            let c = s.counters in
            let int_cell n = if n < 0 then "       ?" else Printf.sprintf "%8d" n in
            Buffer.add_string buf
              (Printf.sprintf "  %4d | %s | %s | %s | %8.2f | %4d/%d\n"
                 s.iteration (int_cell s.rows) (int_cell s.delta)
                 (int_cell s.cum_updates) s.wall_ms c.c_cache_hits
                 c.c_cache_misses))
          rows_of)
      loops;
    Buffer.contents buf
  end

(* Event schema validation --------------------------------------------- *)

let validate_event line =
  match Json.parse line with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok json -> (
    match json with
    | Json.Obj _ ->
      let check_int key k =
        match Json.member key json with
        | Some (Json.Num f) when Float.is_integer f -> k ()
        | Some _ -> Error (Printf.sprintf "field %S is not an integer" key)
        | None -> Error (Printf.sprintf "missing field %S" key)
      in
      let rec check_ints keys k =
        match keys with
        | [] -> k ()
        | key :: rest -> check_int key (fun () -> check_ints rest k)
      in
      let check_kind k =
        match Json.member "kind" json with
        | Some (Json.Str s) -> (
          match kind_of_string s with
          | Some _ -> k ()
          | None -> Error (Printf.sprintf "unknown span kind %S" s))
        | Some _ -> Error "field \"kind\" is not a string"
        | None -> Error "missing field \"kind\""
      in
      let check_label k =
        match Json.member "label" json with
        | Some (Json.Str _) -> k ()
        | Some _ -> Error "field \"label\" is not a string"
        | None -> Error "missing field \"label\""
      in
      let check_wall k =
        match Json.member "wall_ms" json with
        | Some (Json.Num f) when f >= 0. -> k ()
        | Some _ -> Error "field \"wall_ms\" is not a non-negative number"
        | None -> Error "missing field \"wall_ms\""
      in
      check_kind (fun () ->
          check_label (fun () ->
              check_wall (fun () ->
                  check_ints
                    [
                      "seq";
                      "loop";
                      "iter";
                      "rows";
                      "delta";
                      "cum_updates";
                      "scanned";
                      "joined";
                      "materialized";
                      "cache_hits";
                      "cache_misses";
                    ]
                    (fun () -> Ok ()))))
    | _ -> Error "trace event is not a JSON object")
