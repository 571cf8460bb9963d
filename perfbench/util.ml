(* Pure helpers of the benchmark: order statistics, ratios printed with
   their base, the server's STATS body, and the benchmark's own spans.
   Kept free of I/O so the tests in test/ can pin them down. *)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> invalid_arg "median: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the same rule as Python's [statistics.quantiles(xs,
   n=4)] (the default "exclusive" method), so the spreads printed here
   match the ones computed over repeated runs. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len < 2 then invalid_arg "quartiles: need at least two samples";
  let m = len + 1 in
  let cut i =
    let j = max 1 (min (len - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* Nearest-rank percentile of a non-empty sample. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest percentile of [tail_ladder] that leaves at least ten
   samples beyond it, so a tail figure always rests on ten
   observations. [None] below twenty samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 -. 1e-9)
    tail_ladder

let geomean = function
  | [] -> invalid_arg "geomean: no values"
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Ratios with their base                                              *)

type ratio = {
  num : float;
  den : float;
}

let ratio num den = { num; den }

(* 0 when the base is empty: "no attempts" reads as "nothing useful". *)
let ratio_value r = if r.den = 0.0 then 0.0 else r.num /. r.den

let ratio_to_string r =
  if r.den = 0.0 then Printf.sprintf "n/a (%g/%g)" r.num r.den
  else Printf.sprintf "%.4f (%g/%g)" (ratio_value r) r.num r.den

(* ------------------------------------------------------------------ *)
(* Server STATS                                                        *)

type server_stats = {
  queries_ok : int;
  queries_err : int;
  queries_read : int;
  queries_write : int;
  rejected : int;
  p50_ms : float;
  p99_ms : float;
  snapshot_version : int;
  plan_hits : int;
  plan_misses : int;
  fsync_policy : string;
  wal_records : int;
  wal_bytes : int;
  wal_fsyncs : int;
  checkpoints : int;
}

let stats_of_assoc kv =
  let find k =
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> failwith ("STATS lacks " ^ k)
  in
  let int k =
    match int_of_string_opt (find k) with
    | Some i -> i
    | None -> failwith (Printf.sprintf "STATS %s is not an integer" k)
  in
  let float k =
    match float_of_string_opt (find k) with
    | Some f -> f
    | None -> failwith (Printf.sprintf "STATS %s is not a number" k)
  in
  {
    queries_ok = int "queries_ok";
    queries_err = int "queries_err";
    queries_read = int "queries_read";
    queries_write = int "queries_write";
    rejected = int "rejected";
    p50_ms = float "p50_ms";
    p99_ms = float "p99_ms";
    snapshot_version = int "snapshot_version";
    plan_hits = int "plan_hits";
    plan_misses = int "plan_misses";
    fsync_policy = find "fsync_policy";
    wal_records = int "wal_records";
    wal_bytes = int "wal_bytes";
    wal_fsyncs = int "wal_fsyncs";
    checkpoints = int "checkpoints";
  }

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* One timed call into a layer, recorded by the benchmark around the
   call. [parent] is the id of the enclosing span (-1 at a root) and
   [stmt] numbers the statement the span belongs to. *)
type span = {
  id : int;
  name : string;
  start_s : float;
  stop_s : float;
  parent : int;
  stmt : int;
}

let duration s = s.stop_s -. s.start_s

type recorder = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
}

let recorder () = { spans = []; next_id = 0 }

(* Run [f id] inside a new span; the span is recorded even when [f]
   raises. *)
let with_span r ?(parent = -1) ~stmt name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let start_s = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      r.spans <-
        { id; name; start_s; stop_s = Unix.gettimeofday (); parent; stmt }
        :: r.spans)
    (fun () -> f id)

let spans r = List.sort (fun a b -> Int.compare a.id b.id) r.spans

let span_to_json s =
  Printf.sprintf
    {|{"id":%d,"name":%S,"start":%.6f,"end":%.6f,"parent":%d,"stmt":%d}|}
    s.id s.name s.start_s s.stop_s s.parent s.stmt

let span_of_json line =
  let module J = Dbspinner_obs.Json in
  match J.parse line with
  | Error e -> Error e
  | Ok j -> (
    let num k =
      match J.member k j with Some (J.Num f) -> Some f | _ -> None
    in
    match
      (num "id", J.member "name" j, num "start", num "end", num "parent",
       num "stmt")
    with
    | Some id, Some (J.Str name), Some start_s, Some stop_s, Some parent,
      Some stmt ->
      Ok
        {
          id = int_of_float id;
          name;
          start_s;
          stop_s;
          parent = int_of_float parent;
          stmt = int_of_float stmt;
        }
    | _ -> Error ("not a span: " ^ line))

let spans_of_ndjson text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.fold_left
       (fun acc line ->
         match (acc, span_of_json line) with
         | Error e, _ | Ok _, Error e -> Error e
         | Ok xs, Ok s -> Ok (s :: xs))
       (Ok [])
  |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* The result line                                                     *)

(* A JSON number with every digit kept; non-finite values have no JSON
   form and mean a broken measurement. *)
let json_number f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "json_number: %f is not finite" f)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf {|%S: {"value": %s, "unit": %S}|} name (json_number value)
      unit
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
