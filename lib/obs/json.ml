(** A minimal JSON reader used to validate the engine's own
    machine-readable output (NDJSON trace events, benchmark reports)
    without an external dependency. It accepts standard JSON;
    numbers are parsed as OCaml floats, and [\uXXXX] escapes outside
    ASCII decode to ['?'] — good enough for schema validation, not a
    general-purpose codec. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail "expected '%c' at offset %d, got '%c'" c st.pos d
  | None -> fail "expected '%c' at offset %d, got end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.src then fail "truncated \\u escape";
          let hex = String.sub st.src st.pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "invalid \\u escape \\u%s" hex
          in
          st.pos <- st.pos + 4;
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?'
        | c -> fail "invalid escape \\%c" c);
        loop ())
    | Some c when Char.code c < 0x20 -> fail "raw control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail "invalid number %S at offset %d" text start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_arr st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail "unexpected character '%c' at offset %d" c st.pos

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
    advance st;
    Obj []
  | _ ->
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        members ((key, v) :: acc)
      | Some '}' ->
        advance st;
        Obj (List.rev ((key, v) :: acc))
      | _ -> fail "expected ',' or '}' at offset %d" st.pos
    in
    members []

and parse_arr st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
    advance st;
    Arr []
  | _ ->
    let rec elements acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        elements (v :: acc)
      | Some ']' ->
        advance st;
        Arr (List.rev (v :: acc))
      | _ -> fail "expected ',' or ']' at offset %d" st.pos
    in
    elements []

let parse (src : string) : (t, string) result =
  let st = { src; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then
      fail "trailing garbage at offset %d" st.pos;
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None
