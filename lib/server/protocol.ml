(** Wire protocol for the DBSpinner server: length-prefixed text
    frames over a stream socket.

    A frame is [<decimal byte length>\n<payload>]. Length-prefixing
    (rather than newline-framing) lets SQL scripts and rendered result
    tables cross the wire verbatim, embedded newlines and all.

    Request payloads are [<VERB>] or [<VERB>\n<body>]; response
    payloads are [<STATUS>] or [<STATUS ...>\n<body>]. Both sides are
    plain text so a session is debuggable with a hex dump. *)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

(** Upper bound on an accepted frame; a malformed peer cannot make the
    server allocate unbounded memory. *)
let max_frame_bytes = 16 * 1024 * 1024

exception Protocol_error of string

(** Retry a syscall interrupted by a signal: the server handles
    SIGPIPE/shutdown signals, and a mid-[read] EINTR must not tear down
    a healthy session. *)
let rec eintr_safe f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> eintr_safe f

let really_read fd buf ofs len =
  let read = ref 0 in
  while !read < len do
    let n = eintr_safe (fun () -> Unix.read fd buf (ofs + !read) (len - !read)) in
    if n = 0 then raise End_of_file;
    read := !read + n
  done

let really_write fd s =
  let buf = Bytes.of_string s in
  let len = Bytes.length buf in
  let written = ref 0 in
  while !written < len do
    written :=
      !written + eintr_safe (fun () -> Unix.write fd buf !written (len - !written))
  done

let write_frame fd payload =
  really_write fd
    (Printf.sprintf "%d\n%s" (String.length payload) payload)

(** Write several frames with one [write]: a pipelining client streams
    its whole batch in a single syscall instead of N round-trips. *)
let write_frames fd payloads =
  let buf = Buffer.create 256 in
  List.iter
    (fun payload ->
      Buffer.add_string buf (string_of_int (String.length payload));
      Buffer.add_char buf '\n';
      Buffer.add_string buf payload)
    payloads;
  really_write fd (Buffer.contents buf)

(** Read one frame; [None] on a clean EOF at a frame boundary.
    @raise Protocol_error on a malformed or oversized header.
    @raise End_of_file when the peer dies mid-frame. *)
let read_frame fd : string option =
  let header = Buffer.create 12 in
  let byte = Bytes.create 1 in
  let rec read_header () =
    match eintr_safe (fun () -> Unix.read fd byte 0 1) with
    | 0 ->
      if Buffer.length header = 0 then None
      else raise End_of_file
    | _ -> (
      match Bytes.get byte 0 with
      | '\n' -> Some (Buffer.contents header)
      | c when c >= '0' && c <= '9' ->
        if Buffer.length header > 9 then
          raise (Protocol_error "frame header too long");
        Buffer.add_char header c;
        read_header ()
      | c ->
        raise
          (Protocol_error
             (Printf.sprintf "invalid byte %C in frame header" c)))
  in
  match read_header () with
  | None -> None
  | Some digits ->
    let len =
      match int_of_string_opt digits with
      | Some n when n >= 0 && n <= max_frame_bytes -> n
      | Some n ->
        raise
          (Protocol_error (Printf.sprintf "frame of %d bytes exceeds limit" n))
      | None -> raise (Protocol_error "empty frame header")
    in
    let buf = Bytes.create len in
    really_read fd buf 0 len;
    Some (Bytes.to_string buf)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type request =
  | Query of string  (** a [;]-separated SQL script *)
  | Set of string * string  (** session option: key, value *)
  | Stats  (** server-wide counters *)
  | Trace  (** this session's trace buffer as NDJSON *)
  | Ping
  | Quit  (** end this session *)
  | Shutdown  (** initiate graceful server shutdown *)

let split_head payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i ->
    ( String.sub payload 0 i,
      String.sub payload (i + 1) (String.length payload - i - 1) )

let render_request = function
  | Query sql -> "QUERY\n" ^ sql
  | Set (k, v) -> Printf.sprintf "SET %s %s" k v
  | Stats -> "STATS"
  | Trace -> "TRACE"
  | Ping -> "PING"
  | Quit -> "QUIT"
  | Shutdown -> "SHUTDOWN"

let parse_request payload : (request, string) result =
  let head, body = split_head payload in
  match String.split_on_char ' ' (String.trim head) with
  | [ "QUERY" ] ->
    if String.trim body = "" then Error "QUERY requires a SQL body"
    else Ok (Query body)
  | "SET" :: key :: rest when key <> "" && rest <> [] ->
    Ok (Set (key, String.concat " " rest))
  | [ "STATS" ] -> Ok Stats
  | [ "TRACE" ] -> Ok Trace
  | [ "PING" ] -> Ok Ping
  | [ "QUIT" ] -> Ok Quit
  | [ "SHUTDOWN" ] -> Ok Shutdown
  | verb :: _ -> Error (Printf.sprintf "unknown request verb %s" verb)
  | [] -> Error "empty request"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

type response =
  | Ok_result of string  (** rendered statement results *)
  | Err of string * string  (** error stage, message *)
  | Busy of string  (** admission control rejected the query *)
  | Closing of string  (** server is draining; no new queries *)
  | Pong
  | Bye

let render_response = function
  | Ok_result body -> "OK\n" ^ body
  | Err (stage, msg) -> Printf.sprintf "ERR %s\n%s" stage msg
  | Busy msg -> "BUSY\n" ^ msg
  | Closing msg -> "CLOSING\n" ^ msg
  | Pong -> "PONG"
  | Bye -> "BYE"

let parse_response payload : response =
  let head, body = split_head payload in
  match String.split_on_char ' ' (String.trim head) with
  | [ "OK" ] -> Ok_result body
  | "ERR" :: stage -> Err (String.concat " " stage, body)
  | [ "BUSY" ] -> Busy body
  | [ "CLOSING" ] -> Closing body
  | [ "PONG" ] -> Pong
  | [ "BYE" ] -> Bye
  | _ -> raise (Protocol_error ("unknown response status: " ^ head))

(* ------------------------------------------------------------------ *)
(* Request ids (pipelining)                                            *)

(** A request payload may carry a client-chosen id as a [#<id>\n]
    prefix; the response to it echoes the same prefix. The server
    answers strictly in request order per session, so a client can
    stream a whole batch of frames and then collect the responses,
    paying one round-trip for N statements instead of N. *)
let with_id id payload =
  if id < 0 then invalid_arg "Protocol.with_id: negative id";
  Printf.sprintf "#%d\n%s" id payload

(** Split a [#<id>\n] prefix off a payload; [(None, payload)] when the
    payload is untagged (the pre-pipelining wire format). Only the
    canonical decimal form {!with_id} emits counts as a tag, so the
    echoed tag is byte-identical to the one received; anything else
    ([#0x10], [#007], [#-0], [#+5], [#1_0], an overflowing id) is
    payload. *)
let strip_id payload =
  let n = String.length payload in
  if n = 0 || payload.[0] <> '#' then (None, payload)
  else
    match String.index_opt payload '\n' with
    | None -> (None, payload)
    | Some nl -> (
      let digits = String.sub payload 1 (nl - 1) in
      match int_of_string_opt digits with
      | Some id when id >= 0 && String.equal (string_of_int id) digits ->
        (Some id, String.sub payload (nl + 1) (n - nl - 1))
      | _ -> (None, payload))

(* ------------------------------------------------------------------ *)
(* Statement classification (admission / locking)                      *)

(** Split a script into statement fragments at top-level [;] only:
    semicolons inside single-quoted strings (with [''] escapes),
    double-quoted identifiers, [--] line comments and [/* */] block
    comments do not split. Comment bodies are dropped from the
    fragments so a leading comment cannot masquerade as a statement's
    first word. An unterminated string or comment swallows the rest of
    the script into the current fragment — the classifier below treats
    anything unrecognized as a write, so malformed input stays on the
    conservative path. *)
let split_statements sql =
  let n = String.length sql in
  let fragments = ref [] in
  let buf = Buffer.create 64 in
  let flush () =
    fragments := Buffer.contents buf :: !fragments;
    Buffer.clear buf
  in
  let i = ref 0 in
  while !i < n do
    let c = sql.[!i] in
    if c = '-' && !i + 1 < n && sql.[!i + 1] = '-' then
      (* Line comment: skip to (but not past) the newline, which then
         lands in the fragment as ordinary whitespace. *)
      while !i < n && sql.[!i] <> '\n' do
        incr i
      done
    else if c = '/' && !i + 1 < n && sql.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if sql.[!i] = '*' && !i + 1 < n && sql.[!i + 1] = '/' then begin
          i := !i + 2;
          closed := true
        end
        else incr i
      done;
      (* Keep the tokens on either side of a stripped comment apart. *)
      Buffer.add_char buf ' '
    end
    else if c = '\'' || c = '"' then begin
      (* Copy the quoted literal/identifier verbatim; a doubled quote
         is an escape, not a terminator. *)
      Buffer.add_char buf c;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        Buffer.add_char buf sql.[!i];
        if sql.[!i] = c then
          if !i + 1 < n && sql.[!i + 1] = c then begin
            Buffer.add_char buf c;
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else incr i
      done
    end
    else if c = ';' then begin
      flush ();
      incr i
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  flush ();
  List.rev !fragments

(** True when every non-empty statement of [sql] starts with a
    read-only verb, so the script can run lock-free against a pinned
    MVCC snapshot. Statement splitting respects string literals and
    comments (see {!split_statements}); conservative: anything
    unrecognized counts as a write. *)
let read_only sql =
  let fragment_read_only frag =
    let frag = String.trim frag in
    if frag = "" then true
    else
      let word =
        let n = String.length frag in
        let rec stop i =
          if i >= n then i
          else
            match frag.[i] with
            | 'a' .. 'z' | 'A' .. 'Z' -> stop (i + 1)
            | _ -> i
        in
        String.lowercase_ascii (String.sub frag 0 (stop 0))
      in
      match word with
      | "select" | "with" | "explain" | "values" -> true
      | _ -> false
  in
  List.for_all fragment_read_only (split_statements sql)
