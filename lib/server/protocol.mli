(** Wire protocol: length-prefixed text frames
    ([<decimal byte length>\n<payload>]) over a stream socket, with
    plain-text request/response payloads. *)

(** Raised on malformed frames or unknown statuses. *)
exception Protocol_error of string

(** Hard cap on an accepted frame's payload size. *)
val max_frame_bytes : int

val write_frame : Unix.file_descr -> string -> unit

(** Write several frames with one [write] syscall (pipelining batch). *)
val write_frames : Unix.file_descr -> string list -> unit

(** Read one frame; [None] on clean EOF at a frame boundary.
    @raise Protocol_error on malformed input.
    @raise End_of_file when the peer dies mid-frame. *)
val read_frame : Unix.file_descr -> string option

type request =
  | Query of string  (** a [;]-separated SQL script *)
  | Set of string * string  (** session option: key, value *)
  | Stats  (** server-wide counters *)
  | Trace  (** this session's trace buffer as NDJSON *)
  | Ping
  | Quit  (** end this session *)
  | Shutdown  (** initiate graceful server shutdown *)

val render_request : request -> string
val parse_request : string -> (request, string) result

type response =
  | Ok_result of string  (** rendered statement results *)
  | Err of string * string  (** error stage, message *)
  | Busy of string  (** admission control rejected the query *)
  | Closing of string  (** server is draining; no new queries *)
  | Pong
  | Bye

val render_response : response -> string

(** @raise Protocol_error on an unknown status line. *)
val parse_response : string -> response

(** {2 Request ids (pipelining)}

    A request payload may carry a client-chosen id as a [#<id>\n]
    prefix; the response echoes the same prefix. The server responds
    strictly in request order per session, so a client can stream N
    request frames back-to-back and then collect the N responses,
    paying one round-trip for the whole batch. Untagged payloads (the
    pre-pipelining format) remain valid and get untagged responses. *)

(** Prefix a rendered payload with a request id.
    @raise Invalid_argument on a negative id. *)
val with_id : int -> string -> string

(** Split a [#<id>\n] prefix off a payload; [(None, payload)] when
    untagged. Only the canonical decimal form {!with_id} emits is a
    tag; a non-canonical one ([#0x10], [#007], [#-0]) is payload. *)
val strip_id : string -> int option * string

(** Split a script into statement fragments at top-level [;] only:
    semicolons inside single-quoted strings ([''] escapes),
    double-quoted identifiers, [--] line comments and [/* */] block
    comments do not split, and comment bodies are dropped from the
    fragments. *)
val split_statements : string -> string list

(** True when every non-empty statement starts with a read-only verb
    (SELECT / WITH / EXPLAIN / VALUES), so the script can run
    lock-free against a pinned MVCC snapshot. Splitting respects
    strings and comments ({!split_statements}); conservative: anything
    unrecognized counts as a write. *)
val read_only : string -> bool
