(** Minimal JSON reader for validating the engine's own machine-readable
    output (NDJSON trace events, benchmark reports). Numbers are floats;
    non-ASCII [\uXXXX] escapes decode to ['?']. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error. *)

val member : string -> t -> t option
(** [member key json] is the value bound to [key] when [json] is an
    object containing it. *)
