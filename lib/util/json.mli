(** Minimal JSON serialization and parsing — the one escaping/printing
    path shared by every JSON producer in the tree (CLI summaries, bench
    output, trace files), plus the parser behind the serving layer's
    line-delimited protocol (docs/SERVING.md).

    Non-finite floats have no JSON spelling and are emitted as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Render with 2-space indentation, or on one line with [~compact:true]. *)
val to_string : ?compact:bool -> t -> string

(** {1 Parsing}

    A number that is integral and fits in [int] parses as [Int], anything
    else numeric as [Float] — mirroring the writer, which prints integral
    floats without a point.  String escapes cover the JSON set including
    [\uXXXX] (decoded to UTF-8). *)

exception Parse_error of { pos : int; message : string }

(** Parse one complete JSON value; trailing non-whitespace is an error.
    Raises {!Parse_error}. *)
val of_string : string -> t

(** {!of_string} with the error rendered as ["at offset N: ..."]. *)
val parse : string -> (t, string) result

(** {1 Accessors} — shallow, [None] on a shape mismatch. *)

val member : string -> t -> t option

val as_str : t -> string option

val as_int : t -> int option

(** [Int] widens to [float]; everything non-numeric is [None]. *)
val as_float : t -> float option

val as_bool : t -> bool option

val as_list : t -> t list option

val as_obj : t -> (string * t) list option
