(** Minimal JSON codec for the telemetry sinks (JSONL event stream, the
    bench summary artifact) and the regression tooling that reads those
    artifacts back.  The repository has no JSON dependency: the writer is
    hand-rolled and the decoder below is the promoted version of the
    validating reader the test suite started with. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats are emitted as [null] *)
  | String of string
  | Array of t list
  | Object of (string * t) list

val escape_string : string -> string
(** [escape_string s] is [s] as a quoted JSON string literal, escaping
    quotes, backslashes and control characters. *)

val to_string : t -> string
(** Compact (single-line) rendering — one value per line is what makes the
    JSONL sink greppable. *)

val output : out_channel -> t -> unit

val write_file : string -> t -> unit
(** [write_file path doc] writes [doc] and a trailing newline to [path]
    (truncating) — the one writer behind every JSON artifact. *)

(** {1 Decoding} *)

exception Parse_error of string
(** Raised by {!parse} and {!parse_file} with a description and the byte
    offset of the failure (and the file path, for {!parse_file}). *)

val parse : string -> t
(** Strict parser for a single JSON value: rejects trailing garbage and
    unknown escapes.  Integral number lexemes (no fraction or exponent)
    decode as {!Int} — counters written by this module's writer round-trip
    exactly — everything else as {!Float}. *)

val parse_file : string -> t

(** {1 Accessors}

    Total functions returning [None] on shape mismatch; the regression
    loader layers descriptive schema errors on top. *)

val member : string -> t -> t option
(** Object field lookup ([None] on non-objects and missing keys). *)

val get_string : t -> string option
val get_int : t -> int option

val get_float : t -> float option
(** Accepts both {!Int} and {!Float}. *)

val get_list : t -> t list option
val get_fields : t -> (string * t) list option
