(** Named metrics and the one-line result object the benchmark prints
    last. *)

type t

val valid_name : string -> bool
(** 1 to 64 letters, digits, [_], [.] and [-], starting with a letter or
    a digit. *)

val valid_unit : string -> bool
(** 1 to 16 letters, digits, [_], [/], [%], [.] and [-]. *)

val make : string -> string -> float -> t
(** [make name unit value].
    @raise Invalid_argument on an invalid name or unit, or a non-finite
    value. *)

val to_json : t list -> Olayout_telemetry.Json.t
(** [{name: {"value", "unit"}}] in list order. *)

val result_json :
  correct:bool -> attempted:int -> failed:int -> t list -> Olayout_telemetry.Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}].
    @raise Invalid_argument when a name repeats. *)
