(** The benchmark's own span recorder.

    A span is named [layer/detail] and records its start and end times,
    its parent and the words the program had allocated at both ends.
    Times are written relative to the recorder's creation.
    Spans are kept in preallocated arrays while the run goes on; once the
    capacity is reached further spans are counted as dropped.  While the
    recorder is off, {!span} is a plain call. *)

type t

val create : int -> t
(** [create capacity]; the recorder starts off. *)

val set_on : t -> bool -> unit
val is_on : t -> bool

val dropped : t -> int
(** Spans refused because the capacity was reached. *)

val span : t -> string -> (unit -> 'a) -> 'a

val allocated_words : unit -> float
(** Words the program has allocated so far (minor plus direct major
    allocations). *)

val next_id : t -> int
(** The index the next opened span will get. *)

val attribute : t -> parent:int -> string -> float -> unit
(** [attribute t ~parent name s] records a child of the closed span
    [parent] (an index {!next_id} gave) covering its last [s] seconds: time the program itself
    measured inside a call the benchmark could only time as a whole. *)

val layer : string -> string
(** The part of a span name before its first ['/']. *)

type self = {
  s_root : string;  (** name of the top-level span it ran under *)
  s_name : string;
  s_seconds : float;  (** duration minus the part child spans cover *)
  s_words : float;  (** words allocated minus those children allocated *)
  s_count : int;
}

val self_times : t -> self list
(** Self time and self allocation summed per (top-level span, name), in
    order of first appearance. *)

val to_json : t -> Olayout_telemetry.Json.t
