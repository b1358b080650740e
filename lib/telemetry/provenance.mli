(** Structured log of layout {e decisions}: what each optimizer pass chose
    for each procedure, and why.

    {!Telemetry} counters record aggregate outcomes; {!Timeline} records
    when they happened; this module records the decisions themselves — the
    edge weight that drove a Pettis–Hansen merge, the chains formed for a
    procedure, the hot/cold split point, the color a segment landed on and
    the final placement rank and address.  The explain layer joins these
    events with per-segment miss attribution into the per-procedure layout
    scorecard ([olayout explain], [olayout report --out]).

    Events are keyed by a [subject] procedure id and carry a flat list of
    named fields.  The log preserves record order; under a Domain pool,
    events recorded inside a task buffer in a domain-local shadow (driven
    by [Telemetry.Isolated], never by producers) and merge in
    task-submission order, so the log — and every artifact derived from
    it — is byte-identical at any [-j].

    The subsystem is {b off by default}; while disabled, {!record}
    returns after one flag read, and instrumented passes are expected to
    check {!enabled} once and skip their field computation entirely. *)

type value = Int of int | Float of float | String of string

type event = {
  pv_pass : string;  (** pass name: ["chaining"], ["splitting"],
                         ["pettis_hansen"], ["temporal_order"],
                         ["coloring"], ["placement"] *)
  pv_subject : int;  (** procedure id the decision is about *)
  pv_fields : (string * value) list;
}

val record : pass:string -> subject:int -> (string * value) list -> unit
(** Append one decision event.  One flag read and return while the
    subsystem is disabled. *)

val set_enabled : bool -> unit
(** Default: disabled. *)

val enabled : unit -> bool
(** Passes check this once per invocation and skip decision bookkeeping
    entirely when false, keeping the disabled overhead at one ref read. *)

val reset : unit -> unit
(** Drop every recorded event (for a fresh capture). *)

val events : unit -> event list
(** Every recorded event, in record order (submission order under a
    pool). *)

(** {1 Field access} *)

val field : event -> string -> value option
val int_field : event -> string -> int option

val float_field : event -> string -> float option
(** [Int] fields coerce. *)

val string_field : event -> string -> string option

(** {1 Parallel capture}

    Driven exclusively by [Telemetry.Isolated]: [capture] installs a fresh
    provenance shadow in {!slot} alongside the telemetry one and [merge]
    appends its events in task-submission order.  Producers never call
    these. *)

type shadow

val make_shadow : unit -> shadow
val slot : shadow Shadow.slot

val merge : shadow -> unit
(** Append the shadow's events to the global log and clear it. *)

(** {1 JSONL events} *)

val event_json : event -> Json.t

val events_json : unit -> Json.t list
(** One [{"ev":"provenance",...}] JSONL object per event — appended to the
    telemetry JSONL stream at close so the Chrome-trace export can render
    per-procedure placement spans. *)
