(** The run artifacts [olayout report --out DIR] writes: one entry per
    kind, naming its file stem, its schema and its producer.

    Kinds are written in list order, and the order matters: each document
    snapshots the process state at its turn.  BENCH comes first, before
    the EXPLAIN and DIAG measurements add their own spans and counters;
    TIMELINE freezes its series before those replays feed more of the
    stream, so every run leg (serial, [-j N], either sweep engine) writes
    byte-identical TIMELINE, EXPLAIN, DRIFT and RELAYOUT files.  DIAG
    comes last. *)

type run = {
  ctx : Context.t;
  scale : string;  (** ["quick"] or ["full"], the file-name suffix *)
  total_seconds : float;  (** the [bench.total] span *)
  report : Report.result;
}

type kind = {
  stem : string;  (** [DIR/<stem>_<scale>.json] *)
  schema : string;
  produce : Format.formatter -> run -> Olayout_telemetry.Json.t option;
      (** Builds the document, printing its console summary; [None] when
          the run has nothing to write (DRIFT and RELAYOUT come from their
          experiments' results, so they need those experiments
          selected). *)
}

val kinds : kind list
(** BENCH, TIMELINE, EXPLAIN, DRIFT, RELAYOUT, DIAG.  TIMELINE's series
    are only recorded while [Timeline] is enabled, from before the context
    is built. *)

val path : dir:string -> scale:string -> ?ext:string -> string -> string
(** [path ~dir ~scale stem] is [DIR/<stem>_<scale>.<ext>] ([ext] defaults
    to ["json"]); the driver also names its TELEMETRY JSONL stream, the
    TRACE export and the COMPARE verdict with it. *)

val write_all : dir:string -> Format.formatter -> run -> unit
(** Produce and write every kind into [dir], in list order. *)
