(** Process-wide instrumentation for the reproduction pipeline.

    Three kinds of instruments, all registered in a global registry under
    dotted string names ([subsystem.metric]):

    - {b counters} — monotonic ints behind handles; resolving the handle
      (once, at module initialization) pays the hashtable lookup, so the
      increment on a hot path (per fetch run, per cache access) is a single
      memory write.  Counters are {e always} live: they feed user-visible
      features such as [--trace-stats] whether or not span telemetry is
      enabled.
    - {b gauges} — float values with set/accumulate semantics (e.g. resident
      trace-cache bytes, cumulative replay seconds).
    - {b histograms} — power-of-two bucketed int distributions (bucket 0
      holds values <= 0; bucket i >= 1 holds [2^(i-1), 2^i)).

    {b Spans} measure wall-clock around a thunk and nest: each span's path
    is its ancestors' names joined with ['/'] (e.g.
    ["report/fig7/optimize/chaining"]).  Aggregates (count, total, max per
    path) accumulate in the registry; when a JSONL sink is attached every
    span completion also appends one JSON event line.  When telemetry is
    {e disabled} ({!set_enabled}[ false]), {!span} is a direct call to the
    thunk — no clock reads, no allocation.

    The registry is process-global.  On the serial path every write is a
    direct memory update, exactly as before.  Under a Domain work pool
    ({!Shadow.set_parallel}), writes made inside {!Isolated.capture} land
    in a domain-local shadow registry (dense arrays indexed by handle id,
    resolved through a {!Shadow.slot}); {!Isolated.merge} folds a shadow into
    the global registry deterministically — snapshots merged in submission
    order, instrument names sorted within each snapshot — so a parallel
    run reproduces the serial counter values bit-for-bit. *)

val set_enabled : bool -> unit
(** Enable/disable span recording (default: enabled).  Counters, gauges and
    histograms are unaffected — they are cheap enough to always run and
    back always-on reporting ([--trace-stats]). *)

val enabled : unit -> bool

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find-or-register the counter named [name].  The same name always yields
    the same handle. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
val observe : histogram -> int -> unit

val histogram_buckets : histogram -> (int * int) list
(** Non-empty buckets as [(bucket floor, count)], ascending. *)

type tally = private int array
(** Histogram observations collected privately, one array write each, for
    a hot loop to publish in one step.  Only {!tally} makes one, with one
    slot per bucket; the loop books into [(t :> int array)] itself
    ([Render]'s merger does), where slot [b] counts the observations in
    bucket [b]: [0] for a value [<= 0], else the value's bit length,
    clamped to the last slot. *)

val tally : unit -> tally
(** An empty tally. *)

val publish_tally : histogram -> tally -> unit
(** Add the tally's observations to the histogram, exactly as if each had
    been {!observe}d there, and empty the tally. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span.  Disabled path: tail call to
    [f]. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** As {!span} but also returns the elapsed wall seconds.  The duration is
    measured even when telemetry is disabled (callers print it), but
    nothing is recorded then. *)

type span_stat = {
  span_path : string;
  span_count : int;
  span_total_s : float;
  span_max_s : float;
}

val span_stats : unit -> span_stat list
(** Aggregated spans, sorted by path. *)

val current_span_stack : unit -> string list
(** The active span paths, innermost first (domain-local under a pool).
    Pass to {!Isolated.capture} as [inherit_spans] so spans opened inside a
    pool task nest under the dispatcher's path exactly as they would have
    serially. *)

(** {1 Parallel capture}

    The Domain work pool ([Olayout_par.Pool]) runs every task inside
    {!Isolated.capture} and merges the snapshots back in submission order,
    which keeps deterministic counters identical between [-j 1] and
    [-j N]. *)

val in_isolated : unit -> bool
(** True while executing inside {!Isolated.capture} (i.e. inside a pool
    task).  Used as a guard by code that must not run on a worker, such as
    a live workload walk that mutates shared state. *)

module Isolated : sig
  type snapshot
  (** Every instrument write made during one {!capture}: counter deltas,
      gauge updates (with set-vs-accumulate semantics preserved), histogram
      buckets, span aggregates, and buffered JSONL events. *)

  val capture : inherit_spans:string list -> (unit -> 'a) -> 'a * snapshot
  (** Run [f] with a fresh domain-local shadow registry (nesting restores
      the previous shadow on exit, even on exceptions).  [inherit_spans]
      seeds the shadow's span stack — pass the dispatcher's
      {!current_span_stack} so paths match the serial run. *)

  val merge : snapshot -> unit
  (** Fold the snapshot into the global registry (names sorted within the
      snapshot) and flush its buffered JSONL events.  Call from the
      dispatching domain, in task-submission order. *)

  val snap_counter : snapshot -> string -> int
  (** The snapshot's own delta for a named counter (0 if untouched). *)

  val snap_gauge : snapshot -> string -> float
  (** The snapshot's accumulated value for a named gauge (0 if untouched). *)
end

(** {1 Registry snapshots} *)

val counters : unit -> (string * int) list
(** All registered counters, sorted by name (zero-valued included, so two
    snapshots of the same process always align). *)

val gauges : unit -> (string * float) list
val histograms : unit -> (string * (int * int) list) list

val reset : unit -> unit
(** Zero every registered instrument and drop span aggregates.  Handles
    stay valid (they are zeroed in place, not removed). *)

(** {1 Watched instruments}

    Counters and gauges registered here are sampled into an attached JSONL
    sink at every span completion as [{"ev":"sample","t_s":...,"name":...,
    "value":...}] lines — the value-over-time stream behind the Chrome
    trace export's counter tracks.  No-ops while no sink is attached. *)

val watch_counter : counter -> unit
val watch_gauge : gauge -> unit

(** {1 Sinks} *)

val open_jsonl_file : string -> unit
(** Attach a JSONL event sink writing to [path] (truncates; closes any
    previously attached sink).  Each span completion appends one JSON
    object per line. *)

val close_jsonl : unit -> unit
(** Flush a final registry dump (counter/gauge/histogram/span_summary
    events) and close the sink.  No-op when none is attached. *)

val pp_summary : Format.formatter -> unit -> unit
(** Pretty console summary of span aggregates and the registry. *)
