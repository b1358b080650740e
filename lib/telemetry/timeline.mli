(** Windowed metric series over the {e simulated instruction clock}.

    Every aggregate in {!Telemetry} answers "how much, in total"; this
    module answers "when, along the trace".  A series divides the
    instruction stream into fixed-width windows and accumulates either
    counter deltas ({!Delta}: values are summed per window) or gauge
    samples ({!Sample}: last write wins; export carries the value forward
    through unwritten windows).  Positions are producer-local cumulative
    instruction counts — there is no global clock to synchronize — and
    because the instruction stream of a seeded workload is deterministic,
    the series are byte-identical at any [-j] and under either sweep
    engine (the CI legs [cmp] the artifacts).

    Parallel discipline mirrors {!Telemetry}: writes inside a pool task
    land in a domain-local shadow (installed and merged by
    [Telemetry.Isolated], never directly by producers or the pool), and
    merges happen in task-submission order, which also makes {!Sample}
    last-write-wins deterministic.

    The subsystem is {b off by default}; while disabled, {!add} and
    {!sample} return after one flag read, and instrumented producers are
    expected to skip their own bookkeeping too (checked once at
    construction time). *)

type kind =
  | Delta  (** per-window sums of integer deltas (misses, instructions) *)
  | Sample  (** per-window last-write-wins snapshots (working-set size) *)

val kind_name : kind -> string
(** ["delta"] / ["sample"] — the spelling used in artifacts and JSONL. *)

(** {1 Bare series}

    A single unregistered series with its own window width — the building
    block the registry wraps, also usable standalone (e.g.
    [Profile.Sampler]'s windowed sample counts). *)

module Series : sig
  type t

  val create : ?kind:kind -> window:int -> unit -> t
  (** @raise Invalid_argument when [window < 1]. *)

  val add : t -> pos:int -> int -> unit
  (** Accumulate a delta into the window containing [pos] (negative
      positions clamp to 0).  Zero deltas are skipped, so the window count
      reflects only positions where something happened. *)

  val sample : t -> pos:int -> int -> unit
  (** Record a snapshot value in the window containing [pos]. *)

  val window : t -> int
  val kind : t -> kind

  val windows : t -> int
  (** Number of windows in use (highest written index + 1; 0 when never
      written). *)

  val values : t -> int array
  (** Per-window values, length {!windows}.  [Delta]: raw sums, unwritten
      windows are 0.  [Sample]: the last written value carries forward
      through unwritten windows. *)

  val total : t -> int
  (** [Delta] only: sum of every delta ever added (0 for [Sample]). *)
end

(** {1 Registered series} *)

type series
(** A named series in the global registry.  Registration follows the
    {!Telemetry.counter} convention: find-or-register under a dotted name,
    the same name always yields the same handle ([kind] is fixed by the
    first registration). *)

val series : ?kind:kind -> string -> series
val series_name : series -> string
val series_kind : series -> kind

val add : series -> pos:int -> int -> unit
(** One flag read and return while the subsystem is disabled. *)

val sample : series -> pos:int -> int -> unit

(** {1 Configuration} *)

val set_enabled : bool -> unit
(** Default: disabled. *)

val enabled : unit -> bool
(** Producers check this once at construction and skip their position /
    delta bookkeeping entirely when false, keeping the disabled overhead
    at effectively zero. *)

val set_window : int -> unit
(** Set the window width (instructions) and clear every registered
    series' data.  Call before the instrumented run, never while a pool
    is live.
    @raise Invalid_argument when [< 1]. *)

val window : unit -> int
(** Current window width (default 65536). *)

val reset : unit -> unit
(** Clear every registered series' data; handles stay valid. *)

(** {1 Parallel capture}

    Driven exclusively by [Telemetry.Isolated]: [capture] installs a fresh
    timeline shadow in {!slot} alongside the telemetry one and [merge]
    folds it back in task-submission order.  Producers never call these. *)

type shadow

val make_shadow : unit -> shadow
val slot : shadow Shadow.slot

val merge : shadow -> unit
(** Fold the shadow's rows into the global registry ([Delta] windows
    add, [Sample] windows overwrite) and clear it. *)

(** {1 Reporting} *)

type dump = {
  d_name : string;
  d_kind : kind;
  d_values : int array;
  d_total : int;  (** [Delta]: sum of deltas; [Sample]: final value *)
}

val dump : unit -> dump list
(** Every registered series (including never-written ones, whose
    [d_values] is empty), sorted by name. *)

val artifact_schema : string
(** ["olayout-timeline/v1"]. *)

val to_json : scale:string -> Json.t
(** The [olayout-timeline/v1] document.  Carries no timestamp or argv so
    two runs of the same seeded workload are byte-identical. *)

val events : unit -> Json.t list
(** One [{"ev":"timeline",...}] JSONL event per non-empty series —
    appended to the telemetry JSONL stream at close so the Chrome-trace
    export can build instruction-clock counter tracks. *)

val pp_summary : Format.formatter -> unit -> unit
(** Console sparkline summary of every non-empty series. *)

val spark : kind -> int array -> string
(** Render per-window values as a UTF-8 sparkline (at most 60 glyphs;
    [Delta] buckets sum their windows, [Sample] buckets keep the peak).
    Exposed so other windowed reports (drift observatory) render
    consistently with {!pp_summary}. *)
