(** A battery of cache configurations simulated over a single trace replay.

    The paper's figures sweep cache size, line size and associativity; the
    battery lets one executor walk feed every configuration at once, so a
    whole figure costs one trace generation.

    Two engines produce the miss counts:

    - [`Icache] — one full {!Icache} per configuration: every per-stream,
      displacement, usage and prefetch statistic is available through
      {!caches}/{!find}.
    - [`Stackdist] — one {!Stackdist} all-associativity simulation,
      grouped by line size: a single pass per line size yields the miss
      count of every configuration sharing it.  Far cheaper for dense
      sweeps, but only {!misses}, {!cold_misses} and {!misses_by_config}
      are available.  Both engines implement exact per-set LRU, so their
      miss counts are byte-identical — the cross-engine CI gate enforces
      it. *)

type t

type engine = [ `Icache | `Stackdist ]

val engine_name : engine -> string
(** ["icache"] / ["stackdist"] — the spelling of the [--engine] flags. *)

val create :
  ?engine:engine ->
  ?track_usage:bool ->
  ?timeline:string * string ->
  Icache.config list ->
  t
(** Default engine [`Icache] (the fully-instrumented backend).

    [~timeline:(config_name, prefix)] designates one configuration for
    instruction-clock series: while [Olayout_telemetry.Timeline] is
    enabled, every fed run's miss delta and line-touch count for that
    configuration are attributed to the window holding the run's start
    position, under [cachesim.<prefix>.misses] /
    [cachesim.<prefix>.accesses].  Both engines produce byte-identical
    series (per-run miss deltas agree under exact per-set LRU).  Ignored
    while the timeline subsystem is disabled, keeping the hot path free
    of probe reads.

    @raise Invalid_argument for [~track_usage:true] with [`Stackdist]
    (usage histograms need per-line cache state), or when the designated
    configuration name is unknown. *)

val engine : t -> engine
val access_run : t -> Olayout_exec.Run.t -> unit

(** Replay a recorded trace through every configuration, in one pass
    over the trace.  [keep] filters runs (e.g. application-owned only)
    before they reach the simulators. *)
val access_trace :
  ?keep:(Olayout_exec.Run.t -> bool) ->
  t ->
  Olayout_exec.Trace.t ->
  unit

val flush_residents : t -> unit
(** Retire still-resident lines into the usage histograms (icache engine);
    a no-op for stackdist, which keeps no residency state. *)

(** {1 Engine-agnostic results} *)

val misses : t -> string -> int
(** Miss count of the named configuration, whatever the engine.
    @raise Invalid_argument when the name is unknown. *)

val cold_misses : t -> string -> int
(** Compulsory (first-reference) misses of the named configuration.
    @raise Invalid_argument when the name is unknown. *)

val misses_by_config : t -> (Icache.config * int) list
(** All (configuration, miss count) pairs in creation order. *)

(** {1 Icache-engine access (raise for stackdist)} *)

val caches : t -> Icache.t list
(** @raise Invalid_argument under the stackdist engine. *)

val find : t -> string -> Icache.t
(** Lookup by configuration name.
    @raise Invalid_argument when absent (naming the requested configuration
    and the available cache names) or under the stackdist engine. *)
