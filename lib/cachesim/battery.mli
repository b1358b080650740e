(** A battery of cache configurations simulated over a single trace replay.

    The paper's figures sweep cache size, line size and associativity; the
    battery lets one executor walk feed every configuration at once, so a
    whole figure costs one trace generation.

    Two engines produce the miss counts, and a battery answers only what
    both do: misses and compulsory misses per configuration.

    - [`Icache] — one full {!Icache} per configuration, each run fed to
      every cache in turn.  A figure that needs per-owner misses, the
      displacement matrix, usage or prefetching holds its own {!Icache}s
      instead.
    - [`Stackdist] — one {!Stackdist} all-associativity simulation,
      grouped by line size: a single pass per line size yields the miss
      count of every configuration sharing it.  Far cheaper for dense
      sweeps.

    Both engines implement exact per-set LRU, so their miss counts are
    byte-identical — the cross-engine CI gate enforces it.

    A trace replay ({!access_trace}) is one loop under either engine: it
    decodes the trace a block of runs at a time ({!Olayout_exec.Trace.blocks})
    and feeds each block, a stackdist battery group by group
    ({!Stackdist.feed_block}).  A timeline-designated battery feeds each
    block in ranges whose runs start in one timeline window and books one
    miss delta and one line-touch count per range, which is what booking
    every run does.  {!access_run} feeds one run ({!Stackdist.feed}), for
    callers that read counts between runs. *)

type t

type engine = [ `Icache | `Stackdist ]

val engine_name : engine -> string
(** ["icache"] / ["stackdist"] — the spelling of the [--engine] flags. *)

val create : engine:engine -> ?timeline:string * string -> Icache.config list -> t
(** [~timeline:(config_name, prefix)] designates one configuration for
    instruction-clock series: while [Olayout_telemetry.Timeline] is
    enabled, the designated configuration's miss deltas and line touches
    of every fed run are attributed to the window holding the run's start
    position, under [cachesim.<prefix>.misses] /
    [cachesim.<prefix>.accesses].  Both engines produce byte-identical
    series.  While the timeline subsystem is disabled nothing is booked,
    keeping the hot path free of probe reads.

    @raise Invalid_argument on bad geometry, or when the designated
    configuration name is unknown, whether or not timelines are enabled. *)

val access_run : t -> Olayout_exec.Run.t -> unit

val access_trace :
  ?keep:(Olayout_exec.Run.t -> bool) ->
  t ->
  Olayout_exec.Trace.t ->
  unit
(** Replay a recorded trace through every configuration, in one pass
    over the trace.  [keep] filters runs (e.g. application-owned only)
    before they reach the simulators.  With spans on, the replay books
    its decoding (and [keep]) as [trace.decode] and its feeding as
    [cachesim.feed], once each, under the current span. *)

val misses : t -> string -> int
(** Miss count of the named configuration.
    @raise Invalid_argument when the name is unknown, listing the
    available configuration names. *)

val cold_misses : t -> string -> int
(** Compulsory (first-reference) misses of the named configuration.
    @raise Invalid_argument when the name is unknown. *)

val misses_by_config : t -> (Icache.config * int) list
(** All (configuration, miss count) pairs in creation order. *)
