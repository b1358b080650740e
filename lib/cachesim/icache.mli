(** Set-associative LRU instruction cache simulator.

    Consumes instruction-fetch runs ({!Olayout_exec.Run.t}) and accounts, per
    the paper's metrics:

    - misses, split by the *missing* stream (application vs kernel) and, on
      each replacement, by the *owner* of the displaced line — giving the
      Figure 13 interference matrix;
    - unique cache lines touched (the "footprint in cache lines" in-text
      measurement);
    - optionally, spatial/temporal line-usage instrumentation: unique words
      used before replacement (Fig 9), per-word use counts before
      replacement (Fig 10), and line lifetimes in cache accesses (Fig 11).

    Time is measured in cache accesses ("cache cycles"), one access per
    cache line touched by a fetch run. *)

type config = { name : string; size_bytes : int; line_bytes : int; assoc : int }
(** [size_bytes], [line_bytes] powers of two; [assoc >= 1];
    [size_bytes >= line_bytes * assoc]; a power-of-two set count
    [size_bytes / (line_bytes * assoc)]. *)

val config : ?name:string -> size_kb:int -> line:int -> assoc:int -> unit -> config
(** Convenience constructor; derives a descriptive name when absent.
    @raise Invalid_argument on non-positive [size_kb] or [line], or
    [assoc < 1] — geometry errors are reported where the configuration is
    written, not later when a cache is created from it. *)

val sets : caller:string -> config -> int
(** The set count of a valid geometry (see {!config}).
    @raise Invalid_argument, prefixed with [caller], on bad geometry —
    including a set count that is not a power of two, which bit-selection
    set mapping cannot index. *)

type t

val create :
  ?track_usage:bool ->
  ?on_miss:(int -> unit) ->
  ?on_evict:(evictor:int -> victim:int -> unit) ->
  ?prefetch_next:int ->
  config ->
  t
(** A cache on the {!Lru} core.  [track_usage] enables the Fig 9/10/11
    instrumentation (line word masks, per-word counters and lifetimes);
    only supported for lines of at most 248 bytes.  Default false.
    [on_miss] is invoked with the missing line's byte address on every
    miss — the hook that feeds a unified L2.

    [on_evict] is invoked on every replacement of a valid line (demand
    misses and prefetch installs alike; cold fills into empty slots are not
    replacements) with the byte addresses of the incoming ([evictor]) and
    outgoing ([victim]) lines — the hook the diagnostics layer uses to
    build eviction conflict matrices.  On a demand miss [on_miss] fires
    first, then [on_evict] once the victim is chosen.

    [prefetch_next] models a simple sequential stream buffer: on a demand
    miss to line L, the next [prefetch_next] lines are brought in as well
    (not counted as misses; their evictions are accounted normally).  The
    paper's §6 argues layout optimizations make such prefetching more
    effective by lengthening sequential runs — the [prefetch] bench
    verifies that.  Default 0 (off).
    @raise Invalid_argument on bad geometry (see {!sets}). *)

val access_run : t -> Olayout_exec.Run.t -> unit
(** Fetch a run through the cache, one access per line it touches (none
    when [len <= 0]). *)

val lru : t -> Lru.t
(** The core.  Without usage tracking or prefetching, feeding it lines
    ({!Lru.access}, then {!Lru.publish}) is what {!access_run} does. *)

val flush_residents : t -> unit
(** Account all still-resident lines as if replaced, so the usage histograms
    cover every demand-referenced line ever filled (prefetched lines never
    demand-referenced are excluded, as on replacement — they carry no usage
    signal).  Call once at end of simulation, before reading the usage
    statistics. *)

(** Aggregate counters. *)

val cfg : t -> config
val accesses : t -> int
val misses : t -> int
val misses_of : t -> Olayout_exec.Run.owner -> int

val cold_misses : t -> int
(** Compulsory misses: demand misses whose line had never been referenced
    before, wherever the fill lands (not "fills into empty slots" — a
    first-ever reference arriving once the cache is warm is still cold).
    Without prefetching this equals {!unique_lines}. *)

val displaced : t -> miss:Olayout_exec.Run.owner -> victim:Olayout_exec.Run.owner -> int
(** Replacements in which a miss from [miss] evicted a line owned by
    [victim] (cold fills excluded). *)

val unique_lines : t -> int
(** Distinct line addresses ever demand-referenced.  Lines brought in by
    the sequential prefetcher count only once actually used; a prefetched
    line evicted before any reference never inflates the footprint. *)

val instrs_fetched_into_cache : t -> int
(** Words brought in by line fills (fills x words-per-line); with
    [track_usage], compare with {!words_used_total} for the paper's
    "fetched but never used" percentages. *)

val lines_filled : t -> int

(** Usage instrumentation (require [track_usage]; raise otherwise). *)

val words_used_histogram : t -> Olayout_metrics.Histogram.t
(** Per replacement: number of distinct words used while resident (Fig 9). *)

val word_reuse_histogram : t -> Olayout_metrics.Histogram.t
(** Per word of each replaced line: times used while resident, 0 included,
    capped at 15 (Fig 10). *)

val lifetime_histogram : t -> Olayout_metrics.Histogram.t
(** Per replacement: floor(log2(cache accesses while resident)) (Fig 11). *)

val mean_lifetime : t -> float
(** Mean residency in cache accesses across replacements. *)

val words_used_total : t -> int
(** Total distinct-word usages across replaced lines. *)

(** Prefetch statistics (zero when [prefetch_next] is 0). *)

val prefetch_fills : t -> int
(** Lines brought in by the sequential prefetcher. *)

val prefetch_hits : t -> int
(** Demand accesses that hit a line while it was still marked as
    prefetched-but-unreferenced (the prefetcher's useful work). *)
