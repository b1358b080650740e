(** Cache diagnostics: miss classification, per-segment attribution and
    eviction conflict matrices around one instruction-cache simulation.

    Wraps an {!Olayout_cachesim.Icache} and consumes the same rendered
    fetch-run stream.  Every demand miss is classified into the standard
    three Cs:

    - {e compulsory} — first reference to the line anywhere in the run,
      as the wrapped cache's own first-touch test finds it;
    - {e conflict} — the line was resident in a same-capacity
      fully-associative LRU shadow cache ({!Shadow}) fed the same line
      stream, so only set contention evicted it: the kind of miss a
      placement change can remove;
    - {e capacity} — the shadow cache missed too: the working set does not
      fit at any associativity.

    Misses and evictions are charged to named code segments through a
    {!Resolver}, and every replacement is recorded in a per-set
    (evictor segment, victim segment) conflict matrix — the "killer pairs"
    whose separation a layout fix should target.  Classification totals
    also feed the process-wide [diag.*] telemetry counters, so they appear
    in [report --telemetry] and in the JSONL sink. *)

module Icache = Olayout_cachesim.Icache
module Histogram = Olayout_metrics.Histogram

type t

val create : ?timeline:string -> resolver:Resolver.t -> Icache.config -> t
(** A diagnosed cache of the given geometry.  The wrapped icache is
    created without prefetch (classification is defined over demand
    references).

    [~timeline:prefix] (effective only while [Olayout_telemetry.Timeline]
    is enabled) samples the Shadow LRU's resident line count and the
    all-time unique-line count once per fed run into the instruction-clock
    series [diag.<prefix>.working_set_lines] /
    [diag.<prefix>.unique_lines]. *)

val access_run : t -> Olayout_exec.Run.t -> unit
(** Feed one fetch run, line by line into the wrapped icache's core and
    then the shadow cache: the icache sees exactly the line-touch
    sequence a plain [Icache.access_run] would, and the shadow cache and
    attribution tables observe the same stream.  A run with [len <= 0]
    touches nothing. *)

val icache : t -> Icache.t
(** The wrapped cache (for [misses], [cfg], usage counters...). *)

type totals = {
  total : int;  (** demand misses, = compulsory + capacity + conflict *)
  compulsory : int;
  capacity : int;
  conflict : int;
  cold : int;
      (** the icache's own cold counter; equal to [compulsory], since both
          come from its one first-touch set. *)
}

val totals : t -> totals

type seg_row = {
  seg_name : string;
  seg_owner : Olayout_exec.Run.owner option;  (** [None] for unresolved *)
  seg_misses : int;
  seg_compulsory : int;
  seg_capacity : int;
  seg_conflict : int;
  seg_evictions_caused : int;   (** replacements where this segment's line moved in *)
  seg_evictions_suffered : int; (** replacements where this segment's line moved out *)
}

val by_segment : ?top:int -> t -> seg_row list
(** Segments by descending miss count (ties by name); only segments with
    any activity.  [top] truncates (default: all). *)

type conflict_pair = {
  cp_evictor : string;
  cp_victim : string;
  cp_count : int;     (** replacements, summed over sets *)
  cp_sets : int;      (** distinct cache sets where the pair collided *)
  cp_hot_set : int;   (** the set with the most collisions *)
  cp_hot_count : int; (** collisions in that set *)
}

val conflict_pairs : ?top:int -> t -> conflict_pair list
(** (evictor segment, victim segment) pairs by descending count. *)

val set_pressure : t -> Histogram.t
(** Distribution of per-set demand-miss counts: key = misses a set took.
    A long tail means a few sets carry the conflict pressure — exactly
    what coloring/placement should flatten. *)

val hot_sets : ?top:int -> t -> (int * int) list
(** The most-missing sets as [(set index, misses)], descending. *)

val json : ?top:int -> t -> Olayout_telemetry.Json.t
(** Machine-readable dump: geometry, classification totals, per-segment
    attribution and the conflict matrix ([top] bounds both lists,
    default 20).  Embedded by the harness in [DIAG_<scale>.json]. *)
