(** Single-pass all-associativity cache simulation via LRU stack distances.

    Mattson's stack algorithm, generalized to set-associative caches with
    bit-selection set mapping (Hill & Smith's "all-associativity"
    simulation): configurations are grouped by line size, and one pass per
    group answers hit/miss for {e every} cache size and associativity
    sharing that line size.

    The key identity: under a cache with [2^j] sets and associativity [a]
    (true per-set LRU), a reference to line [L] hits iff [L] has been
    referenced before and fewer than [a] {e distinct} lines congruent to
    [L] (the same low [j] bits) have been referenced since — its depth in
    its set's LRU stack is below [a].  Both this engine and {!Icache} implement exact
    per-set LRU, so their miss counts are {e byte-identical}, not
    approximate; the regression gate relies on that.

    Per (line size, set count) the engine keeps one LRU stack per set,
    truncated to the largest associativity swept at that set count (a
    direct-mapped set count keeps a plain tag array), and a histogram of
    the depths references found their line at; a line absent from the
    stack is booked at its full depth.  A configuration's misses are read
    off its set count's histogram: [misses a] is the sum of [hist p] over
    depths [p >= a].  A reference visits the set counts in increasing
    order and stops at the first where the line is already most recent:
    with power-of-two set counts and bit selection, a line most recent
    among a set's lines is most recent in every finer set holding it, so
    no later stack changes.  That makes a reference cost a few array
    probes.  Compulsory misses come from a first-touch set of lines seen
    ({!Lru.seen}), consulted only for a line that no stack holds.

    A group keeps its set counts flat: one stack array and int arrays of
    per-level offsets, masks, depths and histogram offsets.  Every touch
    first tests whether its line is most recent at the smallest set count,
    and only a line that is not walks the rest.  A group whose set counts
    are all direct-mapped walks tag arrays; the others keep a sentinel slot
    after each set's stack, which ends the move-to-front at the stack's
    depth.  {!feed_block} feeds a range of a block of runs one group at a
    time, so a group's stacks stay in cache across the range: it is what
    a battery's trace replay calls.  {!feed} feeds one run through every
    group, for a battery fed run by run.

    A fully-associative configuration ([2^0] sets, [a] = capacity in
    lines) degenerates to the classic Mattson stack — the same oracle as
    {!Olayout_diag.Shadow}, which this engine subsumes.

    Not modelled (use {!Icache} where a figure needs them): per-stream
    owner attribution, the displacement/interference matrix, word-usage
    and lifetime histograms, prefetching.

    Telemetry (process-global, aggregated over every instance):
    [cachesim.stackdist.accesses] (line touches per group),
    [cachesim.stackdist.misses] (per-configuration miss events) and
    [cachesim.stackdist.walk_steps] (stack entries compared, the engine's
    work metric).  Groups book them as they are fed and {!publish} adds
    them to the registry in one step, so the per-line loop never calls
    the registry. *)

type t

val create : Icache.config list -> t
(** One simulation over the given configurations, grouped by line size.
    Geometry validation is {!Icache.sets}, as in {!Icache.create}.
    @raise Invalid_argument on bad geometry, such as a set count that is
    not a power of two. *)

val feed : t -> Olayout_exec.Run.t -> unit
(** Fetch a run through every group (hence every configuration), booking
    the telemetry counters in the groups: they reach the registry at
    {!publish}.  A run with [len <= 0] touches nothing. *)

val feed_block : t -> addr:int array -> len:int array -> lo:int -> hi:int -> unit
(** [feed_block t ~addr ~len ~lo ~hi] feeds the runs starting at
    [addr.(i)] with [len.(i)] instructions, for [lo <= i < hi], one group
    at a time, so a group's stacks stay in cache across the range.
    Groups share no state, so every count, and every telemetry counter
    booked, is what {!feed} of the same runs in order gives.  An entry
    with [len.(i) <= 0] touches nothing.
    @raise Invalid_argument when [lo] is negative, [lo > hi], or [hi]
    exceeds either array's length. *)

val publish : t -> unit
(** Add the counters booked since the last publish to
    [cachesim.stackdist.*].  Feeding runs and publishing once at the end
    books what publishing after every run books. *)

val n_groups : t -> int
(** Number of distinct line sizes: one stack simulation each. *)

val accesses : t -> int
(** Total line touches across all groups (one per line per group, the
    analogue of one {!Icache.accesses} per line size). *)

val misses : t -> string -> int
(** Miss count of the named configuration.
    @raise Invalid_argument when the name is unknown, listing the
    available configuration names. *)

val cold_misses : t -> string -> int
(** Compulsory misses of the named configuration: first-ever references
    to a line at that line size (identical for every configuration of the
    group, and equal to {!Icache.cold_misses} of a prefetch-free cache).
    @raise Invalid_argument when the name is unknown. *)

val misses_by_config : t -> (Icache.config * int) list
(** All (configuration, miss count) pairs in creation order — the
    drop-in replacement for walking a battery's cache list. *)

(** {1 Probes}

    A probe is a resolved handle onto one configuration's result slot, so
    polling (the timeline layer reads the cumulative miss count around
    every run or range of runs it feeds) skips the name lookup. *)

type probe

val probe : t -> string -> probe
(** @raise Invalid_argument when the name is unknown. *)

val probe_misses : probe -> int
(** Cumulative miss count so far for the probed configuration. *)

val probe_line_shift : probe -> int
(** [log2 line_bytes] of the probed configuration. *)
