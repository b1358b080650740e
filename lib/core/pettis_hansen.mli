(** Pettis-Hansen "closest is best" procedure ordering (paper §2, Figure 2).

    Nodes are code segments (whole procedures before splitting, chains after
    fine-grain splitting).  An undirected graph weights each pair of segments
    by the number of profiled transitions between them: call-site executions
    (call block to callee entry) plus intra-procedure branches that cross
    segments.  The heaviest edge is selected repeatedly; its two node groups
    are merged end-to-end, choosing among the four possible end pairings the
    one whose touching endpoints have the heaviest *original* weight.  The
    final group orderings concatenate hottest-first; segments never reached
    during profiling keep their original relative order at the end. *)


val order : Olayout_profile.Profile.t -> Segment.t list -> Segment.t list
(** Reorder segments; the result is a permutation of the input. *)

val order_weighted :
  ?pass:string ->
  weights:((int * int) * float) list ->
  heat:(int -> float) ->
  Segment.t list ->
  Segment.t list
(** The closest-is-best engine with externally supplied affinities:
    [weights] are undirected pair weights over input segment indices,
    [heat i] ranks groups for final emission.  {!order} is this engine with
    profiled call/branch weights; {!Temporal_order.order} feeds it a
    temporal-relationship graph instead (Gloy et al.).

    While [Olayout_telemetry.Provenance] is enabled, every greedy merge
    and every final ordering rank is recorded under the [pass] label
    (default ["pettis_hansen"]; {!Temporal_order.order} passes
    ["temporal_order"]).
    @raise Invalid_argument when a heat is negative or NaN (heats are
    execution counts). *)

val pair_weights :
  Olayout_profile.Profile.t -> Segment.t list -> ((int * int) * float) list
(** The undirected segment-graph weights (by input segment index), exposed
    for tests and for diagnostics; only positive-weight pairs appear. *)

(** {1 The engine over segment indices}

    {!order} and {!order_weighted} are front ends to this one engine.
    {!Incremental} calls it directly, numbering segments procedure-major
    (the order a procedure-by-procedure segment list would have), so that
    weight ties break exactly as they do for that list. *)

type buffers
(** Per-segment working state (group ends, links, union-find parents,
    adjacency tables), reused across runs.  A run writes only the segments
    that carry weight and puts them back at rest, so its cost follows the
    weighted subgraph, not the segment count.  One [buffers] must not be
    used by two runs at once. *)

val buffers : unit -> buffers

val pair_weights_of :
  Olayout_profile.Profile.t -> seg_of:(int -> int -> int) -> ((int * int) * float) list
(** {!pair_weights} with the segment of each block given as
    [seg_of proc block]; sorted by pair. *)

val order_indices :
  buffers ->
  ?pass:string ->
  n:int ->
  weights:((int * int) * float) list ->
  heat:(int -> float) ->
  hot:((int -> unit) -> unit) ->
  proc_of:(int -> int) ->
  unit ->
  int array
(** Order segments [0 .. n-1]: the permutation, hottest group first.
    [heat i] must be non-negative; it is read for the weighted segments and
    for those [hot] yields, which must include every segment whose heat is
    above zero (more is allowed).  [proc_of i] names segment [i]'s
    procedure in provenance events. *)
