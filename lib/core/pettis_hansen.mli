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

(** {1 The engine over segment numbers}

    {!Spike} numbers segments procedure-major (procedure [p]'s segment [i]
    is [base.(p) + i]); the numbers are the tie order.  The same engine
    orders by temporal affinity ({!Temporal_order}) under the pass label
    ["temporal_order"]. *)

type buffers
(** Per-segment working state (group ends, links, union-find parents,
    adjacency tables) and the merge heap, reused across runs.  A run writes only the segments
    that carry weight and puts them back at rest, so its cost follows the
    weighted subgraph, not the segment count.  One [buffers] must not be
    used by two runs at once. *)

val buffers : unit -> buffers

val pair_weights_of :
  Olayout_profile.Profile.t -> seg_of:(int -> int -> int) -> ((int * int) * float) list
(** The undirected segment-graph weights, the segment of each block given
    as [seg_of proc block]: call-site executions to the callee's entry
    segment plus intra-procedure branches that cross segments.  Only
    positive-weight pairs appear, sorted by pair. *)

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
    procedure in provenance events.

    While [Olayout_telemetry.Provenance] is enabled, every greedy merge
    and every final ordering rank is recorded under the [pass] label
    (default ["pettis_hansen"]). *)
