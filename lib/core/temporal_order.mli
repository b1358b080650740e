(** Procedure ordering from temporal relationships (Gloy et al., §6 of the
    paper's related work).

    Runs the same closest-is-best merge engine as {!Pettis_hansen}, but
    with affinities taken from a {!Olayout_profile.Temporal} graph instead
    of call counts: procedures that interleave in time are placed together
    so they stop conflicting.  The [temporal] report experiment compares
    the two orderings. *)

val order :
  Olayout_profile.Temporal.t ->
  heat:(Segment.t -> float) ->
  Segment.t list ->
  Segment.t list
(** Reorder segments (a permutation).  Pair affinity is the temporal
    weight of the segments' owning procedures; when several segments share
    an owner the procedure's affinities attach to its hottest segment. *)

val pair_weights :
  Olayout_profile.Temporal.t ->
  heat:(Segment.t -> float) ->
  Segment.t list ->
  ((int * int) * float) list
(** The weights {!order} hands the merge engine, by input segment index;
    exposed for tests. *)

val weights_by :
  Olayout_profile.Temporal.t -> rep:(int -> int option) -> ((int * int) * float) list
(** The temporal graph's pairs moved onto segments: procedure [p]'s
    affinities attach to segment [rep p] (pairs with an unrepresented
    procedure are dropped).  {!pair_weights} is this with each procedure's
    hottest segment, the first on a tie. *)
