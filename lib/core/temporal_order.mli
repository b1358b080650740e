(** Procedure ordering from temporal relationships (Gloy et al., §6 of the
    paper's related work).

    Runs the same closest-is-best merge engine as {!Pettis_hansen}, but
    with affinities taken from a {!Olayout_profile.Temporal} graph instead
    of call counts: procedures that interleave in time are placed together
    so they stop conflicting.  The [temporal] report experiment compares
    the two orderings. *)

val weights_by :
  Olayout_profile.Temporal.t -> rep:(int -> int option) -> ((int * int) * float) list
(** The temporal graph's pairs moved onto segments: procedure [p]'s
    affinities attach to segment [rep p] (pairs with an unrepresented
    procedure are dropped).  The graph is procedure-granular, as in Gloy
    et al.; {!Spike} represents each procedure by its hottest segment, the
    first on a tie, since expanding to all segment pairs would both dilute
    the weights and blow the merge graph up quadratically. *)
