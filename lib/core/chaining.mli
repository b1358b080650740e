(** Basic block chaining (paper §2, Figure 1a).

    A greedy algorithm orders the basic blocks within a procedure so that the
    heaviest control-flow edges become fall-throughs: flow edges are sorted
    by profiled weight and processed heaviest-first; an edge links its source
    and destination if the source has no successor yet, the destination has
    no predecessor yet, and the link would not close a cycle.  The resulting
    chains are emitted with the entry chain first and the remaining chains in
    decreasing order of their first block's execution count.

    Call sites never break a chain: a call block and its return-continuation
    block form an indivisible "atom" (a call is not an unconditional
    transfer), so chains are built over atoms. *)

open Olayout_ir

type shape
(** What chaining needs from the program alone: a procedure's atoms and
    its candidate edges.  A memo that chains the same procedure under many
    profiles computes it once. *)

val shape : Prog.t -> int -> shape

val chain : shape -> Olayout_profile.Profile.t -> Block.id list list
(** [chain (shape prog pid) profile] returns the chains for procedure
    [pid], in final emission order.  Every block of the procedure appears
    in exactly one chain; call glue is preserved. *)
