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

type scratch
(** Per-atom and per-edge working arrays, sized to the largest procedure
    chained so far. *)

(** Where {!chain} writes its chains, reused across calls as
    {!Pettis_hansen.buffers} are.  After a call, chain [c] is the blocks
    [order.(starts.(c))] to [order.(starts.(c + 1) - 1)], and
    [heads.(c)] is its first block's count; the [k]-th procedure chained
    owns chains [first.(k)] to [first.(k + 1) - 1], in emission order.
    Callers must not write the arrays. *)
type buffers = private {
  mutable order : int array;  (** the blocks, chain after chain *)
  mutable starts : int array;  (** chain -> position of its first block *)
  mutable heads : int array;  (** chain -> its first block's count *)
  mutable first : int array;  (** procedure -> its first chain *)
  scratch : scratch;
}

val buffers : unit -> buffers

val chain : buffers -> Olayout_profile.Profile.t -> shape list -> unit
(** [chain b profile shapes] empties [b], then chains each procedure of
    [shapes] in turn under [profile].  Every block of a procedure appears
    in exactly one of its chains; call glue is preserved.  Each procedure
    adds its linked edges to [core.chain_edges_linked] and its chains to
    [core.chains_formed], and while provenance is enabled records one
    ["chaining"] event. *)
