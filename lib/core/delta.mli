(** Profile deltas: the dirty set between two weighted profiles.

    The incremental re-layout engine's first half (ROADMAP item 4): diff
    two profiles of the same program into the set of procedures whose
    block/arm weight vectors changed.  The granularity matches what the
    per-procedure passes consume — {!Chaining.chain} writes a procedure's
    chains into the memo's buffers from its own profile rows alone, so a
    clean procedure's chains (and the segments encoded from them) are
    reusable bit-for-bit, which is the invariant {!Incremental} builds its
    equivalence guarantee on. *)

open Olayout_ir

type t

val diff : Olayout_profile.Profile.t -> Olayout_profile.Profile.t -> t
(** [diff old_profile new_profile].
    @raise Invalid_argument when the profiles' programs differ in shape
    ({!Olayout_profile.Profile.same_shape}). *)

val prog : t -> Prog.t
val n_procs : t -> int

val is_dirty : t -> int -> bool
(** Did the procedure's weight vector change? *)

val n_dirty : t -> int
val is_empty : t -> bool

val dirty_procs : t -> int list
(** Dirty procedure ids, ascending. *)
