(** Code segments: the unit of placement.

    A segment is a list of blocks from one procedure that will be laid out
    contiguously, in order.  Before splitting, each procedure is one segment;
    after fine-grain splitting, each chain (which by construction ends with
    an unconditional transfer) is its own segment, as in the paper's §2. *)

open Olayout_ir

type t = { proc : int; blocks : Block.id list }

val of_proc : Proc.t -> t
(** The procedure as a single segment in source order. *)

val head : t -> Block.id
(** First block.  @raise Invalid_argument on an empty segment. *)

val n_blocks : t -> int

val contains_entry : Proc.t -> t -> bool
(** Does this segment hold the procedure's entry block? *)

val check_cover : Prog.t -> t list -> unit
(** Verify that the segments partition the program's blocks exactly: every
    block of every procedure appears in exactly one segment, and call-return
    glue pairs stay adjacent within a segment.
    @raise Invalid_argument otherwise. *)

val index : Prog.t -> int -> t array -> int array
(** [index prog pid segments]: the block -> segment map of one procedure,
    [segments] being all of procedure [pid]'s segments; entry [b] is the
    position in [segments] of the segment holding block [b].  Checks the
    procedure's share of {!check_cover}: the segments belong to [pid] and
    partition its blocks, with call glue intact.
    @raise Invalid_argument otherwise. *)
