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

val heat : Olayout_profile.Profile.t -> t -> int
(** Total profiled executions of the segment's blocks. *)

val max_bytes : Prog.t -> t -> int
(** An upper bound on the segment's encoded size: every block's body plus
    two terminator instructions.  The address-aware placers (coloring, the
    conflict-free area) size segments with it before any is encoded. *)
