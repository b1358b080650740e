(** Address assignment: mapping a segment order to concrete code addresses.

    Placement decides the layout-dependent encoding of every terminator:

    - an unconditional branch whose target is the next address is elided;
    - a fall-through whose target is *not* adjacent gets an inserted branch;
    - a conditional branch with its fall-through successor adjacent costs one
      instruction; with its taken successor adjacent the condition is
      inverted (still one); with neither adjacent it needs a companion
      unconditional branch (two instructions, and the fall path executes
      both);
    - calls always cost one instruction and require their return block to be
      glued immediately after (checked).

    These rules reproduce the paper's packing effects: chaining both
    removes taken branches (more sequentiality) and shrinks the hot code
    (fewer branch instructions, less padding), which is where much of the
    55-65% miss reduction comes from. *)

open Olayout_ir

type t

val of_segments : ?align:int -> Prog.t -> Segment.t list -> t
(** Lay out [segments] in order starting at [prog.base_addr].  Each segment
    start is aligned to [align] bytes (default 16, typical compiler
    procedure alignment; pass 4 for fully packed optimized layouts).  A
    wrapper over {!of_rows}: it flattens each procedure's segments into
    {!encode}, which checks that they cover the program exactly.
    @raise Invalid_argument as {!encode} does, or on a segment of a
    procedure the program does not have. *)

val of_segments_at :
  ?align:int -> Prog.t -> addr_of:(Segment.t -> int -> int) -> Segment.t list -> t
(** {!of_segments} with a start rule: [addr_of seg a] returns segment
    [seg]'s address when the next aligned free byte is [a] (see
    {!of_rows}). *)

(** {1 Segment-relative placement}

    A segment's encoding depends only on its own block order, so each
    procedure's segments can be encoded once, as offsets from their
    segment's start, and re-used by every placement that keeps them.
    Segments are numbered procedure-major: procedure [p]'s segment [i] is
    [base.(p) + i], [base] being {!numbering}'s prefix sum. *)

type rows = private {
  proc : int;  (** the procedure *)
  segs : Segment.t array;  (** its segments, in local order *)
  seg_of : int array;  (** block -> local segment *)
  word : int array;
      (** block -> its relative word: the two instruction fields of its
          fetch word ({!fetch_rows}), its encoded instrs (terminator
          included, what arm 1 executes) and the instrs arm 0 executes;
          above them its byte offset within its segment and that
          segment's local number.  Every relative word is negative. *)
  seg_bytes : int array;  (** local segment -> encoded bytes *)
}

val encode :
  Prog.t -> int -> blocks:int array -> starts:int array -> lo:int -> hi:int -> rows
(** [encode prog pid ~blocks ~starts ~lo ~hi] encodes procedure [pid] cut
    into [hi - lo] segments: its local segment [i] is the blocks
    [blocks.(starts.(lo + i))] to [blocks.(starts.(lo + i + 1) - 1)], in
    that order.  The one pass that encodes them checks that they are
    non-empty and partition the procedure's blocks (each block in range
    and in exactly one segment), with each call block immediately followed
    by its return block.  The arrays are read, not kept.
    @raise Invalid_argument otherwise, or if [lo] to [hi] is not a range of
    [starts], a block's encoded size does not fit a fetch word's field
    ({!exec_bits}), a block starts 4 MiB or more into its segment, or the
    procedure has more than 65,536 segments. *)

val numbering : rows array -> int array
(** [base]: [base.(p)] is the number of procedure [p]'s first segment;
    [base.(n_procs)] is the segment count. *)

val numbered : rows array -> Segment.t array
(** Every segment of [rows], indexed by its number. *)

val of_rows :
  ?align:int -> ?addr_of:(int -> int -> int) -> Prog.t -> rows array -> order:int array -> t
(** Lay out the segments of [rows] (procedure [p]'s at index [p]) in [order], a
    permutation of their numbers: one prefix sum over the segment sizes.
    Each start is the next free byte aligned to [align] bytes (default 16),
    moved by the start rule: [addr_of g a] is segment [g]'s address when
    that aligned byte is [a] (default [a]; it must not lie below the next
    free byte and must be 4-byte aligned).  This is the only loop that
    assigns addresses.  It writes one start per segment and keeps each
    procedure's relative row, shared, not copied; a block's fetch word is
    its segment's start added to its relative word, filled per procedure
    on first use ({!fetch_word}).  [order] is kept too, so callers must
    not write it afterwards.
    @raise Invalid_argument unless [order] is a permutation, [rows] holds
    each procedure's rows at its index, [addr_of] keeps its contract and
    every segment lies at a non-negative address and ends below
    [2{^39}], the fetch word's address range. *)

val original : ?align:int -> Prog.t -> t
(** The compiler's source-order layout: one segment per procedure, original
    block order.  This is the paper's "base" binary. *)

val prog : t -> Prog.t

val block_addr : t -> proc:int -> block:int -> int
(** Start address of a block's first instruction. *)

val static_instrs : t -> proc:int -> block:int -> int
(** Encoded size of the block in instructions, including terminator
    encoding under this placement. *)

val exec_instrs : t -> proc:int -> block:int -> arm:int -> int
(** Number of instructions fetched when this block executes and leaves via
    [arm] (body plus 0, 1 or 2 terminator instructions).  Only an indirect
    jump has arms beyond 1, and each executes its jump as arm 0 does. *)

val exec_bits : int
(** Width of each executed-instruction field of a fetch word (12). *)

val fetch_rows : t -> int array array
(** The placement's rows, indexed [.(proc).(block)] and shared, not
    copied, so a per-block loop reads one int without a call.  A row
    holds its procedure's relative words ({!rows}), each negative, until
    {!fetch_word} fills it with the procedure's fetch words, each
    non-negative: word [w] holds {!block_addr} in
    [w lsr (2 * exec_bits)], and {!exec_instrs} on arms 1 and 0 in the
    two [exec_bits]-wide fields below it.  Callers must not write them. *)

val fetch_word : t -> proc:int -> block:int -> int
(** The block's fetch word.  The first call for a procedure fills its row
    of {!fetch_rows}: the whole row is built, then stored at once, so two
    domains racing to fill it store equal rows.  A placement whose text
    reaches [2{^38}] keeps its relative rows and computes each word. *)

val fill : t -> unit
(** Fill every procedure's row now, as {!fetch_word} would. *)

val text_bytes : t -> int
(** Total extent of the text section (including alignment padding). *)

val program_instrs : t -> int
(** Total encoded instructions (excluding padding). *)

val segments : t -> Segment.t list
(** The segment order used to build this placement, built on each call. *)

val equal : t -> t -> bool
(** Byte-for-byte layout identity: same block addresses, encoded sizes,
    executed terminator costs, text extent and segment order, whichever
    rows have been filled.  Used to assert {!Incremental}'s equivalence
    guarantee (incremental re-layout produces exactly the from-scratch
    placement). *)

val iter_placed : t -> (proc:int -> block:int -> addr:int -> instrs:int -> unit) -> unit
(** Iterate blocks in address order with their encoded sizes. *)

val long_branches : t -> ?max_displacement:int -> unit -> int
(** Direct branches (conditional targets, unconditional jumps, inserted
    fall-through branches) whose displacement exceeds
    [max_displacement] bytes (default 0x10_0000 — the Alpha's 21-bit
    branch reach).  Pettis-Hansen notes "special care is taken" to keep
    this rare; the count lets tests and the CLI verify a layout did. *)

val cond_branch : t -> proc:int -> block:int -> arm:int -> (int * int * bool) option
(** For a block whose terminator is a conditional branch, the branch
    instruction's behaviour when the block exits through [arm] under this
    placement: [(pc, taken_target, taken)].  Accounts for condition
    inversion (when the original taken successor is the fall-through here)
    and for companion unconditional branches (whose transfer is not a
    conditional-branch outcome).  [None] for other terminators.  Feeds the
    branch-prediction experiments. *)
