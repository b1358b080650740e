(** Execution profiles: basic-block and control-arm counts.

    This plays the role of Pixie in the paper: a training run of the workload
    records how often each basic block executed and which way each terminator
    went.  Layout passes consume profiles only — never the synthesis-time
    ground-truth probabilities — so the train-vs-test methodology of the
    paper (profile on one run, evaluate on another) is preserved. *)

open Olayout_ir

type t

val create : Prog.t -> t
(** Zeroed profile shaped like [prog].  A procedure's count rows are
    allocated when it is first counted, so a profile holds only the
    procedures it counted. *)

val prog : t -> Prog.t

val record : t -> proc:int -> block:int -> arm:int -> unit
(** Count one execution of [block] leaving through control outcome [arm].
    This is the executor sink.
    @raise Invalid_argument when [proc], [block] or [arm] is out of range
    (here and in {!record_block}, {!block_count} and {!arm_count}). *)

val record_block : t -> proc:int -> block:int -> count:int -> unit
(** Add [count] executions of [block] without arm information (used by the
    sampling profiler).  Arm counts can later be reconstructed with
    {!estimate_arms}. *)

val block_count : t -> proc:int -> block:int -> int
val arm_count : t -> proc:int -> block:int -> arm:int -> int

val iter_nonzero_arms : t -> (proc:int -> block:int -> arm:int -> int -> unit) -> unit
(** [f ~proc ~block ~arm count] for every arm whose count is nonzero, in
    procedure, block, arm order.  One pass over the arm row of each
    procedure the profile counted; a procedure nothing counted is skipped
    without a read, so a sparse profile costs what it holds. *)

val iter_nonzero_blocks : t -> (proc:int -> block:int -> int -> unit) -> unit
(** [f ~proc ~block count] for every block whose count is nonzero, in
    procedure, block order: one pass over the block row of each procedure
    the profile counted. *)

val proc_entry_count : t -> int -> int
(** Executions of a procedure's entry block. *)

val dynamic_instrs : t -> int
(** Dynamic instruction estimate under the source-order encoding: sum over
    blocks of [count * (body + source terminator size)]. *)

type flow_edge = { src : Block.id; arm : int; dst : Block.id; weight : float }
(** A weighted intra-procedure control-flow edge.  [Call] terminators
    contribute their return-glue edge; [Ret]/[Halt] contribute nothing. *)

val proc_flow_edges : t -> int -> flow_edge list
(** All intra-procedure edges of one procedure with profiled weights. *)

val estimate_arms : t -> t
(** Spike-style reconstruction of arm counts from block counts alone: each
    multi-way terminator's count is apportioned to its successors in
    proportion to the successors' own block counts.  Returns a new profile;
    block counts are preserved. *)

val scale : t -> float -> t
(** Multiply all counts by a factor (rounding); for normalizing training runs
    of different lengths before merging. *)

val merge : t -> t -> t
(** Pointwise sum of two profiles over the same program.
    @raise Invalid_argument unless {!same_shape}. *)

val same_shape : t -> t -> bool
(** Do the two profiles' programs have the same procedures, blocks per
    procedure and arms per block?  Names are not compared: every generated
    binary carries the same name whatever its seed. *)

val total_block_events : t -> int
(** Sum of all block counts (the number of recorded block executions). *)

val proc_equal : t -> t -> int -> bool
(** [proc_equal a b pid]: do the two profiles carry identical block and arm
    counts for procedure [pid]?  The per-procedure identity test behind
    {!Olayout_core.Delta}'s dirty set — per-procedure layout passes read
    only that procedure's rows, so row equality implies identical pass
    output.  A procedure neither profile counted is equal without a read. *)

(** {2 Persistence}

    Profiles are saved to a line-oriented text format (like Pixie's .Counts
    files) so a training run can be collected once and reused by the
    optimizer CLI. *)

val output : out_channel -> t -> unit

val input : Prog.t -> in_channel -> t
(** Re-read a profile for [prog].
    @raise Failure if the stream does not match the program's shape. *)

val save_file : string -> t -> unit
val load_file : Prog.t -> string -> t
