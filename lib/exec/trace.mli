(** Trace capture & replay: a compact, append-only buffer of merged fetch
    runs.

    The paper's methodology collects the instruction trace of a placement
    once and then runs it through many cache/iTLB simulators (§4).  A
    {!t} stores the exact {!Run.t} stream a render sink emitted — owner,
    start address, run length — in a delta/varint [Bytes] encoding
    (typically 2-5 bytes per run, no per-run heap allocation), so a whole
    measurement execution can be kept resident and replayed into any number
    of simulators at memory speed instead of re-walking the OLTP server.

    Two loops read the records back through one varint reader: {!blocks}
    fills a caller's arrays a block of runs at a time, and {!replay}
    decodes run by run and hands each run to a callback as a {!Run.t}. *)

type t

val create : unit -> t

val append : t -> Run.t -> unit
(** Append one run.  Runs must be appended in stream order (the encoding is
    delta-based). *)

val record : unit -> (Run.t -> unit) * t
(** [record ()] returns [(emit, trace)]: pass [emit] anywhere a render sink
    is expected (e.g. a [renders] entry of the OLTP server) and every run it
    receives is captured in [trace]. *)

val replay : t -> (Run.t -> unit) -> unit
(** [replay t f] calls [f] on every recorded run, in order.  The runs are
    byte-identical to the recorded stream, so feeding a fresh simulator
    yields exactly the counters a live execution would have produced.
    It shares {!blocks}' varint reader, decodes run by run and allocates
    one {!Run.t} per run. *)

(** {1 Block decoding}

    A consumer that reads runs as numbers, such as the stack-distance
    engine, decodes a block of runs at a time into arrays it owns and
    never builds a {!Run.t}. *)

type block = private { addr : int array; len : int array; owner : Run.owner array }
(** Parallel arrays, one entry per run: start address, length in
    instructions and owner.  Their common length is the block's
    capacity, at least one; only {!block} makes one, because {!blocks}
    writes every array up to that length unchecked. *)

val block : int -> block
(** [block n] holds [n] runs.
    @raise Invalid_argument when [n < 1]. *)

val blocks : t -> block -> (int -> unit) -> unit
(** [blocks t b f] decodes every recorded run, in order, into [b]: each
    time [b] is full it calls [f] with its capacity, and at the end it
    calls [f n] with the [n > 0] runs left.  Entries [0 .. n-1] hold the
    runs [f] is called for; [f] may overwrite them.  It allocates nothing
    per run. *)

val contents : t -> string
(** The encoded records, oldest first: the bytes {!replay} decodes. *)

val length : t -> int
(** Number of recorded runs. *)

val instrs : t -> int
(** Total instructions across all recorded runs. *)

val memory_bytes : t -> int
(** Approximate resident size of the encoded trace. *)
