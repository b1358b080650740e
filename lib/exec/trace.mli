(** Trace capture & replay: a compact, append-only buffer of merged fetch
    runs.

    The paper's methodology collects the instruction trace of a placement
    once and then runs it through many cache/iTLB simulators (§4).  A
    {!t} stores the exact {!Run.t} stream a render sink emitted — owner,
    start address, run length — in a delta/varint [Bytes] encoding
    (typically 2-5 bytes per run, no per-run heap allocation), so a whole
    measurement execution can be kept resident and replayed into any number
    of simulators at memory speed instead of re-walking the OLTP server. *)

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
    yields exactly the counters a live execution would have produced. *)

val contents : t -> string
(** The encoded records, oldest first: the bytes {!replay} decodes. *)

val length : t -> int
(** Number of recorded runs. *)

val instrs : t -> int
(** Total instructions across all recorded runs. *)

val memory_bytes : t -> int
(** Approximate resident size of the encoded trace. *)
