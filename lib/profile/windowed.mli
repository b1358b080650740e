(** Windowed profile capture over the simulated instruction clock.

    Where {!Sampler} keeps one aggregate profile for a whole run, this sink
    keeps a separate {!Profile.t} per fixed-width instruction window, so a
    later analysis can ask how the procedure/edge weight vector *changed*
    along the run (the drift observatory's input).  Positions are
    producer-local source-instruction counts, exactly like {!Sampler}'s, so
    the windows line up with every {!Olayout_telemetry.Timeline} series fed
    by the same walk and the capture is byte-deterministic at any [-j]. *)

open Olayout_ir

type t

val create : ?window:int -> Prog.t -> t
(** [window] defaults to {!Olayout_telemetry.Timeline.window}[ ()].
    @raise Invalid_argument when [window < 1]. *)

val sink : t -> proc:int -> block:int -> arm:int -> unit
(** The walk sink ({!Olayout_exec.Walk.sink}-shaped): records the block
    event into the window containing its start position, then advances the
    position by the block's source size. *)

val window : t -> int
val windows : t -> int
(** Windows in use (highest written index + 1). *)

val instrs : t -> int
(** Total source instructions observed. *)

val events : t -> int
(** Total block events recorded across all windows. *)

val profile : t -> int -> Profile.t
(** The profile of one window (a zeroed profile for in-range windows that
    saw no events).  It belongs to the capture: read it, do not record
    into it ({!merged} sums only the procedures the sink recorded).
    @raise Invalid_argument when the index is out of range. *)

val merged : t -> lo:int -> hi:int -> Profile.t
(** Pointwise sum of the windows in [\[lo, hi)], clamped to the captured
    range.  Costs what the windows touched: each window adds only the
    rows of the procedures its sink recorded into. *)
