(** Windowed capture of an execution's block path over the simulated
    instruction clock.

    Where {!Sampler} keeps one aggregate profile for a whole run, this
    capture records the path itself: every application and kernel event
    [(proc, block, arm)], data reference and process switch in execution
    order, one word each, cut into fixed-width windows of application
    instructions.  A window range folds into a profile ({!merged}: how the
    procedure/edge weight vector {e changed} along the run, the drift
    observatory's input) or replays into walk sinks and observers
    ({!replay}: rendered under any placement, since the block path never
    depends on placements).  Positions are producer-local
    source-instruction counts, exactly like {!Sampler}'s, so the windows
    line up with every {!Olayout_telemetry.Timeline} series fed by the
    same walk and the capture is byte-deterministic at any [-j]. *)

open Olayout_ir

type t

val create : ?window:int -> Prog.t -> t
(** An empty capture of the application program [prog].  [window]
    defaults to {!Olayout_telemetry.Timeline.window}[ ()].
    @raise Invalid_argument when [window < 1]. *)

val sink : t -> proc:int -> block:int -> arm:int -> unit
(** The application walk sink ({!Olayout_exec.Walk.sink}-shaped): records
    the event in the window containing its start position, then advances
    the position by the block's source size.
    @raise Invalid_argument, recording nothing, when the event is out of
    range for the program (as {!Profile.record}). *)

val kernel_sink : t -> proc:int -> block:int -> arm:int -> unit
(** The kernel walk sink: records the event in order without advancing
    the clock.  Kernel events never enter a profile.
    @raise Invalid_argument when a field is negative or above 2{^20} - 1. *)

val data_sink : t -> int -> unit
(** The server's data-reference observer: records the address in order
    without advancing the clock.
    @raise Invalid_argument when the address is negative or above
    2{^60} - 1. *)

val switch_sink : t -> int -> unit
(** The server's process-switch observer: records the dispatched process
    id in order without advancing the clock.
    @raise Invalid_argument as {!data_sink}. *)

val window : t -> int
val windows : t -> int
(** Windows in use (highest written index + 1). *)

val instrs : t -> int
(** Total application source instructions observed. *)

val events : t -> int
(** Total application events recorded. *)

val replay :
  t ->
  lo:int ->
  hi:int ->
  app:(proc:int -> block:int -> arm:int -> unit) ->
  ?kernel:(proc:int -> block:int -> arm:int -> unit) ->
  ?data:(int -> unit) ->
  ?switch:(int -> unit) ->
  unit ->
  unit
(** Feed the events of the windows in [\[lo, hi)], clamped to the captured
    range, to [app] and, when given, [kernel], [data] and [switch], in
    recorded order: the order the live walk made its sink and observer
    calls in.  Any other event belongs to the window of the application
    event before it, or to window 0 before the first one. *)

val merged : t -> lo:int -> hi:int -> Profile.t
(** A fresh profile of the application events in the windows
    [\[lo, hi)], clamped to the captured range. *)

val profile : t -> int -> Profile.t
(** [merged] of one window (zeroed for an in-range window without events).
    @raise Invalid_argument when the index is out of range. *)
