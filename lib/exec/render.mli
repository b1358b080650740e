(** Rendering block events to instruction-fetch address runs under a
    placement.

    One {!merger} is shared by all programs feeding one trace (the
    application binary and the kernel binary), so a kernel entry or a
    context switch correctly breaks the application's current fetch run.
    One {!t} exists per (program, placement); attach its {!sink} to the
    walker that executes that program. *)

type merger

val merger : emit:(Run.t -> unit) -> merger
(** Create a run merger.  [emit] receives maximal sequential runs. *)

val feed : merger -> Run.owner -> addr:int -> len:int -> unit
(** Append [len] instructions fetched from [addr]; merges with the pending
    run when contiguous and same-owner. *)

val flush : merger -> unit
(** Emit any pending run (call at end of trace and at context switches).
    Also publishes the [exec.runs_rendered], [exec.instrs_rendered] and
    [exec.run_len] telemetry for every run emitted since the previous
    flush: the merger counts locally, so a run still pending or emitted
    after the last flush is not yet in the registry. *)

type t

val create : placement:Olayout_core.Placement.t -> owner:Run.owner -> merger -> t

val sink : t -> Walk.sink
(** Walker sink rendering each block event to its fetch run under the
    placement: one closure, built once per call. *)

val stream :
  app:Olayout_core.Placement.t ->
  kernel:Olayout_core.Placement.t ->
  (Run.t -> unit) ->
  merger * Walk.sink * Walk.sink
(** One rendered run stream: a merger emitting to the given function, with
    the application and kernel sinks that feed it, each rendering under
    its program's placement.  Feed both from one execution (its walkers,
    or a replay of its capture) and {!flush} the merger at the end. *)
