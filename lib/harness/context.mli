(** Shared experiment context: binaries, training profiles, the placements
    for every optimization combination — and the recorded executions.

    Building a context runs the profiling phase once; every figure then
    reuses the same profiles and placements, and measures on a separate
    execution (train seed 1, measurement seed 1009 — the paper's
    2000-transaction profile vs separate evaluation runs).

    Measurement executions are deduplicated the way the paper's
    methodology does (§4: collect the trace once, run it through many
    simulators).  The first request for an execution — keyed by schedule,
    seed and transaction count — walks the OLTP server once and records
    its path: every application and kernel block event, data reference and
    process switch, in walk order ({!Olayout_profile.Windowed}).  Every
    stream and observer of that execution is then served from the record:
    a stream already in the trace cache replays at memory speed; any other
    renders from the path, in one pass that also feeds the observers, so
    observers and runs interleave exactly as they do in the walk. *)

module Placement = Olayout_core.Placement
module Profile = Olayout_profile.Profile
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run

type scale = Quick | Full
(** [Quick] shrinks transaction counts for tests; [Full] is the bench
    default (2000 training and 1000 measured transactions). *)

type t

val create :
  ?scale:scale ->
  ?seed:int ->
  ?engine:Olayout_cachesim.Battery.engine ->
  unit ->
  t
(** [engine] selects the battery backend the sweep figures (fig4/5, fig6,
    fig7) use for their miss grids — default [`Stackdist], the single-pass
    engine, since those figures consume miss counts only.  Figures needing
    displacement, usage or owner detail always use [`Icache] regardless. *)

val scale : t -> scale

val engine : t -> Olayout_cachesim.Battery.engine
(** The battery engine miss-count-only figures pass to
    {!Olayout_cachesim.Battery.create}. *)

val workload : t -> Olayout_oltp.Workload.t
val app_profile : t -> Profile.t
val kernel_profile : t -> Profile.t

val placement : t -> Spike.combo -> Placement.t
(** Application placement for a combination (computed once, cached). *)

val kernel_base : t -> Placement.t
val kernel_optimized : t -> Placement.t
(** Kernel binary under its own full optimization (for the paper's
    kernel-layout ablation). *)

val measured_txns : t -> int

val training_run : t -> app_sinks:Olayout_exec.Walk.sink list -> unit
(** Walk the training execution (the profiling phase's schedule: training
    transaction count, seed 1) again, feeding its application events to
    [app_sinks] — for profiles of other kinds than the context's exact one.
    Not recorded: each call walks the server. *)

val app_only : (Run.t -> unit) -> Run.t -> unit
(** [app_only emit] is a render sink forwarding only application-owned runs
    to [emit] (the common "app stream" filter of the figure harnesses). *)

type trace_stats = {
  live_executions : int;  (** measurement executions walked (and recorded) *)
  live_runs : int;  (** runs rendered from a recorded path *)
  live_instrs : int;
  recorded_traces : int;
  replayed_traces : int;
  replayed_runs : int;
  replayed_instrs : int;
  replay_seconds : float;  (** wall-clock spent replaying *)
  trace_bytes : int;  (** resident size of the trace cache *)
}

val trace_stats : t -> trace_stats
(** Cumulative capture/replay counters (snapshot them around a figure to
    attribute work; see {!Report.run}'s [trace_stats] flag).  The counters
    are sourced from the process-global telemetry registry (the [context.*]
    counters), so with several live contexts the numbers aggregate across
    them; [trace_bytes] is always this context's own cache. *)

val measure :
  t ->
  ?txns:int ->
  ?kernel_placement:Placement.t ->
  ?on_data:(int -> unit) ->
  ?app_sinks:Olayout_exec.Walk.sink list ->
  ?on_switch:(int -> unit) ->
  renders:(Spike.combo * (Run.t -> unit)) list ->
  unit ->
  Olayout_oltp.Server.result
(** Serve one measurement execution's streams, every requested combination
    rendered from the same block path.  All renders share the kernel
    placement (default: the unoptimized kernel, as in the paper's main
    results).

    A stream already in the trace cache replays, after the others; any
    other renders from the recorded path (walking the server first, once
    per execution) and is recorded for later figures when it can be keyed
    (context-owned placements, the measured transaction count) and the
    1 GiB cache cap leaves room.  [app_sinks], [on_data] and [on_switch]
    are fed in the rendering pass, in the walk's order relative to the
    runs; when any is given, cached streams render in that pass too. *)

val measure_raw :
  t ->
  ?txns:int ->
  ?kernel_placement:Placement.t ->
  ?on_data:(int -> unit) ->
  ?app_sinks:Olayout_exec.Walk.sink list ->
  ?on_switch:(int -> unit) ->
  renders:(Placement.t * (Run.t -> unit)) list ->
  unit ->
  Olayout_oltp.Server.result
(** As {!measure} but with explicit application placements (for the CFA,
    hot/cold-splitting and profile-quality ablations, whose layouts are not
    {!Spike.combo} values). *)

val scheduled_capture :
  t -> Olayout_oltp.Schedule.t -> window:int -> Olayout_profile.Windowed.t
(** The recorded path of the measurement execution under a mid-run
    mix-shift [schedule], in windows of [window] application instructions:
    the drift and relayout drivers' input.  The scheduled case of the same
    memo {!measure} reads: the first request per (schedule, window) walks
    the server, without feeding the oltp.* timeline series; later ones
    return the same capture, which the caller must not record into. *)

(** {1 Battery replay over the trace cache}

    The sweep figures' path: fetch the recorded streams once, then replay
    each through a battery.  Walks and recordings only ever happen on the
    dispatching domain — {!measure} raises if either is requested from
    inside a pool task. *)

val traces_for :
  t -> Spike.combo list -> Olayout_exec.Trace.t option list
(** The recorded base-kernel measurement stream for each combination, in
    order.  Missing streams are rendered from the recorded path and
    recorded first; an entry is [None] only when the trace-cache byte cap
    refused the recording (callers fall back to {!measure}). *)

val replay_battery :
  t ->
  ?keep:(Run.t -> bool) ->
  combo:Spike.combo ->
  Olayout_cachesim.Battery.t ->
  bool
(** Replay the cached (combo, base kernel, measured txns) stream through a
    battery ({!Olayout_cachesim.Battery.access_trace}), timed as
    [context.replay].  Returns [false] (doing nothing) when the stream is
    not cached. *)

val feed_app_batteries :
  t -> (Spike.combo * Olayout_cachesim.Battery.t) list -> unit
(** Feed each battery its combination's application runs: {!replay_battery}
    over {!traces_for} the combinations, or, when the byte cap refused a
    recording, {!measure} every stream from the recorded path. *)
