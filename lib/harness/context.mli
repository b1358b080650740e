(** Shared experiment context: binaries, training profiles, the placements
    for every optimization combination — and the trace cache.

    Building a context runs the profiling phase once; every figure then
    reuses the same profiles and placements, and runs its own measurement
    execution with a fresh seed (train seed 1, measurement seed 1009 —
    the paper's 2000-transaction profile vs separate evaluation runs).

    Measurement executions themselves are deduplicated the way the paper's
    methodology does (§4: collect the trace once, run it through many
    simulators): the first {!measure} of a given (combo, kernel placement,
    transaction count) walks the OLTP server and records the rendered run
    stream into an {!Olayout_exec.Trace.t}; every later figure asking for
    the same stream gets a replay at memory speed.  Figures that need the
    walk itself (block sinks, data references, switch observers) fall back
    to live simulation transparently. *)

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

val app_only : (Run.t -> unit) -> Run.t -> unit
(** [app_only emit] is a render sink forwarding only application-owned runs
    to [emit] (the common "app stream" filter of the figure harnesses). *)

type trace_stats = {
  live_executions : int;  (** full OLTP server walks performed *)
  live_runs : int;  (** runs emitted by live render sinks *)
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
(** Run one measurement execution rendering the same block path under every
    requested combination.  All renders share the kernel placement
    (default: the unoptimized kernel, as in the paper's main results).

    Streams already in the trace cache are replayed instead of simulated;
    uncached streams are simulated live and recorded for later figures.
    Passing [on_data], [app_sinks] or [on_switch] forces a live execution
    (those observe the walk, which a replay does not perform), but cached
    render streams still replay and new ones are still recorded. *)

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
(** The block path (application and kernel events) of the measurement
    execution under a mid-run mix-shift [schedule], in windows of [window]
    application instructions: the drift and relayout drivers' input.  The
    first request per (schedule, window) walks the server live, without
    feeding the oltp.* timeline series; later ones return the same capture,
    which the caller must not record into. *)

(** {1 Battery replay over the trace cache}

    The parallel engine's preferred path: fetch the recorded streams once,
    then shard the replay across a battery's configurations on the pool.
    Live walks (and hence recordings) only ever happen on the dispatching
    domain — {!measure} raises if a live execution is requested from inside
    a pool task. *)

val traces_for :
  t -> Spike.combo list -> Olayout_exec.Trace.t option list
(** The recorded base-kernel measurement stream for each combination, in
    order.  Missing streams are recorded by one capture-only live walk
    first; an entry is [None] only when the trace-cache byte cap refused
    the recording (callers fall back to {!measure}). *)

val replay_battery :
  t ->
  ?pool:Olayout_par.Pool.t ->
  ?keep:(Run.t -> bool) ->
  combo:Spike.combo ->
  Olayout_cachesim.Battery.t ->
  bool
(** Replay the cached (combo, base kernel, measured txns) stream through a
    battery — sharded across the pool's domains when one is given (see
    {!Olayout_cachesim.Battery.access_trace}).  Replay accounting counts
    the one logical stream regardless of shard count, so deterministic
    counters match the serial path.  Returns [false] (doing nothing) when
    the stream is not cached. *)

(** {1 Trace retention}

    The cache only ever grew before this existed; with parallel replay the
    peak matters, so the bench can release streams once their last
    scheduled consumer has run ([--retain-mb]).  Peak residency is reported
    as the [context.trace_peak_bytes] gauge. *)

val resident_traces :
  t -> ((Spike.combo * [ `Base | `Optimized ]) * int) list
(** Currently resident streams (aggregated per combo/kernel, bytes), in
    recording order. *)

val drop_traces :
  t -> ?kernel:[ `Base | `Optimized ] -> Spike.combo -> int
(** Release every resident stream of the combo under the given kernel
    (default [`Base], whatever the transaction count), returning the bytes
    freed (0 when none was resident).  A later {!measure} of the same
    stream simply re-records it. *)
