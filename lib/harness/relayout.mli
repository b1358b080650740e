(** Closed-loop re-layout driver (ROADMAP item 4's loop half): replay one
    drifting mix-shift schedule under an evolving layout and sweep the
    re-layout cadence.

    Reads the context's capture of the scheduled execution's block path
    ({!Context.scheduled_capture}, shared with {!Drift}); the block path
    never depends on placements, so each swept cadence re-renders the
    same capture's application events offline — re-laying-out every
    [cadence] windows through an {!Olayout_core.Incremental} memo fed the
    merged profile of the windows since the previous tick, with the
    instruction cache persisting across ticks so re-layout disruption
    (post-move cold misses) is part of each cadence's cost.  The static
    row replays the training layout throughout.

    The result is the miss-rate-vs-staleness curve and the break-even
    cadence of {!Olayout_drift.Closedloop}, byte-identical at any [-j] and
    under both battery engines. *)

module Spike = Olayout_core.Spike
module Closedloop = Olayout_drift.Closedloop

val default_window : int
(** {!Drift.default_window} (65536 instructions). *)

val default_slots : int
(** Schedule slots, {!Drift.default_phases}. *)

val default_cadences : int list
(** [[1; 2; 4; 8]] windows between re-layout ticks. *)

val run :
  ?combo:Spike.combo ->
  ?cadences:int list ->
  ?window:int ->
  ?slots:int ->
  Context.t ->
  Diagnose.preset ->
  Closedloop.t
(** Run the cadence sweep over [Schedule.rotation ~slots] with the preset's
    cache geometry (application stream only).  [combo] defaults to
    {!Spike.All}; duplicate cadences are dropped and the sweep runs in
    ascending order.  Results are published as [relayout.*] gauges and
    (while the timeline subsystem is enabled) per-window timeline series.

    @raise Invalid_argument for [combo = Base], an empty or non-positive
    cadence list, [window < 1] or [slots < 2]. *)

val tables : Closedloop.t -> Table.t list
(** Cadence-sweep curve and per-window miss sparklines for the report. *)
