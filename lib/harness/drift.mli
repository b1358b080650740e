(** Workload-drift observatory driver: windowed profile divergence and the
    layout-staleness matrix over a deterministic mid-run mix shift.

    Reads the context's capture of the measurement execution under
    {!Olayout_oltp.Schedule.rotation} ({!Context.scheduled_capture}: one
    live walk, shared with {!Relayout}).  The capture's windows fold into
    profiles for the divergence series, and its phases' merged profiles
    derive one layout per matrix phase.  Each matrix row renders the
    captured block path under its layout (application and kernel events
    through one run merger, as the live server renders), is sliced by its
    own instruction clock, and every (layout, phase) cell replays cold
    through the preset's cache geometry on the context's engine. *)

module Spike = Olayout_core.Spike
module Observatory = Olayout_drift.Observatory

val default_window : int
(** Fine divergence-window width in source instructions (65536, matching
    the timeline default). *)

val default_phases : int
val default_top : int

val run :
  ?combo:Spike.combo ->
  ?phases:int ->
  ?window:int ->
  ?top:int ->
  Context.t ->
  Diagnose.preset ->
  Observatory.t
(** Default [combo] {!Spike.All}, [phases] 4, [window]
    {!default_window}, [top] 8.  [phases] is clamped to the number of
    captured windows.  Publishes the [drift.*] gauges and (while the
    timeline subsystem is enabled) the [drift.*] instruction-clock series
    as side effects.  The DRIFT artifact is [Observatory.to_json] of the
    result.
    @raise Invalid_argument for [combo = Base] (all matrix rows would be
    the source-order layout), [phases < 2], [window < 1] or [top < 1]. *)

val tables : Observatory.t -> Table.t list
(** Report rendering: divergence sparkline table + staleness matrix. *)
