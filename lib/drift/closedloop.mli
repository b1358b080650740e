(** Closed-loop re-layout result record: the miss-rate-vs-cadence curve of
    the online BOLT-style loop, plus artifact emission, gauge publication
    and timeline mirroring ([Olayout_harness.Relayout.tables] prints it).

    The harness driver ({!Olayout_harness.Relayout}) replays one drift
    schedule under an evolving layout — rebuilt from the profile delta every
    [cadence] windows by {!Olayout_core.Incremental} — against the static
    training layout.  The instruction cache persists across re-layout
    ticks, so the cold misses caused by moving code (re-layout disruption)
    are part of each cadence's cost.

    Every numeric field is an integer (misses, instrs, mpki scaled x100,
    work counts) so the [olayout-relayout/v1] document is byte-identical
    across [-j] values and sweep engines — the CI legs hold it to [cmp]
    equality. *)

type point = {
  c_cadence : int;  (** windows between re-layout ticks *)
  c_relayouts : int;  (** incremental updates actually performed *)
  c_misses : int;  (** total misses over the replayed stream *)
  c_instrs : int;  (** instructions fed to the cache *)
  c_work : Olayout_core.Incremental.work;
      (** layout work of this cadence's loop (full build + updates) *)
  c_window_misses : int array;  (** per-window miss deltas *)
}

type t = {
  r_figure : string;
  r_combo : string;
  r_window_instrs : int;
  r_windows : int;
  r_static : point;  (** never re-layout: the training layout throughout *)
  r_points : point list;  (** swept cadences, ascending *)
}

val mpki_x100 : point -> int
(** Misses per 1000 instructions, scaled by 100 (integer fixed-point). *)

(** {1 Summary scalars} — the values behind the [relayout.*] gauges. *)

val best_point : t -> point
(** The point (static row included) with the fewest total misses; ties go
    to the coarser — cheaper — cadence. *)

val best_cadence : t -> int
(** Cadence of {!best_point}; 0 names the static row. *)

val best_mpki_x100 : t -> int
val static_mpki_x100 : t -> int

val break_even_cadence : t -> int
(** The coarsest swept cadence whose total misses still beat the static
    layout — the longest the loop can wait between re-layouts and still
    pay for its own disruption.  0 when no swept cadence beats static. *)

val saved_misses_permille : t -> int
(** Miss reduction of {!best_point} vs the static layout, permille of the
    static misses (0 when the static row is best). *)

val total_work : t -> Olayout_core.Incremental.work
(** Layout work summed over the static row and every swept cadence. *)

val work_ratio_x100 : t -> int
(** {!Olayout_drift.Observatory.work_ratio_x100} of {!total_work}: how many
    times cheaper the loop's incremental builds were than from-scratch
    counterfactuals (200 = 2x). *)

(** {1 Artifact} *)

val artifact_schema : string
(** ["olayout-relayout/v1"]. *)

val to_json : scale:string -> t -> Olayout_telemetry.Json.t
(** The [olayout-relayout/v1] document.  All numeric leaves nest under the
    ["relayout"] head so {!Olayout_regress.Diff} classifies every metric
    path as deterministic; the document carries no timestamp, argv or
    engine name. *)

(** {1 Publication} *)

val publish_gauges : t -> unit
(** Set the [relayout.*] gauges in the global telemetry registry (curve
    summary plus the loop's own work counters) so the BENCH artifact and
    the baseline gate carry them. *)

val publish_timeline : t -> unit
(** While {!Olayout_telemetry.Timeline} is enabled, mirror the per-window
    miss series of the static layout and the best cadence as [Delta]-kind
    series on the instruction clock ([relayout.static_misses],
    [relayout.best_misses]) — they reach the TIMELINE artifact and the
    Chrome-trace counter tracks. *)
