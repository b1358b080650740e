(** Drift-observatory result record: the per-window profile-divergence
    series and the layout-staleness matrix, plus artifact emission and
    gauge publication ([Olayout_harness.Drift.tables] prints it).

    Every numeric field is an integer (permille for ratios, raw
    misses/instrs for matrix cells) so the [olayout-drift/v1] document is
    byte-identical across [-j] values and sweep engines — the CI legs hold
    it to [cmp] equality. *)

type point = {
  p_window : int;  (** fine-window index on the instruction clock *)
  p_events : int;  (** block events profiled in the window *)
  p_l1_vs_prev : int;  (** permille; 0 for the first window *)
  p_l1_vs_train : int;
  p_jaccard_vs_prev : int;  (** similarity permille; 1000 for the first *)
  p_jaccard_vs_train : int;
  p_churn_vs_prev : int;
}

type cell = { misses : int; instrs : int }

type t = {
  o_figure : string;
  o_combo : string;
  o_window_instrs : int;
  o_top_k : int;
  o_points : point list;
  o_phase_names : string array;  (** length N: dominant schedule phase *)
  o_phase_events : int array;  (** profiled block events per phase *)
  o_rows : string array;  (** length N+1: layout sources (phases + train) *)
  o_cells : cell array array;  (** (N+1) rows x N replayed phases *)
  o_work : Olayout_core.Incremental.work;
      (** layout-building work of the matrix rows (1 full build + N
          incremental deltas) against the from-scratch counterfactual *)
}

val phases : t -> int
(** Number of replayed phases N (matrix columns). *)

val rows : t -> int
(** Number of layout rows, N+1 (one per phase plus the training row). *)

val mpki_x100 : cell -> int
(** Misses per 1000 instructions, scaled by 100 (integer fixed-point). *)

(** {1 Summary scalars} — the values behind the [drift.*] gauges. *)

val max_l1_vs_prev : t -> int
val max_l1_vs_train : t -> int
val max_churn_vs_prev : t -> int
val min_jaccard_vs_train : t -> int

val diag_max_mpki_x100 : t -> int
(** Worst diagonal cell over the N phase-layout rows: each layout replaying
    the phase it was trained on. *)

val offdiag_max_mpki_x100 : t -> int
(** Worst off-diagonal cell over the N phase-layout rows: a layout
    replaying a phase it was {e not} trained on.  A drifting workload shows
    [diag_max < offdiag_max]. *)

val work_ratio_x100 : Olayout_core.Incremental.work -> int
(** [scratch_pass_invocations * 100 / pass_invocations] — how many times
    cheaper the incremental builds were than from-scratch ones (200 = 2x);
    0 when no work was done. *)

val work_json : Olayout_core.Incremental.work -> Olayout_telemetry.Json.t
(** The work delta as an all-integer JSON object (shared by the drift and
    relayout artifacts). *)

(** {1 Artifact} *)

val artifact_schema : string
(** ["olayout-drift/v1"]. *)

val to_json : scale:string -> t -> Olayout_telemetry.Json.t
(** The [olayout-drift/v1] document.  All numeric leaves nest under the
    ["drift"] head so {!Olayout_regress.Diff} classifies every metric path
    as deterministic; the document carries no timestamp, argv or engine
    name. *)

(** {1 Publication} *)

val publish_gauges : t -> unit
(** Set the [drift.*] gauges in the global telemetry registry (windows,
    phases, summary permilles and staleness extremes) so the BENCH
    artifact and the baseline gate carry them. *)

val publish_timeline : t -> unit
(** While {!Olayout_telemetry.Timeline} is enabled, mirror the divergence
    series as [Sample]-kind timeline series on the instruction clock
    ([drift.l1_vs_prev_permille], [drift.l1_vs_train_permille],
    [drift.jaccard_vs_train_permille]) — they reach the TIMELINE artifact
    and the Chrome-trace counter tracks. *)
