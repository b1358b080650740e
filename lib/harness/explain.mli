(** Layout provenance end to end: the explain driver.

    [run] captures a decision log from the optimization pipeline (every
    {!Olayout_core} pass records its choices through
    {!Olayout_telemetry.Provenance}), measures the same replayed
    transaction stream under the base and optimized layouts with two
    {!Olayout_diag.Diag} captures, and joins everything into
    per-procedure {!Olayout_explain.Scorecard} rows — what the optimizer
    decided, where each procedure moved, and what that did to its miss
    count.

    The whole computation is deterministic and runs on the dispatching
    domain (the pipeline re-run is pure; the diagnosis replays cached
    traces through the icache backend regardless of the context's sweep
    engine), so {!artifact_json} output is byte-identical at any [-j]
    and under either engine — CI compares the legs with [cmp]. *)

type result = {
  ex_preset : Diagnose.preset;  (** Cache geometry / stream the scores use. *)
  ex_combo : Olayout_core.Spike.combo;  (** The optimized layout scored. *)
  ex_rows : Olayout_explain.Scorecard.row list;
      (** Scorecards, worst regret first. *)
  ex_events : int;  (** Provenance events captured for this pipeline. *)
  ex_base : Olayout_diag.Diag.t;  (** Base-layout diagnosis (kept for drill-down). *)
  ex_opt : Olayout_diag.Diag.t;  (** Optimized-layout diagnosis. *)
}

val run :
  ?combo:Olayout_core.Spike.combo -> Context.t -> Diagnose.preset -> result
(** Capture, measure, join.  [combo] defaults to [All]; [Base] is
    rejected with [Invalid_argument] (there is no decision log to explain
    for the identity layout).  The capture re-runs the layout pipeline
    with the provenance recorder armed — the context's cached placements
    are untouched and the recorder is disarmed again on exit, even on
    raise. *)

val tables : ?top:int -> result -> Table.t list
(** Console rendering: a summary table plus the top-[top] (default 10)
    scorecard rows. *)

val artifact_schema : string
(** ["olayout-explain/v1"]. *)

val artifact_json : scale:string -> result -> Olayout_telemetry.Json.t
(** The scorecard artifact: schema/scale/figure/combo header strings plus
    every metric nested under an ["explain"] object (so
    {!Olayout_regress.Diff} classifies the paths as deterministic).  No
    timestamp or argv — the bytes must match across run legs. *)
