(** Run every experiment and print its tables — the full reproduction of the
    paper's evaluation section. *)

type selection =
  | All
  | Only of string list
      (** Experiment ids: "fig3" "fig4" "fig6" "fig7" "fig8" "fig9" "fig12"
          "fig14" "fig15" "intext" "ablations" "prefetch" "joint" (fig4
          covers fig5, fig9 covers 10-11, fig12 covers 13; the last two are
          extensions beyond the paper). *)

val experiment_ids : string list

type result = {
  figures : Olayout_telemetry.Bench_artifact.figure list;
      (** One per executed experiment, in list order: wall seconds from
          the figure's span and the trace-cache counter deltas around it
          — the [figures] section of [BENCH_<scale>.json]. *)
  drift : Olayout_drift.Observatory.t option;
      (** The [drift] experiment's result, when it ran. *)
  relayout : Olayout_drift.Closedloop.t option;
      (** The [relayout] experiment's result, when it ran. *)
}

val run :
  ?selection:selection ->
  ?trace_stats:bool ->
  ?pool:Olayout_par.Pool.t ->
  Context.t ->
  Format.formatter ->
  result
(** Executes the selected experiments and prints each experiment's tables
    (with wall-clock timings) in list order, returning their {!result}.  Each figure runs inside a telemetry span
    named [report.<id>], so span aggregates (and the JSONL sink, when
    attached) carry the same timings.  With [trace_stats] (default false),
    also prints one line per figure attributing its instruction streams to
    trace replay vs rendering from the recorded path — runs/instrs
    replayed, replay throughput in Mruns/s — and a final trace-cache
    summary table.

    With a [pool] of 2+ jobs, replay-only figures whose streams were
    recorded by an earlier figure run as pool tasks, one figure per task
    (figures that walk an execution, record a stream or feed observers
    run on the dispatching domain at their list position, so they
    populate the trace cache).  A figure is printed once every figure
    before it has been, so a serial run prints figure by figure.  Output
    order, per-figure attribution and every deterministic counter are
    identical to the serial run: task telemetry is captured in isolation
    and merged in list order.

    Every numeric cell of each experiment's tables is published as the
    gauge [fig.<table>.<row>.<col>] (see {!Table.gauges}) as the figure
    is collected, on the calling domain in list order; a key published
    twice raises [Invalid_argument].  Publishes the [par.*] gauges, including
    [par.speedup] (summed per-figure seconds over report wall time).
    Peak trace-cache residency is the [context.trace_peak_bytes] gauge.

    @raise Invalid_argument on unknown experiment ids (the message lists
    the valid ids). *)
