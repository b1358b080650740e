(** The machine-readable bench summary ([BENCH_<scale>.json]): per-figure
    wall seconds and simulated/replayed run counts, trace-cache statistics,
    the full counter/gauge registry, span aggregates, optimizer pass
    timings and GC statistics ([Gc.quick_stat]).  This is the perf baseline
    artifact subsequent optimisation PRs diff against. *)

type figure = {
  id : string;
  desc : string;
  seconds : float;  (** wall-clock for the whole figure *)
  runs_live : int;  (** fetch runs rendered from a recorded execution path *)
  runs_replayed : int;  (** fetch runs served from the trace cache *)
  instrs_live : int;
  instrs_replayed : int;
  live_executions : int;  (** full OLTP server walks *)
  traces_replayed : int;
}

val schema : string
(** ["olayout-bench/v1"]. *)

val json :
  scale:string ->
  total_seconds:float ->
  trace_cache_bytes:int ->
  figures:figure list ->
  Json.t
(** Build the artifact from the figure records plus the current telemetry
    registry and GC state. *)
