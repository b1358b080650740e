(** Cache-diagnostics driver: run one figure's cache geometry over the OLTP
    workload with a {!Olayout_diag.Diag}-wrapped icache and report where
    the misses come from.

    Backs [olayout diagnose] and the DIAG artifact of [olayout report
    --out]. *)

module Diag = Olayout_diag.Diag
module Spike = Olayout_core.Spike

type preset = {
  fig : string;          (** figure id the geometry comes from *)
  size_kb : int;
  line : int;
  assoc : int;
  combined : bool;       (** feed the kernel stream too (figs 12-13 setup) *)
  what : string;         (** one-line description for reports *)
}

val presets : preset list
(** Diagnosable figure geometries: [fig4] (64 KB, 128 B, direct-mapped,
    application stream — the headline sweep point), [fig6] (same but
    4-way — what associativity already absorbs), [fig12] (128 KB, 128 B,
    4-way, combined app+kernel — the interference setup). *)

val preset_of_figure : string -> preset
(** @raise Invalid_argument on unknown ids, listing the valid ones. *)

type result = {
  diag : Diag.t;
  icache_misses_delta : int;
      (** The change of the process-wide [cachesim.icache_misses] counter
          across the measurement: the diagnosed cache is the only one fed,
          so it equals the classification total. *)
}

val run : ?combo:Spike.combo -> Context.t -> preset -> result
(** Measure the context's workload through a diagnosed cache of the
    preset's geometry under [combo] (default [Base]: diagnosing the
    unoptimized layout shows the conflicts the optimizations remove). *)

val tables : ?top:int -> combo:Spike.combo -> preset -> Diag.t -> Table.t list
(** Human-readable report: classification summary, top-[top] (default 10)
    miss-attributed segments, top conflict pairs and set-pressure
    hotspots. *)

val artifact_schema : string

val artifact_json :
  scale:string -> combo:Spike.combo -> preset:preset -> result -> Olayout_telemetry.Json.t
(** The machine-readable diagnostics artifact.  It records both the
    classification total and [icache_misses_delta], so CI can assert
    their equality. *)
