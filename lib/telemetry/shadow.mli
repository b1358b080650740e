(** The one parallel-mode flag and domain-local shadow slots behind every
    instrument registry: {!Telemetry}'s counters, gauges, histograms and
    spans, {!Timeline}'s series and {!Provenance}'s decision log.

    Each registry declares one {!slot} for its own shadow type and keeps
    its own merge.  [Telemetry.Isolated.capture] installs a fresh shadow
    in every slot for the duration of a pool task ({!within}), and
    [Telemetry.Isolated.merge] folds them back in task-submission order;
    producers and the pool never touch the slots. *)

val parallel : bool ref
(** True only while a pool with worker domains is live.  Registries read
    it before any slot lookup ([if !Shadow.parallel then Shadow.installed
    slot else None]) so the serial path stays one ref read.  Written only
    by {!set_parallel}. *)

val set_parallel : bool -> unit
(** Flip {!parallel} (the pool sets it before spawning workers and clears
    it after joining them). *)

type 'a slot
(** A domain-local cell holding the shadow installed on this domain, if
    any. *)

val slot : unit -> 'a slot

val installed : 'a slot -> 'a option
(** The shadow installed on the calling domain.  Read {!parallel} first:
    while it is off, writes go to the global registry even inside
    {!within}. *)

val within : 'a slot -> 'a -> (unit -> 'b) -> 'b
(** [within slot shadow f] runs [f] with [shadow] installed on the calling
    domain, restoring the previous one on exit, even on exceptions. *)
