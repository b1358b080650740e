(** Op-latency percentiles that refuse to be decided by a handful of ops.

    A percentile is reported only when at least {!min_beyond} samples lie
    beyond it, so [p90] needs 100 ops and the median 20. *)

val min_beyond : int
(** 10. *)

val candidates : float list
(** The percentiles {!tail} chooses from: 50, 75, 90, 95, 99, 99.9. *)

val beyond : n:int -> float -> int
(** Samples of [n] lying strictly beyond the [p]th percentile (nearest
    rank). *)

val percentile : float array -> float -> float option
(** [percentile samples p] is the nearest-rank [p]th percentile, or [None]
    when fewer than {!min_beyond} samples lie beyond it. *)

val tail : float array -> (float * float) option
(** The highest of {!candidates} that {!percentile} accepts, with its
    value; [None] under 20 samples. *)
