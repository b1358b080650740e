(** Deterministic, splittable pseudo-random number generator.

    All stochastic behaviour in the reproduction flows through this module so
    that every experiment is exactly reproducible from a seed.  The generator
    is SplitMix64 (Steele, Lea, Flood 2014): tiny state, good statistical
    quality, and cheap splitting, which lets independent subsystems (code
    synthesis, workload execution, client think times) draw from independent
    streams derived from one master seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of [t]'s continued stream.  Advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the same
    stream.  Used by tests to replay a decision sequence. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val float : t -> float
(** [float t] is uniform in [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] draws the number of failures before the first success of
    a Bernoulli trial with success probability [p]; i.e. mean [(1-p)/p].
    [p] is clamped to [1e-9, 1.]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_weighted : t -> ('a * float) array -> 'a
(** Weighted choice; weights must be non-negative with a positive sum. *)

val weighted_index : t -> ('a * float) array -> int
(** The index {!pick_weighted} would choose, from the same draw; allocates
    nothing. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
