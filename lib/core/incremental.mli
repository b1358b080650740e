(** Delta-driven incremental layout: memoized pipeline re-runs over dirty
    procedures only (ROADMAP item 4's engine half).

    A memo pairs the profile a layout was last built from with each
    procedure's segments, encoded segment-relative
    ({!Placement.rows}), and the finished placement.  {!update} diffs the
    new profile against the memo ({!Delta}), rebuilds the entries of dirty
    procedures only, then re-runs the global passes (Pettis-Hansen /
    temporal order / coloring / address assignment) over every entry;
    Pettis-Hansen visits only the weighted segments and address assignment
    is one prefix sum over segment sizes.  An empty delta — or a
    profile-insensitive algorithm ([Combo Base]) — returns the memoized
    placement with every pass skipped.

    {b Equivalence guarantee}: the incremental result is byte-identical
    ({!Placement.equal}) to a from-scratch build on the new profile
    ({!scratch}), because chaining is a pure function of a procedure's own
    profile rows, segments are numbered procedure by procedure exactly as
    the from-scratch segment list orders them, and the global passes are
    pure functions of (profile, segments).  The test suite asserts this,
    including under randomized profile deltas and along a chain of real
    re-layout ticks.

    Work is booked into the [relayout.*] counters: [pass_invocations]
    (per-procedure chaining invocations actually performed plus global
    passes actually run) against [scratch_pass_invocations] (what
    from-scratch builds of the same layouts would have cost), plus
    [procs_replaced] / [procs_reused] / [passes_run] / [passes_skipped] /
    [full_builds] / [updates].  Drivers snapshot {!work_counters} around
    their layout work and publish the deltas as gauges. *)

type algo =
  | Combo of Spike.combo  (** The six Spike pipeline combinations. *)
  | Temporal of Olayout_profile.Temporal.t
      (** Chaining + splitting + temporal ordering (Gloy et al.), as in the
          [temporal] figure. *)
  | Colored of { cache_bytes : int; max_gap_lines : int option }
      (** Chaining + splitting + Pettis-Hansen + cache-line coloring, as in
          the [coloring] figure ([max_gap_lines = None] uses the pass
          default). *)

type t

val create : algo -> Olayout_profile.Profile.t -> t
(** Full build (counted as [relayout.full_builds]); the memo's initial
    placement equals [scratch algo profile]. *)

val update : t -> Olayout_profile.Profile.t -> Placement.t
(** Re-layout to a new profile, reusing memoized chains for procedures the
    delta left clean.  Returns the new placement (also retained in the
    memo).  Byte-identical to [scratch algo new_profile]. *)

val placement : t -> Placement.t
val profile : t -> Olayout_profile.Profile.t
(** The memo's current placement and the profile it was built from. *)

val algo : t -> algo

val scratch : algo -> Olayout_profile.Profile.t -> Placement.t
(** The from-scratch reference pipeline (exactly what the existing figure
    drivers run: {!Spike.optimize}, the temporal-order recipe, the colored
    recipe).  Exposed for the equivalence tests. *)

(** {1 Work accounting} *)

type work = {
  w_full_builds : int;
  w_updates : int;
  w_procs_replaced : int;  (** dirty procedures whose chains were rebuilt *)
  w_procs_reused : int;  (** clean procedures whose chains were reused *)
  w_passes_run : int;  (** global passes actually executed *)
  w_passes_skipped : int;  (** global passes skipped via the memo *)
  w_invocations : int;
      (** work actually done: per-procedure chaining invocations + global
          pass runs *)
  w_scratch_invocations : int;
      (** the counterfactual: what from-scratch builds of the same layouts
          would have cost *)
}

val work_counters : unit -> work
(** Current values of the process-global [relayout.*] counters; subtract
    two snapshots to attribute work to a driver. *)

val work_sub : work -> work -> work
val work_add : work -> work -> work
val work_zero : work
