(** Delta-driven incremental layout: memoized re-layout over dirty
    procedures only (ROADMAP item 4's engine half).

    A memo pairs the profile a layout was last built from with
    {!Spike}'s per-procedure memo and the finished placement.  {!update}
    diffs the new profile against the memo ({!Delta}) and has
    {!Spike.rebuild} redo only the dirty procedures before the order and
    the placer run again; Pettis-Hansen visits only the weighted segments
    and address assignment is one prefix sum over segment sizes.  An empty
    delta — or a profile-insensitive algorithm ([Combo Base]) — returns
    the memoized placement with every pass skipped.

    {b Equivalence guarantee}: the incremental result is byte-identical
    ({!Placement.equal}) to a from-scratch build on the new profile
    ({!scratch}) by construction — {!scratch} is {!Spike.build}, a rebuild
    of an empty memo with every procedure dirty, and a procedure's memo
    entry depends on its own profile rows alone.  The test suite asserts
    it, and holds both to a list-based reference pipeline.

    Work is booked into the [relayout.*] counters: [pass_invocations]
    (per-procedure chaining invocations actually performed plus global
    passes actually run) against [scratch_pass_invocations] (what
    from-scratch builds of the same layouts would have cost), plus
    [procs_replaced] / [procs_reused] / [passes_run] / [passes_skipped] /
    [full_builds] / [updates].  Drivers snapshot {!work_counters} around
    their layout work and publish the deltas as gauges. *)

(** {!Spike.algo}: every layout a driver builds. *)
type algo = Spike.algo =
  | Combo of Spike.combo
  | Temporal of Olayout_profile.Temporal.t
  | Temporal_procs of Olayout_profile.Temporal.t
  | Colored of { cache_bytes : int }
  | Colored_procs of { cache_bytes : int }
  | Hot_cold
  | Cfa of { cache_bytes : int; cfa_fraction : float }
  | Hot_aligned

type t

val create : algo -> Olayout_profile.Profile.t -> t
(** Full build (counted as [relayout.full_builds]): {!Spike.memoize}. *)

val update : t -> Olayout_profile.Profile.t -> Placement.t
(** Re-layout to a new profile, reusing memoized chains for procedures the
    delta left clean.  Returns the new placement (also retained in the
    memo).  Byte-identical to [scratch algo new_profile]. *)

val placement : t -> Placement.t
val profile : t -> Olayout_profile.Profile.t
(** The memo's current placement and the profile it was built from. *)

val algo : t -> algo

val scratch : algo -> Olayout_profile.Profile.t -> Placement.t
(** The from-scratch build, {!Spike.build}; books no [relayout.*]
    counter.  Exposed for the equivalence tests and the benchmark. *)

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
