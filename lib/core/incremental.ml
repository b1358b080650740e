open Olayout_ir
module Profile = Olayout_profile.Profile
module Tgraph = Olayout_profile.Temporal
module Telemetry = Olayout_telemetry.Telemetry

(* The delta-driven incremental layout engine (ROADMAP item 4).

   A memo holds the last profile a layout was built from, Spike's
   per-procedure memo and the finished placement.  [update] diffs the new
   profile against the memoized one (Delta) and has Spike rebuild only the
   dirty procedures before it re-runs the order and the placer.  When the
   delta is empty — or the algorithm never reads the profile (Base) — the
   memoized placement is returned outright and every pass is skipped.

   Equivalence guarantee: the result is byte-identical to a from-scratch
   build on the new profile, by construction: a from-scratch build is
   Spike's rebuild of an empty memo with every procedure dirty, and a
   procedure's entry depends on its own profile rows alone: Chaining.chain
   writes the dirty procedures' block orders and chain starts into the
   memo's buffers, and Placement.encode encodes each procedure's segments
   from them in one pass.  The test suite also holds both to the
   list-based reference pipeline.

   Work accounting: every memo operation also books what a from-scratch
   build of the same layout would have cost, so the relayout.* counters
   carry both sides of the bargain — [pass_invocations] (work actually
   done: per-procedure chaining invocations plus global pass runs) vs
   [scratch_pass_invocations] (the counterfactual).  The drivers (Drift's
   staleness matrix, the Relayout loop) publish the ratio as gauges; CI
   gates them. *)

type algo = Spike.algo =
  | Combo of Spike.combo
  | Temporal of Tgraph.t
  | Temporal_procs of Tgraph.t
  | Colored of { cache_bytes : int }
  | Colored_procs of { cache_bytes : int }
  | Hot_cold
  | Cfa of { cache_bytes : int; cfa_fraction : float }
  | Hot_aligned

let c_full = Telemetry.counter "relayout.full_builds"
let c_updates = Telemetry.counter "relayout.updates"
let c_replaced = Telemetry.counter "relayout.procs_replaced"
let c_reused = Telemetry.counter "relayout.procs_reused"
let c_passes_run = Telemetry.counter "relayout.passes_run"
let c_passes_skipped = Telemetry.counter "relayout.passes_skipped"
let c_invocations = Telemetry.counter "relayout.pass_invocations"
let c_scratch = Telemetry.counter "relayout.scratch_pass_invocations"

type work = {
  w_full_builds : int;
  w_updates : int;
  w_procs_replaced : int;
  w_procs_reused : int;
  w_passes_run : int;
  w_passes_skipped : int;
  w_invocations : int;
  w_scratch_invocations : int;
}

let work_counters () =
  {
    w_full_builds = Telemetry.value c_full;
    w_updates = Telemetry.value c_updates;
    w_procs_replaced = Telemetry.value c_replaced;
    w_procs_reused = Telemetry.value c_reused;
    w_passes_run = Telemetry.value c_passes_run;
    w_passes_skipped = Telemetry.value c_passes_skipped;
    w_invocations = Telemetry.value c_invocations;
    w_scratch_invocations = Telemetry.value c_scratch;
  }

let work_sub a b =
  {
    w_full_builds = a.w_full_builds - b.w_full_builds;
    w_updates = a.w_updates - b.w_updates;
    w_procs_replaced = a.w_procs_replaced - b.w_procs_replaced;
    w_procs_reused = a.w_procs_reused - b.w_procs_reused;
    w_passes_run = a.w_passes_run - b.w_passes_run;
    w_passes_skipped = a.w_passes_skipped - b.w_passes_skipped;
    w_invocations = a.w_invocations - b.w_invocations;
    w_scratch_invocations = a.w_scratch_invocations - b.w_scratch_invocations;
  }

let work_zero =
  {
    w_full_builds = 0;
    w_updates = 0;
    w_procs_replaced = 0;
    w_procs_reused = 0;
    w_passes_run = 0;
    w_passes_skipped = 0;
    w_invocations = 0;
    w_scratch_invocations = 0;
  }

let work_add a b = work_sub a (work_sub work_zero b)

(* Global (whole-program) passes a build of this algorithm runs: the
   ordering pass, if any, plus address assignment.  Chaining and splitting
   are per-procedure and accounted separately. *)
let global_passes algo = if Spike.ordered algo then 2 else 1

(* Does the layout depend on the profile at all?  Base is a pure function
   of the program: one segment per procedure in source order. *)
let profile_sensitive = function Combo Spike.Base -> false | _ -> true

type t = {
  algo : algo;
  mutable profile : Profile.t;
  memo : Spike.memo;
  mutable placement : Placement.t;
}

let algo t = t.algo
let profile t = t.profile
let placement t = t.placement

(* Cost of a from-scratch build: one chaining invocation per procedure
   (when the algorithm chains) plus the global passes. *)
let scratch_cost algo n = (if Spike.chained algo then n else 0) + global_passes algo

let create algo initial_profile =
  let n = Prog.n_procs (Profile.prog initial_profile) in
  let memo, placement = Spike.memoize algo initial_profile in
  Telemetry.incr c_full;
  Telemetry.add c_invocations (scratch_cost algo n);
  Telemetry.add c_scratch (scratch_cost algo n);
  Telemetry.add c_passes_run (global_passes algo);
  { algo; profile = initial_profile; memo; placement }

let update t new_profile =
  let n = Prog.n_procs (Profile.prog t.profile) in
  Telemetry.incr c_updates;
  Telemetry.add c_scratch (scratch_cost t.algo n);
  let delta = Telemetry.span "delta" (fun () -> Delta.diff t.profile new_profile) in
  t.profile <- new_profile;
  if (not (profile_sensitive t.algo)) || Delta.is_empty delta then begin
    (* Nothing the layout reads has changed: reuse the placement whole. *)
    if Spike.chained t.algo then Telemetry.add c_reused n;
    Telemetry.add c_passes_skipped (global_passes t.algo);
    t.placement
  end
  else begin
    let n_dirty = Delta.n_dirty delta in
    if Spike.chained t.algo then begin
      Telemetry.add c_replaced n_dirty;
      Telemetry.add c_reused (n - n_dirty);
      Telemetry.add c_invocations n_dirty
    end;
    t.placement <- Spike.rebuild t.memo new_profile ~dirty:(Delta.dirty_procs delta);
    Telemetry.add c_passes_run (global_passes t.algo);
    Telemetry.add c_invocations (global_passes t.algo);
    t.placement
  end

let scratch = Spike.build
