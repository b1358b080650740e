open Olayout_ir
module Profile = Olayout_profile.Profile
module Tgraph = Olayout_profile.Temporal
module Telemetry = Olayout_telemetry.Telemetry

(* The delta-driven incremental layout engine (ROADMAP item 4).

   A memo holds the last profile a layout was built from, the per-procedure
   chains that build produced, and the finished placement.  [update] diffs
   the new profile against the memoized one (Delta), recomputes chains only
   for dirty procedures, reuses the memoized chains for clean ones, then
   re-runs the global passes (Pettis-Hansen / temporal order / coloring /
   address assignment) over the reassembled segment list.  When the delta
   is empty — or the algorithm never reads the profile (Base) — the
   memoized placement is returned outright and every pass is skipped.

   Equivalence guarantee: the result is byte-identical to a from-scratch
   build on the new profile ({!scratch}; asserted by Placement.equal in
   the test suite, including a randomized property test).  It holds
   because (a) Chaining.chain_proc is a pure function of the procedure's
   own profile rows, so identical rows imply identical chains; (b) segment
   assembly visits procedures in the same order as the scratch pipeline;
   and (c) the global passes are pure functions of (profile, segments).

   Work accounting: every memo operation also books what a from-scratch
   build of the same layout would have cost, so the relayout.* counters
   carry both sides of the bargain — [pass_invocations] (work actually
   done: per-procedure chaining invocations plus global pass runs) vs
   [scratch_pass_invocations] (the counterfactual).  The drivers (Drift's
   staleness matrix, the Relayout loop) publish the ratio as gauges; CI
   gates them. *)

type algo =
  | Combo of Spike.combo
  | Temporal of Tgraph.t
  | Colored of { cache_bytes : int; max_gap_lines : int option }

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

(* Does the algorithm have a per-procedure chaining stage? *)
let uses_chains = function
  | Combo (Spike.Base | Spike.Porder) -> false
  | Combo (Spike.Chain | Spike.Chain_split | Spike.Chain_porder | Spike.All)
  | Temporal _ | Colored _ ->
      true

(* Global (whole-program) passes a build of this algorithm runs: ordering
   passes plus address assignment.  Chaining/splitting are per-procedure
   and accounted separately. *)
let global_passes = function
  | Combo Spike.Base -> 1 (* placement *)
  | Combo Spike.Porder -> 2 (* pettis_hansen + placement *)
  | Combo (Spike.Chain | Spike.Chain_split) -> 1 (* placement *)
  | Combo (Spike.Chain_porder | Spike.All) -> 2 (* pettis_hansen + placement *)
  | Temporal _ -> 2 (* temporal_order + placement *)
  | Colored _ -> 2 (* pettis_hansen + coloring (owns placement) *)

(* Does the layout depend on the profile at all?  Base is a pure function
   of the program: one segment per procedure in source order. *)
let profile_sensitive = function Combo Spike.Base -> false | _ -> true

type t = {
  algo : algo;
  mutable profile : Profile.t;
  chains : Block.id list list array;  (* per procedure; [||] for chainless *)
  mutable placement : Placement.t;
}

let algo t = t.algo
let profile t = t.profile
let placement t = t.placement

(* --- the pipeline, parameterized by chain source ----------------------- *)

let chaining_span f = Telemetry.span "chaining" f
let splitting_span f = Telemetry.span "splitting" f
let porder_span f = Telemetry.span "pettis_hansen" f
let torder_span f = Telemetry.span "temporal_order" f
let placement_span f = Telemetry.span "placement" f

let proc_segments prog =
  Array.to_list (Array.map Segment.of_proc prog.Prog.procs)

(* Assemble the final placement from per-procedure chains, mirroring the
   from-scratch pipelines (Spike.segments_for, fig_temporal and
   fig_coloring's segment recipes) operation for operation. *)
let build_placement algo profile chains =
  let prog = Profile.prog profile in
  let n = Prog.n_procs prog in
  let one_per_proc () =
    chaining_span (fun () ->
        List.init n (fun pid ->
            { Segment.proc = pid; blocks = List.concat chains.(pid) }))
  in
  let fine_grain () =
    splitting_span (fun () ->
        Splitting.fine_grain_of_chains prog
          (List.init n (fun pid -> (pid, chains.(pid)))))
  in
  let place ?(align = 4) segments =
    placement_span (fun () -> Placement.of_segments ~align prog segments)
  in
  match algo with
  | Combo Spike.Base -> place ~align:16 (proc_segments prog)
  | Combo Spike.Porder ->
      place (porder_span (fun () -> Pettis_hansen.order profile (proc_segments prog)))
  | Combo Spike.Chain -> place (one_per_proc ())
  | Combo Spike.Chain_split -> place (fine_grain ())
  | Combo Spike.Chain_porder ->
      let chained = one_per_proc () in
      place (porder_span (fun () -> Pettis_hansen.order profile chained))
  | Combo Spike.All ->
      let split = fine_grain () in
      place (porder_span (fun () -> Pettis_hansen.order profile split))
  | Temporal temporal ->
      let split = fine_grain () in
      let heat (seg : Segment.t) =
        float_of_int
          (Profile.block_count profile ~proc:seg.Segment.proc
             ~block:(Segment.head seg))
      in
      place (torder_span (fun () -> Temporal_order.order temporal ~heat split))
  | Colored { cache_bytes; max_gap_lines } ->
      let split = fine_grain () in
      let segments = porder_span (fun () -> Pettis_hansen.order profile split) in
      Telemetry.span "coloring" (fun () ->
          Coloring.place profile ~segments ~cache_bytes ?max_gap_lines ())

(* Cost of a from-scratch build: one chaining invocation per procedure
   (when the algorithm chains) plus the global passes. *)
let scratch_cost algo n =
  (if uses_chains algo then n else 0) + global_passes algo

let create algo initial_profile =
  let prog = Profile.prog initial_profile in
  let n = Prog.n_procs prog in
  let chains =
    if uses_chains algo then
      chaining_span (fun () ->
          Array.init n (fun pid -> Chaining.chain_proc initial_profile pid))
    else [||]
  in
  let placement = build_placement algo initial_profile chains in
  Telemetry.incr c_full;
  Telemetry.add c_invocations (scratch_cost algo n);
  Telemetry.add c_scratch (scratch_cost algo n);
  Telemetry.add c_passes_run (global_passes algo);
  { algo; profile = initial_profile; chains; placement }

let update t new_profile =
  let n = Prog.n_procs (Profile.prog t.profile) in
  Telemetry.incr c_updates;
  Telemetry.add c_scratch (scratch_cost t.algo n);
  let delta = Telemetry.span "delta" (fun () -> Delta.diff t.profile new_profile) in
  if (not (profile_sensitive t.algo)) || Delta.is_empty delta then begin
    (* Nothing the layout reads has changed: reuse the placement whole. *)
    t.profile <- new_profile;
    if uses_chains t.algo then Telemetry.add c_reused n;
    Telemetry.add c_passes_skipped (global_passes t.algo);
    t.placement
  end
  else begin
    let n_dirty = Delta.n_dirty delta in
    if uses_chains t.algo then begin
      chaining_span (fun () ->
          List.iter
            (fun pid -> t.chains.(pid) <- Chaining.chain_proc new_profile pid)
            (Delta.dirty_procs delta));
      Telemetry.add c_replaced n_dirty;
      Telemetry.add c_reused (n - n_dirty);
      Telemetry.add c_invocations n_dirty
    end;
    t.profile <- new_profile;
    t.placement <- build_placement t.algo new_profile t.chains;
    Telemetry.add c_passes_run (global_passes t.algo);
    Telemetry.add c_invocations (global_passes t.algo);
    t.placement
  end

(* The from-scratch reference: exactly the pipeline each algorithm's
   existing figure driver runs (Spike.optimize; fig_temporal's
   temporal-order recipe; fig_coloring's colored recipe).  Tests assert
   [update] lands on the same bytes. *)
let scratch algo profile =
  match algo with
  | Combo combo -> Spike.optimize profile combo
  | Temporal temporal ->
      let heat (seg : Segment.t) =
        float_of_int
          (Profile.block_count profile ~proc:seg.Segment.proc
             ~block:(Segment.head seg))
      in
      Placement.of_segments ~align:4 (Profile.prog profile)
        (Temporal_order.order temporal ~heat (Splitting.fine_grain profile))
  | Colored { cache_bytes; max_gap_lines } ->
      Coloring.place profile
        ~segments:(Pettis_hansen.order profile (Splitting.fine_grain profile))
        ~cache_bytes ?max_gap_lines ()
