open Olayout_ir
module Profile = Olayout_profile.Profile
module Tgraph = Olayout_profile.Temporal
module Telemetry = Olayout_telemetry.Telemetry

(* The delta-driven incremental layout engine (ROADMAP item 4).

   A memo holds the last profile a layout was built from, each procedure's
   segments encoded segment-relative (Placement.rows), and the finished
   placement.  [update] diffs the new profile against the memoized one
   (Delta), re-chains, re-cuts and re-encodes only the dirty procedures,
   then re-runs the global passes (Pettis-Hansen / temporal order /
   coloring / address assignment) over every procedure's rows.  Those
   passes cost what the change costs: Pettis-Hansen works on the weighted
   subgraph alone, and address assignment is one prefix sum over segment
   sizes.  When the delta is empty — or the algorithm never reads the
   profile (Base) — the memoized placement is returned outright and every
   pass is skipped.

   Equivalence guarantee: the result is byte-identical to a from-scratch
   build on the new profile ({!scratch}; asserted by Placement.equal in
   the test suite, including a randomized property test and a chain of
   real re-layout ticks).  It holds because (a) Chaining.chain_proc is a
   pure function of the procedure's own profile rows, so identical rows
   imply identical chains, segments and encodings; (b) segments are
   numbered procedure by procedure, as the scratch pipeline lists them, so
   the ordering passes see the same indices and break the same ties; and
   (c) the global passes are pure functions of (profile, segments).

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

(* How a recipe turns a procedure into segments: source order (no
   chaining), its chains concatenated, or one segment per chain (fine-grain
   splitting). *)
type recipe = Source | Per_proc | Per_chain

let recipe = function
  | Combo (Spike.Base | Spike.Porder) -> Source
  | Combo (Spike.Chain | Spike.Chain_porder) -> Per_proc
  | Combo (Spike.Chain_split | Spike.All) | Temporal _ | Colored _ -> Per_chain

(* The memo: per procedure, its segments encoded segment-relative and the
   local segments whose head block has a count (the ordering passes' hot
   singletons).  Both depend only on the procedure's own rows of the
   profile, so only dirty procedures rebuild them.  Segment [i] of
   procedure [p] is numbered [base.(p) + i] (Placement.numbering), its
   position in the procedure-by-procedure segment list the from-scratch
   pipeline builds, so Pettis-Hansen sees the same pair keys and breaks
   the same ties. *)
type t = {
  algo : algo;
  mutable profile : Profile.t;
  shapes : Chaining.shape array;  (* per procedure; [||] for chainless *)
  rows : Placement.rows array;
  hot : int list array;
  ph : Pettis_hansen.buffers;
  mutable placement : Placement.t;
}

let algo t = t.algo
let profile t = t.profile
let placement t = t.placement

(* --- the pipeline over the memo ------------------------------------------ *)

let chaining_span f = Telemetry.span "chaining" f
let splitting_span f = Telemetry.span "splitting" f
let porder_span f = Telemetry.span "pettis_hansen" f
let torder_span f = Telemetry.span "temporal_order" f
let placement_span f = Telemetry.span "placement" f

let head_count profile (seg : Segment.t) =
  Profile.block_count profile ~proc:seg.Segment.proc ~block:(Segment.head seg)

(* One procedure's rows from its chains (unused by [Source]). *)
let encode algo profile pid chains =
  let prog = Profile.prog profile in
  let segments =
    match recipe algo with
    | Source -> [| Segment.of_proc (Prog.proc prog pid) |]
    | Per_proc -> [| { Segment.proc = pid; blocks = List.concat chains } |]
    | Per_chain -> Array.of_list (List.map (fun blocks -> { Segment.proc = pid; blocks }) chains)
  in
  Placement.encode prog pid segments

let hot_segments profile (rows : Placement.rows) =
  List.filter
    (fun i -> head_count profile rows.Placement.segs.(i) > 0)
    (List.init (Array.length rows.Placement.segs) Fun.id)

(* The segment stage runs under the span the list pipeline gave it:
   splitting cuts chains into segments and books its cuts, and the
   one-segment-per-procedure recipes concatenate chains under
   "chaining".  [f] (re)builds rows and returns them all. *)
let segment_stage algo f =
  match recipe algo with
  | Per_chain ->
      splitting_span (fun () ->
          let rows = f () in
          Splitting.record_cuts ~n_procs:(Array.length rows)
            ~segments:(fun pid -> Array.length rows.(pid).Placement.segs)
            ~blocks:(fun pid -> Array.length rows.(pid).Placement.seg_of);
          rows)
  | Per_proc -> chaining_span f
  | Source -> f ()

(* Which procedure owns segment [g]: the last [p] with [base.(p) <= g]. *)
let owner base g =
  let lo = ref 0 and hi = ref (Array.length base - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if base.(mid) <= g then lo := mid else hi := mid - 1
  done;
  !lo

(* The global passes over every entry: the segment order, then addresses.
   [order_indices] reads heat only for the weighted segments and the hot
   singletons, so its cost follows the weighted subgraph. *)
let layout algo ph profile rows hot =
  let prog = Profile.prog profile in
  let base = Placement.numbering rows in
  let n = base.(Array.length rows) in
  let segment g =
    let p = owner base g in
    rows.(p).Placement.segs.(g - base.(p))
  in
  let run ?pass weights =
    Pettis_hansen.order_indices ph ?pass ~n ~weights
      ~heat:(fun g -> float_of_int (head_count profile (segment g)))
      ~hot:(fun f -> Array.iteri (fun p segs -> List.iter (fun i -> f (base.(p) + i)) segs) hot)
      ~proc_of:(owner base) ()
  in
  let porder () =
    porder_span (fun () ->
        run
          (Pettis_hansen.pair_weights_of profile ~seg_of:(fun p b ->
               base.(p) + rows.(p).Placement.seg_of.(b))))
  in
  let place ?(align = 4) order =
    placement_span (fun () -> Placement.of_rows ~align prog rows ~order)
  in
  match algo with
  | Combo Spike.Base -> place ~align:16 (Array.init n Fun.id)
  | Combo (Spike.Chain | Spike.Chain_split) -> place (Array.init n Fun.id)
  | Combo (Spike.Porder | Spike.Chain_porder | Spike.All) -> place (porder ())
  | Temporal temporal ->
      (* Each procedure's affinities attach to its hottest segment, the
         first on a tie. *)
      let rep p =
        let segs = rows.(p).Placement.segs in
        let best = ref 0 in
        Array.iteri
          (fun i seg -> if head_count profile seg > head_count profile segs.(!best) then best := i)
          segs;
        Some (base.(p) + !best)
      in
      place
        (torder_span (fun () ->
             run ~pass:"temporal_order" (Temporal_order.weights_by temporal ~rep)))
  | Colored { cache_bytes; max_gap_lines } ->
      let order = porder () in
      let segments = Array.fold_right (fun g acc -> segment g :: acc) order [] in
      Telemetry.span "coloring" (fun () ->
          Coloring.place profile ~segments ~cache_bytes ?max_gap_lines ())

(* Cost of a from-scratch build: one chaining invocation per procedure
   (when the algorithm chains) plus the global passes. *)
let scratch_cost algo n =
  (if uses_chains algo then n else 0) + global_passes algo

let create algo initial_profile =
  let prog = Profile.prog initial_profile in
  let n = Prog.n_procs prog in
  let shapes, chains =
    if uses_chains algo then
      chaining_span (fun () ->
          let shapes = Array.init n (Chaining.shape prog) in
          (shapes, Array.map (fun s -> Chaining.chain s initial_profile) shapes))
    else ([||], Array.make n [])
  in
  let hot = Array.make n [] in
  let rows =
    segment_stage algo (fun () ->
        Array.init n (fun pid ->
            let r = encode algo initial_profile pid chains.(pid) in
            hot.(pid) <- hot_segments initial_profile r;
            r))
  in
  let ph = Pettis_hansen.buffers () in
  let placement = layout algo ph initial_profile rows hot in
  Telemetry.incr c_full;
  Telemetry.add c_invocations (scratch_cost algo n);
  Telemetry.add c_scratch (scratch_cost algo n);
  Telemetry.add c_passes_run (global_passes algo);
  { algo; profile = initial_profile; shapes; rows; hot; ph; placement }

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
    let dirty = Delta.dirty_procs delta in
    let n_dirty = Delta.n_dirty delta in
    let chains =
      if uses_chains t.algo then begin
        let chains =
          chaining_span (fun () ->
              List.map (fun pid -> (pid, Chaining.chain t.shapes.(pid) new_profile)) dirty)
        in
        Telemetry.add c_replaced n_dirty;
        Telemetry.add c_reused (n - n_dirty);
        Telemetry.add c_invocations n_dirty;
        chains
      end
      else List.map (fun pid -> (pid, [])) dirty
    in
    t.profile <- new_profile;
    let rows =
      segment_stage t.algo (fun () ->
          List.iter
            (fun (pid, chains) ->
              let r = encode t.algo new_profile pid chains in
              t.rows.(pid) <- r;
              t.hot.(pid) <- hot_segments new_profile r)
            chains;
          t.rows)
    in
    t.placement <- layout t.algo t.ph new_profile rows t.hot;
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
