(* Tests for the incremental re-layout engine and the closed-loop driver:
   profile deltas (dirty sets, hot/cold transitions, validation), placement
   equality, the equivalence guarantee that an incremental update is
   byte-identical to a from-scratch build — for every pipeline combination
   and the temporal/colored recipes, including under randomized profile
   deltas (weight perturbations, edge deletions, newly-hot procedures) —
   the relayout.* work counters with the >= 2x combined work-savings
   acceptance gate, the scheduled capture both drivers share (one live
   walk, rendering exactly as the live server does), and the cadence-sweep
   driver with its olayout-relayout/v1 artifact. *)

open Olayout_ir
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Delta = Olayout_core.Delta
module Incremental = Olayout_core.Incremental
module Profile = Olayout_profile.Profile
module Temporal = Olayout_profile.Temporal
module Observatory = Olayout_drift.Observatory
module Closedloop = Olayout_drift.Closedloop
module Context = Olayout_harness.Context
module Diagnose = Olayout_harness.Diagnose
module Drift = Olayout_harness.Drift
module Report = Olayout_harness.Report
module Relayout = Olayout_harness.Relayout
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff
module Rng = Olayout_util.Rng
module Walk = Olayout_exec.Walk
module Windowed = Olayout_profile.Windowed
module Render = Olayout_exec.Render
module Run = Olayout_exec.Run
module Trace = Olayout_exec.Trace
module Schedule = Olayout_oltp.Schedule
module Server = Olayout_oltp.Server
module Workload = Olayout_oltp.Workload

(* A profile from walking a random subset of procedures a random number of
   times: versus another seed this produces weight perturbations, deleted
   edges, gone-cold and newly-hot procedures all at once. *)
let random_profile prog seed =
  let rng = Rng.create seed in
  let profile = Profile.create prog in
  let walk = Walk.create ~prog ~rng:(Rng.split rng) in
  Walk.add_sink walk (fun ~proc ~block ~arm -> Profile.record profile ~proc ~block ~arm);
  for p = 0 to Prog.n_procs prog - 1 do
    if Rng.int rng 4 > 0 then
      for _ = 1 to 1 + Rng.int rng 8 do
        Walk.call walk p
      done
  done;
  profile

(* A temporal-affinity graph fed by the same kind of walk. *)
let tgraph prog seed =
  let t = Temporal.create prog () in
  let walk = Walk.create ~prog ~rng:(Rng.create seed) in
  Walk.add_sink walk (Temporal.sink t);
  for _ = 1 to 10 do
    for p = 0 to Prog.n_procs prog - 1 do
      Walk.call walk p
    done
  done;
  t

(* --- Delta ------------------------------------------------------------- *)

let test_delta_empty () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 11) in
  let p = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let q = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let d = Delta.diff p q in
  Alcotest.(check bool) "identical recordings: empty" true (Delta.is_empty d);
  Alcotest.(check int) "no dirty procs" 0 (Delta.n_dirty d);
  Alcotest.(check (list int)) "dirty list empty" [] (Delta.dirty_procs d);
  Alcotest.(check int) "covers every procedure" (Prog.n_procs prog) (Delta.n_procs d);
  Alcotest.(check bool) "no procedure dirty" false
    (List.exists (Delta.is_dirty d) (List.init (Delta.n_procs d) Fun.id))

let test_delta_dirty () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 11) in
  let p = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let q = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  (* Perturb one procedure's block counts only. *)
  Profile.record_block q ~proc:1 ~block:0 ~count:3;
  let d = Delta.diff p q in
  Alcotest.(check bool) "nonempty" false (Delta.is_empty d);
  Alcotest.(check (list int)) "exactly proc 1 dirty" [ 1 ] (Delta.dirty_procs d);
  Alcotest.(check bool) "is_dirty agrees" true (Delta.is_dirty d 1);
  Alcotest.(check bool) "clean proc stays clean" false (Delta.is_dirty d 0);
  Alcotest.(check int) "one dirty procedure" 1 (Delta.n_dirty d)

let test_delta_hot_cold () =
  let prog = Helpers.call_prog () in
  let cold = Profile.create prog in
  Profile.record cold ~proc:0 ~block:0 ~arm:0;
  let hot = Profile.create prog in
  Profile.record hot ~proc:0 ~block:0 ~arm:0;
  Profile.record hot ~proc:1 ~block:0 ~arm:0;
  let d = Delta.diff cold hot in
  Alcotest.(check (list int)) "callee newly hot: only the callee dirty" [ 1 ]
    (Delta.dirty_procs d);
  Alcotest.(check bool) "caller stays clean" false (Delta.is_dirty d 0);
  let back = Delta.diff hot cold in
  Alcotest.(check (list int)) "reverse: callee gone cold, only it dirty" [ 1 ]
    (Delta.dirty_procs back);
  Alcotest.(check int) "reverse: one dirty procedure" 1 (Delta.n_dirty back)

let test_delta_validation () =
  let a = Profile.create (Helpers.call_prog ()) in
  let b = Profile.create (Helpers.diamond_prog 0.5) in
  Alcotest.(check bool) "different programs rejected" true
    (match Delta.diff a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Placement.equal --------------------------------------------------- *)

let test_placement_equal () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 12) in
  let p = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let a = Spike.optimize p Spike.All in
  let b = Spike.optimize p Spike.All in
  Alcotest.(check bool) "same build equal" true (Placement.equal a b);
  let base = Spike.optimize p Spike.Base in
  Alcotest.(check bool) "base differs from all" false (Placement.equal a base)

(* --- incremental == from-scratch --------------------------------------- *)

let algos prog =
  List.map (fun c -> Incremental.Combo c) Spike.all_combos
  @ [
      Incremental.Temporal (tgraph prog 21);
      Incremental.Temporal_procs (tgraph prog 21);
      Incremental.Colored { cache_bytes = 64 * 1024 };
      Incremental.Colored_procs { cache_bytes = 64 * 1024 };
      Incremental.Hot_cold;
    ]

let algo_name = function
  | Incremental.Combo c -> Spike.combo_name c
  | Incremental.Temporal _ -> "temporal"
  | Incremental.Temporal_procs _ -> "temporal procs"
  | Incremental.Colored _ -> "colored"
  | Incremental.Colored_procs _ -> "colored procs"
  | Incremental.Hot_cold -> "hot/cold"
  | Incremental.Cfa _ -> "cfa"
  | Incremental.Hot_aligned -> "hot-aligned"

(* [update] equals [scratch], which shares its engine; both must also
   agree with the list-based reference pipeline, which does not. *)
let check_placement what algo profile placement =
  Alcotest.(check bool) (what ^ " = scratch") true
    (Placement.equal placement (Incremental.scratch algo profile));
  Alcotest.(check bool) (what ^ " = reference") true
    (Layout_reference.agrees algo profile placement)

let check_chain prog algo profiles =
  match profiles with
  | [] | [ _ ] -> Alcotest.fail "need a base profile and at least one update"
  | base :: updates ->
      ignore prog;
      let memo = Incremental.create algo base in
      check_placement (algo_name algo ^ " full build") algo base (Incremental.placement memo);
      List.iteri
        (fun i p ->
          check_placement
            (Printf.sprintf "%s update %d" (algo_name algo) i)
            algo p (Incremental.update memo p))
        updates

(* Windows of one walk cut it mid-call: a window can count a call block
   but not its return block, the case hot/cold splitting promotes call
   glue for. *)
let window_profiles prog seed =
  let wp = Windowed.create ~window:300 prog in
  let walk = Walk.create ~prog ~rng:(Rng.create seed) in
  Walk.add_sink walk (Windowed.sink wp);
  for _ = 1 to 4 do
    for p = 0 to Prog.n_procs prog - 1 do
      Walk.call walk p
    done
  done;
  List.init (Windowed.windows wp - 1) (fun k -> Windowed.merged wp ~lo:k ~hi:(k + 1))

let cuts_a_call profile =
  let prog = Profile.prog profile in
  let hot proc block = Profile.block_count profile ~proc ~block > 0 in
  let cut = ref false in
  Prog.iter_blocks prog (fun p b ->
      match b.Block.term with
      | Block.Call { ret; _ } -> if hot p.Proc.id b.Block.id <> hot p.Proc.id ret then cut := true
      | _ -> ());
  !cut

let test_equivalence_all_algos () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 12) in
  let windows = window_profiles prog 104 in
  Alcotest.(check bool) "some window cuts a call from its return" true
    (List.exists cuts_a_call windows);
  let profiles = List.map (random_profile prog) [ 100; 101; 102; 103 ] @ windows in
  List.iter (fun algo -> check_chain prog algo profiles) (algos prog)

(* The randomized acceptance property: across programs, seeds and update
   chains, an incremental update is byte-identical to a from-scratch
   build.  Each chain mixes weight perturbations, deleted edges and
   newly-hot/gone-cold procedures (random_profile's subset walks). *)
let test_equivalence_property () =
  List.iter
    (fun prog_seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program prog_seed) in
      List.iter
        (fun combo ->
          List.iter
            (fun chain_seed ->
              let profiles =
                List.init 4 (fun i -> random_profile prog (chain_seed + i))
              in
              check_chain prog (Incremental.Combo combo) profiles)
            [ 1000; 2000 ])
        [ Spike.All; Spike.Chain_porder; Spike.Chain_split; Spike.Porder ])
    [ 31; 32; 33 ]

(* --- work counters ----------------------------------------------------- *)

let test_empty_delta_skips () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 13) in
  let p = random_profile prog 7 in
  let memo = Incremental.create (Incremental.Combo Spike.All) p in
  let built = Incremental.placement memo in
  let w0 = Incremental.work_counters () in
  let again = Incremental.update memo p in
  let w = Incremental.work_sub (Incremental.work_counters ()) w0 in
  Alcotest.(check bool) "memoized placement returned" true
    (Placement.equal built again);
  Alcotest.(check int) "no procs replaced" 0 w.Incremental.w_procs_replaced;
  Alcotest.(check int) "no passes run" 0 w.Incremental.w_passes_run;
  Alcotest.(check bool) "passes skipped booked" true
    (w.Incremental.w_passes_skipped > 0);
  Alcotest.(check int) "no work invoked" 0 w.Incremental.w_invocations;
  Alcotest.(check bool) "scratch counterfactual still booked" true
    (w.Incremental.w_scratch_invocations > 0)

let test_work_accounting () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 13) in
  let w0 = Incremental.work_counters () in
  let memo = Incremental.create (Incremental.Combo Spike.All) (random_profile prog 7) in
  let (_ : Placement.t) = Incremental.update memo (random_profile prog 8) in
  let w = Incremental.work_sub (Incremental.work_counters ()) w0 in
  Alcotest.(check int) "one full build" 1 w.Incremental.w_full_builds;
  Alcotest.(check int) "one update" 1 w.Incremental.w_updates;
  Alcotest.(check int) "replaced + reused = procs"
    (Prog.n_procs prog)
    (w.Incremental.w_procs_replaced + w.Incremental.w_procs_reused);
  (* A random delta may dirty every procedure, so only <= holds here... *)
  Alcotest.(check bool) "incremental never dearer than scratch" true
    (w.Incremental.w_invocations <= w.Incremental.w_scratch_invocations);
  (* ...but a single-procedure perturbation must be strictly cheaper. *)
  let base = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let touched = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  Profile.record_block touched ~proc:1 ~block:0 ~count:3;
  let w1 = Incremental.work_counters () in
  let memo = Incremental.create (Incremental.Combo Spike.All) base in
  let (_ : Placement.t) = Incremental.update memo touched in
  let w = Incremental.work_sub (Incremental.work_counters ()) w1 in
  Alcotest.(check int) "one proc replaced" 1 w.Incremental.w_procs_replaced;
  Alcotest.(check int) "rest reused"
    (Prog.n_procs prog - 1)
    w.Incremental.w_procs_reused;
  Alcotest.(check bool) "strictly cheaper than scratch" true
    (w.Incremental.w_invocations < w.Incremental.w_scratch_invocations)

(* A tick re-encodes only the procedures its delta dirtied: after an
   update that dirties one procedure, every other procedure's relative
   row is the previous placement's own array, shared, not copied.  A
   render fills only the procedures it meets, in its own placement. *)
let test_clean_rows_shared () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 13) in
  let base = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let touched = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  Profile.record_block touched ~proc:1 ~block:0 ~count:3;
  List.iter
    (fun combo ->
      let name = Spike.combo_name combo in
      let memo = Incremental.create (Incremental.Combo combo) base in
      let prev = Incremental.placement memo in
      let before = Array.copy (Placement.fetch_rows prev) in
      let next = Incremental.update memo touched in
      let rows = Placement.fetch_rows next in
      Array.iteri
        (fun p row ->
          if p <> 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s: p%d row shared" name p)
              true (row == before.(p)))
        rows;
      if combo <> Spike.Base then
        Alcotest.(check bool) (name ^ ": dirty row re-encoded") true (rows.(1) != before.(1));
      ignore (Placement.fetch_word next ~proc:0 ~block:0 : int);
      Alcotest.(check bool) (name ^ ": met procedure filled") true
        (rows.(0) != before.(0) && Array.for_all (fun w -> w >= 0) rows.(0));
      Alcotest.(check bool) (name ^ ": other procedures left relative") true
        (rows.(2) == before.(2));
      if combo <> Spike.Base then
        Alcotest.(check bool) (name ^ ": previous placement left relative") true
          ((Placement.fetch_rows prev).(0) == before.(0)
          && Array.for_all (fun w -> w < 0) before.(0)))
    Spike.all_combos

(* --- the drivers over a Quick context ----------------------------------- *)

let ctx = lazy (Context.create ~scale:Context.Quick ())

(* Both closed-loop drivers over one fresh context, run as the report's
   drift and relayout experiments (which return their results for the
   DRIFT and RELAYOUT artifacts), with the combined layout work and the
   live server walks attributed: the work gate measures drift's staleness
   matrix plus the relayout loop together. *)
let report =
  lazy
    (let c = Lazy.force ctx in
     let w0 = Incremental.work_counters () in
     let s0 = Context.trace_stats c in
     let report =
       Report.run ~selection:(Report.Only [ "drift"; "relayout" ]) c
         (Format.make_formatter (fun _ _ _ -> ()) ignore)
     in
     let s1 = Context.trace_stats c in
     ( report,
       Incremental.work_sub (Incremental.work_counters ()) w0,
       s1.Context.live_executions - s0.Context.live_executions ))

let results =
  lazy
    (let report, w, _ = Lazy.force report in
     (Option.get report.Report.drift, Option.get report.Report.relayout, w))

let schedule = Schedule.rotation ~slots:Relayout.default_slots

let capture c = Context.scheduled_capture c schedule ~window:Relayout.default_window

let test_driver_curve () =
  let _, r, _ = Lazy.force results in
  Alcotest.(check bool) "several windows" true (r.Closedloop.r_windows > 8);
  Alcotest.(check int) "default cadence sweep" 4
    (List.length r.Closedloop.r_points);
  Alcotest.(check int) "static never re-lays-out" 0
    r.Closedloop.r_static.Closedloop.c_relayouts;
  Alcotest.(check int) "static books no layout work" 0
    r.Closedloop.r_static.Closedloop.c_work.Incremental.w_invocations;
  let static_instrs = r.Closedloop.r_static.Closedloop.c_instrs in
  Alcotest.(check bool) "stream reached the cache" true (static_instrs > 0);
  List.iter
    (fun (p : Closedloop.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "cadence %d re-laid-out" p.Closedloop.c_cadence)
        true
        (p.Closedloop.c_relayouts > 0);
      (* The block path is shared, but placements change run lengths
         (alignment padding), so per-cadence instruction totals sit near
         the static row without matching it exactly. *)
      Alcotest.(check bool)
        (Printf.sprintf "cadence %d instrs close to static" p.Closedloop.c_cadence)
        true
        (abs (p.Closedloop.c_instrs - static_instrs) * 10 < static_instrs);
      Alcotest.(check int)
        (Printf.sprintf "cadence %d window series sums to total" p.Closedloop.c_cadence)
        p.Closedloop.c_misses
        (Array.fold_left ( + ) 0 p.Closedloop.c_window_misses))
    r.Closedloop.r_points;
  (* Summary consistency. *)
  let best = Closedloop.best_point r in
  List.iter
    (fun (p : Closedloop.point) ->
      Alcotest.(check bool) "best is minimal" true
        (best.Closedloop.c_misses <= p.Closedloop.c_misses))
    (r.Closedloop.r_static :: r.Closedloop.r_points);
  let be = Closedloop.break_even_cadence r in
  if be > 0 then
    List.iter
      (fun (p : Closedloop.point) ->
        if p.Closedloop.c_cadence = be then
          Alcotest.(check bool) "break-even beats static" true
            (p.Closedloop.c_misses < r.Closedloop.r_static.Closedloop.c_misses))
      r.Closedloop.r_points

let test_combined_work_gate () =
  let d, r, w = Lazy.force results in
  (* Per-driver ratios are honest and positive... *)
  Alcotest.(check bool) "drift matrix saves work" true
    (Observatory.work_ratio_x100 d.Observatory.o_work > 100);
  Alcotest.(check bool) "relayout loop saves work" true
    (Closedloop.work_ratio_x100 r > 100);
  (* ...and the ISSUE's acceptance gate holds on the combination: the drift
     staleness matrix plus the relayout loop invoke >= 2x fewer pipeline
     passes than from-scratch per-phase layout would. *)
  Alcotest.(check bool)
    (Printf.sprintf "combined >= 2x (inv %d vs scratch %d)"
       w.Incremental.w_invocations w.Incremental.w_scratch_invocations)
    true
    (w.Incremental.w_scratch_invocations >= 2 * w.Incremental.w_invocations)

let test_driver_equivalence_at_scale () =
  (* The scheduled rotation's windows, captured once, drive chains of real
     re-layout ticks on the full-size program, as the closed loop feeds
     them: after every tick the incremental placement must match the
     from-scratch pipeline byte for byte.  Window profiles have their own
     nonzero support, so ticks move procedures between hot and cold and
     change procedures' segment counts, which shifts the numbers of every
     later procedure's segments. *)
  let c = Lazy.force ctx in
  ignore (Lazy.force results);
  let train = Context.app_profile c in
  let prog = Profile.prog train in
  let wp = capture c in
  let algo = Incremental.Combo Spike.All in
  let shifted = ref 0 and moved = ref 0 in
  let segment_counts pl =
    let counts = Array.make (Prog.n_procs prog) 0 in
    List.iter
      (fun (seg : Olayout_core.Segment.t) -> counts.(seg.proc) <- counts.(seg.proc) + 1)
      (Placement.segments pl);
    counts
  in
  let hot_procs p = Array.init (Prog.n_procs prog) (fun pid -> Profile.proc_entry_count p pid > 0) in
  let chain cadence ticks =
    let memo = Incremental.create algo train in
    let prev_counts = ref (segment_counts (Incremental.placement memo)) in
    let prev_hot = ref (hot_procs train) in
    for k = 1 to ticks do
      let p = Windowed.merged wp ~lo:((k - 1) * cadence) ~hi:(k * cadence) in
      let next = Incremental.update memo p in
      check_placement (Printf.sprintf "cadence %d tick %d" cadence k) algo p next;
      let counts = segment_counts next and hot = hot_procs p in
      if counts <> !prev_counts then incr shifted;
      if hot <> !prev_hot then incr moved;
      prev_counts := counts;
      prev_hot := hot
    done
  in
  Alcotest.(check bool) "enough windows" true (Windowed.windows wp >= 16);
  chain 1 16;
  chain 4 4;
  Alcotest.(check bool) "some tick re-numbered segments" true (!shifted > 0);
  Alcotest.(check bool) "some tick moved procedures between hot and cold" true (!moved > 0)

(* The memo path records the same decisions as the from-scratch pipeline:
   the same splitting and ordering events, in the same order, across a
   create and two updates. *)
let test_provenance_parity () =
  let module Provenance = Olayout_telemetry.Provenance in
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 13) in
  let p0 = random_profile prog 31 and p1 = random_profile prog 32 in
  let p2 = random_profile prog 33 in
  let recorded passes f =
    Provenance.reset ();
    Provenance.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Provenance.set_enabled false;
        Provenance.reset ())
      (fun () ->
        f ();
        List.filter
          (fun (e : Provenance.event) -> List.mem e.Provenance.pv_pass passes)
          (Provenance.events ()))
  in
  List.iter
    (fun (algo, passes) ->
      let memo =
        recorded passes (fun () ->
            let m = Incremental.create algo p0 in
            ignore (Incremental.update m p1 : Placement.t);
            ignore (Incremental.update m p2 : Placement.t))
      in
      let scratch =
        recorded passes (fun () ->
            List.iter (fun p -> ignore (Incremental.scratch algo p : Placement.t)) [ p0; p1; p2 ])
      in
      let reference =
        recorded passes (fun () ->
            List.iter
              (fun p -> ignore (Layout_reference.ordered algo p : Olayout_core.Segment.t list))
              [ p0; p1; p2 ])
      in
      let name = algo_name algo in
      List.iter
        (fun pass ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s events recorded" name pass)
            true
            (List.exists (fun (e : Provenance.event) -> e.Provenance.pv_pass = pass) memo))
        passes;
      Alcotest.(check int) (name ^ ": event count") (List.length scratch) (List.length memo);
      Alcotest.(check bool) (name ^ ": same events, same order") true (memo = scratch);
      Alcotest.(check bool) (name ^ ": reference events, same order") true (memo = reference))
    [
      (Incremental.Combo Spike.All, [ "splitting"; "pettis_hansen" ]);
      (Incremental.Temporal (tgraph prog 21), [ "splitting"; "temporal_order" ]);
    ]

let test_driver_gauges () =
  ignore (Lazy.force results);
  let gauges = Telemetry.gauges () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " published") true (List.mem_assoc name gauges);
      Alcotest.(check bool) (name ^ " deterministic") true
        (Diff.classify ("gauges." ^ name) = Diff.Deterministic))
    [
      "relayout.windows";
      "relayout.cadences";
      "relayout.static_mpki_x100";
      "relayout.best_mpki_x100";
      "relayout.best_cadence";
      "relayout.break_even_cadence";
      "relayout.saved_misses_permille";
      "relayout.loop_pass_invocations";
      "relayout.loop_scratch_invocations";
      "relayout.work_ratio_x100";
      "drift.relayout_pass_invocations";
      "drift.relayout_scratch_invocations";
      "drift.relayout_work_ratio_x100";
    ];
  Alcotest.(check bool) "Report.run returns the result" true
    (let report, _, _ = Lazy.force report in
     report.Report.relayout <> None)

let test_driver_validation () =
  let c = Lazy.force ctx in
  let preset = Diagnose.preset_of_figure "fig4" in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "base combo rejected" true
    (raises (fun () -> Relayout.run ~combo:Spike.Base c preset));
  Alcotest.(check bool) "empty cadences rejected" true
    (raises (fun () -> Relayout.run ~cadences:[] c preset));
  Alcotest.(check bool) "cadence < 1 rejected" true
    (raises (fun () -> Relayout.run ~cadences:[ 0 ] c preset));
  Alcotest.(check bool) "window < 1 rejected" true
    (raises (fun () -> Relayout.run ~window:0 c preset));
  Alcotest.(check bool) "slots < 2 rejected" true
    (raises (fun () -> Relayout.run ~slots:1 c preset))

(* --- the shared scheduled capture --------------------------------------- *)

let test_one_scheduled_walk () =
  (* The drift and relayout drivers read one memoized capture of the
     scheduled execution: on a fresh context the pair walks the server
     once. *)
  let _, _, live = Lazy.force report in
  Alcotest.(check int) "drift then relayout: one live execution" 1 live

let test_scheduled_streams_share_cache () =
  (* A re-run of the drift driver renders every staleness row from the
     memoized capture: it walks nothing. *)
  let c = Lazy.force ctx in
  ignore (Lazy.force results);
  let s0 = Context.trace_stats c in
  let (_ : Observatory.t) = Drift.run c (Diagnose.preset_of_figure "fig4") in
  let s1 = Context.trace_stats c in
  Alcotest.(check int) "second drift run: no live execution" s0.Context.live_executions
    s1.Context.live_executions

(* A rendered stream as (addr, len, owner) triples. *)
let flat_runs trace =
  let a = Array.make (3 * Trace.length trace) 0 and i = ref 0 in
  Trace.replay trace (fun (r : Run.t) ->
      a.(!i) <- r.Run.addr;
      a.(!i + 1) <- r.Run.len;
      a.(!i + 2) <- (if r.Run.owner = Run.App then 0 else 1);
      i := !i + 3);
  a

let test_capture_renders_live () =
  (* The oracle for rendering from the path: the memoized capture, with
     application and kernel events through one merger per placement,
     reproduces a live scheduled server run for run. *)
  let c = Lazy.force ctx in
  ignore (Lazy.force results);
  let wp = capture c in
  let kernel = Context.kernel_base c in
  let placements = [ Context.placement c Spike.All; Context.placement c Spike.Base ] in
  let live = List.map (fun _ -> Trace.record ()) placements in
  let wl = Context.workload c in
  let (_ : Server.result) =
    Server.run ~app:(Workload.app wl) ~kernel:(Workload.kernel wl)
      ~txns:(Context.measured_txns c) ~seed:1009 ~schedule
      ~renders:
        (List.map2
           (fun app_placement (emit, _) ->
             { Server.app_placement; kernel_placement = kernel; emit })
           placements live)
      ()
  in
  List.iter2
    (fun (name, placement) (_, trace) ->
      let expected = flat_runs trace in
      let k = ref 0 and first_diff = ref None in
      let merger =
        Render.merger ~emit:(fun (r : Run.t) ->
            let j = 3 * !k in
            if
              !first_diff = None
              && (j >= Array.length expected
                 || expected.(j) <> r.Run.addr
                 || expected.(j + 1) <> r.Run.len
                 || expected.(j + 2) <> if r.Run.owner = Run.App then 0 else 1)
            then first_diff := Some !k;
            incr k)
      in
      Windowed.replay wp ~lo:0 ~hi:(Windowed.windows wp)
        ~app:(Render.sink (Render.create ~placement ~owner:Run.App merger))
        ~kernel:(Render.sink (Render.create ~placement:kernel ~owner:Run.Kernel merger))
        ();
      Render.flush merger;
      Alcotest.(check bool) (name ^ ": live stream nonempty") true (Trace.length trace > 0);
      Alcotest.(check (option int)) (name ^ ": first differing run") None !first_diff;
      Alcotest.(check int) (name ^ ": runs") (Trace.length trace) !k)
    [ ("all", List.nth placements 0); ("base", List.nth placements 1) ]
    live

(* --- artifact ---------------------------------------------------------- *)

let test_artifact () =
  let _, r, _ = Lazy.force results in
  let path = Filename.temp_file "olayout_relayout" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.write_file path (Closedloop.to_json ~scale:"quick" r);
      let art = Artifact.load_file path in
      Alcotest.(check string) "schema" "olayout-relayout/v1" art.Artifact.schema;
      Alcotest.(check string) "scale" "quick" art.Artifact.scale;
      Alcotest.(check bool) "summary metrics flatten" true
        (Artifact.metric art "relayout.summary.break_even_cadence" <> None);
      Alcotest.(check bool) "static row flattens" true
        (Artifact.metric art "relayout.static.misses" <> None);
      Alcotest.(check bool) "work counters flatten" true
        (Artifact.metric art "relayout.summary.work.pass_invocations" <> None);
      List.iter
        (fun (p, _) ->
          Alcotest.(check bool)
            (p ^ " classified deterministic") true
            (Diff.classify p = Diff.Deterministic))
        art.Artifact.metrics);
  let fields =
    match Closedloop.to_json ~scale:"quick" r with
    | Json.Object fs -> List.map fst fs
    | _ -> []
  in
  Alcotest.(check bool) "no generated_unix_time" false
    (List.mem "generated_unix_time" fields);
  Alcotest.(check bool) "no argv" false (List.mem "argv" fields)

let test_repeatable_bytes () =
  (* The within-process analogue of CI's cross-leg cmp: re-running the
     capture and the whole cadence sweep over the same context reproduces
     the document byte for byte. *)
  let c = Lazy.force ctx in
  ignore (Lazy.force results);
  let doc () =
    Json.to_string
      (Closedloop.to_json ~scale:"quick"
         (Relayout.run c (Diagnose.preset_of_figure "fig4")))
  in
  let s0 = Context.trace_stats c in
  Alcotest.(check string) "byte-identical re-run" (doc ()) (doc ());
  Alcotest.(check int) "re-runs walk nothing" s0.Context.live_executions
    (Context.trace_stats c).Context.live_executions

let suite =
  ( "relayout",
    [
      Alcotest.test_case "delta: identical profiles empty" `Quick test_delta_empty;
      Alcotest.test_case "delta: dirty set" `Quick test_delta_dirty;
      Alcotest.test_case "delta: hot/cold transitions" `Quick test_delta_hot_cold;
      Alcotest.test_case "delta: program mismatch" `Quick test_delta_validation;
      Alcotest.test_case "placement equality" `Quick test_placement_equal;
      Alcotest.test_case "incremental = scratch (all algorithms)" `Quick
        test_equivalence_all_algos;
      Alcotest.test_case "incremental = scratch (randomized deltas)" `Quick
        test_equivalence_property;
      Alcotest.test_case "empty delta skips passes" `Quick test_empty_delta_skips;
      Alcotest.test_case "work accounting" `Quick test_work_accounting;
      Alcotest.test_case "clean procedures share rows" `Quick test_clean_rows_shared;
      Alcotest.test_case "provenance parity" `Quick test_provenance_parity;
      Alcotest.test_case "cadence sweep curve" `Slow test_driver_curve;
      Alcotest.test_case "combined >= 2x work gate" `Slow test_combined_work_gate;
      Alcotest.test_case "quick-context equivalence" `Slow
        test_driver_equivalence_at_scale;
      Alcotest.test_case "gauges published" `Slow test_driver_gauges;
      Alcotest.test_case "driver validation" `Slow test_driver_validation;
      Alcotest.test_case "drift and relayout walk once" `Slow test_one_scheduled_walk;
      Alcotest.test_case "scheduled streams share the cache" `Slow
        test_scheduled_streams_share_cache;
      Alcotest.test_case "scheduled capture renders as a live walk" `Slow
        test_capture_renders_live;
      Alcotest.test_case "artifact shape + classification" `Slow test_artifact;
      Alcotest.test_case "byte-identical re-run" `Slow test_repeatable_bytes;
    ] )
