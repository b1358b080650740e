(* Tests for the workload-drift observatory: the mix-shift schedule
   (validation, rotation shape, slot assignment), windowed profile capture
   (conservation against the aggregate profile), the pure divergence
   metrics (identity, disjointness, argument validation), the scheduled
   server run (scan accounting, run-to-run determinism) and the full
   Drift driver over a Quick context — including the acceptance property
   that a drifting workload leaves the staleness-matrix diagonal strictly
   better than its worst off-diagonal cell, and the olayout-drift/v1
   artifact's deterministic classification and byte stability. *)

module Schedule = Olayout_oltp.Schedule
module Server = Olayout_oltp.Server
module Workload = Olayout_oltp.Workload
module Windowed = Olayout_profile.Windowed
module Profile = Olayout_profile.Profile
module Divergence = Olayout_drift.Divergence
module Observatory = Olayout_drift.Observatory
module Context = Olayout_harness.Context
module Diagnose = Olayout_harness.Diagnose
module Drift = Olayout_harness.Drift
module Report = Olayout_harness.Report
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff

(* --- schedule ---------------------------------------------------------- *)

let test_schedule_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "empty rejected" true (raises (fun () -> Schedule.create []));
  Alcotest.(check bool) "hot_pct > 100 rejected" true
    (raises (fun () ->
         Schedule.create [ Schedule.Tpcb_skewed { hot_branch = 0; hot_pct = 101 } ]));
  Alcotest.(check bool) "rows < 1 rejected" true
    (raises (fun () -> Schedule.create [ Schedule.Scan { rows = 0 } ]));
  Alcotest.(check bool) "slots < 1 rejected" true
    (raises (fun () -> Schedule.rotation ~slots:0))

let test_rotation_shape () =
  let s = Schedule.rotation ~slots:6 in
  Alcotest.(check int) "slots" 6 (Schedule.slots s);
  Alcotest.(check (array string)) "tpcb/scan/skew rotation"
    [| "tpcb"; "scan"; "tpcb_skewed"; "tpcb"; "scan"; "tpcb_skewed" |]
    (Schedule.slot_names s);
  (* The hot branch advances between skewed slots. *)
  let hot i =
    match Schedule.slot_phase s i with
    | Schedule.Tpcb_skewed { hot_branch; _ } -> hot_branch
    | _ -> Alcotest.failf "slot %d is not skewed" i
  in
  Alcotest.(check bool) "hot branch rotates" true (hot 2 <> hot 5)

let test_assign_boundaries () =
  let s = Schedule.rotation ~slots:4 in
  let txns = 100 in
  (* Equal slot boundaries: txn i belongs to slot i*slots/txns. *)
  List.iter
    (fun (i, slot) ->
      Alcotest.(check string)
        (Printf.sprintf "txn %d" i)
        (Schedule.phase_name (Schedule.slot_phase s slot))
        (Schedule.phase_name (Schedule.assign s ~txns i)))
    [ (0, 0); (24, 0); (25, 1); (49, 1); (50, 2); (75, 3); (99, 3) ];
  (* Out-of-range indices clamp instead of raising. *)
  Alcotest.(check string) "negative clamps" "tpcb"
    (Schedule.phase_name (Schedule.assign s ~txns (-5)));
  Alcotest.(check string) "past-end clamps"
    (Schedule.phase_name (Schedule.slot_phase s 3))
    (Schedule.phase_name (Schedule.assign s ~txns 1000))

(* --- windowed capture -------------------------------------------------- *)

let test_windowed_conservation () =
  let prog = Helpers.diamond_prog 0.5 in
  (* diamond blocks: b0 = 4 source instrs, b1 = 6 (see test_profile). *)
  let w = Windowed.create ~window:8 prog in
  let aggregate = Profile.create prog in
  let fed = ref [] in
  let feed ~block ~arm =
    Windowed.sink w ~proc:0 ~block ~arm;
    Profile.record aggregate ~proc:0 ~block ~arm;
    fed := (`App, 0, block, arm) :: !fed
  in
  (* Kernel events belong to another program: they are recorded in order
     but neither advance the window clock nor enter any profile. *)
  let kernel ~proc ~block ~arm =
    Windowed.kernel_sink w ~proc ~block ~arm;
    fed := (`Kernel, proc, block, arm) :: !fed
  in
  (* Data references and process switches are recorded in order too. *)
  let data addr =
    Windowed.data_sink w addr;
    fed := (`Data, addr, 0, 0) :: !fed
  and switch pid =
    Windowed.switch_sink w pid;
    fed := (`Switch, pid, 0, 0) :: !fed
  in
  switch 3;
  kernel ~proc:7 ~block:3 ~arm:1;
  feed ~block:0 ~arm:0;
  (* starts at 0 -> window 0; pos 4 *)
  kernel ~proc:2 ~block:40 ~arm:0;
  feed ~block:0 ~arm:1;
  (* starts at 4 -> window 0; pos 8 *)
  feed ~block:1 ~arm:0;
  (* starts at 8 -> window 1; pos 14 *)
  data 0x4000_0040;
  kernel ~proc:5 ~block:0 ~arm:2;
  feed ~block:0 ~arm:0;
  (* starts at 14 -> window 1; pos 18 *)
  kernel ~proc:1 ~block:9 ~arm:0;
  kernel ~proc:0 ~block:0 ~arm:0;
  Alcotest.(check int) "window width" 8 (Windowed.window w);
  Alcotest.(check int) "instrs observed" 18 (Windowed.instrs w);
  Alcotest.(check int) "events observed" 4 (Windowed.events w);
  Alcotest.(check int) "windows in use" 2 (Windowed.windows w);
  Alcotest.(check int) "window 0 holds two events" 2
    (Profile.total_block_events (Windowed.profile w 0));
  Alcotest.(check int) "window 1 holds two events" 2
    (Profile.total_block_events (Windowed.profile w 1));
  (* Conservation: merging every window reproduces the aggregate. *)
  let merged = Windowed.merged w ~lo:0 ~hi:(Windowed.windows w) in
  Alcotest.(check int) "merged events = aggregate"
    (Profile.total_block_events aggregate)
    (Profile.total_block_events merged);
  Alcotest.(check int) "merged dynamic instrs = aggregate"
    (Profile.dynamic_instrs aggregate)
    (Profile.dynamic_instrs merged);
  Alcotest.(check bool) "merged = aggregate, row for row" true
    (List.for_all (Profile.proc_equal aggregate merged) [ 0 ]);
  (* Replay returns the recorded path: every event in order, kernel events
     after the last application event included. *)
  let replayed ~lo ~hi ~kernel =
    let acc = ref [] in
    let value tag = if kernel then Some (fun v -> acc := (tag, v, 0, 0) :: !acc) else None in
    Windowed.replay w ~lo ~hi
      ~app:(fun ~proc ~block ~arm -> acc := (`App, proc, block, arm) :: !acc)
      ?kernel:
        (if kernel then Some (fun ~proc ~block ~arm -> acc := (`Kernel, proc, block, arm) :: !acc)
         else None)
      ?data:(value `Data) ?switch:(value `Switch) ();
    List.rev !acc
  in
  let recorded = List.rev !fed in
  let event = Alcotest.testable (fun ppf (o, p, b, a) ->
      let name = match o with `App -> "app" | `Kernel -> "kernel" | `Data -> "data" | `Switch -> "switch" in
      Format.fprintf ppf "%s(%d, %d, %d)" name p b a) ( = )
  in
  Alcotest.(check (list event)) "full replay" recorded (replayed ~lo:0 ~hi:2 ~kernel:true);
  Alcotest.(check (list event)) "clamped full replay" recorded
    (replayed ~lo:(-3) ~hi:99 ~kernel:true);
  Alcotest.(check (list event)) "application events only"
    (List.filter (fun (o, _, _, _) -> o = `App) recorded)
    (replayed ~lo:0 ~hi:2 ~kernel:false);
  (* Any other event belongs to the window of the application event before
     it. *)
  Alcotest.(check (list event)) "window 1"
    [
      (`App, 0, 1, 0); (`Data, 0x4000_0040, 0, 0); (`Kernel, 5, 0, 2); (`App, 0, 0, 0);
      (`Kernel, 1, 9, 0); (`Kernel, 0, 0, 0);
    ]
    (replayed ~lo:1 ~hi:2 ~kernel:true);
  Alcotest.(check (list event)) "empty range" [] (replayed ~lo:1 ~hi:1 ~kernel:true);
  (* Rejected events record nothing. *)
  let raises f = match f () with exception Invalid_argument _ -> true | () -> false in
  Alcotest.(check bool) "app block past the procedure rejected" true
    (raises (fun () -> Windowed.sink w ~proc:0 ~block:4 ~arm:0));
  Alcotest.(check bool) "app arm past the block rejected" true
    (raises (fun () -> Windowed.sink w ~proc:0 ~block:0 ~arm:2));
  Alcotest.(check bool) "negative kernel field rejected" true
    (raises (fun () -> Windowed.kernel_sink w ~proc:(-1) ~block:0 ~arm:0));
  Alcotest.(check bool) "negative data address rejected" true
    (raises (fun () -> Windowed.data_sink w (-1)));
  Alcotest.(check bool) "process id past 60 bits rejected" true
    (raises (fun () -> Windowed.switch_sink w (1 lsl 60)));
  Alcotest.(check (list event)) "rejected events not recorded" recorded
    (replayed ~lo:0 ~hi:2 ~kernel:true);
  Alcotest.(check int) "rejected events not counted" 4 (Windowed.events w);
  Alcotest.(check bool) "bad window rejected" true
    (match Windowed.profile w 99 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The sink's own copies of [Block.arm_count] and [Block.source_instrs]:
     every arm of one block of each terminator kind advances the clock by
     the block's source size, at least one, and the next arm is refused. *)
  let open Olayout_ir in
  let b = Helpers.block in
  let blocks =
    [|
      b 0 0 (Block.Fall 1); b 1 2 (Block.Fall 2); b 2 2 (Block.Jump 3);
      b 3 3 (Block.Cond { taken = 4; fall = 4; p_taken = 0.5 });
      b 4 4 (Block.Call { callee = 0; ret = 5 });
      b 5 5 (Block.Ijump [| (6, 1.0); (6, 1.0); (6, 1.0) |]); b 6 3 Block.Halt; b 7 6 Block.Ret;
    |]
  in
  let kinds =
    let main = { Proc.id = 0; name = "main"; entry = 0; blocks } in
    { Prog.name = "kinds"; base_addr = 0x1000; procs = [| main |] }
  in
  let k = Windowed.create ~window:1_000 kinds in
  let clock = ref 0 in
  Array.iter
    (fun (blk : Block.t) ->
      let arms = Block.arm_count blk in
      for arm = 0 to arms - 1 do
        Windowed.sink k ~proc:0 ~block:blk.id ~arm;
        clock := !clock + max 1 (Block.source_instrs blk)
      done;
      Alcotest.(check bool) (Printf.sprintf "block %d: arm %d refused" blk.id arms) true
        (raises (fun () -> Windowed.sink k ~proc:0 ~block:blk.id ~arm:arms)))
    blocks;
  Alcotest.(check int) "clock, every kind" !clock (Windowed.instrs k);
  Alcotest.(check int) "events, every kind" 11 (Windowed.events k)

(* --- divergence metrics ------------------------------------------------ *)

let call_profile records =
  let prog = Helpers.call_prog () in
  let p = Profile.create prog in
  List.iter (fun (block, n) ->
      for _ = 1 to n do Profile.record p ~proc:0 ~block ~arm:0 done)
    records;
  Divergence.summarize p

let test_divergence_identity () =
  let a = call_profile [ (0, 3); (1, 2) ] in
  let b = call_profile [ (0, 3); (1, 2) ] in
  Alcotest.(check int) "same profile: L1 = 0" 0 (Divergence.l1_edge_permille a b);
  Alcotest.(check int) "same profile: jaccard = 1000" 1000
    (Divergence.hotset_jaccard_permille ~k:4 a b);
  Alcotest.(check int) "same profile: churn = 0" 0
    (Divergence.rank_churn_permille ~k:4 a b)

let test_divergence_disjoint () =
  let a = call_profile [ (0, 1); (1, 4) ] in
  (* b only ever executes the ret block: empty edge vector. *)
  let b = call_profile [ (2, 5) ] in
  Alcotest.(check int) "one empty edge set: L1 = 1000" 1000
    (Divergence.l1_edge_permille a b);
  let empty = call_profile [] in
  Alcotest.(check int) "both empty: L1 = 0" 0
    (Divergence.l1_edge_permille empty empty);
  Alcotest.(check int) "both empty: jaccard = 1000" 1000
    (Divergence.hotset_jaccard_permille ~k:4 empty empty);
  Alcotest.(check bool) "k < 1 rejected" true
    (match Divergence.hotset_jaccard_permille ~k:0 a b with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "churn k < 1 rejected" true
    (match Divergence.rank_churn_permille ~k:0 a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- scheduled server runs --------------------------------------------- *)

let ctx = lazy (Context.create ~scale:Context.Quick ())

let test_scheduled_server_runs () =
  let ctx = Lazy.force ctx in
  let wl = Context.workload ctx in
  let schedule = Schedule.rotation ~slots:3 in
  let go () =
    Server.run ~app:(Workload.app wl) ~kernel:(Workload.kernel wl) ~txns:30
      ~seed:1009 ~schedule ()
  in
  let r1 = go () in
  Alcotest.(check bool) "scan slot executed scans" true (r1.Server.scans > 0);
  Alcotest.(check bool) "tpcb slots still commit" true (r1.Server.committed > 0);
  (* Scheduled runs stay deterministic: a same-seed re-run reproduces
     every counter. *)
  let r2 = go () in
  Alcotest.(check int) "committed deterministic" r1.Server.committed r2.Server.committed;
  Alcotest.(check int) "scans deterministic" r1.Server.scans r2.Server.scans;
  Alcotest.(check int) "app instrs deterministic" r1.Server.app_instrs r2.Server.app_instrs;
  Alcotest.(check int) "kernel instrs deterministic" r1.Server.kernel_instrs
    r2.Server.kernel_instrs;
  (* The schedule shapes the stream: a plain run differs. *)
  let plain =
    Server.run ~app:(Workload.app wl) ~kernel:(Workload.kernel wl) ~txns:30
      ~seed:1009 ()
  in
  Alcotest.(check int) "plain run has no scans" 0 plain.Server.scans;
  Alcotest.(check bool) "schedule changes the instruction stream" true
    (plain.Server.app_instrs <> r1.Server.app_instrs)

(* --- the drift driver -------------------------------------------------- *)

(* The drift experiment through the report driver, which returns its
   result for the DRIFT artifact. *)
let report =
  lazy
    (Report.run ~selection:(Report.Only [ "drift" ]) (Lazy.force ctx)
       (Format.make_formatter (fun _ _ _ -> ()) ignore))

let result = lazy (Option.get (Lazy.force report).Report.drift)

let test_driver_matrix () =
  let r = Lazy.force result in
  let n = Observatory.phases r in
  Alcotest.(check bool) "at least 4 phases" true (n >= 4);
  Alcotest.(check int) "rows = phases + train" (n + 1) (Observatory.rows r);
  Alcotest.(check int) "phase names sized" n (Array.length r.Observatory.o_phase_names);
  Array.iter
    (fun row -> Alcotest.(check int) "row width" n (Array.length row))
    r.Observatory.o_cells;
  Alcotest.(check bool) "several divergence windows" true
    (List.length r.Observatory.o_points >= n);
  Array.iter
    (fun row ->
      Array.iter
        (fun c ->
          Alcotest.(check bool) "cells saw instructions" true
            (c.Observatory.instrs > 0))
        row)
    r.Observatory.o_cells;
  (* The acceptance property: under the mix-shift schedule, each layout
     replaying its own phase beats the worst cross-phase pairing. *)
  Alcotest.(check bool)
    (Printf.sprintf "diag max %d < off-diag max %d (mpki x100)"
       (Observatory.diag_max_mpki_x100 r)
       (Observatory.offdiag_max_mpki_x100 r))
    true
    (Observatory.diag_max_mpki_x100 r < Observatory.offdiag_max_mpki_x100 r)

let test_driver_divergence () =
  let r = Lazy.force result in
  (* The mix shift must register as nonzero drift in every family. *)
  Alcotest.(check bool) "edge L1 moved" true (Observatory.max_l1_vs_prev r > 0);
  Alcotest.(check bool) "train L1 moved" true (Observatory.max_l1_vs_train r > 0);
  Alcotest.(check bool) "hot set moved" true (Observatory.min_jaccard_vs_train r < 1000);
  (match r.Observatory.o_points with
  | first :: _ ->
      Alcotest.(check int) "window 0 has no predecessor" 0 first.Observatory.p_l1_vs_prev;
      Alcotest.(check int) "window 0 jaccard vs prev" 1000
        first.Observatory.p_jaccard_vs_prev
  | [] -> Alcotest.fail "no divergence points");
  List.iter
    (fun p ->
      let ok v = v >= 0 && v <= 1000 in
      Alcotest.(check bool) "permilles in range" true
        (ok p.Observatory.p_l1_vs_prev && ok p.Observatory.p_l1_vs_train
        && ok p.Observatory.p_jaccard_vs_prev
        && ok p.Observatory.p_jaccard_vs_train
        && ok p.Observatory.p_churn_vs_prev))
    r.Observatory.o_points

let test_driver_gauges () =
  ignore (Lazy.force result);
  let gauges = Telemetry.gauges () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " published") true (List.mem_assoc name gauges);
      (* Every drift gauge path must gate deterministically. *)
      Alcotest.(check bool) (name ^ " deterministic") true
        (Diff.classify ("gauges." ^ name) = Diff.Deterministic))
    [
      "drift.windows";
      "drift.phases";
      "drift.max_l1_vs_prev_permille";
      "drift.max_l1_vs_train_permille";
      "drift.min_jaccard_vs_train_permille";
      "drift.max_rank_churn_permille";
      "drift.staleness_diag_max_mpki_x100";
      "drift.staleness_offdiag_max_mpki_x100";
    ];
  Alcotest.(check bool) "Report.run returns the result" true
    ((Lazy.force report).Report.drift <> None)

let test_driver_validation () =
  let ctx = Lazy.force ctx in
  let preset = Diagnose.preset_of_figure "fig4" in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "base combo rejected" true
    (raises (fun () -> Drift.run ~combo:Olayout_core.Spike.Base ctx preset));
  Alcotest.(check bool) "phases < 2 rejected" true
    (raises (fun () -> Drift.run ~phases:1 ctx preset));
  Alcotest.(check bool) "window < 1 rejected" true
    (raises (fun () -> Drift.run ~window:0 ctx preset));
  Alcotest.(check bool) "top < 1 rejected" true
    (raises (fun () -> Drift.run ~top:0 ctx preset))

(* --- artifact ---------------------------------------------------------- *)

let test_artifact () =
  let r = Lazy.force result in
  let path = Filename.temp_file "olayout_drift" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.write_file path (Observatory.to_json ~scale:"quick" r);
      let art = Artifact.load_file path in
      Alcotest.(check string) "schema" "olayout-drift/v1" art.Artifact.schema;
      Alcotest.(check string) "scale" "quick" art.Artifact.scale;
      Alcotest.(check bool) "summary metrics flatten" true
        (Artifact.metric art "drift.summary.diag_max_mpki_x100" <> None);
      Alcotest.(check bool) "series metrics flatten" true
        (List.exists
           (fun (p, _) -> String.length p >= 12 && String.sub p 0 12 = "drift.series")
           art.Artifact.metrics);
      Alcotest.(check bool) "staleness rows flatten by name" true
        (Artifact.metric art "drift.staleness.rows.train.cells.0.misses" <> None);
      List.iter
        (fun (p, _) ->
          Alcotest.(check bool)
            (p ^ " classified deterministic") true
            (Diff.classify p = Diff.Deterministic))
        art.Artifact.metrics);
  let fields =
    match Observatory.to_json ~scale:"quick" r with
    | Json.Object fs -> List.map fst fs
    | _ -> []
  in
  Alcotest.(check bool) "no generated_unix_time" false
    (List.mem "generated_unix_time" fields);
  Alcotest.(check bool) "no argv" false (List.mem "argv" fields)

let test_repeatable_bytes () =
  (* The within-process analogue of CI's cross-leg cmp: re-running the
     whole two-pass driver over the same context reproduces the document
     byte for byte. *)
  let ctx = Lazy.force ctx in
  let doc () =
    Json.to_string
      (Observatory.to_json ~scale:"quick"
         (Drift.run ctx (Diagnose.preset_of_figure "fig4")))
  in
  Alcotest.(check string) "byte-identical re-run" (doc ()) (doc ())

let suite =
  ( "drift",
    [
      Alcotest.test_case "schedule validation" `Quick test_schedule_validation;
      Alcotest.test_case "rotation shape" `Quick test_rotation_shape;
      Alcotest.test_case "slot assignment boundaries" `Quick test_assign_boundaries;
      Alcotest.test_case "windowed conservation" `Quick test_windowed_conservation;
      Alcotest.test_case "divergence identity" `Quick test_divergence_identity;
      Alcotest.test_case "divergence disjoint + validation" `Quick
        test_divergence_disjoint;
      Alcotest.test_case "scheduled server runs" `Slow test_scheduled_server_runs;
      Alcotest.test_case "staleness matrix + diagonal" `Slow test_driver_matrix;
      Alcotest.test_case "divergence series" `Slow test_driver_divergence;
      Alcotest.test_case "gauges published" `Slow test_driver_gauges;
      Alcotest.test_case "driver validation" `Slow test_driver_validation;
      Alcotest.test_case "artifact shape + classification" `Slow test_artifact;
      Alcotest.test_case "byte-identical re-run" `Slow test_repeatable_bytes;
    ] )
