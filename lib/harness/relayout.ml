module Spike = Olayout_core.Spike
module Incremental = Olayout_core.Incremental
module Windowed = Olayout_profile.Windowed
module Closedloop = Olayout_drift.Closedloop
module Schedule = Olayout_oltp.Schedule
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Render = Olayout_exec.Render
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry

(* The closed-loop re-layout driver: how often must the online loop re-run
   the layout pipeline to keep up with a drifting transaction mix, and when
   does re-laying-out stop paying for its own disruption?

   The input is the drift driver's capture of the scheduled execution's
   block path (Context.scheduled_capture).  The block path never depends
   on layouts, so one capture serves every cadence:

   - the static row renders the whole application stream under the
     context's training layout;
   - each swept cadence re-renders the same stream window by window,
     re-laying-out every [cadence] windows via an Incremental memo fed the
     merged profile of the windows since the previous tick (what an online
     profiler would have handed the loop), and switching the render to the
     new placement mid-stream.

   The instruction cache persists across re-layout ticks within a cadence
   (fresh per cadence), so the cold misses caused by moving code — the
   re-layout disruption the break-even cadence trades against staleness —
   are part of each cadence's miss total.  The run merger is flushed at
   every window boundary; splitting a fetch run at a boundary preserves
   the address sequence, so miss counts are unchanged and both battery
   engines stay byte-identical. *)

let default_window = Drift.default_window
let default_slots = Drift.default_phases
let default_cadences = [ 1; 2; 4; 8 ]

let run ?(combo = Spike.All) ?(cadences = default_cadences)
    ?(window = default_window) ?(slots = default_slots) ctx preset =
  if combo = Spike.Base then
    invalid_arg "Relayout.run: combo must name an optimized layout, not base";
  if window < 1 then invalid_arg "Relayout.run: window must be >= 1";
  if slots < 2 then invalid_arg "Relayout.run: slots must be >= 2";
  if cadences = [] then invalid_arg "Relayout.run: cadences must be non-empty";
  List.iter
    (fun c -> if c < 1 then invalid_arg "Relayout.run: cadences must be >= 1")
    cadences;
  let cadences = List.sort_uniq compare cadences in
  Telemetry.span "relayout" (fun () ->
      let train = Context.app_profile ctx in
      let wp = Context.scheduled_capture ctx (Schedule.rotation ~slots) ~window in
      let n = Windowed.windows wp in
      let config =
        Icache.config ~size_kb:preset.Diagnose.size_kb
          ~line:preset.Diagnose.line ~assoc:preset.Diagnose.assoc ()
      in
      let engine = Context.engine ctx in
      (* Replay the captured stream under an evolving layout.  [cadence = 0]
         is the static row: the training layout throughout, no memo, no
         layout work booked. *)
      let replay cadence =
        let work0 = Incremental.work_counters () in
        let memo =
          if cadence = 0 then None
          else Some (Incremental.create (Incremental.Combo combo) train)
        in
        let placement =
          ref
            (match memo with
            | Some m -> Incremental.placement m
            | None -> Context.placement ctx combo)
        in
        let battery = Battery.create ~engine [ config ] in
        let fed = ref 0 in
        let merger =
          Render.merger ~emit:(fun run ->
              fed := !fed + run.Run.len;
              Battery.access_run battery run)
        in
        let render = ref (Render.create ~placement:!placement ~owner:Run.App merger) in
        let relayouts = ref 0 in
        let window_misses = Array.make (max n 1) 0 in
        let prev = ref 0 in
        for w = 0 to n - 1 do
          (match memo with
          | Some m when w > 0 && w mod cadence = 0 ->
              (* Re-layout tick: feed the loop the profile of the windows
                 since the previous tick, switch the render mid-stream.
                 The battery keeps its state — the moved code's cold misses
                 are the disruption cost. *)
              Render.flush merger;
              let p =
                Telemetry.span "profile_merge" (fun () ->
                    Windowed.merged wp ~lo:(w - cadence) ~hi:w)
              in
              placement := Incremental.update m p;
              render := Render.create ~placement:!placement ~owner:Run.App merger;
              incr relayouts
          | _ -> ());
          (* Render the window under the current placement; the merger
             feeds the battery as it goes. *)
          Telemetry.span "replay" (fun () ->
              Windowed.replay wp ~lo:w ~hi:(w + 1) ~app:(Render.sink !render) ();
              Render.flush merger);
          let m = Battery.misses battery config.Icache.name in
          window_misses.(w) <- m - !prev;
          prev := m
        done;
        {
          Closedloop.c_cadence = cadence;
          c_relayouts = !relayouts;
          c_misses = !prev;
          c_instrs = !fed;
          c_work =
            (if cadence = 0 then Incremental.work_zero
             else Incremental.work_sub (Incremental.work_counters ()) work0);
          c_window_misses = window_misses;
        }
      in
      let r =
        {
          Closedloop.r_figure = preset.Diagnose.fig;
          r_combo = Spike.combo_name combo;
          r_window_instrs = window;
          r_windows = n;
          r_static = replay 0;
          r_points = List.map replay cadences;
        }
      in
      Closedloop.publish_gauges r;
      Closedloop.publish_timeline r;
      r)

(* --- report tables ----------------------------------------------------- *)

let x100 v = Table.Fixed (2, float_of_int v /. 100.0)

let curve_table r =
  let tbl =
    Table.create ~id:"relayout_cadence"
      ~title:
        (Printf.sprintf
           "re-layout cadence sweep: %s layout, %d windows x %d instrs \
            (cache persists across ticks)"
           r.Closedloop.r_combo r.Closedloop.r_windows
           r.Closedloop.r_window_instrs)
      ~columns:[ ("cadence", "cadence"); ("relayouts", "relayouts"); ("misses", "misses");
                 ("mpki", "mpki"); ("work_x", "work_x") ]
  in
  let row id name (p : Closedloop.point) =
    Table.add_row tbl ~id
      [
        Table.Text name;
        Table.Int p.Closedloop.c_relayouts;
        Table.Int p.Closedloop.c_misses;
        x100 (Closedloop.mpki_x100 p);
        x100 (Olayout_drift.Observatory.work_ratio_x100 p.Closedloop.c_work);
      ]
  in
  row "static" "static" r.Closedloop.r_static;
  List.iter
    (fun (p : Closedloop.point) ->
      let cadence = string_of_int p.Closedloop.c_cadence in
      row cadence cadence p)
    r.Closedloop.r_points;
  tbl

let summary_table r =
  let tbl =
    Table.create ~id:"relayout_summary" ~title:"re-layout cadence sweep: summary"
      ~columns:[ ("metric", "metric"); ("value", "value") ]
  in
  let row id name cell = Table.add_row tbl ~id [ Table.Text name; cell ] in
  row "best_cadence" "best cadence" (Table.Int (Closedloop.best_cadence r));
  row "best_mpki" "best cadence's mpki" (x100 (Closedloop.best_mpki_x100 r));
  row "break_even_cadence" "break-even cadence" (Table.Int (Closedloop.break_even_cadence r));
  row "work_ratio" "scratch / incremental layout work" (x100 (Closedloop.work_ratio_x100 r));
  tbl

let series_table r =
  let tbl =
    Table.create ~id:"relayout_series"
      ~title:"per-window misses under the evolving layout"
      ~columns:[ ("series", "series"); ("total", "total"); ("spark", "spark") ]
  in
  let line id name values =
    Table.add_row tbl ~id
      [
        Table.Text name;
        Table.Int (Array.fold_left ( + ) 0 values);
        Table.Text (Olayout_util.Console.spark `Sum values);
      ]
  in
  line "static" "static_misses" r.Closedloop.r_static.Closedloop.c_window_misses;
  let best = Closedloop.best_point r in
  line "best"
    (Printf.sprintf "cadence_%d_misses" best.Closedloop.c_cadence)
    best.Closedloop.c_window_misses;
  tbl

let tables r = [ curve_table r; summary_table r; series_table r ]
