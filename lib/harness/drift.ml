module Spike = Olayout_core.Spike
module Incremental = Olayout_core.Incremental
module Profile = Olayout_profile.Profile
module Windowed = Olayout_profile.Windowed
module Divergence = Olayout_drift.Divergence
module Observatory = Olayout_drift.Observatory
module Schedule = Olayout_oltp.Schedule
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Render = Olayout_exec.Render
module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline

(* The workload-drift observatory driver.  Everything reads one
   deterministic mix-shift execution (Schedule.rotation, measurement
   seed), captured once as its block path and shared with the relayout
   driver (Context.scheduled_capture):

   - the divergence series folds each window into a profile and compares
     it with its predecessor and with the training profile;
   - one layout per matrix phase is derived from the phase's merged window
     profiles incrementally (one full build on the training profile, then
     one profile-delta update per phase);
   - each staleness-matrix row renders the whole path under its layout (a
     phase layout, or the training layout for the reference row), its
     application and kernel events through one run merger as the server's
     own render sinks do.

   Each row's stream is sliced by its own instruction clock into the N
   phases, and every (row, phase) cell replays cold through a
   one-configuration battery on the context's engine — both engines give
   byte-identical miss counts, so the olayout-drift/v1 document survives
   the cross-engine CI cmp. *)

let default_window = 65536
let default_phases = 4
let default_top = 8

let run ?(combo = Spike.All) ?(phases = default_phases)
    ?(window = default_window) ?(top = default_top) ctx preset =
  if combo = Spike.Base then
    invalid_arg "Drift.run: combo must name an optimized layout, not base";
  if phases < 2 then invalid_arg "Drift.run: phases must be >= 2";
  if window < 1 then invalid_arg "Drift.run: window must be >= 1";
  if top < 1 then invalid_arg "Drift.run: top must be >= 1";
  Telemetry.span "drift" (fun () ->
      let schedule = Schedule.rotation ~slots:phases in
      let train = Context.app_profile ctx in
      (* Warmup transactions emit no block events (walks observe the
         measured window only), so window 0 starts at measured position
         0. *)
      let wp = Context.scheduled_capture ctx schedule ~window in
      let n = Windowed.windows wp in
      let phases = min phases (max 1 n) in
      let points =
        Telemetry.span "divergence" (fun () ->
            (* Each profile is summarized once; only the previous window's
               summary is held. *)
            let train = Divergence.summarize train in
            let prev = ref train in
            Array.to_list
              (Array.init n (fun w ->
                   let p = Windowed.profile wp w in
                   let s = Divergence.summarize p in
                   let l1_prev, jac_prev, churn_prev =
                     if w = 0 then (0, 1000, 0)
                     else
                       ( Divergence.l1_edge_permille !prev s,
                         Divergence.hotset_jaccard_permille ~k:top !prev s,
                         Divergence.rank_churn_permille ~k:top !prev s )
                   in
                   prev := s;
                   {
                     Observatory.p_window = w;
                     p_events = Profile.total_block_events p;
                     p_l1_vs_prev = l1_prev;
                     p_l1_vs_train = Divergence.l1_edge_permille train s;
                     p_jaccard_vs_prev = jac_prev;
                     p_jaccard_vs_train = Divergence.hotset_jaccard_permille ~k:top train s;
                     p_churn_vs_prev = churn_prev;
                   })))
      in
      (* One layout per phase (merged window profiles), plus the context's
         training-profile layout as the reference row.  The phase layouts
         are built incrementally: one full pipeline build on the training
         profile, then a profile-delta update per phase (1 full + N deltas
         instead of N full pipelines; the relayout.* counters book both
         sides). *)
      let phase_profile =
        Telemetry.span "profile_merge" (fun () ->
            Array.init phases (fun j ->
                Windowed.merged wp ~lo:(j * n / phases) ~hi:((j + 1) * n / phases)))
      in
      let work0 = Incremental.work_counters () in
      let memo = Incremental.create (Incremental.Combo combo) train in
      let layouts = Array.make (phases + 1) (Context.placement ctx combo) in
      for j = 0 to phases - 1 do
        layouts.(j) <- Incremental.update memo phase_profile.(j)
      done;
      let work = Incremental.work_sub (Incremental.work_counters ()) work0 in
      (* Staleness matrix: render each row's stream from the capture, slice
         it by its own instruction clock (placements change run lengths,
         so each row has its own phase boundaries) and replay every slice
         cold through a fresh one-configuration battery. *)
      let config =
        Icache.config ~size_kb:preset.Diagnose.size_kb
          ~line:preset.Diagnose.line ~assoc:preset.Diagnose.assoc ()
      in
      let engine = Context.engine ctx in
      let kernel = Context.kernel_base ctx in
      let cells =
        Telemetry.span "replay" (fun () ->
            Array.map
              (fun placement ->
                let emit, trace = Trace.record () in
                let merger, app_sink, kernel_sink = Render.stream ~app:placement ~kernel emit in
                Windowed.replay wp ~lo:0 ~hi:n ~app:app_sink ~kernel:kernel_sink ();
                Render.flush merger;
                let total = Trace.instrs trace in
                let row =
                  Array.init phases (fun _ ->
                      (Battery.create ~engine [ config ], ref 0))
                in
                let pos = ref 0 and last = phases - 1 in
                Trace.replay trace (fun run ->
                    let j = if total <= 0 then 0 else !pos * phases / total in
                    let j = if j < last then j else last in
                    pos := !pos + run.Run.len;
                    if preset.Diagnose.combined || run.Run.owner = Run.App then begin
                      let battery, fed = row.(j) in
                      Battery.access_run battery run;
                      fed := !fed + run.Run.len
                    end);
                Array.map
                  (fun (battery, fed) ->
                    {
                      Observatory.misses = Battery.misses battery config.Icache.name;
                      instrs = !fed;
                    })
                  row)
              layouts)
      in
      let r =
        {
          Observatory.o_figure = preset.Diagnose.fig;
          o_combo = Spike.combo_name combo;
          o_window_instrs = window;
          o_top_k = top;
          o_points = points;
          o_phase_names =
            Array.init phases (fun j ->
                Schedule.phase_name (Schedule.slot_phase schedule j));
          o_phase_events = Array.map Profile.total_block_events phase_profile;
          o_rows =
            Array.init (phases + 1) (fun i ->
                if i < phases then Printf.sprintf "p%d" i else "train");
          o_cells = cells;
          o_work = work;
        }
      in
      Observatory.publish_gauges r;
      Observatory.publish_timeline r;
      r)

(* --- report tables ----------------------------------------------------- *)

let mpki v = Table.Fixed (2, float_of_int v /. 100.0)

let series_table r =
  let tbl =
    Table.create ~id:"drift_divergence"
      ~title:
        (Printf.sprintf
           "profile divergence: %s layout, %d windows x %d instrs (top-%d)"
           r.Observatory.o_combo
           (List.length r.Observatory.o_points)
           r.Observatory.o_window_instrs r.Observatory.o_top_k)
      ~columns:[ ("series", "series"); ("max", "max"); ("spark", "spark") ]
  in
  let arr f =
    Array.of_list (List.map f r.Observatory.o_points)
  in
  let line id values =
    Table.add_row tbl ~id
      [
        Table.Text (id ^ "_permille");
        Table.Int (Array.fold_left max 0 values);
        Table.Text (Timeline.spark Timeline.Sample values);
      ]
  in
  line "l1_vs_prev" (arr (fun p -> p.Observatory.p_l1_vs_prev));
  line "l1_vs_train" (arr (fun p -> p.Observatory.p_l1_vs_train));
  line "rank_churn" (arr (fun p -> p.Observatory.p_churn_vs_prev));
  line "hotset_drift"
    (arr (fun p -> 1000 - p.Observatory.p_jaccard_vs_train));
  Table.add_note tbl
    "hotset_drift = 1000 - jaccard_vs_train, so every series reads higher = \
     more drift";
  tbl

let matrix_table r =
  let n = Observatory.phases r in
  let tbl =
    Table.create ~id:"drift_staleness"
      ~title:
        (Printf.sprintf "layout staleness (%s, mpki): row = layout source, col \
                         = replayed phase"
           r.Observatory.o_figure)
      ~columns:
        (("layout", "layout")
        :: List.init n (fun j ->
               ( Printf.sprintf "p%d" j,
                 Printf.sprintf "p%d:%s" j r.Observatory.o_phase_names.(j) )))
  in
  Array.iteri
    (fun i row ->
      Table.add_row tbl ~id:r.Observatory.o_rows.(i)
        (Table.Text r.Observatory.o_rows.(i)
        :: Array.to_list
             (Array.mapi
                (fun j c ->
                  let cell = mpki (Observatory.mpki_x100 c) in
                  if i = j && i < n then Table.Mark (cell, "*") else cell)
                row)))
    r.Observatory.o_cells;
  Table.add_note tbl "* = layout replaying its own phase (fresh cache per cell)";
  tbl

let summary_table r =
  let tbl =
    Table.create ~id:"drift_summary" ~title:"layout staleness: own phase vs other phases"
      ~columns:[ ("metric", "metric"); ("mpki", "mpki") ]
  in
  Table.add_row tbl ~id:"diag_max"
    [ Table.Text "max over own phases (*)"; mpki (Observatory.diag_max_mpki_x100 r) ];
  Table.add_row tbl ~id:"offdiag_max"
    [ Table.Text "max over other phases"; mpki (Observatory.offdiag_max_mpki_x100 r) ];
  tbl

let tables r = [ series_table r; matrix_table r; summary_table r ]
