module Spike = Olayout_core.Spike
module Incremental = Olayout_core.Incremental
module Profile = Olayout_profile.Profile
module Windowed = Olayout_profile.Windowed
module Divergence = Olayout_drift.Divergence
module Observatory = Olayout_drift.Observatory
module Schedule = Olayout_oltp.Schedule
module Server = Olayout_oltp.Server
module Workload = Olayout_oltp.Workload
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline

(* The workload-drift observatory driver.

   Two passes over one deterministic mix-shift schedule (Schedule.rotation),
   both through Context.measure_raw with the measurement seed (the trace
   cache keys streams by schedule signature, so scheduled streams share the
   cache without touching the unscheduled figures' entries):

   - pass A profiles the scheduled run into per-window Profile.t slices
     (Windowed) and derives one layout per matrix phase from the merged
     window profiles — incrementally: one full pipeline build on the
     training profile, then one profile-delta update per phase
     (Incremental), instead of N full pipelines;
   - pass B re-runs the identical execution once, rendering the same block
     path under every phase layout at once (the render-sink design: the
     block path never depends on placements), recording each stream.  The
     training row renders the context's cached placement, so its scheduled
     stream is recorded on the first run and replayed on later ones.

   Each recorded stream is then sliced by its own instruction clock into
   the N phases and every (layout row, phase slice) cell replays cold
   through a one-configuration battery on the context's engine — both
   engines produce byte-identical miss counts, so the olayout-drift/v1
   document survives the cross-engine CI cmp. *)

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
      (* Pass A: windowed profile capture.  Warmup transactions emit no
         block events (walks observe the measured window only), so window 0
         starts at measured position 0. *)
      let wp = Windowed.create ~window (Profile.prog train) in
      let (_ : Server.result) =
        Context.measure_raw ctx ~schedule ~app_sinks:[ Windowed.sink wp ]
          ~renders:[] ()
      in
      let n = Windowed.windows wp in
      let phases = min phases (max 1 n) in
      let points =
        Telemetry.span "divergence" (fun () ->
            let profiles = Array.init n (Windowed.profile wp) in
            List.init n (fun w ->
                let p = profiles.(w) in
                let l1_prev, jac_prev, churn_prev =
                  if w = 0 then (0, 1000, 0)
                  else
                    ( Divergence.l1_edge_permille profiles.(w - 1) p,
                      Divergence.hotset_jaccard_permille ~k:top profiles.(w - 1) p,
                      Divergence.rank_churn_permille ~k:top profiles.(w - 1) p )
                in
                {
                  Observatory.p_window = w;
                  p_events = Profile.total_block_events p;
                  p_l1_vs_prev = l1_prev;
                  p_l1_vs_train = Divergence.l1_edge_permille train p;
                  p_jaccard_vs_prev = jac_prev;
                  p_jaccard_vs_train =
                    Divergence.hotset_jaccard_permille ~k:top train p;
                  p_churn_vs_prev = churn_prev;
                }))
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
      (* Pass B: identical execution, one stream per layout.  The train row
         is the context's cached placement, so it replays from the trace
         cache when present; phase-layout rows are run-local placements and
         render live. *)
      let records = Array.init (phases + 1) (fun _ -> Trace.record ()) in
      let renders =
        List.mapi
          (fun i (emit, _) -> (layouts.(i), emit))
          (Array.to_list records)
      in
      let (_ : Server.result) = Context.measure_raw ctx ~schedule ~renders () in
      (* Staleness matrix: slice each stream by its own instruction clock
         (placements change run lengths, so each row has its own phase
         boundaries) and replay every slice cold through a fresh
         one-configuration battery. *)
      let config =
        Icache.config ~size_kb:preset.Diagnose.size_kb
          ~line:preset.Diagnose.line ~assoc:preset.Diagnose.assoc ()
      in
      let engine = Context.engine ctx in
      let cells =
        Telemetry.span "replay" (fun () ->
            Array.map
              (fun (_, trace) ->
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
              records)
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

let fmt_mpki v = Printf.sprintf "%.2f" (float_of_int v /. 100.0)

let series_table r =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "profile divergence: %s layout, %d windows x %d instrs (top-%d)"
           r.Observatory.o_combo
           (List.length r.Observatory.o_points)
           r.Observatory.o_window_instrs r.Observatory.o_top_k)
      ~columns:[ "series"; "max"; "spark" ]
  in
  let arr f =
    Array.of_list (List.map f r.Observatory.o_points)
  in
  let line name values =
    Table.add_row tbl
      [
        name;
        string_of_int (Array.fold_left max 0 values);
        Timeline.spark Timeline.Sample values;
      ]
  in
  line "l1_vs_prev_permille" (arr (fun p -> p.Observatory.p_l1_vs_prev));
  line "l1_vs_train_permille" (arr (fun p -> p.Observatory.p_l1_vs_train));
  line "rank_churn_permille" (arr (fun p -> p.Observatory.p_churn_vs_prev));
  line "hotset_drift_permille"
    (arr (fun p -> 1000 - p.Observatory.p_jaccard_vs_train));
  Table.add_note tbl
    "hotset_drift = 1000 - jaccard_vs_train, so every series reads higher = \
     more drift";
  tbl

let matrix_table r =
  let n = Observatory.phases r in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "layout staleness (%s, mpki): row = layout source, col \
                         = replayed phase"
           r.Observatory.o_figure)
      ~columns:
        ("layout"
        :: List.init n (fun j ->
               Printf.sprintf "p%d:%s" j r.Observatory.o_phase_names.(j)))
  in
  Array.iteri
    (fun i row ->
      Table.add_row tbl
        (r.Observatory.o_rows.(i)
        :: Array.to_list
             (Array.mapi
                (fun j c ->
                  let s = fmt_mpki (Observatory.mpki_x100 c) in
                  if i = j && i < n then s ^ "*" else s)
                row)))
    r.Observatory.o_cells;
  Table.add_note tbl
    (Printf.sprintf
       "* = layout replaying its own phase; diag max %s vs off-diag max %s \
        mpki (fresh cache per cell)"
       (fmt_mpki (Observatory.diag_max_mpki_x100 r))
       (fmt_mpki (Observatory.offdiag_max_mpki_x100 r)));
  tbl

let tables r = [ series_table r; matrix_table r ]
