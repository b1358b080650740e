module Placement = Olayout_core.Placement
module Profile = Olayout_profile.Profile
module Windowed = Olayout_profile.Windowed
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run
module Trace = Olayout_exec.Trace
module Workload = Olayout_oltp.Workload
module Server = Olayout_oltp.Server
module Schedule = Olayout_oltp.Schedule
module Telemetry = Olayout_telemetry.Telemetry

type scale = Quick | Full

(* A measurement execution's run stream is a deterministic function of the
   app placement, the shared kernel placement and the transaction count
   (the block path never depends on placements; see Server).  Traces are
   cached under that key and replayed for every later figure that asks for
   the same stream. *)
type trace_key = { combo : Spike.combo; kernel : int; key_txns : int }

type trace_stats = {
  live_executions : int;
  live_runs : int;
  live_instrs : int;
  recorded_traces : int;
  replayed_traces : int;
  replayed_runs : int;
  replayed_instrs : int;
  replay_seconds : float;
  trace_bytes : int;
}

(* Capture/replay accounting lives in the process-global telemetry registry
   (so the bench artifact and the JSONL sink see it for free);
   [trace_stats] below snapshots the same counters into the historical
   record shape. *)
let c_live_executions = Telemetry.counter "context.live_executions"
let c_live_runs = Telemetry.counter "context.live_runs"
let c_live_instrs = Telemetry.counter "context.live_instrs"
let c_recorded = Telemetry.counter "context.traces_recorded"
let c_replayed = Telemetry.counter "context.traces_replayed"
let c_replayed_runs = Telemetry.counter "context.replayed_runs"
let c_replayed_instrs = Telemetry.counter "context.replayed_instrs"
let g_replay_seconds = Telemetry.gauge "context.replay_seconds"
let g_trace_bytes = Telemetry.gauge "context.trace_cache_bytes"
let g_trace_peak = Telemetry.gauge "context.trace_peak_bytes"

type t = {
  scale : scale;
  seed : int;
  engine : Olayout_cachesim.Battery.engine;
  workload : Workload.t;
  app_profile : Profile.t;
  kernel_profile : Profile.t;
  mutable placements : (Spike.combo * Placement.t) list;
  kernel_base : Placement.t;
  mutable kernel_optimized : Placement.t option;
  mutable traces : (trace_key * Trace.t) list;
  mutable results : ((int * int) * Server.result) list;
  (* Scheduled block paths, by (schedule signature, window). *)
  mutable captures : ((string * int) * Windowed.t) list;
}

let train_txns = function Quick -> 150 | Full -> 2000
let measured_txns_of = function Quick -> 100 | Full -> 1000

(* Soft cap on resident trace memory: once exceeded, later streams are
   simulated live instead of being recorded. *)
let max_trace_cache_bytes = 1 lsl 30

let create ?(scale = Full) ?(seed = 7) ?(engine = `Stackdist) () =
  Telemetry.span "context.create" (fun () ->
      let workload = Workload.create ~seed () in
      let app_profile, kernel_profile =
        Telemetry.span "context.train" (fun () ->
            Workload.train workload ~txns:(train_txns scale) ~seed:1 ())
      in
      {
        scale;
        seed;
        engine;
        workload;
        app_profile;
        kernel_profile;
        placements = [];
        kernel_base = Workload.base_kernel workload;
        kernel_optimized = None;
        traces = [];
        results = [];
        captures = [];
      })

let scale t = t.scale
let engine t = t.engine
let workload t = t.workload
let app_profile t = t.app_profile
let kernel_profile t = t.kernel_profile

let placement t combo =
  match List.assoc_opt combo t.placements with
  | Some p -> p
  | None ->
      if Telemetry.in_isolated () then
        failwith
          "Context.placement: cache miss inside a parallel task; placements \
           must be computed by an earlier serial figure";
      let p = Spike.optimize t.app_profile combo in
      t.placements <- (combo, p) :: t.placements;
      p

let kernel_base t = t.kernel_base

let kernel_optimized t =
  match t.kernel_optimized with
  | Some p -> p
  | None ->
      let p = Spike.optimize t.kernel_profile Spike.All in
      t.kernel_optimized <- Some p;
      p

let measured_txns t = measured_txns_of t.scale

let app_only emit (run : Run.t) = if run.Run.owner = Run.App then emit run

let trace_cache_bytes t =
  List.fold_left (fun acc (_, tr) -> acc + Trace.memory_bytes tr) 0 t.traces

let set_bytes_gauges t =
  let b = float_of_int (trace_cache_bytes t) in
  Telemetry.set_gauge g_trace_bytes b;
  (* Peak only ever grows at recording time (all recordings happen on the
     dispatching domain), so it is identical between -j 1 and -j N. *)
  if b > Telemetry.gauge_value g_trace_peak then Telemetry.set_gauge g_trace_peak b

let trace_stats t =
  {
    live_executions = Telemetry.value c_live_executions;
    live_runs = Telemetry.value c_live_runs;
    live_instrs = Telemetry.value c_live_instrs;
    recorded_traces = Telemetry.value c_recorded;
    replayed_traces = Telemetry.value c_replayed;
    replayed_runs = Telemetry.value c_replayed_runs;
    replayed_instrs = Telemetry.value c_replayed_instrs;
    replay_seconds = Telemetry.gauge_value g_replay_seconds;
    trace_bytes = trace_cache_bytes t;
  }

(* Identity of the shared kernel placement: only the two context-owned
   kernels are cacheable (ad-hoc kernels, e.g. fig_joint's shifted variant,
   are one-shot and not worth the memory). *)
let kernel_id t p =
  if p == t.kernel_base then Some 0
  else
    match t.kernel_optimized with Some k when k == p -> Some 1 | _ -> None

(* Reverse lookup: app placements created through [placement] are physically
   cached, so figures passing them (directly or via [measure]) are
   recognized even through [measure_raw]. *)
let combo_of_placement t p =
  let rec go = function
    | [] -> None
    | (combo, q) :: _ when q == p -> Some combo
    | _ :: rest -> go rest
  in
  go t.placements

let replay_into items =
  match items with
  | [] -> ()
  | _ ->
      let (), seconds =
        Telemetry.timed "context.replay" (fun () ->
            List.iter
              (fun (trace, emit) ->
                Trace.replay trace emit;
                Telemetry.incr c_replayed;
                Telemetry.add c_replayed_runs (Trace.length trace);
                Telemetry.add c_replayed_instrs (Trace.instrs trace))
              items)
      in
      Telemetry.add_gauge g_replay_seconds seconds

(* A live walk mutates shared context state (trace cache, result cache,
   server RNG); it must never run on a pool worker.  The figure scheduler
   keeps walk-observing figures serial — hitting this means a figure's
   stream declaration is wrong. *)
let live_execution run =
  if Telemetry.in_isolated () then
    failwith
      "Context: live execution requested from inside a parallel task; \
       this figure must be scheduled serially (it records or observes \
       the walk)";
  let result = Telemetry.span "context.live_execution" run in
  Telemetry.incr c_live_executions;
  result

let measure_raw t ?txns ?kernel_placement ?on_data ?app_sinks ?on_switch ~renders () =
  let txns = match txns with Some n -> n | None -> measured_txns t in
  let kernel_placement =
    match kernel_placement with Some p -> p | None -> t.kernel_base
  in
  (* Sinks observe the walk itself, not the rendered runs: their presence
     forces a live execution (replay has no block events to offer). *)
  let needs_walk = on_data <> None || app_sinks <> None || on_switch <> None in
  let kid = kernel_id t kernel_placement in
  let key_of p =
    match kid with
    | Some kernel when txns = measured_txns t -> (
        match combo_of_placement t p with
        | Some combo -> Some { combo; kernel; key_txns = txns }
        | None -> None)
    | _ -> None
  in
  (* Partition renders: cached streams replay, the rest run live (recording
     any stream that can be keyed for later reuse). *)
  let recording_keys = ref [] in
  let classified =
    List.map
      (fun (p, emit) ->
        match key_of p with
        | Some key -> (
            match List.assoc_opt key t.traces with
            | Some trace -> `Replay (trace, emit)
            | None ->
                if
                  List.mem key !recording_keys
                  || trace_cache_bytes t > max_trace_cache_bytes
                then `Live (p, emit)
                else begin
                  recording_keys := key :: !recording_keys;
                  `Record (key, p, emit)
                end)
        | None -> `Live (p, emit))
      renders
  in
  let replays =
    List.filter_map (function `Replay r -> Some r | _ -> None) classified
  in
  let live =
    List.filter_map (function `Replay _ -> None | c -> Some c) classified
  in
  let cached_result =
    match kid with
    | Some k -> List.assoc_opt (k, txns) t.results
    | None -> None
  in
  match (live, needs_walk, cached_result) with
  | [], false, Some result ->
      (* Every requested stream is cached: pure replay, no server walk. *)
      replay_into replays;
      result
  | _ ->
      let count_live emit (run : Run.t) =
        Telemetry.incr c_live_runs;
        Telemetry.add c_live_instrs run.Run.len;
        emit run
      in
      let recorded = ref [] in
      let render_specs =
        List.map
          (function
            | `Record (key, app_placement, emit) ->
                let capture, trace = Trace.record () in
                recorded := (key, trace) :: !recorded;
                {
                  Server.app_placement;
                  kernel_placement;
                  emit =
                    count_live (fun run ->
                        capture run;
                        emit run);
                }
            | `Live (app_placement, emit) ->
                { Server.app_placement; kernel_placement; emit = count_live emit }
            | `Replay _ -> assert false)
          live
      in
      let result =
        live_execution (fun () ->
            Server.run ~app:(Workload.app t.workload) ~kernel:(Workload.kernel t.workload)
              ~txns ~seed:1009 ~renders:render_specs ?on_data ?app_sinks ?on_switch
              ~timeline:true ())
      in
      List.iter
        (fun (key, trace) ->
          t.traces <- (key, trace) :: t.traces;
          Telemetry.incr c_recorded)
        !recorded;
      set_bytes_gauges t;
      (match kid with
      | Some k when not (List.mem_assoc (k, txns) t.results) ->
          t.results <- ((k, txns), result) :: t.results
      | _ -> ());
      replay_into replays;
      result

let measure t ?txns ?kernel_placement ?on_data ?app_sinks ?on_switch ~renders () =
  measure_raw t ?txns ?kernel_placement ?on_data ?app_sinks ?on_switch
    ~renders:(List.map (fun (combo, emit) -> (placement t combo, emit)) renders)
    ()

(* The block path of a scheduled execution never depends on placements,
   so one live walk serves every renderer and profiler of it: the drift
   observatory's windows and staleness rows, and the re-layout loop. *)
let scheduled_capture t schedule ~window =
  let key = (Schedule.signature schedule, window) in
  match List.assoc_opt key t.captures with
  | Some capture -> capture
  | None ->
      let capture = Windowed.create ~window (Profile.prog t.app_profile) in
      (* A mix-shift walk keeps the oltp.* timeline series quiet: they
         describe the unscheduled measurement stream. *)
      let (_ : Server.result) =
        live_execution (fun () ->
            Server.run ~app:(Workload.app t.workload) ~kernel:(Workload.kernel t.workload)
              ~txns:(measured_txns t) ~seed:1009 ~schedule
              ~app_sinks:[ Windowed.sink capture ]
              ~kernel_sinks:[ Windowed.kernel_sink capture ]
              ())
      in
      t.captures <- (key, capture) :: t.captures;
      capture

(* --- battery replay over the trace cache ------------------------------ *)

let base_key t combo = { combo; kernel = 0; key_txns = measured_txns t }

let traces_for t combos =
  let missing =
    List.filter (fun c -> not (List.mem_assoc (base_key t c) t.traces)) combos
  in
  (match missing with
  | [] -> ()
  | _ ->
      (* One capture-only walk records every missing stream (unless the
         byte cap refuses; callers then see [None] and fall back). *)
      ignore
        (measure t ~renders:(List.map (fun c -> (c, fun (_ : Run.t) -> ())) missing) ()));
  List.map (fun c -> List.assoc_opt (base_key t c) t.traces) combos

let replay_battery t ?pool ?keep ~combo battery =
  match List.assoc_opt (base_key t combo) t.traces with
  | None -> false
  | Some trace ->
      let (), seconds =
        Telemetry.timed "context.replay" (fun () ->
            Olayout_cachesim.Battery.access_trace ?pool ?keep battery trace;
            (* One logical stream consumed, however many shards replayed
               it: the deterministic counters must not depend on -j. *)
            Telemetry.incr c_replayed;
            Telemetry.add c_replayed_runs (Trace.length trace);
            Telemetry.add c_replayed_instrs (Trace.instrs trace))
      in
      Telemetry.add_gauge g_replay_seconds seconds;
      true

(* --- retention -------------------------------------------------------- *)

let resident_traces t =
  List.rev_map
    (fun (key, tr) ->
      ( (key.combo, (if key.kernel = 0 then `Base else `Optimized)),
        Trace.memory_bytes tr ))
    t.traces

let drop_traces t ?(kernel = `Base) combo =
  let k = match kernel with `Base -> 0 | `Optimized -> 1 in
  let drop, keep =
    List.partition (fun (key, _) -> key.combo = combo && key.kernel = k) t.traces
  in
  match drop with
  | [] -> 0
  | _ ->
      let freed =
        List.fold_left (fun acc (_, tr) -> acc + Trace.memory_bytes tr) 0 drop
      in
      t.traces <- keep;
      Telemetry.set_gauge g_trace_bytes (float_of_int (trace_cache_bytes t));
      freed
