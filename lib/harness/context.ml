module Placement = Olayout_core.Placement
module Profile = Olayout_profile.Profile
module Windowed = Olayout_profile.Windowed
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run
module Render = Olayout_exec.Render
module Trace = Olayout_exec.Trace
module Workload = Olayout_oltp.Workload
module Server = Olayout_oltp.Server
module Schedule = Olayout_oltp.Schedule
module Telemetry = Olayout_telemetry.Telemetry

type scale = Quick | Full

(* An execution's block path never depends on placements (see Server), so
   one recorded path serves every stream and observer of it.  The context
   walks each execution it is asked for once, at the measurement seed,
   keyed by its schedule (the signature; "" for the plain TPC-B mix),
   transaction count and capture window. *)
type execution_key = { schedule : string; txns : int; window : int }
type execution = { path : Windowed.t; result : Server.result }

(* A rendered stream is a deterministic function of the app placement, the
   shared kernel placement and the execution.  The streams of context-owned
   placements over the plain measurement execution are cached under that
   key and replayed for every later figure that asks for the same stream:
   decoding a recorded stream costs less than rendering it again. *)
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
  mutable executions : (execution_key * execution) list;
}

let train_txns = function Quick -> 150 | Full -> 2000
let measured_txns_of = function Quick -> 100 | Full -> 1000
let training_seed = 1
let measurement_seed = 1009

(* The plain measurement execution is captured as one window: nothing
   slices it. *)
let whole = max_int

(* Soft cap on resident trace memory: once exceeded, later streams render
   from the recorded path every time instead of being recorded. *)
let max_trace_cache_bytes = 1 lsl 30

let create ?(scale = Full) ?(seed = 7) ?(engine = `Stackdist) () =
  Telemetry.span "context.create" (fun () ->
      let workload = Workload.create ~seed () in
      let app_profile, kernel_profile =
        Telemetry.span "context.train" (fun () ->
            Workload.train workload ~txns:(train_txns scale) ~seed:training_seed ())
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
        executions = [];
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

let training_run t ~app_sinks =
  let w = t.workload in
  ignore
    (Server.run ~app:(Workload.app w) ~kernel:(Workload.kernel w) ~txns:(train_txns t.scale)
       ~seed:training_seed ~app_sinks ()
      : Server.result)

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

(* Context state (the execution memo and the trace cache) only changes on
   the dispatching domain: the figure scheduler keeps figures that walk an
   execution or record a stream serial, so hitting this means a figure's
   stream declaration is wrong. *)
let serial_only what =
  if Telemetry.in_isolated () then
    failwith
      (Printf.sprintf
         "Context: %s requested from inside a parallel task; this figure must \
          be scheduled serially"
         what)

(* The one live walk of an execution.  It renders nothing: it records the
   block path, the data references and the process switches, in the order
   the walk makes them, for every stream and observer to replay.  Only the
   plain measurement execution feeds the oltp.* timeline series. *)
let execution t ?schedule ~window ~txns () =
  let signature = match schedule with Some s -> Schedule.signature s | None -> "" in
  let key = { schedule = signature; txns; window } in
  match List.assoc_opt key t.executions with
  | Some e -> e
  | None ->
      serial_only "a live execution";
      let path = Windowed.create ~window (Profile.prog t.app_profile) in
      let w = t.workload in
      let result =
        Telemetry.span "context.live_execution" (fun () ->
            Server.run ~app:(Workload.app w) ~kernel:(Workload.kernel w) ~txns
              ~seed:measurement_seed ?schedule ~app_sinks:[ Windowed.sink path ]
              ~kernel_sinks:[ Windowed.kernel_sink path ] ~on_data:(Windowed.data_sink path)
              ~on_switch:(Windowed.switch_sink path) ~timeline:(Option.is_none schedule) ())
      in
      Telemetry.incr c_live_executions;
      let e = { path; result } in
      t.executions <- (key, e) :: t.executions;
      e

(* One sink for a list of sinks, called in list order. *)
let fan = function
  | [] -> None
  | [ s ] -> Some s
  | sinks ->
      let a = Array.of_list sinks in
      Some
        (fun ~proc ~block ~arm ->
          for i = 0 to Array.length a - 1 do
            a.(i) ~proc ~block ~arm
          done)

(* Render [streams] from the recorded path in one pass that also feeds the
   observers: every event reaches each stream's render sink and then the
   observers, in the order the live walk made those calls, so observers and
   runs interleave exactly as they do in the walk.  The pass is timed as
   [context.render], beside [context.replay] and [context.live_execution]. *)
let render e ~kernel_placement ?on_data ?(app_sinks = []) ?on_switch streams =
  Telemetry.span "context.render" (fun () ->
      let runs = ref 0 and instrs = ref 0 in
      let rendered =
        List.map
          (fun (app, emit) ->
            Render.stream ~app ~kernel:kernel_placement (fun (run : Run.t) ->
                incr runs;
                instrs := !instrs + run.Run.len;
                emit run))
          streams
      in
      let app = fan (List.map (fun (_, a, _) -> a) rendered @ app_sinks) in
      let kernel = fan (List.map (fun (_, _, k) -> k) rendered) in
      Windowed.replay e.path ~lo:0 ~hi:whole
        ~app:(Option.value app ~default:(fun ~proc:_ ~block:_ ~arm:_ -> ()))
        ?kernel ?data:on_data ?switch:on_switch ();
      List.iter (fun (m, _, _) -> Render.flush m) rendered;
      Telemetry.add c_live_runs !runs;
      Telemetry.add c_live_instrs !instrs)

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

let measure_raw t ?txns ?kernel_placement ?on_data ?app_sinks ?on_switch ~renders () =
  let txns = match txns with Some n -> n | None -> measured_txns t in
  let kernel_placement =
    match kernel_placement with Some p -> p | None -> t.kernel_base
  in
  let e = execution t ~window:whole ~txns () in
  let observed =
    Option.is_some on_data || Option.is_some app_sinks || Option.is_some on_switch
  in
  let key_of p =
    match (kernel_id t kernel_placement, combo_of_placement t p) with
    | Some kernel, Some combo when txns = measured_txns t ->
        Some { combo; kernel; key_txns = txns }
    | _ -> None
  in
  (* A cached stream replays, unless observers watch this call: their calls
     interleave with its runs only when it renders alongside them.  Every
     other stream renders from the recorded path, and is recorded on the
     way when it can be keyed and the cache has room. *)
  let replays = ref [] and rendered = ref [] and recorded = ref [] in
  List.iter
    (fun (p, emit) ->
      let key = key_of p in
      let cached = Option.bind key (fun k -> List.assoc_opt k t.traces) in
      match (cached, key) with
      | Some trace, _ when not observed -> replays := (trace, emit) :: !replays
      | None, Some k
        when (not (List.mem_assoc k !recorded))
             && trace_cache_bytes t <= max_trace_cache_bytes ->
          serial_only "a stream recording";
          let capture, trace = Trace.record () in
          recorded := (k, trace) :: !recorded;
          rendered :=
            ( p,
              fun run ->
                capture run;
                emit run )
            :: !rendered
      | _ -> rendered := (p, emit) :: !rendered)
    renders;
  if observed || !rendered <> [] then
    render e ~kernel_placement ?on_data ?app_sinks ?on_switch (List.rev !rendered);
  if !recorded <> [] then begin
    List.iter
      (fun (key, trace) ->
        t.traces <- (key, trace) :: t.traces;
        Telemetry.incr c_recorded)
      !recorded;
    set_bytes_gauges t
  end;
  replay_into (List.rev !replays);
  e.result

let measure t ?txns ?kernel_placement ?on_data ?app_sinks ?on_switch ~renders () =
  measure_raw t ?txns ?kernel_placement ?on_data ?app_sinks ?on_switch
    ~renders:(List.map (fun (combo, emit) -> (placement t combo, emit)) renders)
    ()

let scheduled_capture t schedule ~window =
  (execution t ~schedule ~window ~txns:(measured_txns t) ()).path

(* --- battery replay over the trace cache ------------------------------ *)

let base_key t combo = { combo; kernel = 0; key_txns = measured_txns t }

let traces_for t combos =
  let missing =
    List.filter (fun c -> not (List.mem_assoc (base_key t c) t.traces)) combos
  in
  (match missing with
  | [] -> ()
  | _ ->
      (* One pass over the recorded path renders and records every missing
         stream (unless the byte cap refuses; callers then see [None] and
         fall back). *)
      ignore
        (measure t ~renders:(List.map (fun c -> (c, fun (_ : Run.t) -> ())) missing) ()));
  List.map (fun c -> List.assoc_opt (base_key t c) t.traces) combos

let replay_battery t ?keep ~combo battery =
  match List.assoc_opt (base_key t combo) t.traces with
  | None -> false
  | Some trace ->
      let (), seconds =
        Telemetry.timed "context.replay" (fun () ->
            Olayout_cachesim.Battery.access_trace ?keep battery trace;
            Telemetry.incr c_replayed;
            Telemetry.add c_replayed_runs (Trace.length trace);
            Telemetry.add c_replayed_instrs (Trace.instrs trace))
      in
      Telemetry.add_gauge g_replay_seconds seconds;
      true

let feed_app_batteries t batteries =
  if List.for_all Option.is_some (traces_for t (List.map fst batteries)) then
    List.iter
      (fun (combo, b) -> ignore (replay_battery t ~keep:(fun r -> r.Run.owner = Run.App) ~combo b))
      batteries
  else
    (* The byte cap refused a recording: render every stream instead. *)
    let feed (combo, b) = (combo, app_only (Olayout_cachesim.Battery.access_run b)) in
    ignore (measure t ~renders:(List.map feed batteries) ())
