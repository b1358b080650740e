(* sweep: the six layouts' measurement streams, recorded in setup by one
   capture walk, replayed by the stack-distance engine through the paper's
   geometry grid (figs 4-7).  An op is one stream through the whole grid;
   the timed phase does nothing but trace decode and cache simulation. *)

open Common
module Context = Olayout_harness.Context
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run

let name = "sweep"
let sizes_kb = [ 32; 64; 128; 256; 512 ]

let grid =
  List.concat_map
    (fun size_kb ->
      List.map (fun line -> Icache.config ~size_kb ~line ~assoc:1 ()) [ 16; 32; 64; 128; 256 ]
      @ List.map (fun assoc -> Icache.config ~size_kb ~line:128 ~assoc ()) [ 2; 4; 8 ])
    sizes_kb

(* Seconds of --seconds per round (every stream once): the round count is
   sized from --seconds with it, so a given --seconds always does the same
   work.  A round takes 3-4 s on the reference machine; at --seconds 20 the
   8 rounds (48 ops) measure longer than asked, because with 30 ops the
   median moved 13% between the quartiles of ten runs. *)
let seconds_per_round = 2.5

type prepared = { ctx : Context.t; traces : (Spike.combo * Trace.t) list }

let setup pass =
  let ctx = context pass in
  List.iter
    (fun combo ->
      let p = span pass "core/scratch" (fun () -> Context.placement ctx combo) in
      match combo with
      | Spike.Porder | Spike.Chain_porder | Spike.All ->
          pass.stats.ph_segments <- pass.stats.ph_segments + List.length (Placement.segments p)
      | Spike.Base | Spike.Chain | Spike.Chain_split -> ())
    Spike.all_combos;
  let traces =
    span_attributing pass "context/traces_for" ~child:"oltp/live_execution"
      ~seconds:(program_span_seconds "context.live_execution") (fun () ->
        Context.traces_for ctx Spike.all_combos)
  in
  let traces =
    List.map2
      (fun combo t ->
        match t with
        | Some t -> (combo, t)
        | None -> failwith "sweep: the trace cache refused a stream")
      Spike.all_combos traces
  in
  (* The recording walk's result, served from the context's cache. *)
  count_execution pass (Context.measure ctx ~renders:[] ());
  let s = pass.stats in
  List.iter
    (fun (_, t) ->
      s.runs_recorded <- s.runs_recorded + Trace.length t;
      s.trace_bytes <- s.trace_bytes + Trace.memory_bytes t)
    traces;
  { ctx; traces }

type outcome = { replays : (int * Spike.combo * int) list  (* op, stream, headline misses *) }

let rounds ~seconds = max 4 (int_of_float (Float.round (float_of_int seconds /. seconds_per_round)))
let headline = (headline_config ()).Icache.name

(* The streams are the context's measurement streams, recorded at its own
   server seed and so the same at every benchmark seed; the seed decides
   the order they replay in within each round. *)
let shuffled ~seed round streams =
  let a = Array.of_list streams in
  let rng = Random.State.make [| seed; round |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let timed pass prep ~seed ~seconds =
  pass.stats.sim_configs <- List.length grid;
  let replays = ref [] in
  for round = 1 to rounds ~seconds do
    List.iter
      (fun (combo, _) ->
        probe ~times:4 pass;
        let i, misses =
          op pass (fun () ->
              let battery = Battery.create ~engine:`Stackdist grid in
              let replayed =
                span_attributing pass "context/replay_battery" ~child:"cachesim/access_trace"
                  ~seconds:(fun () ->
                    Olayout_telemetry.Telemetry.gauge_value
                      (Olayout_telemetry.Telemetry.gauge "context.replay_seconds"))
                  (fun () -> Context.replay_battery prep.ctx ~keep:app_run ~combo battery)
              in
              if not replayed then failwith "sweep: stream missing from the trace cache";
              Battery.misses battery headline)
        in
        replays := (i, combo, misses) :: !replays)
      (shuffled ~seed round prep.traces)
  done;
  { replays = List.rev !replays }

(* The cross-engine oracle: an Icache replay of the same stream. *)
let icache_replay trace =
  let cache = Icache.create (headline_config ()) in
  let instrs = ref 0 in
  Trace.replay trace (fun run ->
      if app_run run then begin
        instrs := !instrs + run.Run.len;
        Icache.access_run cache run
      end);
  (Icache.misses cache, !instrs)

let verify pass expected prep o ~seconds:_ =
  let oracle =
    List.map
      (fun (combo, trace) ->
        let misses, instrs = icache_replay trace in
        let key = Spike.combo_name combo in
        Printf.printf "# sweep %s stream: %d runs, %d app instructions, %d misses at %s\n" key
          (Trace.length trace) instrs misses headline;
        expect_int pass expected [ "sweep"; key; "runs" ] ~what:(key ^ " stream runs")
          (Trace.length trace);
        expect_int pass expected [ "sweep"; key; "app_instrs" ]
          ~what:(key ^ " stream app instructions") instrs;
        expect_int pass expected [ "sweep"; key; "misses" ] ~what:(key ^ " stream misses")
          misses;
        (combo, (misses, instrs)))
      prep.traces
  in
  List.iter
    (fun (i, combo, misses) ->
      let want, instrs = List.assoc combo oracle in
      pass.stats.sim_instrs <- pass.stats.sim_instrs + instrs;
      check pass ~op:i
        ~what:
          (Printf.sprintf "%s stream: stackdist %d misses at %s, icache %d"
             (Spike.combo_name combo) misses headline want)
        (misses = want))
    o.replays;
  List.assoc Spike.All oracle
