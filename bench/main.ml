(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (one experiment per figure; see DESIGN.md for the index).

   Usage:
     dune exec bench/main.exe                 # full reproduction (~minutes)
     dune exec bench/main.exe -- --quick      # reduced transaction counts
     dune exec bench/main.exe -- --only fig4,fig15
     dune exec bench/main.exe -- --trace-stats  # per-figure replay/live attribution
     dune exec bench/main.exe -- --bench-json   # write BENCH_<scale>.json summary
     dune exec bench/main.exe -- --diagnose     # write DIAG_<scale>.json miss diagnostics
     dune exec bench/main.exe -- --telemetry-out FILE  # JSONL span/counter events
     dune exec bench/main.exe -- --telemetry-summary   # span/counter console dump
     dune exec bench/main.exe -- --baseline FILE       # diff against a saved artifact
     dune exec bench/main.exe -- --baseline FILE --gate  # exit non-zero on drift
     dune exec bench/main.exe -- --chrome-trace FILE   # Perfetto-loadable trace
     dune exec bench/main.exe -- -j 4                  # parallel figure schedule
     dune exec bench/main.exe -- --retain-mb 256       # bound trace-cache residency
     dune exec bench/main.exe -- --engine icache       # per-config caches for the sweeps
     dune exec bench/main.exe -- --timeline-out FILE   # windowed metric series artifact
     dune exec bench/main.exe -- --timeline-window N   # override the window width (instrs)
     dune exec bench/main.exe -- --explain-out FILE    # per-procedure layout scorecards
     dune exec bench/main.exe -- --drift-out FILE      # workload-drift observatory artifact
     dune exec bench/main.exe -- --relayout-out FILE   # closed-loop re-layout cadence sweep *)

module Context = Olayout_harness.Context
module Report = Olayout_harness.Report
module Spike = Olayout_core.Spike
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Bench_artifact = Olayout_telemetry.Bench_artifact
module Timeline = Olayout_telemetry.Timeline
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff
module Fidelity = Olayout_regress.Fidelity
module Chrome_trace = Olayout_regress.Chrome_trace
module Pool = Olayout_par.Pool

type options = {
  quick : bool;
  only : string list option;
  trace_stats : bool;
  telemetry_out : string option;
  bench_json : bool;
  diagnose : bool;
  telemetry_summary : bool;
  baseline : string option;
  gate : bool;
  tolerance : float option;
  compare_out : string option;
  chrome_trace : string option;
  jobs : int option;  (* None = serial; Some 0 = auto (recommended count) *)
  retain_mb : int option;
  bench_json_out : string option;
  engine : Olayout_cachesim.Battery.engine;
  timeline_out : string option;
  timeline_window : int option;
  explain_out : string option;
  drift_out : string option;
  relayout_out : string option;
}

let flag_summary =
  "--quick, --trace-stats, --bench-json, --diagnose, \
   --telemetry-summary, --only IDS, --telemetry-out FILE, --baseline FILE, \
   --gate, --tolerance FRACTION, --compare-out FILE, --chrome-trace FILE, \
   -j/--jobs N|auto, --retain-mb MB, --bench-json-out FILE, \
   --engine icache|stackdist, --timeline-out FILE, --timeline-window N, \
   --explain-out FILE, --drift-out FILE, --relayout-out FILE"

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2)
    fmt

let parse_args () =
  let quick = ref false and only = ref None in
  let trace_stats = ref false in
  let telemetry_out = ref None in
  let bench_json = ref false and telemetry_summary = ref false in
  let diagnose = ref false in
  let baseline = ref None and gate = ref false in
  let tolerance = ref None and compare_out = ref None in
  let chrome_trace = ref None in
  let jobs = ref None and retain_mb = ref None and bench_json_out = ref None in
  let engine = ref `Stackdist in
  let timeline_out = ref None and timeline_window = ref None in
  let explain_out = ref None and drift_out = ref None in
  let relayout_out = ref None in
  let missing opt expected =
    usage_error "option %s requires an argument: %s" opt expected
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--trace-stats" :: rest ->
        trace_stats := true;
        go rest
    | "--bench-json" :: rest ->
        bench_json := true;
        go rest
    | "--diagnose" :: rest ->
        diagnose := true;
        go rest
    | "--telemetry-summary" :: rest ->
        telemetry_summary := true;
        go rest
    | "--gate" :: rest ->
        gate := true;
        go rest
    | [ "--only" ] ->
        missing "--only"
          (Printf.sprintf "a comma-separated subset of %s"
             (String.concat ", " Report.experiment_ids))
    | [ "--telemetry-out" ] -> missing "--telemetry-out" "a JSONL output path"
    | [ "--baseline" ] ->
        missing "--baseline" "a saved olayout-bench/v1 artifact to diff against"
    | [ "--tolerance" ] ->
        missing "--tolerance" "a relative fraction, e.g. 0.25 for +/-25%"
    | [ "--compare-out" ] -> missing "--compare-out" "a JSON output path"
    | [ "--chrome-trace" ] ->
        missing "--chrome-trace" "a trace-event JSON output path"
    | [ "-j" ] | [ "--jobs" ] ->
        missing "-j/--jobs" "a positive domain count, or \"auto\""
    | [ "--retain-mb" ] ->
        missing "--retain-mb" "a trace-cache residency bound in MiB"
    | [ "--bench-json-out" ] ->
        missing "--bench-json-out" "a JSON output path (implies --bench-json)"
    | [ "--engine" ] -> missing "--engine" "\"icache\" or \"stackdist\""
    | [ "--timeline-out" ] -> missing "--timeline-out" "a JSON output path"
    | [ "--timeline-window" ] ->
        missing "--timeline-window" "a positive window width in instructions"
    | [ "--explain-out" ] -> missing "--explain-out" "a JSON output path"
    | [ "--drift-out" ] -> missing "--drift-out" "a JSON output path"
    | [ "--relayout-out" ] -> missing "--relayout-out" "a JSON output path"
    | "--relayout-out" :: path :: rest ->
        relayout_out := Some path;
        go rest
    | "--explain-out" :: path :: rest ->
        explain_out := Some path;
        go rest
    | "--drift-out" :: path :: rest ->
        drift_out := Some path;
        go rest
    | "--timeline-out" :: path :: rest ->
        timeline_out := Some path;
        go rest
    | "--timeline-window" :: n :: rest ->
        (match int_of_string_opt n with
        | Some w when w >= 1 -> timeline_window := Some w
        | Some _ | None ->
            usage_error
              "--timeline-window expects a positive instruction count, got %S" n);
        go rest
    | "--engine" :: name :: rest ->
        (match name with
        | "icache" -> engine := `Icache
        | "stackdist" -> engine := `Stackdist
        | _ ->
            usage_error "--engine expects \"icache\" or \"stackdist\", got %S" name);
        go rest
    | "--only" :: ids :: rest ->
        only := Some (String.split_on_char ',' ids);
        go rest
    | "--telemetry-out" :: path :: rest ->
        telemetry_out := Some path;
        go rest
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        go rest
    | "--tolerance" :: frac :: rest ->
        (match float_of_string_opt frac with
        | Some f when f >= 0.0 -> tolerance := Some f
        | Some _ | None ->
            usage_error
              "--tolerance expects a non-negative fraction (e.g. 0.25 for \
               +/-25%%), got %S"
              frac);
        go rest
    | "--compare-out" :: path :: rest ->
        compare_out := Some path;
        go rest
    | "--chrome-trace" :: path :: rest ->
        chrome_trace := Some path;
        go rest
    | ("-j" | "--jobs") :: n :: rest ->
        (match n with
        | "auto" -> jobs := Some 0
        | _ -> (
            match int_of_string_opt n with
            | Some j when j >= 1 -> jobs := Some j
            | Some _ | None ->
                usage_error
                  "-j/--jobs expects a positive domain count or \"auto\", got %S"
                  n));
        go rest
    | "--retain-mb" :: mb :: rest ->
        (match int_of_string_opt mb with
        | Some m when m >= 0 -> retain_mb := Some m
        | Some _ | None ->
            usage_error "--retain-mb expects a non-negative MiB count, got %S" mb);
        go rest
    | "--bench-json-out" :: path :: rest ->
        bench_json_out := Some path;
        go rest
    | arg :: _ ->
        usage_error "unknown argument %s (accepted: %s)" arg flag_summary
  in
  go (List.tl (Array.to_list Sys.argv));
  if !gate && !baseline = None then
    usage_error "--gate needs --baseline FILE: there is nothing to gate against";
  if !tolerance <> None && !baseline = None then
    usage_error "--tolerance only applies to a --baseline FILE comparison";
  if !timeline_window <> None && !timeline_out = None then
    usage_error "--timeline-window only applies with --timeline-out FILE";
  {
    quick = !quick;
    only = !only;
    trace_stats = !trace_stats;
    telemetry_out = !telemetry_out;
    bench_json = !bench_json;
    diagnose = !diagnose;
    telemetry_summary = !telemetry_summary;
    baseline = !baseline;
    gate = !gate;
    tolerance = !tolerance;
    compare_out = !compare_out;
    chrome_trace = !chrome_trace;
    jobs = !jobs;
    retain_mb = !retain_mb;
    bench_json_out = !bench_json_out;
    engine = !engine;
    timeline_out = !timeline_out;
    timeline_window = !timeline_window;
    explain_out = !explain_out;
    drift_out = !drift_out;
    relayout_out = !relayout_out;
  }

(* The --chrome-trace export converts the telemetry JSONL stream; when the
   user did not ask to keep that stream, route it through a temp file. *)
let telemetry_sink opts =
  match (opts.telemetry_out, opts.chrome_trace) with
  | (Some _ as out), _ -> (out, false)
  | None, Some _ -> (Some (Filename.temp_file "olayout_telemetry" ".jsonl"), true)
  | None, None -> (None, false)

let () =
  let opts = parse_args () in
  let jsonl_path, jsonl_is_temp = telemetry_sink opts in
  Option.iter Telemetry.open_jsonl_file jsonl_path;
  if jsonl_path <> None then begin
    (* Counter tracks for the Chrome trace: cumulative simulated i-cache
       misses (both engines) and the trace-cache footprint, sampled at
       span completion. *)
    Telemetry.watch_counter (Telemetry.counter "cachesim.icache_misses");
    Telemetry.watch_counter (Telemetry.counter "cachesim.stackdist.misses");
    Telemetry.watch_gauge (Telemetry.gauge "context.trace_cache_bytes")
  end;
  let scale = if opts.quick then Context.Quick else Context.Full in
  let scale_name = if opts.quick then "quick" else "full" in
  (* Timeline instrumentation is decided before any producer is built: the
     simulators capture their series handles at construction, so flipping
     the flag later would be a no-op. *)
  if opts.timeline_out <> None then begin
    Timeline.set_enabled true;
    Timeline.set_window
      (match opts.timeline_window with
      | Some w -> w
      | None -> if opts.quick then 65_536 else 524_288)
  end;
  Format.printf
    "olayout bench: reproducing Ramirez et al., ISCA 2001 (%s scale, %s sweep engine)@."
    scale_name
    (Olayout_cachesim.Battery.engine_name opts.engine);
  let pool =
    match opts.jobs with
    | None | Some 1 -> None
    | Some 0 -> Some (Pool.create ())
    | Some j -> Some (Pool.create ~jobs:j ())
  in
  Option.iter
    (fun p -> Format.printf "parallel schedule: %d domains@." (Pool.jobs p))
    pool;
  let (ctx, figures), total_seconds =
    Fun.protect
      ~finally:(fun () -> Option.iter Pool.shutdown pool)
      (fun () ->
        Telemetry.timed "bench.total" (fun () ->
            let ctx, setup_seconds =
              Telemetry.timed "bench.setup" (fun () ->
                  Context.create ~scale ~engine:opts.engine ())
            in
            Format.printf "workload built and profiled in %.1fs@." setup_seconds;
            let selection =
              match opts.only with None -> Report.All | Some ids -> Report.Only ids
            in
            let figures =
              try
                Report.run ~selection ~trace_stats:opts.trace_stats ?pool
                  ?retain_mb:opts.retain_mb ctx Format.std_formatter
              with Invalid_argument msg ->
                (* Report's message names the invalid id and lists the valid
                   ones. *)
                Printf.eprintf "bench: --only: %s\n" msg;
                exit 2
            in
            (ctx, figures)))
  in
  Format.printf "@.bench total: %.1fs@." total_seconds;
  (* Resource headlines next to the total: peak trace-cache residency and
     the schedule's speedup estimate (serial-estimate / wall; 1.00 for a
     serial run by construction). *)
  let peak = Telemetry.gauge_value (Telemetry.gauge "context.trace_peak_bytes") in
  Format.printf "trace cache peak: %.1f MiB; parallel speedup: %.2fx@."
    (peak /. (1024.0 *. 1024.0))
    (Telemetry.gauge_value (Telemetry.gauge "par.speedup"));
  (* Score the paper's claims before any artifact snapshot, so the
     fidelity.* gauges land in BENCH_<scale>.json as gated metrics. *)
  let fidelity = Fidelity.of_registry () in
  Fidelity.publish_gauges fidelity;
  Format.printf "%a" Fidelity.pp fidelity;
  let artifact_path = ref None in
  if opts.bench_json || opts.bench_json_out <> None || opts.baseline <> None
  then begin
    let stats = Context.trace_stats ctx in
    let figures =
      List.map
        (fun (f : Report.figure_stat) ->
          {
            Bench_artifact.id = f.fig_id;
            desc = f.fig_desc;
            seconds = f.fig_seconds;
            runs_live = f.fig_live_runs;
            runs_replayed = f.fig_replayed_runs;
            instrs_live = f.fig_live_instrs;
            instrs_replayed = f.fig_replayed_instrs;
            live_executions = f.fig_live_executions;
            traces_replayed = f.fig_replayed_traces;
          })
        figures
    in
    let path =
      match opts.bench_json_out with
      | Some p -> p
      | None -> Bench_artifact.default_path ~scale:scale_name
    in
    Bench_artifact.write ~path ~scale:scale_name ~total_seconds
      ~trace_cache_bytes:stats.Context.trace_bytes ~figures;
    artifact_path := Some path;
    Format.printf "bench artifact written to %s@." path
  end;
  (* The TIMELINE artifact snapshots before --diagnose runs: the diagnose
     pass replays more of the stream, and only one CI leg diagnoses — the
     cross-leg byte-identity check needs every leg to freeze the series at
     the same point. *)
  Option.iter
    (fun path ->
      Format.printf "%a" Timeline.pp_summary ();
      Timeline.write_artifact ~path ~scale:scale_name;
      Format.printf "timeline artifact written to %s@." path)
    opts.timeline_out;
  (* The EXPLAIN artifact freezes at the same point on every CI leg (after
     the TIMELINE snapshot, before the main leg's extra --diagnose replay):
     the provenance capture re-runs the pure layout pipeline and the
     scorecard measurement replays cached streams through the icache-backed
     Diag, so the bytes match across -j values and sweep engines. *)
  Option.iter
    (fun path ->
      let module Explain = Olayout_harness.Explain in
      let module Diagnose = Olayout_harness.Diagnose in
      let r = Explain.run ctx (Diagnose.preset_of_figure "fig4") in
      List.iter
        (fun tbl -> Olayout_harness.Table.print Format.std_formatter tbl)
        (Explain.tables ~top:10 r);
      Explain.write_artifact ~path ~scale:scale_name r;
      Format.printf "explain artifact written to %s@." path)
    opts.explain_out;
  (* The DRIFT artifact: reuse the report's drift-experiment result when it
     ran (the default selection includes it), otherwise run the two-pass
     driver now.  Emitted before --diagnose for the same cross-leg freeze
     reason as TIMELINE/EXPLAIN. *)
  Option.iter
    (fun path ->
      let module Drift = Olayout_harness.Drift in
      let module Diagnose = Olayout_harness.Diagnose in
      let r =
        match Drift.last () with
        | Some r -> r
        | None -> Drift.run ctx (Diagnose.preset_of_figure "fig4")
      in
      Drift.write_artifact ~path ~scale:scale_name r;
      Format.printf "drift artifact written to %s@." path)
    opts.drift_out;
  (* The RELAYOUT artifact: reuse the report's relayout-experiment result
     when it ran, otherwise run the cadence sweep now.  Emitted before
     --diagnose for the same cross-leg freeze reason. *)
  Option.iter
    (fun path ->
      let module Relayout = Olayout_harness.Relayout in
      let module Diagnose = Olayout_harness.Diagnose in
      let r =
        match Relayout.last () with
        | Some r -> r
        | None -> Relayout.run ctx (Diagnose.preset_of_figure "fig4")
      in
      Relayout.write_artifact ~path ~scale:scale_name r;
      Format.printf "relayout artifact written to %s@." path)
    opts.relayout_out;
  if opts.diagnose then begin
    (* The DIAG artifact: diagnose the baseline layout at the headline
       geometry.  The icache-miss counter delta around the measurement is
       recorded so CI can assert classification totals equal the run's
       simulated misses (the diagnosed cache is the only icache fed). *)
    let module Diagnose = Olayout_harness.Diagnose in
    let preset = Diagnose.preset_of_figure "fig4" in
    let combo = Spike.Base in
    let c_misses = Telemetry.counter "cachesim.icache_misses" in
    let before = Telemetry.value c_misses in
    let d = Diagnose.run ~combo ctx preset in
    let delta = Telemetry.value c_misses - before in
    List.iter
      (fun tbl -> Olayout_harness.Table.print Format.std_formatter tbl)
      (Diagnose.tables ~top:10 ~combo preset d);
    let path = Diagnose.default_path ~scale:scale_name in
    Diagnose.write_artifact ~path ~scale:scale_name ~combo ~preset
      ~icache_misses_delta:delta d;
    Format.printf "diagnostics artifact written to %s@." path
  end;
  if opts.telemetry_summary then Telemetry.pp_summary Format.std_formatter ();
  Telemetry.close_jsonl ();
  Option.iter
    (fun dst ->
      let src = Option.get jsonl_path in
      (try Chrome_trace.convert ~src ~dst
       with Chrome_trace.Convert_error msg ->
         Printf.eprintf "bench: --chrome-trace: %s\n" msg;
         exit 2);
      if jsonl_is_temp then Sys.remove src;
      Format.printf "chrome trace written to %s (load in Perfetto)@." dst)
    opts.chrome_trace;
  (* The baseline diff runs last so every artifact is on disk even when the
     gate trips.  Both sides load from disk: the fresh run's metrics go
     through the same writer precision as the baseline's. *)
  Option.iter
    (fun baseline_path ->
      let result =
        try
          let old_art = Artifact.load_file baseline_path in
          let new_art = Artifact.load_file (Option.get !artifact_path) in
          Ok
            (Diff.compare_artifacts ?tolerance:opts.tolerance ~old_art ~new_art
               ())
        with Artifact.Load_error msg -> Error msg
      in
      match result with
      | Error msg ->
          Printf.eprintf "bench: --baseline: %s\n" msg;
          exit 2
      | Ok d ->
          Format.printf "%a" Diff.pp d;
          let failures = Diff.gate_failures d in
          let gate_failed = opts.gate && failures <> [] in
          let compare_path =
            match opts.compare_out with
            | Some p -> p
            | None -> Printf.sprintf "COMPARE_%s.json" scale_name
          in
          let oc = open_out compare_path in
          Json.output oc (Diff.to_json ~fidelity ~gated:opts.gate ~gate_failed d);
          output_char oc '\n';
          close_out oc;
          Format.printf "compare artifact written to %s@." compare_path;
          if gate_failed then begin
            List.iter
              (fun (e : Diff.entry) ->
                Printf.eprintf "bench: gate: deterministic drift in %s (%s -> %s)\n"
                  e.Diff.e_path
                  (match e.Diff.e_old with
                  | Some v -> Printf.sprintf "%.12g" v
                  | None -> "absent")
                  (match e.Diff.e_new with
                  | Some v -> Printf.sprintf "%.12g" v
                  | None -> "absent"))
              failures;
            Printf.eprintf
              "bench: gate failed: %d deterministic metric(s) drifted from %s\n"
              (List.length failures) baseline_path;
            exit 1
          end)
    opts.baseline
