(* The traced pass: the benchmark's spans and the program's telemetry on,
   one set-up and one timed phase, then the per-layer metrics, the
   self-time table and the written trace. *)

open Common
module Json = Olayout_telemetry.Json
module Telemetry = Olayout_telemetry.Telemetry
module Spans = Perfbench.Spans
module Metric = Perfbench.Metric
module Pct = Perfbench.Pct

let capacity = 1 lsl 16
let coverage_floor = 0.95

type t = { pass : pass; metrics : Metric.t list }

let counter_delta c0 c1 name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get c1 - get c0

let pass_seconds s0 s1 name = span_seconds s1 name -. span_seconds s0 name

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let mb words = words *. fi (Sys.word_size / 8) /. 1e6

let run (module W : WORKLOAD) ~seed ~seconds ~out_dir ~untraced_wall_s ~untraced_speed ~untraced_ops
    expected =
  let spans = Spans.create capacity in
  let pass = new_pass spans in
  Spans.set_on spans true;
  Telemetry.set_enabled true;
  let c0 = Telemetry.counters () and s0 = Telemetry.span_stats () in
  let g0 = Gc.quick_stat () and a0 = Spans.allocated_words () in
  let prep = Spans.span spans "setup" (fun () -> W.setup pass) in
  settle ();
  let t0 = now () in
  let o = Spans.span spans "timed" (fun () -> W.timed pass prep ~seed ~seconds) in
  let wall_s = now () -. t0 -. pass.excluded_s in
  let c1 = Telemetry.counters () and s1 = Telemetry.span_stats () in
  let g1 = Gc.quick_stat () and a1 = Spans.allocated_words () in
  Telemetry.set_enabled false;
  ignore (Spans.span spans "verify" (fun () -> W.verify pass expected prep o ~seconds));
  Spans.set_on spans false;
  let selfs = Spans.self_times spans in
  let sum ?root pred field =
    List.fold_left
      (fun acc (s : Spans.self) ->
        if pred s.Spans.s_name && (root = None || root = Some s.Spans.s_root) then acc +. field s
        else acc)
      0. selfs
  in
  let secs s = s.Spans.s_seconds and words s = s.Spans.s_words in
  let count s = fi s.Spans.s_count in
  let is_layer l name = Spans.layer name = l in
  let named n name = name = n in
  let self_s l = sum (is_layer l) secs in
  let cd = counter_delta c0 c1 in
  let st = pass.stats in
  let oltp_s = self_s "oltp" and cachesim_s = self_s "cachesim" in
  let render_s = sum (named "exec/render") secs in
  let accesses = fi (cd "cachesim.stackdist.accesses") in
  let ph_s = pass_seconds s0 s1 "pettis_hansen" in
  let reused = fi (cd "relayout.procs_reused") and replaced = fi (cd "relayout.procs_replaced") in
  let skipped = fi (cd "relayout.passes_skipped") and run_ = fi (cd "relayout.passes_run") in
  let unattributed_s = sum ~root:"timed" (named "timed") secs in
  let tail_pct, tail_s = Option.value (Pct.tail untraced_ops) ~default:(0., 0.) in
  let metrics =
    [
      ("oltp.busy_s", "s", oltp_s);
      ("oltp.executions", "count", fi st.executions);
      ("oltp.txns", "count", fi st.txns);
      ("oltp.abort_ratio", "ratio", ratio (fi st.aborts) (fi st.txns));
      ("oltp.lock_waits", "count", fi st.lock_waits);
      ("oltp.minstr_per_s", "Minstr/s", ratio (fi st.oltp_instrs /. 1e6) oltp_s);
      ("oltp.alloc_mb", "MB", mb (sum (is_layer "oltp") words));
      ("profile.merge_s", "s", sum (named "profile/merge") secs);
      ("profile.merges", "count", sum (named "profile/merge") count);
      ("profile.train_s", "s", sum (named "profile/train") secs);
      ("core.scratch_s", "s", sum (named "core/scratch") secs);
      ("core.scratch_builds", "count", sum (named "core/scratch") count);
      ("core.update_s", "s", sum (named "core/update") secs);
      ("core.updates", "count", sum (named "core/update") count);
      ("core.procs_reused_ratio", "ratio", ratio reused (reused +. replaced));
      ("core.passes_skipped_ratio", "ratio", ratio skipped (skipped +. run_));
      ("core.pettis_hansen_s", "s", ph_s);
      ("core.placement_s", "s", pass_seconds s0 s1 "placement");
      ("core.chaining_s", "s", pass_seconds s0 s1 "chaining");
      ("core.splitting_s", "s", pass_seconds s0 s1 "splitting");
      ("core.pettis_hansen_us_per_segment", "us", ratio (ph_s *. 1e6) (fi st.ph_segments));
      ("core.alloc_mb", "MB", mb (sum (is_layer "core") words));
      ("exec.render_s", "s", render_s);
      ("exec.runs_rendered", "count", fi (cd "exec.runs_rendered"));
      ("exec.render_mruns_per_s", "Mruns/s", ratio (fi st.runs_rendered_in_spans /. 1e6) render_s);
      ("exec.runs_recorded", "count", fi st.runs_recorded);
      ("exec.trace_bytes", "B", fi st.trace_bytes);
      ("exec.bytes_per_run", "B", ratio (fi st.trace_bytes) (fi st.runs_recorded));
      ("cachesim.busy_s", "s", cachesim_s);
      ("cachesim.accesses", "count", accesses);
      ("cachesim.ns_per_access", "ns", ratio (cachesim_s *. 1e9) accesses);
      ("cachesim.walk_steps_per_access", "ratio", ratio (fi (cd "cachesim.stackdist.walk_steps")) accesses);
      ("cachesim.configs", "count", fi st.sim_configs);
      ("cachesim.minstr_per_s", "Minstr/s", ratio (fi st.sim_instrs /. 1e6) cachesim_s);
      ("context.trace_hits", "count", fi (cd "context.traces_replayed"));
      ("context.trace_misses", "count", fi (cd "context.traces_recorded"));
      ( "context.trace_bytes",
        "B",
        Telemetry.gauge_value (Telemetry.gauge "context.trace_cache_bytes") );
      ("gc.alloc_gb", "GB", (a1 -. a0) *. fi (Sys.word_size / 8) /. 1e9);
      ("gc.minor_collections", "count", fi (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("gc.major_collections", "count", fi (g1.Gc.major_collections - g0.Gc.major_collections));
      ("verify.checks", "count", fi pass.checks);
      ("verify.failed", "count", fi pass.check_failures);
      ("verify.s", "s", self_s "verify");
      ("unattributed_s", "s", unattributed_s);
      ("trace_overhead_s", "s", (wall_s *. speed_factor pass) -. untraced_wall_s);
      ("ops.count", "count", fi (Array.length untraced_ops));
      ("ops.tail_pct", "pct", tail_pct);
      ("ops.tail_ms", "ms", tail_s *. 1000. *. untraced_speed);
      ("machine.probe_ms", "ms", probe_ms_of_factor untraced_speed);
    ]
    |> List.map (fun (n, u, v) -> Metric.make n u v)
  in
  (* The self-time table: each layer's self seconds in set-up and in the
     timed phase, its share of wall_s, span count and self allocation. *)
  let off_clock = [ "verify"; "probe" ] in
  let layers =
    List.sort_uniq compare (List.map (fun (s : Spans.self) -> Spans.layer s.Spans.s_name) selfs)
    |> List.filter (fun l -> not (List.mem l off_clock))
  in
  let rows =
    List.map
      (fun l ->
        let in_root r = sum ~root:r (is_layer l) secs in
        (l, in_root "setup", in_root "timed", sum (is_layer l) count, mb (sum (is_layer l) words)))
      layers
    |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> Float.compare b a)
  in
  Printf.printf
    "# per-layer self time (%s, seed %d): raw wall_s %.3f traced (%.3f at the probe's nominal \
     speed, untraced %.3f)\n"
    W.name seed wall_s (wall_s *. speed_factor pass) untraced_wall_s;
  Printf.printf "# %-10s %10s %10s %8s %8s %10s\n" "layer" "setup_s" "timed_s" "share" "spans"
    "alloc_MB";
  List.iter
    (fun (l, su, ti, c, al) ->
      Printf.printf "# %-10s %10.3f %10.3f %7.1f%% %8.0f %10.1f\n" l su ti
        (100. *. ratio ti wall_s) c al)
    rows;
  Printf.printf "# off the clock: checks %.3f s, speed probes %.3f s\n" (self_s "verify")
    (self_s "probe");
  let coverage = 1. -. ratio unattributed_s wall_s in
  Printf.printf "# spans cover %.1f%% of wall_s (unattributed %.3f s)\n" (100. *. coverage)
    unattributed_s;
  if coverage < coverage_floor then
    Printf.printf "WARNING: spans cover %.1f%% of wall_s, under %.0f%%\n" (100. *. coverage)
      (100. *. coverage_floor);
  if Spans.dropped spans > 0 then
    Printf.printf "WARNING: %d spans dropped (capacity %d)\n" (Spans.dropped spans) capacity;
  let doc =
    Json.Object
      [
        ("system", Json.Object (List.map (fun (k, v) -> (k, Json.String v)) (Perfbench.Sysinfo.fields ())));
        ("workload", Json.String W.name);
        ("seed", Json.Int seed);
        ("seconds", Json.Int seconds);
        ("wall_s", Json.Float wall_s);
        ("untraced_wall_s", Json.Float untraced_wall_s);
        ("coverage", Json.Float coverage);
        ( "layers",
          Json.Array
            (List.map
               (fun (l, su, ti, c, al) ->
                 Json.Object
                   [
                     ("layer", Json.String l);
                     ("setup_s", Json.Float su);
                     ("timed_s", Json.Float ti);
                     ("share", Json.Float (ratio ti wall_s));
                     ("spans", Json.Int (int_of_float c));
                     ("alloc_mb", Json.Float al);
                   ])
               rows) );
        ("metrics", Metric.to_json metrics);
        ("spans", Spans.to_json spans);
      ]
  in
  (try if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755
   with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.json" W.name seed) in
  let oc = open_out path in
  Json.output oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "# trace written to %s\n" path;
  { pass; metrics }
