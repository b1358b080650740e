(* Tests for the windowed instruction-clock timeline: series window
   arithmetic and edge cases, Delta/Sample semantics, the disabled fast
   path, a battery fed inside a pool task (-j4 = -j1), cross-engine
   equality (icache = stackdist), a replay's window cut against booking
   run by run, the designation check and the replay's spans, the
   olayout-timeline/v1 artifact, and the sampler's windowed view.

   The timeline registry is process-global, like the telemetry registry:
   every test that enables the subsystem restores the disabled default
   (and the default window) on the way out, so the other suites keep
   running with the zero-overhead path. *)

module Timeline = Olayout_telemetry.Timeline
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run
module Pool = Olayout_par.Pool
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff
module Sampler = Olayout_profile.Sampler

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* Enable the subsystem with a given window for the duration of [f];
   restore the disabled default and stock window afterwards. *)
let with_timeline ~window f =
  Timeline.set_enabled true;
  Timeline.set_window window;
  Fun.protect
    ~finally:(fun () ->
      Timeline.set_enabled false;
      Timeline.set_window 65536)
    f

(* --- bare series ------------------------------------------------------- *)

let test_series_windows () =
  let s = Timeline.Series.create ~window:100 () in
  Alcotest.(check int) "no windows before first write" 0 (Timeline.Series.windows s);
  Timeline.Series.add s ~pos:0 5;
  Timeline.Series.add s ~pos:99 7;
  (* last position of window 0 *)
  Timeline.Series.add s ~pos:100 3;
  (* first position of window 1 *)
  Timeline.Series.add s ~pos:250 2;
  Alcotest.(check int) "highest index + 1" 3 (Timeline.Series.windows s);
  Alcotest.(check (array int)) "boundary attribution" [| 12; 3; 2 |]
    (Timeline.Series.values s);
  Alcotest.(check int) "total sums every delta" 17 (Timeline.Series.total s);
  (* A zero delta must not extend the series: window counts would then
     depend on which engine polls (and finds nothing) where. *)
  Timeline.Series.add s ~pos:10_000 0;
  Alcotest.(check int) "zero delta is a no-op" 3 (Timeline.Series.windows s);
  (* Negative positions clamp into the first window. *)
  Timeline.Series.add s ~pos:(-5) 1;
  Alcotest.(check int) "negative pos clamps" 13 (Timeline.Series.values s).(0);
  Alcotest.(check bool) "window < 1 rejected" true
    (raises (fun () -> Timeline.Series.create ~window:0 ()))

let test_series_sample () =
  let s = Timeline.Series.create ~kind:Timeline.Sample ~window:10 () in
  Timeline.Series.sample s ~pos:5 4;
  Timeline.Series.sample s ~pos:35 9;
  (* Export carries the last snapshot through the unwritten gap. *)
  Alcotest.(check (array int)) "carry-forward" [| 4; 4; 4; 9 |]
    (Timeline.Series.values s);
  Timeline.Series.sample s ~pos:36 2;
  Timeline.Series.sample s ~pos:38 6;
  Alcotest.(check int) "last write wins within a window" 6
    (Timeline.Series.values s).(3);
  Alcotest.(check int) "samples do not sum into total" 0 (Timeline.Series.total s)

(* --- registry + disabled fast path ------------------------------------- *)

let test_registry () =
  let a = Timeline.series "tst.timeline.reg" in
  let b = Timeline.series ~kind:Timeline.Sample "tst.timeline.reg" in
  Alcotest.(check string) "name kept" "tst.timeline.reg" (Timeline.series_name a);
  Alcotest.(check bool) "kind fixed by first registration" true
    (Timeline.series_kind b = Timeline.Delta);
  (* Disabled (the ambient state in this suite): writes vanish. *)
  Timeline.add a ~pos:0 7;
  let row =
    List.find (fun d -> d.Timeline.d_name = "tst.timeline.reg") (Timeline.dump ())
  in
  Alcotest.(check int) "disabled write dropped" 0 (Array.length row.Timeline.d_values);
  with_timeline ~window:50 (fun () ->
      Timeline.add a ~pos:0 7;
      Timeline.add a ~pos:120 1;
      let row =
        List.find (fun d -> d.Timeline.d_name = "tst.timeline.reg") (Timeline.dump ())
      in
      Alcotest.(check (array int)) "enabled write lands" [| 7; 0; 1 |]
        row.Timeline.d_values)

(* --- determinism: -j1 = -j4, icache = stackdist ------------------------ *)

(* A deterministic synthetic fetch trace with a few hot regions, enough
   spread for real misses under every engine, and length >> the test
   window so many windows fill.  Runs are [shortest] to 24 instructions
   long. *)
let synthetic_trace ?(seed = 987654321) ?(shortest = 1) n =
  let emit, t = Trace.record () in
  let state = ref seed in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  for _ = 1 to n do
    let owner = if rand 4 = 0 then Run.Kernel else Run.App in
    let addr = (rand 3 * 0x20000) + (rand 1024 * 4) in
    let len = shortest + rand (25 - shortest) in
    emit { Run.owner; addr; len }
  done;
  t

let designated = Icache.config ~size_kb:8 ~line:64 ~assoc:2 ()

let configs =
  [
    Icache.config ~size_kb:4 ~line:64 ~assoc:1 ();
    designated;
    Icache.config ~size_kb:16 ~line:64 ~assoc:4 ();
  ]

(* Replay [trace] through a battery designating [prefix] for the
   timeline. *)
let feed_battery ~engine ~prefix trace =
  let b =
    Battery.create ~engine ~timeline:(designated.Icache.name, prefix) configs
  in
  Battery.access_trace b trace

(* [prefix]'s (misses, accesses) window arrays. *)
let series prefix =
  let values leaf =
    let name = Printf.sprintf "cachesim.%s.%s" prefix leaf in
    match List.find_opt (fun d -> d.Timeline.d_name = name) (Timeline.dump ()) with
    | Some d -> d.Timeline.d_values
    | None -> Alcotest.failf "series %s not registered" name
  in
  (values "misses", values "accesses")

let run_battery ~engine ~prefix trace =
  feed_battery ~engine ~prefix trace;
  series prefix

(* fig4's timeline batteries at -j 2: created and fed inside a pool task,
   their series merged when the task is awaited. *)
let test_parallel_determinism () =
  let trace = synthetic_trace 60_000 in
  with_timeline ~window:4096 (fun () ->
      let serial = run_battery ~engine:`Stackdist ~prefix:"tst_j1" trace in
      Timeline.set_window 4096;
      (* clears between legs *)
      let p = Pool.create ~jobs:4 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () ->
          Pool.await
            (Pool.submit p (fun () -> feed_battery ~engine:`Stackdist ~prefix:"tst_j4" trace)));
      Alcotest.(check (pair (array int) (array int)))
        "-j4 series = serial series" serial (series "tst_j4"))

let test_cross_engine () =
  let trace = synthetic_trace 60_000 in
  with_timeline ~window:4096 (fun () ->
      let stack = run_battery ~engine:`Stackdist ~prefix:"tst_sd" trace in
      Timeline.set_window 4096;
      let icache = run_battery ~engine:`Icache ~prefix:"tst_ic" trace in
      Alcotest.(check (pair (array int) (array int)))
        "icache series = stackdist series" stack icache;
      let misses, _ = icache in
      Alcotest.(check bool) "the workload actually misses" true
        (Array.fold_left ( + ) 0 misses > 0);
      Alcotest.(check bool) "several windows fill" true (Array.length misses > 3))

(* The window cut's oracle: a designated battery's replay books exactly
   the series and miss counts of the same kept runs fed one at a time
   through [access_run], under both engines, with and without [keep], at a
   window narrower than a decoded block's instructions and at one wider
   (a block is 1,024 runs of 12 instructions on average here).  Runs of
   no instructions are included. *)
let qcheck_window_cut =
  let app (r : Run.t) = r.owner = Run.App in
  QCheck.Test.make ~name:"replayed series = series booked run by run" ~count:12
    QCheck.(quad small_nat (int_range 1 5000) (int_range 1 3000) (int_range 20_000 1_000_000))
    (fun (seed, n, narrow, wide) ->
      let trace = synthetic_trace ~seed:(seed + 1) ~shortest:0 n in
      with_timeline ~window:narrow (fun () ->
          List.for_all
            (fun window ->
              Timeline.set_window window;
              List.for_all
                (fun (engine, keep) ->
                  let prefix side =
                    Printf.sprintf "tst_cut_%s_%s_%s" (Battery.engine_name engine)
                      (if keep = None then "all" else "app")
                      side
                  in
                  let battery side =
                    Battery.create ~engine ~timeline:(designated.Icache.name, prefix side) configs
                  in
                  let replayed = battery "replayed" and per_run = battery "per_run" in
                  Battery.access_trace ?keep replayed trace;
                  let kept = Option.value keep ~default:(fun _ -> true) in
                  Trace.replay trace (fun r -> if kept r then Battery.access_run per_run r);
                  series (prefix "replayed") = series (prefix "per_run")
                  && Battery.misses_by_config replayed = Battery.misses_by_config per_run)
                [
                  (`Icache, None); (`Icache, Some app); (`Stackdist, None); (`Stackdist, Some app);
                ])
            [ narrow; wide ]))

(* A designation names a configuration of the battery whether or not
   timelines are on: a misspelt name raises before any series is
   registered. *)
let test_unknown_designation () =
  let check state =
    List.iter
      (fun engine ->
        Alcotest.(check bool)
          (Printf.sprintf "%s, timelines %s" (Battery.engine_name engine) state)
          true
          (raises (fun () ->
               ignore (Battery.create ~engine ~timeline:("nope", "tst_misspelt") configs))))
      [ `Icache; `Stackdist ]
  in
  check "off";
  with_timeline ~window:4096 (fun () -> check "on");
  Alcotest.(check bool) "no series registered" false
    (List.exists
       (fun d -> String.starts_with ~prefix:"cachesim.tst_misspelt." d.Timeline.d_name)
       (Timeline.dump ()))

(* With spans on, a designated battery's replay books its decoding and
   its feeding once each under the current span, and nothing else, under
   both engines. *)
let test_replay_spans () =
  let trace = synthetic_trace 5000 in
  let spans = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled spans)
    (fun () ->
      with_timeline ~window:4096 (fun () ->
          List.iter
            (fun engine ->
              let outer = "tst_replay_" ^ Battery.engine_name engine in
              Telemetry.span outer (fun () ->
                  feed_battery ~engine ~prefix:("tst_sp_" ^ Battery.engine_name engine) trace);
              Alcotest.(check (list (pair string int)))
                (outer ^ " children")
                [ (outer ^ "/cachesim.feed", 1); (outer ^ "/trace.decode", 1) ]
                (List.filter_map
                   (fun (s : Telemetry.span_stat) ->
                     if String.starts_with ~prefix:(outer ^ "/") s.span_path then
                       Some (s.span_path, s.span_count)
                     else None)
                   (Telemetry.span_stats ())))
            [ `Icache; `Stackdist ]))

(* --- artifact + JSONL shape -------------------------------------------- *)

let test_artifact () =
  with_timeline ~window:1000 (fun () ->
      let s = Timeline.series "tst.timeline.artifact" in
      Timeline.add s ~pos:0 3;
      Timeline.add s ~pos:2500 4;
      let path = Filename.temp_file "olayout_timeline" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Json.write_file path (Timeline.to_json ~scale:"quick");
          let art = Artifact.load_file path in
          Alcotest.(check string) "schema" "olayout-timeline/v1" art.Artifact.schema;
          Alcotest.(check string) "scale" "quick" art.Artifact.scale;
          Alcotest.(check (option (float 0.0)))
            "window width flattens" (Some 1000.0)
            (Artifact.metric art "window_instrs");
          Alcotest.(check (option (float 0.0)))
            "series flatten under their name" (Some 7.0)
            (Artifact.metric art "series.tst.timeline.artifact.total");
          (* The whole document must gate deterministically. *)
          List.iter
            (fun (p, _) ->
              Alcotest.(check bool)
                (p ^ " classified deterministic") true
                (Diff.classify p = Diff.Deterministic))
            art.Artifact.metrics);
      (* Byte-identity rests on the document carrying no timestamp. *)
      let fields =
        match Timeline.to_json ~scale:"quick" with
        | Json.Object fs -> List.map fst fs
        | _ -> []
      in
      Alcotest.(check bool) "no generated_unix_time" false
        (List.mem "generated_unix_time" fields);
      Alcotest.(check bool) "no argv" false (List.mem "argv" fields);
      (* JSONL events carry what the Chrome-trace converter needs. *)
      let ev =
        List.find
          (fun ev ->
            Json.member "name" ev = Some (Json.String "tst.timeline.artifact"))
          (Timeline.events ())
      in
      Alcotest.(check (option int))
        "event window width" (Some 1000)
        (Option.bind (Json.member "window_instrs" ev) Json.get_int);
      Alcotest.(check int) "event values span the gap" 3
        (match Json.member "values" ev with
        | Some (Json.Array vs) -> List.length vs
        | _ -> -1))

(* --- sampler windowed view (always on) --------------------------------- *)

let test_sampler_windows () =
  let prog = Helpers.straight_prog 40 in
  (* 40 blocks x 4 instrs *)
  let sampler = Sampler.create prog ~period:7 in
  for _ = 1 to 25 do
    for b = 0 to 39 do
      Sampler.sink sampler ~proc:0 ~block:b ~arm:0
    done
  done;
  Alcotest.(check int) "window width is the global default" (Timeline.window ())
    (Sampler.window_instrs sampler);
  Alcotest.(check int) "windowed counts conserve samples"
    (Sampler.samples_taken sampler)
    (Array.fold_left ( + ) 0 (Sampler.window_counts sampler));
  Alcotest.(check bool) "samples were taken" true (Sampler.samples_taken sampler > 0)

(* The sampler freezes the global window width at creation, so a
   --timeline-window override must shape its windowed view: counts stay
   conserved and the trailing partial window is materialised. *)
let test_sampler_window_override () =
  let module Prog = Olayout_ir.Prog in
  let module Proc = Olayout_ir.Proc in
  let module Block = Olayout_ir.Block in
  let prog = Helpers.straight_prog 40 in
  let pass_instrs =
    Array.fold_left
      (fun acc b -> acc + max 1 (Block.source_instrs b))
      0 (Prog.proc prog 0).Proc.blocks
  in
  let total = 25 * pass_instrs in
  with_timeline ~window:600 (fun () ->
      let sampler = Sampler.create prog ~period:7 in
      for _ = 1 to 25 do
        for b = 0 to 39 do
          Sampler.sink sampler ~proc:0 ~block:b ~arm:0
        done
      done;
      Alcotest.(check int) "override window width captured" 600
        (Sampler.window_instrs sampler);
      (* Samples land at 7,14,..: one per full period in the run. *)
      Alcotest.(check int) "samples land on the period grid" (total / 7)
        (Sampler.samples_taken sampler);
      let counts = Sampler.window_counts sampler in
      (* The last sample's window indexes the array, so the trailing
         partial window is present even though the run ends inside it. *)
      Alcotest.(check int) "last partial window included"
        ((total / 7 * 7 / 600) + 1)
        (Array.length counts);
      Alcotest.(check int) "windowed counts conserve samples under override"
        (Sampler.samples_taken sampler)
        (Array.fold_left ( + ) 0 counts);
      Alcotest.(check bool) "every full window saw samples" true
        (Array.for_all (fun c -> c > 0) counts));
  (* Back under the restored default, a fresh sampler picks up the stock
     width again - the override must not leak across with_timeline. *)
  let fresh = Sampler.create prog ~period:7 in
  Alcotest.(check int) "default restored after override" (Timeline.window ())
    (Sampler.window_instrs fresh);
  Alcotest.(check int) "restored default is stock" 65536
    (Sampler.window_instrs fresh)

let suite =
  ( "timeline",
    [
      Alcotest.test_case "series window boundaries" `Quick test_series_windows;
      Alcotest.test_case "sample carry-forward" `Quick test_series_sample;
      Alcotest.test_case "registry + disabled fast path" `Quick test_registry;
      Alcotest.test_case "parallel determinism" `Quick test_parallel_determinism;
      Alcotest.test_case "cross-engine equality" `Quick test_cross_engine;
      QCheck_alcotest.to_alcotest qcheck_window_cut;
      Alcotest.test_case "unknown designation raises" `Quick test_unknown_designation;
      Alcotest.test_case "replay spans" `Quick test_replay_spans;
      Alcotest.test_case "artifact + events shape" `Quick test_artifact;
      Alcotest.test_case "sampler windowed view" `Quick test_sampler_windows;
      Alcotest.test_case "sampler window override" `Quick
        test_sampler_window_override;
    ] )
