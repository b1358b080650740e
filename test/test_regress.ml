(* Tests for the regression layer: the promoted JSON decoder, the artifact
   loader/flattener, the deterministic-vs-timing diff engine and its gate,
   the fidelity scoreboard, and the Chrome trace-event export.

   Synthetic artifacts are built by hand (small, fully controlled) except
   for one round-trip through the real Bench_artifact writer, which pins
   the loader to whatever the telemetry layer actually emits. *)

module Json = Olayout_telemetry.Json
module Telemetry = Olayout_telemetry.Telemetry
module Bench_artifact = Olayout_telemetry.Bench_artifact
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff
module Fidelity = Olayout_regress.Fidelity
module Chrome_trace = Olayout_regress.Chrome_trace

(* --- decoder ----------------------------------------------------------- *)

let test_decoder_roundtrip () =
  let doc =
    Json.Object
      [
        ("int", Json.Int 22264628);
        ("neg", Json.Int (-7));
        ("float", Json.Float 0.485);
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("s", Json.String "a \"quoted\" \\ line\nbreak");
        ("arr", Json.Array [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
      ]
  in
  let back = Json.parse (Json.to_string doc) in
  Alcotest.(check bool) "writer output reparses to the same tree" true (back = doc);
  (* integral lexemes decode as Int: large counters survive exactly *)
  (match Json.member "int" back with
  | Some (Json.Int 22264628) -> ()
  | _ -> Alcotest.fail "integral lexeme did not decode as Int");
  Alcotest.(check (option (float 1e-9)))
    "get_float accepts Int" (Some 22264628.0)
    (Option.bind (Json.member "int" back) Json.get_float)

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_decoder_errors () =
  let expect_error s =
    match Json.parse s with
    | _ -> Alcotest.failf "parse accepted %S" s
    | exception Json.Parse_error _ -> ()
  in
  List.iter expect_error
    [ "{"; "[1,]"; "{\"a\":1,}"; "nul"; "\"\\q\""; "1 2"; ""; "{\"a\" 1}" ];
  (* failures carry a byte offset *)
  match Json.parse "[1, oops]" with
  | _ -> Alcotest.fail "parse accepted garbage"
  | exception Json.Parse_error msg ->
      Alcotest.(check bool) "error names an offset" true (contains ~sub:"offset" msg)

(* --- artifact loader --------------------------------------------------- *)

let mk_bench ?(schema = "olayout-bench/v1") ?(scale = "quick")
    ?(argv = [ "bench"; "--quick" ]) ?(misses = 22264628) ?(total = 17.4)
    ?(fig_seconds = 1.5) () =
  Json.Object
    [
      ("schema", Json.String schema);
      ("generated_unix_time", Json.Float 1754512000.0);
      ("scale", Json.String scale);
      ("argv", Json.Array (List.map (fun s -> Json.String s) argv));
      ("total_seconds", Json.Float total);
      ( "counters",
        Json.Object
          [
            ("cachesim.icache_misses", Json.Int misses);
            ("exec.runs_rendered", Json.Int 1234567);
          ] );
      ( "gauges",
        Json.Object
          [
            ("fig.fig5.64kb.128b", Json.Float 0.485);
            ("context.replay_seconds", Json.Float 0.07);
          ] );
      ( "figures",
        Json.Array
          [
            Json.Object
              [
                ("id", Json.String "fig4");
                ("desc", Json.String "cache size sweep");
                ("seconds", Json.Float fig_seconds);
                ("runs_live", Json.Int 42);
                (* old artifacts wrote null here; the loader must skip it *)
                ("mruns_per_s", Json.Null);
              ];
          ] );
    ]

let test_artifact_flatten () =
  let art = Artifact.of_json (mk_bench ()) in
  Alcotest.(check string) "schema kept" "olayout-bench/v1" art.Artifact.schema;
  Alcotest.(check string) "scale kept" "quick" art.Artifact.scale;
  Alcotest.(check (list string)) "argv kept" [ "bench"; "--quick" ] art.Artifact.argv;
  let m = Artifact.metric art in
  Alcotest.(check (option (float 1e-9)))
    "counter flattens" (Some 22264628.0)
    (m "counters.cachesim.icache_misses");
  Alcotest.(check (option (float 1e-9)))
    "array element keyed by id, not index" (Some 42.0)
    (m "figures.fig4.runs_live");
  Alcotest.(check (option (float 1e-9)))
    "null is not a metric" None
    (m "figures.fig4.mruns_per_s");
  Alcotest.(check (option (float 1e-9)))
    "strings are not metrics" None (m "figures.fig4.desc");
  Alcotest.(check (option (float 1e-9)))
    "identity stays out of the metric map" None (m "generated_unix_time");
  (* sorted: the diff engine merge-joins *)
  let paths = List.map fst art.Artifact.metrics in
  Alcotest.(check bool)
    "metric paths sorted" true
    (paths = List.sort compare paths)

let test_artifact_schema_errors () =
  let expect_load ~substring json =
    match Artifact.of_json json with
    | _ -> Alcotest.fail "loader accepted a bad artifact"
    | exception Artifact.Load_error msg ->
        if not (contains ~sub:substring msg) then
          Alcotest.failf "error %S does not mention %S" msg substring
  in
  (* same family, newer version: say so, not just "unknown" *)
  expect_load ~substring:"version" (mk_bench ~schema:"olayout-bench/v9" ());
  expect_load ~substring:"unknown artifact schema"
    (mk_bench ~schema:"acme-metrics/v1" ());
  expect_load ~substring:"schema" (Json.Object [ ("scale", Json.String "quick") ]);
  match Artifact.of_json (Json.Array []) with
  | _ -> Alcotest.fail "loader accepted a non-object"
  | exception Artifact.Load_error _ -> ()

let test_artifact_real_roundtrip () =
  (* Whatever Bench_artifact writes must load: schema accepted, counters
     and figures flattened, and (satellite fix) no null mruns_per_s -
     absent instead, so no NaN-ish holes. *)
  let path = Filename.temp_file "olayout_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.write_file path
      @@ Bench_artifact.json ~scale:"quick" ~total_seconds:1.0
        ~trace_cache_bytes:4096
        ~figures:
          [
            {
              Bench_artifact.id = "fig4";
              desc = "sweep";
              seconds = 0.5;
              runs_live = 10;
              runs_replayed = 20;
              instrs_live = 100;
              instrs_replayed = 200;
              live_executions = 1;
              traces_replayed = 2;
            };
            {
              Bench_artifact.id = "fig0";
              desc = "zero-second figure";
              seconds = 0.0;  (* throughput undefined: field must be absent *)
              runs_live = 0;
              runs_replayed = 0;
              instrs_live = 0;
              instrs_replayed = 0;
              live_executions = 0;
              traces_replayed = 0;
            };
          ];
      let art = Artifact.load_file path in
      Alcotest.(check string) "schema" "olayout-bench/v1" art.Artifact.schema;
      Alcotest.(check (option (float 1e-9)))
        "figure keyed by id" (Some 10.0)
        (Artifact.metric art "figures.fig4.runs_live");
      Alcotest.(check (option (float 1e-9)))
        "undefined throughput omitted, not null" None
        (Artifact.metric art "figures.fig0.mruns_per_s");
      Alcotest.(check bool)
        "counters flattened" true
        (Artifact.metric art "counters.spike.optimize_calls" <> None
        || Artifact.metric art "counters.cachesim.icache_misses" <> None))

(* --- diff engine ------------------------------------------------------- *)

let test_classification () =
  let det = [
    "counters.cachesim.icache_misses";
    "counters.exec.runs_rendered";
    "figures.fig4.runs_live";
    "figures.fig4.traces_replayed";
    "trace_cache.runs_replayed";
    "gauges.fig.fig5.64kb.128b";
    "gauges.fidelity.claims_passed";
    "spans.bench.total/report.fig4.count";
    "passes.chaining.count";
    "diag.classification.conflict";
  ]
  and timing = [
    "total_seconds";
    "gc.minor_words";
    "gc.major_collections";
    "figures.fig4.seconds";
    "figures.fig4.mruns_per_s";
    "spans.bench.total/report.fig4.total_s";
    "spans.bench.total/report.fig4.max_s";
    "gauges.context.replay_seconds";
    "trace_cache.replay_seconds";
  ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p ^ " is deterministic") true
        (Diff.classify p = Diff.Deterministic))
    det;
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " is timing") true (Diff.classify p = Diff.Timing))
    timing

let test_diff_identical () =
  let a = Artifact.of_json (mk_bench ()) in
  let b = Artifact.of_json (mk_bench ()) in
  let d = Diff.compare_artifacts ~old_art:a ~new_art:b () in
  Alcotest.(check (list string)) "no identity warnings" [] d.Diff.identity_warnings;
  Alcotest.(check bool)
    "every deterministic metric equal" true
    (List.for_all
       (fun e ->
         match e.Diff.e_status with
         | Diff.Equal | Diff.Within_tolerance -> true
         | _ -> false)
       d.Diff.entries);
  Alcotest.(check int) "gate passes" 0 (List.length (Diff.gate_failures d))

let test_diff_perturbed_counter () =
  let a = Artifact.of_json (mk_bench ()) in
  let b = Artifact.of_json (mk_bench ~misses:22264629 ()) in
  let d = Diff.compare_artifacts ~old_art:a ~new_art:b () in
  match Diff.gate_failures d with
  | [ e ] ->
      Alcotest.(check string)
        "the perturbed counter is named" "counters.cachesim.icache_misses"
        e.Diff.e_path;
      Alcotest.(check bool) "flagged as drift" true (e.Diff.e_status = Diff.Drift)
  | l -> Alcotest.failf "expected exactly one gate failure, got %d" (List.length l)

let test_diff_ignore_prefixes () =
  (* The cross-engine CI leg: engine-specific simulator counters differ
     between the two battery backends, but everything else must gate. *)
  let a = Artifact.of_json (mk_bench ()) in
  let b = Artifact.of_json (mk_bench ~misses:22264629 ()) in
  let d =
    Diff.compare_artifacts
      ~ignore_prefixes:[ "counters.cachesim." ]
      ~old_art:a ~new_art:b ()
  in
  Alcotest.(check int) "perturbed counter no longer gates" 0
    (List.length (Diff.gate_failures d));
  Alcotest.(check bool) "dropped paths counted" true (d.Diff.ignored > 0);
  Alcotest.(check bool) "ignored paths are absent from entries" true
    (List.for_all
       (fun e ->
         not
           (String.length e.Diff.e_path >= 18
           && String.sub e.Diff.e_path 0 18 = "counters.cachesim."))
       d.Diff.entries);
  (* the prefixes are recorded in the compare document *)
  let doc = Json.parse (Json.to_string (Diff.to_json d)) in
  Alcotest.(check (option string))
    "prefixes recorded" (Some "counters.cachesim.")
    (match Json.member "ignore_prefixes" doc with
    | Some (Json.Array [ Json.String p ]) -> Some p
    | _ -> None);
  (* summary.ignored pairs the drop count with every prefix that caused
     it, so a compare document is self-describing about what it skipped *)
  let ignored =
    Option.get (Option.bind (Json.member "summary" doc) (Json.member "ignored"))
  in
  Alcotest.(check (option int))
    "summary.ignored.count matches the record" (Some d.Diff.ignored)
    (Option.bind (Json.member "count" ignored) Json.get_int);
  Alcotest.(check (option string))
    "summary.ignored.prefixes echoes the flags" (Some "counters.cachesim.")
    (match Json.member "prefixes" ignored with
    | Some (Json.Array [ Json.String p ]) -> Some p
    | _ -> None)

let test_diff_tolerance () =
  let a = Artifact.of_json (mk_bench ~total:10.0 ~fig_seconds:1.0 ()) in
  let b = Artifact.of_json (mk_bench ~total:11.0 ~fig_seconds:2.0 ()) in
  (* 10% and 100% slower: only the latter exceeds the 25% default *)
  let d = Diff.compare_artifacts ~old_art:a ~new_art:b () in
  let status p =
    (List.find (fun e -> e.Diff.e_path = p) d.Diff.entries).Diff.e_status
  in
  Alcotest.(check bool)
    "10% drift within default tolerance" true
    (status "total_seconds" = Diff.Within_tolerance);
  Alcotest.(check bool)
    "100% drift beyond default tolerance" true
    (status "figures.fig4.seconds" = Diff.Exceeds_tolerance);
  Alcotest.(check int) "timing never gates by default" 0
    (List.length (Diff.gate_failures d));
  Alcotest.(check int) "unless asked to" 1
    (List.length (Diff.gate_failures ~timing:true d));
  (* a looser tolerance absorbs both *)
  let d2 = Diff.compare_artifacts ~tolerance:1.5 ~old_art:a ~new_art:b () in
  Alcotest.(check int) "loose tolerance absorbs all timing drift" 0
    (List.length (Diff.gate_failures ~timing:true d2))

let test_diff_identity_and_schema () =
  let a = Artifact.of_json (mk_bench ~scale:"quick" ()) in
  let b =
    Artifact.of_json (mk_bench ~scale:"full" ~argv:[ "bench" ] ())
  in
  let d = Diff.compare_artifacts ~old_art:a ~new_art:b () in
  Alcotest.(check int)
    "scale and flag-set differences warn" 2
    (List.length d.Diff.identity_warnings);
  (* different scales warn; they never gate *)
  Alcotest.(check int) "warnings do not gate" 0 (List.length (Diff.gate_failures d));
  let diag =
    Artifact.of_json
      (Json.Object
         [
           ("schema", Json.String "olayout-diag/v1");
           ("scale", Json.String "quick");
           ("classification", Json.Object [ ("conflict", Json.Int 5) ]);
         ])
  in
  match Diff.compare_artifacts ~old_art:a ~new_art:diag () with
  | _ -> Alcotest.fail "compared a bench artifact against a diag artifact"
  | exception Artifact.Load_error _ -> ()

let test_compare_json () =
  let a = Artifact.of_json (mk_bench ()) in
  let b = Artifact.of_json (mk_bench ~misses:1 ()) in
  let d = Diff.compare_artifacts ~old_art:a ~new_art:b () in
  let doc = Diff.to_json ~gated:true ~gate_failed:true d in
  (* the document itself round-trips through the codec *)
  let back = Json.parse (Json.to_string doc) in
  Alcotest.(check (option string))
    "compare schema tag" (Some "olayout-compare/v1")
    (Option.bind (Json.member "schema" back) Json.get_string);
  let summary = Option.get (Json.member "summary" back) in
  Alcotest.(check (option int))
    "drift counted" (Some 1)
    (Option.bind (Json.member "deterministic_drift" summary) Json.get_int);
  let metrics = Option.get (Option.bind (Json.member "metrics" back) Json.get_list) in
  Alcotest.(check int) "only non-matching metrics recorded" 1 (List.length metrics);
  Alcotest.(check (option bool))
    "gate verdict recorded" (Some true)
    (Option.bind
       (Option.bind (Json.member "gate" back) (Json.member "failed"))
       (function Json.Bool b -> Some b | _ -> None))

(* --- fidelity ---------------------------------------------------------- *)

let test_fidelity_fixture () =
  (* in-band, out-of-band, missing: pass / fail / skipped *)
  let values =
    [
      ("fig.fig5.64kb.128b", 0.48);
      ("fig.fig5.128kb.128b", 0.95) (* far above the band: fail *);
    ]
  in
  let r = Fidelity.evaluate ~lookup:(fun m -> List.assoc_opt m values) in
  let status id =
    (List.find (fun s -> s.Fidelity.claim.Fidelity.claim_id = id) r.Fidelity.scored)
      .Fidelity.status
  in
  Alcotest.(check bool) "in-band claim passes" true
    (status "fig4.opt_vs_base_64k" = Fidelity.Pass);
  Alcotest.(check bool) "out-of-band claim fails" true
    (status "fig4.opt_vs_base_128k" = Fidelity.Fail);
  Alcotest.(check bool) "unmeasured claim skipped" true
    (status "fig15.speedup_21164" = Fidelity.Skipped);
  Alcotest.(check int) "passed count" 1 r.Fidelity.passed;
  Alcotest.(check int) "failed count" 1 r.Fidelity.failed;
  Alcotest.(check int) "skipped count"
    (List.length Fidelity.claims - 2)
    r.Fidelity.skipped;
  (* every claim has a sane band containing the paper-adjacent target *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Fidelity.claim_id ^ " band ordered") true
        (c.Fidelity.lo <= c.Fidelity.hi))
    Fidelity.claims

let test_fidelity_artifact_and_gauges () =
  let art = Artifact.of_json (mk_bench ()) in
  (* the fixture artifact carries exactly one fig.* gauge *)
  let r = Fidelity.of_artifact art in
  Alcotest.(check int) "one claim measured from the artifact" 1
    (r.Fidelity.passed + r.Fidelity.failed);
  Fidelity.publish_gauges r;
  let gauges = Telemetry.gauges () in
  Alcotest.(check (option (float 1e-9)))
    "fidelity.<claim> gauge published" (Some 1.0)
    (List.assoc_opt "fidelity.fig4.opt_vs_base_64k" gauges);
  Alcotest.(check (option (float 1e-9)))
    "pass total published" (Some 1.0)
    (List.assoc_opt "fidelity.claims_passed" gauges)

(* --- chrome trace ------------------------------------------------------ *)

let ev_span ~name ~path ~start ~dur =
  Json.Object
    [
      ("ev", Json.String "span");
      ("name", Json.String name);
      ("path", Json.String path);
      ("depth", Json.Int (List.length (String.split_on_char '/' path) - 1));
      ("start_s", Json.Float start);
      ("dur_s", Json.Float dur);
    ]

let ev_sample ~name ~t ~v =
  Json.Object
    [
      ("ev", Json.String "sample");
      ("t_s", Json.Float t);
      ("name", Json.String name);
      ("value", Json.Float v);
    ]

let test_chrome_trace () =
  let events =
    [
      Json.Object [ ("ev", Json.String "meta"); ("pid", Json.Int 1) ];
      (* children complete before their parents, as in the real stream *)
      ev_span ~name:"optimize" ~path:"bench.total/report.fig4/optimize"
        ~start:0.10 ~dur:0.20;
      ev_sample ~name:"cachesim.icache_misses" ~t:0.30 ~v:1000.0;
      ev_span ~name:"report.fig4" ~path:"bench.total/report.fig4" ~start:0.05
        ~dur:0.50;
      ev_sample ~name:"cachesim.icache_misses" ~t:0.55 ~v:2500.0;
      ev_span ~name:"bench.setup" ~path:"bench.total/bench.setup" ~start:0.00
        ~dur:0.05;
      ev_span ~name:"bench.total" ~path:"bench.total" ~start:0.00 ~dur:0.60;
    ]
  in
  let doc = Chrome_trace.of_events events in
  (* the document is valid JSON for the codec *)
  let back = Json.parse (Json.to_string doc) in
  let evs = Option.get (Option.bind (Json.member "traceEvents" back) Json.get_list) in
  let field name e = Json.member name e in
  let str name e = Option.bind (field name e) Json.get_string in
  let num name e = Option.bind (field name e) Json.get_float in
  let xs = List.filter (fun e -> str "ph" e = Some "X") evs in
  let cs = List.filter (fun e -> str "ph" e = Some "C") evs in
  let ms = List.filter (fun e -> str "ph" e = Some "M") evs in
  Alcotest.(check int) "every span becomes a complete event" 4 (List.length xs);
  Alcotest.(check int) "every sample becomes a counter event" 2 (List.length cs);
  Alcotest.(check bool) "thread metas present" true (List.length ms >= 3);
  (* ts/dur: microseconds, non-negative, monotonically sorted timeline *)
  List.iter
    (fun e ->
      let ts = Option.get (num "ts" e) and dur = Option.get (num "dur" e) in
      Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
      Alcotest.(check bool) "dur >= 0" true (dur >= 0.0))
    xs;
  let timeline =
    List.filter_map (fun e -> if str "ph" e = Some "M" then None else num "ts" e) evs
  in
  Alcotest.(check bool)
    "timeline sorted by ts" true
    (timeline = List.sort compare timeline);
  (* seconds -> microseconds *)
  let fig4 = List.find (fun e -> str "name" e = Some "report.fig4") xs in
  Alcotest.(check (option (float 1e-6))) "ts in us" (Some 50_000.0) (num "ts" fig4);
  Alcotest.(check (option (float 1e-6))) "dur in us" (Some 500_000.0) (num "dur" fig4);
  (* one track per figure phase: the nested optimize span shares fig4's tid *)
  let opt = List.find (fun e -> str "name" e = Some "optimize") xs in
  Alcotest.(check (option int)) "nested span on the figure's track"
    (Option.bind (field "tid" fig4) Json.get_int)
    (Option.bind (field "tid" opt) Json.get_int);
  let setup = List.find (fun e -> str "name" e = Some "bench.setup") xs in
  Alcotest.(check bool) "non-figure span on the root track" true
    (Option.bind (field "tid" setup) Json.get_int
    <> Option.bind (field "tid" opt) Json.get_int);
  (* counter events carry the sampled value *)
  let c = List.hd cs in
  Alcotest.(check (option (float 1e-9))) "counter value" (Some 1000.0)
    (Option.bind (Option.bind (field "args" c) (Json.member "value")) Json.get_float)

let test_chrome_trace_file_and_samples () =
  (* End to end through the telemetry sink: watch an instrument, run a
     span, convert the JSONL, load the result. *)
  let src = Filename.temp_file "olayout_tl" ".jsonl" in
  let dst = Filename.temp_file "olayout_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src; Sys.remove dst)
    (fun () ->
      let c = Telemetry.counter "tst.regress.watched" in
      Telemetry.open_jsonl_file src;
      Telemetry.watch_counter c;
      Telemetry.span "tst.regress.span" (fun () -> Telemetry.add c 5);
      Telemetry.close_jsonl ();
      Chrome_trace.convert ~src ~dst;
      let doc = Json.parse_file dst in
      let evs =
        Option.get (Option.bind (Json.member "traceEvents" doc) Json.get_list)
      in
      let has ph name =
        List.exists
          (fun e ->
            Option.bind (Json.member "ph" e) Json.get_string = Some ph
            && Option.bind (Json.member "name" e) Json.get_string = Some name)
          evs
      in
      Alcotest.(check bool) "span event present" true (has "X" "tst.regress.span");
      Alcotest.(check bool) "watched counter sampled" true
        (has "C" "tst.regress.watched"))

let test_chrome_trace_errors () =
  (match Chrome_trace.of_jsonl "/nonexistent/olayout.jsonl" with
  | _ -> Alcotest.fail "converted a missing file"
  | exception Chrome_trace.Convert_error _ -> ());
  let src = Filename.temp_file "olayout_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      let oc = open_out src in
      output_string oc "{\"ev\":\"span\"}\n";
      close_out oc;
      match Chrome_trace.of_jsonl src with
      | _ -> Alcotest.fail "converted a span with no fields"
      | exception Chrome_trace.Convert_error msg ->
          Alcotest.(check bool) "error names the missing fields" true
            (String.length msg > 0))

(* Every artifact kind the report driver writes has its own file stem and
   a schema the loader accepts. *)
let test_artifact_kinds () =
  let module Artifacts = Olayout_harness.Artifacts in
  let stems = List.map (fun k -> k.Artifacts.stem) Artifacts.kinds in
  Alcotest.(check (list string))
    "unique stems" (List.sort_uniq compare stems) (List.sort compare stems);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k.Artifacts.stem ^ " schema " ^ k.Artifacts.schema ^ " is known")
        true
        (List.mem k.Artifacts.schema Artifact.known_schemas))
    Artifacts.kinds

let suite =
  ( "regress",
    [
      Alcotest.test_case "json decoder round-trip" `Quick test_decoder_roundtrip;
      Alcotest.test_case "json decoder rejects garbage" `Quick test_decoder_errors;
      Alcotest.test_case "artifact flattening" `Quick test_artifact_flatten;
      Alcotest.test_case "artifact schema errors" `Quick test_artifact_schema_errors;
      Alcotest.test_case "artifact kinds: unique stems, known schemas" `Quick
        test_artifact_kinds;
      Alcotest.test_case "bench artifact round-trip" `Quick
        test_artifact_real_roundtrip;
      Alcotest.test_case "deterministic vs timing classification" `Quick
        test_classification;
      Alcotest.test_case "identical artifacts: no drift" `Quick test_diff_identical;
      Alcotest.test_case "perturbed counter gates" `Quick
        test_diff_perturbed_counter;
      Alcotest.test_case "ignore prefixes skip engine counters" `Quick
        test_diff_ignore_prefixes;
      Alcotest.test_case "timing tolerance" `Quick test_diff_tolerance;
      Alcotest.test_case "identity warnings and schema mismatch" `Quick
        test_diff_identity_and_schema;
      Alcotest.test_case "compare artifact json" `Quick test_compare_json;
      Alcotest.test_case "fidelity fixture scoring" `Quick test_fidelity_fixture;
      Alcotest.test_case "fidelity from artifact + gauges" `Quick
        test_fidelity_artifact_and_gauges;
      Alcotest.test_case "chrome trace structure" `Quick test_chrome_trace;
      Alcotest.test_case "chrome trace via telemetry sink" `Quick
        test_chrome_trace_file_and_samples;
      Alcotest.test_case "chrome trace errors" `Quick test_chrome_trace_errors;
    ] )
