(* Tests for the telemetry subsystem: registry instruments, span nesting,
   the JSONL sink, counter determinism across identical quick runs, and the
   BENCH_<scale>.json artifact.

   The registry is process-global, so every check here works on deltas from
   a snapshot rather than absolute values (other suites run first and leave
   their own counts behind).  No test calls Telemetry.reset: that would
   destroy the cumulative trace-cache counters the harness suite asserts
   on. *)

module Telemetry = Olayout_telemetry.Telemetry
module Bench_artifact = Olayout_telemetry.Bench_artifact
module Json = Olayout_telemetry.Json
module Context = Olayout_harness.Context
module Report = Olayout_harness.Report
module Spike = Olayout_core.Spike
module Icache = Olayout_cachesim.Icache

let span_count path =
  match
    List.find_opt (fun s -> s.Telemetry.span_path = path) (Telemetry.span_stats ())
  with
  | Some s -> s.Telemetry.span_count
  | None -> 0

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let test_instruments () =
  let c = Telemetry.counter "tst.counter" in
  let v0 = Telemetry.value c in
  Telemetry.incr c;
  Telemetry.add c 41;
  Alcotest.(check int) "counter accumulates" (v0 + 42) (Telemetry.value c);
  (* find-or-register: a second handle for the same name shares state *)
  Telemetry.incr (Telemetry.counter "tst.counter");
  Alcotest.(check int) "same name, same state" (v0 + 43) (Telemetry.value c);
  Alcotest.(check string) "name kept" "tst.counter" (Telemetry.counter_name c);
  let g = Telemetry.gauge "tst.gauge" in
  Telemetry.set_gauge g 2.5;
  Telemetry.add_gauge g 0.5;
  Alcotest.(check (float 1e-9)) "gauge set+add" 3.0 (Telemetry.gauge_value g);
  Alcotest.(check bool) "counter registered" true
    (List.mem_assoc "tst.counter" (Telemetry.counters ()))

let test_histogram_buckets () =
  let h = Telemetry.histogram "tst.hist" in
  List.iter (Telemetry.observe h) [ 0; -3; 1; 2; 3; 5; 1024; 1 lsl 61; max_int; min_int ];
  (* power-of-two buckets: <=0 | [1,2) | [2,4) | [4,8) | ... | [2^61, max_int] *)
  Alcotest.(check (list (pair int int)))
    "bucket floors and counts"
    [ (0, 3); (1, 1); (2, 2); (4, 1); (1024, 1); (1 lsl 61, 2) ]
    (Telemetry.histogram_buckets h)

let test_span_nesting () =
  let outer0 = span_count "tst.outer" in
  let inner0 = span_count "tst.outer/tst.inner" in
  let r =
    Telemetry.span "tst.outer" (fun () ->
        Telemetry.span "tst.inner" (fun () -> ());
        Telemetry.span "tst.inner" (fun () -> ());
        7)
  in
  Alcotest.(check int) "span returns thunk value" 7 r;
  Alcotest.(check int) "outer counted once" (outer0 + 1) (span_count "tst.outer");
  Alcotest.(check int) "inner nested under outer, twice" (inner0 + 2)
    (span_count "tst.outer/tst.inner");
  Alcotest.(check int) "inner never at top level" 0 (span_count "tst.inner");
  (* the stack unwinds when a thunk raises: the next span is top-level *)
  (try Telemetry.span "tst.raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  let after0 = span_count "tst.after" in
  Telemetry.span "tst.after" (fun () -> ());
  Alcotest.(check int) "top level after exception" (after0 + 1)
    (span_count "tst.after");
  Alcotest.(check int) "no nesting under raised span" 0
    (span_count "tst.raise/tst.after")

let test_disabled () =
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled true)
    (fun () ->
      Telemetry.set_enabled false;
      Alcotest.(check bool) "reports disabled" false (Telemetry.enabled ());
      let before = span_count "tst.disabled" in
      let v, dt = Telemetry.timed "tst.disabled" (fun () -> 3) in
      Alcotest.(check int) "timed still runs thunk" 3 v;
      Alcotest.(check bool) "timed still measures" true (dt >= 0.0);
      Telemetry.span "tst.disabled" (fun () -> ());
      Alcotest.(check int) "nothing recorded while disabled" before
        (span_count "tst.disabled");
      (* counters stay live even with spans off: they back --trace-stats *)
      let c = Telemetry.counter "tst.disabled_counter" in
      let v0 = Telemetry.value c in
      Telemetry.incr c;
      Alcotest.(check int) "counters unaffected" (v0 + 1) (Telemetry.value c))

let test_jsonl_valid () =
  let weird = "tst.weird \"name\"\\with\nnewline\tand\x01ctl" in
  let path = Filename.temp_file "olayout_tel" ".jsonl" in
  Telemetry.open_jsonl_file path;
  Telemetry.span weird (fun () -> Telemetry.span "tst.child" (fun () -> ()));
  Telemetry.close_jsonl ();
  let lines = read_lines path in
  Alcotest.(check bool) "stream nonempty" true (List.length lines > 2);
  (* every line is one standalone JSON object *)
  List.iteri
    (fun i line ->
      match Helpers.parse_json line with
      | Helpers.Jobj _ -> ()
      | _ -> Alcotest.failf "line %d is not a JSON object" i
      | exception Helpers.Json_error msg ->
          Alcotest.failf "line %d invalid JSON (%s): %s" i msg line)
    lines;
  let span_names =
    List.filter_map
      (fun line ->
        let j = Helpers.parse_json line in
        match (Helpers.jmem "ev" j, Helpers.jmem "name" j) with
        | Some (Helpers.Jstr "span"), Some (Helpers.Jstr name) -> Some name
        | _ -> None)
      lines
  in
  Alcotest.(check bool) "escaped span name round-trips" true
    (List.mem weird span_names);
  Alcotest.(check bool) "nested child emitted" true
    (List.mem "tst.child" span_names);
  Sys.remove path

(* One "quick run" in miniature: a fresh Quick context plus one cache
   measurement.  Returns per-counter deltas and the cache miss count. *)
let one_quick_run () =
  let before = Hashtbl.of_seq (List.to_seq (Telemetry.counters ())) in
  let ctx = Context.create ~scale:Context.Quick () in
  let cache = Icache.create (Icache.config ~size_kb:64 ~line:128 ~assoc:2 ()) in
  ignore
    (Context.measure ctx ~txns:30
       ~renders:[ (Spike.Base, Context.app_only (Icache.access_run cache)) ]
       ());
  let deltas =
    List.map
      (fun (name, v) ->
        (name, v - Option.value ~default:0 (Hashtbl.find_opt before name)))
      (Telemetry.counters ())
  in
  (deltas, Icache.misses cache)

let test_counter_determinism () =
  let d1, m1 = one_quick_run () in
  let d2, m2 = one_quick_run () in
  Alcotest.(check int) "same misses" m1 m2;
  Alcotest.(check bool) "run did real work" true
    (List.exists (fun (_, d) -> d > 0) d1);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "aligned counter names" n1 n2;
      Alcotest.(check int) (Printf.sprintf "delta of %s" n1) v1 v2)
    d1 d2

let test_bench_artifact () =
  let ctx = Context.create ~scale:Context.Quick () in
  let selected = [ "fig3"; "fig8" ] in
  let figures =
    (Report.run ~selection:(Report.Only selected) ctx null_ppf).Report.figures
  in
  let path = Filename.temp_file "olayout_bench" ".json" in
  let trace = Context.trace_stats ctx in
  Json.write_file path
    (Bench_artifact.json ~scale:"quick" ~total_seconds:1.0
       ~trace_cache_bytes:trace.Context.trace_bytes ~figures);
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let j = Helpers.parse_json raw in
  Alcotest.(check bool) "schema tag" true
    (Helpers.jmem "schema" j = Some (Helpers.Jstr "olayout-bench/v1"));
  let fig_ids =
    match Helpers.jmem "figures" j with
    | Some (Helpers.Jarr figs) ->
        List.filter_map
          (fun f ->
            match Helpers.jmem "id" f with
            | Some (Helpers.Jstr id) -> Some id
            | _ -> None)
          figs
    | _ -> []
  in
  Alcotest.(check (list string)) "every selected figure id present" selected
    fig_ids;
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " section present") true
        (match Helpers.jmem key j with
        | Some (Helpers.Jobj _) -> true
        | _ -> false))
    [ "trace_cache"; "counters"; "gauges"; "gc" ];
  (match Helpers.jmem "gc" j with
  | Some gc ->
      Alcotest.(check bool) "gc has minor_collections" true
        (Helpers.jmem "minor_collections" gc <> None)
  | None -> Alcotest.fail "no gc section");
  (match Helpers.jmem "spans" j with
  | Some (Helpers.Jarr _) -> ()
  | _ -> Alcotest.fail "spans is not an array")

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "instruments" `Quick test_instruments;
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "disabled path" `Quick test_disabled;
      Alcotest.test_case "jsonl lines are valid JSON" `Quick test_jsonl_valid;
      Alcotest.test_case "counter determinism" `Slow test_counter_determinism;
      Alcotest.test_case "bench artifact" `Slow test_bench_artifact;
    ] )
