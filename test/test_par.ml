(* Tests for the Domain work pool and the parallel simulation engine:
   map ordering, exception propagation, nested fallback, telemetry
   isolation/merge, battery shard equivalence, trace retention, and the
   headline determinism property — a report run at jobs=4 produces exactly
   the counter/histogram deltas of the serial run. *)

module Pool = Olayout_par.Pool
module Telemetry = Olayout_telemetry.Telemetry
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Histogram = Olayout_metrics.Histogram
module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run
module Context = Olayout_harness.Context
module Report = Olayout_harness.Report
module Spike = Olayout_core.Spike

let with_pool ?jobs f =
  let p = Pool.create ?jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- pool mechanics --------------------------------------------------- *)

let test_map_order () =
  with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "order preserved"
        (List.map (fun x -> x * x) xs)
        (Pool.map p (fun x -> x * x) xs))

let test_map_exception () =
  with_pool ~jobs:4 (fun p ->
      let raised =
        try
          ignore
            (Pool.map p
               (fun x ->
                 if x = 3 then failwith "boom3"
                 else if x = 7 then failwith "boom7"
                 else x)
               (List.init 10 Fun.id));
          None
        with Failure m -> Some m
      in
      Alcotest.(check (option string))
        "first failure in list order" (Some "boom3") raised;
      (* The pool survives a failed map. *)
      Alcotest.(check (list int))
        "pool usable after failure" [ 0; 2; 4 ]
        (Pool.map p (fun x -> 2 * x) [ 0; 1; 2 ]))

let test_nested_inline () =
  with_pool ~jobs:4 (fun p ->
      let fut =
        Pool.submit p (fun () ->
            let inside = Pool.in_task () in
            (inside, Pool.map p (fun x -> x + 1) [ 1; 2; 3 ]))
      in
      let inside, nested = Pool.await fut in
      Alcotest.(check bool) "in_task inside a task" true inside;
      Alcotest.(check (list int)) "nested map runs inline" [ 2; 3; 4 ] nested);
  Alcotest.(check bool) "not in_task outside" false (Pool.in_task ())

let test_serial_pool () =
  with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "jobs clamp" 1 (Pool.jobs p);
      Alcotest.(check int) "inline submit" 42 (Pool.await (Pool.submit p (fun () -> 42)));
      let v, snap = Pool.await_snapshot (Pool.submit p (fun () -> 7)) in
      Alcotest.(check int) "inline snapshot value" 7 v;
      Alcotest.(check bool) "inline tasks carry no snapshot" true (snap = None))

let test_telemetry_merge () =
  let c = Telemetry.counter "test.par.merge" in
  let h = Telemetry.histogram "test.par.hist" in
  let before = Telemetry.value c in
  with_pool ~jobs:4 (fun p ->
      ignore
        (Pool.map p
           (fun x ->
             Telemetry.add c x;
             Telemetry.observe h x;
             x)
           (List.init 10 (fun i -> i + 1)));
      Pool.publish_stats p;
      Alcotest.(check (float 0.0))
        "par.jobs gauge" 4.0
        (Telemetry.gauge_value (Telemetry.gauge "par.jobs")));
  Alcotest.(check int) "counter merged exactly" 55 (Telemetry.value c - before);
  (* Observations 1..10 across the domains: all land in the fresh
     histogram, log2-bucketed (8, 9, 10 share the bucket at 8). *)
  let buckets = Telemetry.histogram_buckets h in
  Alcotest.(check int) "histogram merged" 10
    (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets);
  Alcotest.(check int) "top bucket" 3 (List.assoc 8 buckets)

(* --- battery sharding ------------------------------------------------- *)

(* A deterministic synthetic fetch trace: a handful of hot regions plus
   enough spread to give every configuration real misses, evictions and
   partial line usage. *)
let synthetic_trace n =
  let emit, t = Trace.record () in
  let state = ref 123456789 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  for _ = 1 to n do
    let owner = if rand 5 = 0 then Run.Kernel else Run.App in
    let addr = (rand 4 * 0x40000) + (rand 2048 * 4) in
    let len = 1 + rand 24 in
    emit { Run.owner; addr; len }
  done;
  t

let battery_configs =
  [
    Icache.config ~name:"8k/32/1" ~size_kb:8 ~line:32 ~assoc:1 ();
    Icache.config ~name:"16k/64/2" ~size_kb:16 ~line:64 ~assoc:2 ();
    Icache.config ~name:"32k/128/1" ~size_kb:32 ~line:128 ~assoc:1 ();
    Icache.config ~name:"8k/64/4" ~size_kb:8 ~line:64 ~assoc:4 ();
    Icache.config ~name:"64k/128/2" ~size_kb:64 ~line:128 ~assoc:2 ();
  ]

(* Every deterministic observable of one cache, including the full
   displacement matrix and the usage histograms. *)
let cache_fingerprint c =
  let owners = [ Run.App; Run.Kernel ] in
  ( ( Icache.accesses c,
      Icache.misses c,
      Icache.cold_misses c,
      Icache.unique_lines c,
      Icache.lines_filled c ),
    List.concat_map
      (fun m -> List.map (fun v -> Icache.displaced c ~miss:m ~victim:v) owners)
      owners,
    ( Histogram.to_sorted_list (Icache.words_used_histogram c),
      Histogram.to_sorted_list (Icache.word_reuse_histogram c) ) )

let test_battery_shards () =
  let trace = synthetic_trace 100_000 in
  let replay pool =
    let b = Battery.create ~track_usage:true battery_configs in
    Battery.access_trace ?pool ~keep:(fun r -> r.Run.owner = Run.App) b trace;
    Battery.flush_residents b;
    List.map cache_fingerprint (Battery.caches b)
  in
  let serial = replay None in
  with_pool ~jobs:4 (fun p ->
      let sharded = replay (Some p) in
      List.iteri
        (fun i (s, sh) ->
          Alcotest.(check bool)
            (Printf.sprintf "cache %d identical under sharding" i)
            true (s = sh))
        (List.combine serial sharded))

(* The stackdist engine shards by line-size group instead of by cache;
   serial, sharded and the icache engine must all agree on every miss
   count, including under a keep filter. *)
let test_stackdist_battery_shards () =
  let trace = synthetic_trace 100_000 in
  let keep (r : Run.t) = r.Run.owner = Run.App in
  let replay engine pool =
    let b = Battery.create ~engine battery_configs in
    Battery.access_trace ?pool ~keep b trace;
    List.map snd (Battery.misses_by_config b)
  in
  let icache = replay `Icache None in
  let serial = replay `Stackdist None in
  Alcotest.(check (list int)) "stackdist = icache (serial)" icache serial;
  with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int))
        "stackdist sharded = serial" serial
        (replay `Stackdist (Some p));
      Alcotest.(check (list int))
        "icache sharded = stackdist sharded" serial
        (replay `Icache (Some p)))

(* --- the determinism property ----------------------------------------- *)

let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Mirrors the regression gate's classification: par.* metrics and
   wall-clock-suffixed gauges are the only metrics allowed to differ
   between -j legs. *)
let deterministic_name n =
  (not (starts_with ~prefix:"par." n))
  && (not (ends_with ~suffix:"seconds" n))
  && (not (ends_with ~suffix:"_s" n))
  && not (ends_with ~suffix:"per_s" n)

let sorted_assoc l = List.sort (fun (a, _) (b, _) -> compare a b) l

let counter_deltas before after =
  List.filter_map
    (fun (name, v) ->
      if not (deterministic_name name) then None
      else
        let b = Option.value ~default:0 (List.assoc_opt name before) in
        Some (name, v - b))
    after
  |> sorted_assoc

let histogram_deltas before after =
  List.map
    (fun (name, buckets) ->
      let b = Option.value ~default:[] (List.assoc_opt name before) in
      ( name,
        List.filter_map
          (fun (k, v) ->
            let bv = Option.value ~default:0 (List.assoc_opt k b) in
            if v = bv then None else Some (k, v - bv))
          buckets ))
    after
  |> sorted_assoc

let check_same kind pp serial parallel =
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) (kind ^ " name") n1 n2;
      if v1 <> v2 then
        Alcotest.fail
          (Printf.sprintf "%s %s differs between -j 1 and -j 4: %s vs %s" kind
             n1 (pp v1) (pp v2)))
    serial parallel

(* One report run over a fresh Quick context, returning the deterministic
   counter/histogram deltas it produced and the final gauge values. *)
let report_deltas ~pool ids =
  let ctx = Context.create ~scale:Context.Quick () in
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let c_before = Telemetry.counters () in
  let h_before = Telemetry.histograms () in
  let report = Report.run ~selection:(Report.Only ids) ?pool ctx null_ppf in
  let counters = counter_deltas c_before (Telemetry.counters ()) in
  let histograms = histogram_deltas h_before (Telemetry.histograms ()) in
  let gauges =
    List.filter (fun (n, _) -> deterministic_name n) (Telemetry.gauges ())
    |> sorted_assoc
  in
  let attribution =
    List.map
      (fun (f : Olayout_telemetry.Bench_artifact.figure) ->
        ( f.id,
          ( f.runs_live,
            f.runs_replayed,
            f.instrs_live,
            f.instrs_replayed,
            f.live_executions,
            f.traces_replayed ) ))
      report.Report.figures
  in
  (counters, histograms, gauges, attribution)

let test_report_determinism () =
  (* fig4 is the provider (live walk, records Base and All streams); fig6,
     fig8 and fig9 consume them and run on the pool's domains at -j 4. *)
  let ids = [ "fig4"; "fig6"; "fig8"; "fig9" ] in
  let sc, sh, sg, sa = report_deltas ~pool:None ids in
  let pc, ph, pg, pa =
    with_pool ~jobs:4 (fun p -> report_deltas ~pool:(Some p) ids)
  in
  Alcotest.(check int) "same counter set" (List.length sc) (List.length pc);
  check_same "counter" string_of_int sc pc;
  check_same "histogram"
    (fun buckets ->
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) buckets))
    sh ph;
  check_same "gauge" (Printf.sprintf "%.12g") sg pg;
  List.iter2
    (fun (id1, a1) (id2, a2) ->
      Alcotest.(check string) "figure order" id1 id2;
      Alcotest.(check bool)
        (Printf.sprintf "%s attribution identical" id1)
        true (a1 = a2))
    sa pa

(* Satellite of the report-determinism property, aimed at the diagnosis
   layer: the conflict-pair ranking fig4's diagnosis extracts from a run
   must be identical whether the preceding figure schedule ran serially
   or on a 4-domain pool (the diagnosis itself always replays on the
   dispatching domain). *)
let conflict_pairs_after ~pool =
  let module Diag = Olayout_diag.Diag in
  let module Diagnose = Olayout_harness.Diagnose in
  let ctx = Context.create ~scale:Context.Quick () in
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  ignore (Report.run ~selection:(Report.Only [ "fig4"; "fig6" ]) ?pool ctx null_ppf);
  let d = Diagnose.run ctx (Diagnose.preset_of_figure "fig4") in
  List.map
    (fun (p : Diag.conflict_pair) ->
      (p.Diag.cp_evictor, p.Diag.cp_victim, p.Diag.cp_count, p.Diag.cp_sets))
    (Diag.conflict_pairs ~top:10 d)

let test_conflict_pairs_determinism () =
  let serial = conflict_pairs_after ~pool:None in
  let parallel = with_pool ~jobs:4 (fun p -> conflict_pairs_after ~pool:(Some p)) in
  Alcotest.(check bool) "some conflict pairs found" true (serial <> []);
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    "top conflict pairs identical at -j 1 and -j 4"
    (List.map (fun (e, v, c, s) -> ((e, v), (c, s))) serial)
    (List.map (fun (e, v, c, s) -> ((e, v), (c, s))) parallel)

let suite =
  ( "par",
    [
      Alcotest.test_case "map order" `Quick test_map_order;
      Alcotest.test_case "map exception" `Quick test_map_exception;
      Alcotest.test_case "nested map inline" `Quick test_nested_inline;
      Alcotest.test_case "serial pool" `Quick test_serial_pool;
      Alcotest.test_case "telemetry merge" `Quick test_telemetry_merge;
      Alcotest.test_case "battery shard equivalence" `Slow test_battery_shards;
      Alcotest.test_case "stackdist shard + cross-engine equivalence" `Slow
        test_stackdist_battery_shards;
      Alcotest.test_case "report determinism -j1 vs -j4" `Slow
        test_report_determinism;
      Alcotest.test_case "conflict-pair ranking -j1 vs -j4" `Slow
        test_conflict_pairs_determinism;
    ] )
