(* Tests for the Domain work pool and the parallel report: inline
   execution at jobs=1, telemetry isolation/merge and task failure, the
   two battery engines' agreement over a replayed trace, and the headline
   determinism property — a report run at jobs=4 produces exactly the
   counter/histogram deltas and the printed text of the serial run. *)

module Pool = Olayout_par.Pool
module Telemetry = Olayout_telemetry.Telemetry
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run
module Context = Olayout_harness.Context
module Report = Olayout_harness.Report

let with_pool ?jobs f =
  let p = Pool.create ?jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- pool mechanics --------------------------------------------------- *)

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
      let futs =
        List.map
          (fun x ->
            Pool.submit p (fun () ->
                Telemetry.add c x;
                Telemetry.observe h x;
                x))
          (List.init 10 (fun i -> i + 1))
      in
      Alcotest.(check (list int)) "results in submission order"
        (List.init 10 (fun i -> i + 1))
        (List.map Pool.await futs);
      (* A failed task re-raises at its await and its telemetry is
         discarded; a task may not submit; the pool stays usable. *)
      let failed =
        Pool.submit p (fun () ->
            Telemetry.add c 1000;
            failwith "boom")
      in
      Alcotest.check_raises "task failure re-raised" (Failure "boom") (fun () ->
          Pool.await failed);
      Alcotest.(check bool) "submit from inside a task raises" true
        (Pool.await
           (Pool.submit p (fun () ->
                match Pool.submit p (fun () -> ()) with
                | _ -> false
                | exception Invalid_argument _ -> true)));
      Alcotest.(check int) "pool usable after a failure" 42
        (Pool.await (Pool.submit p (fun () -> 42)));
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

(* --- battery engines over a replayed trace ---------------------------- *)

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

(* Both engines must agree on every miss count of a replayed trace under
   a keep filter. *)
let test_cross_engine_trace () =
  let trace = synthetic_trace 100_000 in
  let keep (r : Run.t) = r.Run.owner = Run.App in
  let replay engine =
    let b = Battery.create ~engine battery_configs in
    Battery.access_trace ~keep b trace;
    List.map snd (Battery.misses_by_config b)
  in
  Alcotest.(check (list int)) "stackdist = icache" (replay `Icache) (replay `Stackdist)

(* --- one placement rendered from two domains ---------------------------- *)

(* A placement fills a procedure's fetch words the first time a render
   meets it.  Two pool tasks render one fresh placement at once, each
   feeding every block of every procedure in order, so each procedure's
   first event is a race to fill it; they start together at a bounded
   spin barrier (bounded, since one domain may run both tasks in turn).
   Each must emit exactly the runs a serial render of another fresh
   placement emits. *)
let test_concurrent_fill () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 21) in
  let profile = Helpers.walked_profile ~calls:20 ~seed:21 prog in
  let fresh () =
    snd (Olayout_core.Spike.memoize (Olayout_core.Spike.Combo Olayout_core.Spike.All) profile)
  in
  let events =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (p : Olayout_ir.Proc.t) ->
              Array.init (Olayout_ir.Proc.n_blocks p) (fun b ->
                  (p.Olayout_ir.Proc.id, b, b land 1)))
            prog.Olayout_ir.Prog.procs))
  in
  let render ?(arrived = Atomic.make 2) placement =
    Atomic.decr arrived;
    let spins = ref 0 in
    while Atomic.get arrived > 0 && !spins < 10_000_000 do
      incr spins
    done;
    let runs = ref [] in
    let m = Olayout_exec.Render.merger ~emit:(fun r -> runs := r :: !runs) in
    let sink = Olayout_exec.Render.sink (Olayout_exec.Render.create ~placement ~owner:Run.App m) in
    Array.iter (fun (proc, block, arm) -> sink ~proc ~block ~arm) events;
    Olayout_exec.Render.flush m;
    List.rev !runs
  in
  let serial = render (fresh ()) in
  Alcotest.(check bool) "every block renders" true (List.length serial > 100);
  with_pool ~jobs:2 (fun p ->
      for round = 1 to 20 do
        let placement = fresh () and arrived = Atomic.make 2 in
        let a = Pool.submit p (fun () -> render ~arrived placement)
        and b = Pool.submit p (fun () -> render ~arrived placement) in
        Alcotest.(check bool) (Printf.sprintf "round %d: first task = serial" round) true
          (Pool.await a = serial);
        Alcotest.(check bool) (Printf.sprintf "round %d: second task = serial" round) true
          (Pool.await b = serial)
      done)

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

(* The printed report with each figure's wall-clock line,
   "  (<id> took <t>s)", dropped. *)
let untimed text =
  let timing l = try Scanf.sscanf l "  (%s took %fs)%!" (fun _ _ -> true) with _ -> false in
  String.split_on_char '\n' text |> List.filter (fun l -> not (timing l)) |> String.concat "\n"

(* How many [report.<id>] spans have closed, per id of [ids]. *)
let report_spans_closed ids =
  let stats = Telemetry.span_stats () in
  List.map
    (fun id ->
      match List.find_opt (fun s -> s.Telemetry.span_path = "report." ^ id) stats with
      | Some s -> s.Telemetry.span_count
      | None -> 0)
    ids

(* A formatter appending to [buf] that notes, as each figure's block
   arrives (the chunk holding its "### <id> " header), the closed
   [report.*] span counts of [ids] and the spans open on this domain. *)
let recording_formatter ids buf arrivals =
  let holds chunk header =
    let n = String.length header in
    let rec go i =
      i + n <= String.length chunk && (String.sub chunk i n = header || go (i + 1))
    in
    go 0
  in
  Format.make_formatter
    (fun s pos len ->
      let chunk = String.sub s pos len in
      Buffer.add_string buf chunk;
      List.iter
        (fun id ->
          if holds chunk ("### " ^ id ^ " ") then
            arrivals :=
              (id, report_spans_closed ids, Telemetry.current_span_stack ()) :: !arrivals)
        ids)
    (fun () -> ())

(* One report run over a fresh Quick context, returning the deterministic
   counter/histogram deltas it produced, the final gauge values, the
   per-figure attribution, the printed text and the span state each
   figure's block met at the formatter (see [check_streamed]). *)
let report_deltas ~pool ids =
  let ctx = Context.create ~scale:Context.Quick () in
  let buf = Buffer.create 65536 and arrivals = ref [] in
  let ppf = recording_formatter ids buf arrivals in
  let spans_before = report_spans_closed ids in
  let c_before = Telemetry.counters () in
  let h_before = Telemetry.histograms () in
  let report = Report.run ~selection:(Report.Only ids) ?pool ctx ppf in
  Format.pp_print_flush ppf ();
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
  ( (counters, histograms, gauges, attribution),
    Buffer.contents buf,
    (spans_before, List.rev !arrivals) )

(* A serial report streams: the i-th figure's block reaches the formatter
   when exactly the figures up to the i-th have run, each under its
   [report.<id>] span, and while no [report.*] span is open. *)
let check_streamed ids (spans_before, arrivals) =
  Alcotest.(check (list string)) "every block arrives once, in list order" ids
    (List.map (fun (id, _, _) -> id) arrivals);
  List.iteri
    (fun i (id, closed, open_) ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s's block follows its own span and precedes the next" id)
        (List.mapi (fun k n -> if k <= i then n + 1 else n) spans_before)
        closed;
      Alcotest.(check (list string)) (id ^ ": no report span open at its block") []
        (List.filter (fun p -> starts_with ~prefix:"report." p) open_))
    arrivals

let test_report_determinism () =
  (* fig4 is the provider (live walk, records Base and All streams); fig6,
     fig8 and fig9 consume them and run on the pool's domains at -j 4. *)
  let ids = [ "fig4"; "fig6"; "fig8"; "fig9" ] in
  let (sc, sh, sg, sa), serial_text, streamed = report_deltas ~pool:None ids in
  check_streamed ids streamed;
  let (pc, ph, pg, pa), parallel_text, _ =
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
    sa pa;
  Alcotest.(check string) "printed report identical but for timing lines"
    (untimed serial_text) (untimed parallel_text)

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
  let d = (Diagnose.run ctx (Diagnose.preset_of_figure "fig4")).Diagnose.diag in
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
      Alcotest.test_case "serial pool" `Quick test_serial_pool;
      Alcotest.test_case "telemetry merge" `Quick test_telemetry_merge;
      Alcotest.test_case "cross-engine trace equivalence" `Slow test_cross_engine_trace;
      Alcotest.test_case "two domains fill one placement" `Quick test_concurrent_fill;
      Alcotest.test_case "report determinism -j1 vs -j4" `Slow
        test_report_determinism;
      Alcotest.test_case "conflict-pair ranking -j1 vs -j4" `Slow
        test_conflict_pairs_determinism;
    ] )
