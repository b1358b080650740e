(* Tests for the experiment harness: tables, context, and every figure
   experiment at Quick scale. *)

module Table = Olayout_harness.Table
module Context = Olayout_harness.Context
module Spike = Olayout_core.Spike

(* Local substring check. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_formatting () =
  let t = Table.create ~id:"demo" ~title:"demo" ~columns:[ ("a", "a"); ("b", "b") ] in
  Table.add_row t ~id:"one" [ Table.Text "1"; Table.Text "22" ];
  Table.add_note t "a note";
  let rendered = Format.asprintf "%a" Table.print t in
  Alcotest.(check bool) "title" true (contains rendered "== demo ==");
  Alcotest.(check bool) "note" true (contains rendered "note: a note");
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       Table.add_row t ~id:"two" [ Table.Text "x" ];
       false
     with Invalid_argument _ -> true)

(* Each cell kind prints what the preformatted strings printed: the
   thousands-separated integer, "%.1f%%" of a fraction, "%.2f", a fixed
   "%.*f" and intext's "%+.0f%%" change. *)
let test_formatters () =
  let check name expect cell = Alcotest.(check string) name expect (Table.render cell) in
  check "int" "1,234,567" (Table.Int 1234567);
  check "int negative" "-1,234" (Table.Int (-1234));
  check "int small" "42" (Table.Int 42);
  Alcotest.(check string) "fmt_int" "1,234,567" (Table.fmt_int 1234567);
  check "pct" "42.3%" (Table.Pct 0.423);
  check "ratio" "0.42" (Table.Ratio 0.42);
  check "fixed" (Printf.sprintf "%.1f" 7.25) (Table.Fixed (1, 7.25));
  check "fixed 0" "8875" (Table.Fixed (0, 8874.6));
  check "change down" "-37%" (Table.Change (-0.372));
  check "change up" "+12%" (Table.Change 0.12);
  check "mark" "10.25*" (Table.Mark (Table.Fixed (2, 10.25), "*"));
  check "text" "base" (Table.Text "base");
  check "no data" "-" Table.No_data;
  check "pct of counts" (Printf.sprintf "%.1f%%" (100.0 *. (3.0 /. 7.0))) (Table.pct 3 7);
  check "ratio of counts" (Printf.sprintf "%.2f" (3.0 /. 7.0)) (Table.ratio 3 7);
  check "change of counts" "-16%" (Table.change 488 582)

let one_row_table id cells =
  let t =
    Table.create ~id ~title:id ~columns:(List.mapi (fun i _ -> (Printf.sprintf "c%d" i, "c")) cells)
  in
  Table.add_row t ~id:"r" cells;
  t

let test_table_cells_publish () =
  (* A zero denominator is no data: "-", and no gauge. *)
  List.iter
    (fun (name, cell) ->
      Alcotest.(check string) (name ^ " prints -") "-" (Table.render cell);
      Alcotest.(check int) (name ^ " publishes nothing") 0
        (List.length (Table.gauges (one_row_table "zero" [ cell ]))))
    [ ("pct", Table.pct 5 0); ("ratio", Table.ratio 5 0); ("change", Table.change 5 0) ];
  Alcotest.(check int) "text publishes nothing" 0
    (List.length (Table.gauges (one_row_table "text" [ Table.Text "12" ])));
  Alcotest.(check (list (pair string (float 0.0))))
    "numeric cells publish fig.<table>.<row>.<col>"
    [ ("fig.t.r.c0", 1234.0); ("fig.t.r.c1", 0.5); ("fig.t.r.c2", 10.25) ]
    (Table.gauges
       (one_row_table "t"
          [ Table.Int 1234; Table.pct 1 2; Table.Mark (Table.Fixed (2, 10.25), "*") ]));
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad table id" true
    (raises (fun () -> ignore (Table.create ~id:"Fig4" ~title:"" ~columns:[])));
  Alcotest.(check bool) "bad column id" true
    (raises (fun () -> ignore (Table.create ~id:"t" ~title:"" ~columns:[ ("64KB", "") ])));
  Alcotest.(check bool) "repeated column id" true
    (raises (fun () -> ignore (Table.create ~id:"t" ~title:"" ~columns:[ ("a", ""); ("a", "") ])));
  let t = one_row_table "dup" [ Table.Int 1 ] in
  Alcotest.(check bool) "bad row id" true (raises (fun () -> Table.add_row t ~id:"r-2" [ Table.Int 2 ]));
  Alcotest.(check bool) "repeated row id" true
    (raises (fun () -> Table.add_row t ~id:"r" [ Table.Int 2 ]))

(* One shared Quick context: building it runs the training phase once. *)
let ctx = lazy (Context.create ~scale:Context.Quick ())

let test_context_placements () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun combo -> ignore (Context.placement ctx combo))
    Spike.all_combos;
  (* cached: same physical placement on re-request *)
  Alcotest.(check bool) "placement cached" true
    (Context.placement ctx Spike.All == Context.placement ctx Spike.All)

let test_fig3 () =
  let r = Olayout_harness.Fig_footprint.run (Lazy.force ctx) in
  Alcotest.(check bool) "executed footprint plausible" true
    (r.Olayout_harness.Fig_footprint.executed_bytes > 100_000);
  Alcotest.(check bool) "60 < 99" true
    (r.Olayout_harness.Fig_footprint.bytes_60 < r.Olayout_harness.Fig_footprint.bytes_99);
  Alcotest.(check bool) "tables render" true
    (Olayout_harness.Fig_footprint.tables r <> [])

let test_fig4_reduction_band () =
  let r = Olayout_harness.Fig_line_sweep.run (Lazy.force ctx) in
  let m rows size_kb line = Olayout_harness.Fig_line_sweep.misses rows ~size_kb ~line in
  (* The headline: optimized sharply reduces misses at 64-128 KB, 128 B. *)
  List.iter
    (fun size_kb ->
      let base = m r.Olayout_harness.Fig_line_sweep.base size_kb 128 in
      let opt = m r.Olayout_harness.Fig_line_sweep.optimized size_kb 128 in
      let ratio = float_of_int opt /. float_of_int base in
      Alcotest.(check bool)
        (Printf.sprintf "big reduction at %dKB (ratio %.2f)" size_kb ratio)
        true (ratio < 0.65))
    [ 64; 128 ];
  (* Misses decrease with cache size. *)
  Alcotest.(check bool) "monotone in size" true
    (m r.Olayout_harness.Fig_line_sweep.base 32 64 > m r.Olayout_harness.Fig_line_sweep.base 512 64)

let test_fig7_ordering () =
  let r = Olayout_harness.Fig_combos.run (Lazy.force ctx) in
  let row = List.assoc 64 r.Olayout_harness.Fig_combos.rows in
  let m combo = List.assoc combo row in
  Alcotest.(check bool) "chain beats base" true (m Spike.Chain < m Spike.Base);
  Alcotest.(check bool) "all beats chain" true (m Spike.All <= m Spike.Chain);
  Alcotest.(check bool) "porder alone is weak" true
    (float_of_int (m Spike.Porder) > 0.7 *. float_of_int (m Spike.Base))

let test_fig8_sequences () =
  let r = Olayout_harness.Fig_sequences.run (Lazy.force ctx) in
  Alcotest.(check bool) "base in paper band" true
    (r.Olayout_harness.Fig_sequences.base_mean > 5.0
    && r.Olayout_harness.Fig_sequences.base_mean < 10.0);
  Alcotest.(check bool) "optimized longer" true
    (r.Olayout_harness.Fig_sequences.opt_mean > r.Olayout_harness.Fig_sequences.base_mean)

let test_fig12_combined () =
  let r = Olayout_harness.Fig_combined.run (Lazy.force ctx) in
  let base = r.Olayout_harness.Fig_combined.base in
  let opt = r.Olayout_harness.Fig_combined.optimized in
  let at rows s = List.assoc s rows in
  (* Combined misses exceed the isolated app misses (interference). *)
  Alcotest.(check bool) "interference adds misses" true
    (at base.Olayout_harness.Fig_combined.combined 64
    >= at base.Olayout_harness.Fig_combined.app_isolated 64);
  (* Optimization still wins on the combined stream. *)
  Alcotest.(check bool) "combined reduction" true
    (at opt.Olayout_harness.Fig_combined.combined 64
    < at base.Olayout_harness.Fig_combined.combined 64);
  (* App self-interference dominates app misses (paper Fig 13). *)
  Alcotest.(check bool) "self-interference dominant" true
    (base.Olayout_harness.Fig_combined.app_on_app
    > base.Olayout_harness.Fig_combined.kernel_on_app)

let test_fig14_memsys () =
  let r = Olayout_harness.Fig_memsys.run (Lazy.force ctx) in
  let b = r.Olayout_harness.Fig_memsys.base and o = r.Olayout_harness.Fig_memsys.optimized in
  Alcotest.(check bool) "iTLB improves" true
    (o.Olayout_harness.Fig_memsys.itlb < b.Olayout_harness.Fig_memsys.itlb);
  Alcotest.(check bool) "L2 instr improves" true
    (o.Olayout_harness.Fig_memsys.l2_instr <= b.Olayout_harness.Fig_memsys.l2_instr);
  Alcotest.(check bool) "L1D unaffected" true
    (o.Olayout_harness.Fig_memsys.l1d = b.Olayout_harness.Fig_memsys.l1d)

let test_fig15_speedup () =
  let r = Olayout_harness.Fig_exec_time.run (Lazy.force ctx) in
  List.iter
    (fun (name, speedup) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s speedup %.2f in band" name speedup)
        true
        (speedup > 1.1 && speedup < 1.6))
    r.Olayout_harness.Fig_exec_time.speedups

let test_fig8_one_instr_band () =
  (* Reproduction calibration: the baseline's 1-instruction sequences sit
     near the paper's 21% and drop sharply when optimized. *)
  let r = Olayout_harness.Fig_sequences.run (Lazy.force ctx) in
  let frac h = match List.assoc_opt 1 h with Some f -> f | None -> 0.0 in
  let base1 = frac r.Olayout_harness.Fig_sequences.base_hist in
  let opt1 = frac r.Olayout_harness.Fig_sequences.opt_hist in
  Alcotest.(check bool)
    (Printf.sprintf "base 1-instr %.1f%% in band" (100. *. base1))
    true
    (base1 > 0.12 && base1 < 0.30);
  Alcotest.(check bool) "optimized reduces 1-instr" true (opt1 < base1)

let test_footprint_calibration () =
  (* The executed footprint must dwarf the 64-128KB caches under study and
     carry a long warm tail, as in the paper's characterization. *)
  let r = Olayout_harness.Fig_footprint.run (Lazy.force ctx) in
  let open Olayout_harness.Fig_footprint in
  Alcotest.(check bool) "executed 250KB-600KB" true
    (r.executed_bytes > 250_000 && r.executed_bytes < 600_000);
  Alcotest.(check bool) "head not degenerate" true (r.bytes_60 > 8 * 1024);
  Alcotest.(check bool) "tail reaches ~200KB" true (r.bytes_99 > 130 * 1024)

let test_prefetch_experiment () =
  let r = Olayout_harness.Fig_prefetch.run (Lazy.force ctx) in
  let row d = List.find (fun (x : Olayout_harness.Fig_prefetch.row) -> x.prefetch = d) r.rows in
  Alcotest.(check bool) "prefetch reduces base misses" true
    ((row 1).base_misses < (row 0).base_misses);
  Alcotest.(check bool) "prefetch reduces opt misses" true
    ((row 1).opt_misses < (row 0).opt_misses);
  let hits, fills = (row 1).base_useful in
  Alcotest.(check bool) "useful fractions sane" true (hits * 5 > fills && hits <= fills)

let test_joint_experiment () =
  let r = Olayout_harness.Fig_joint.run (Lazy.force ctx) in
  Alcotest.(check bool) "kernel optimization helps combined stream" true
    (r.Olayout_harness.Fig_joint.kernel_opt <= r.Olayout_harness.Fig_joint.kernel_base);
  Alcotest.(check bool) "offset is sane" true
    (r.Olayout_harness.Fig_joint.offset_bytes > 0
    && r.Olayout_harness.Fig_joint.offset_bytes < 128 * 1024)

let test_trace_replay_in_context () =
  (* Two identical measurements through the context: the first records the
     run stream, the second replays it — with byte-identical miss counts. *)
  let ctx = Lazy.force ctx in
  let module Icache = Olayout_cachesim.Icache in
  let measure () =
    let c = Icache.create (Icache.config ~size_kb:64 ~line:128 ~assoc:2 ()) in
    ignore
      (Context.measure ctx
         ~renders:[ (Spike.Base, Context.app_only (Icache.access_run c)) ]
         ());
    (Icache.misses c, Icache.accesses c, Icache.cold_misses c)
  in
  let first = measure () in
  let s1 = Context.trace_stats ctx in
  let second = measure () in
  let s2 = Context.trace_stats ctx in
  Alcotest.(check bool) "identical counters" true (first = second);
  (* The shared context may have cached this stream already (earlier figure
     tests measure Base too) — but by now it must exist and be replayed. *)
  Alcotest.(check bool) "stream is in the cache" true (s1.Context.recorded_traces > 0);
  Alcotest.(check bool) "second run replayed" true
    (s2.Context.replayed_traces > s1.Context.replayed_traces);
  Alcotest.(check bool) "replayed runs counted" true
    (s2.Context.replayed_runs > s1.Context.replayed_runs)

(* The figures whose observers (process switches, data references) watch
   the measurement execution read the same result whether or not an earlier
   figure recorded their streams. *)
let test_figure_order_independence () =
  let module Multiproc = Olayout_harness.Fig_multiproc in
  let module Memsys = Olayout_harness.Fig_memsys in
  let ctx = Context.create ~scale:Context.Quick () in
  let both () =
    let multiproc = Multiproc.run ctx in
    (multiproc, Memsys.run ctx)
  in
  let first = both () in
  ignore (Context.traces_for ctx [ Spike.Base; Spike.All ]);
  let again = both () in
  Alcotest.(check bool) "multiproc rows equal" true (fst first = fst again);
  Alcotest.(check bool) "fig14 sides equal" true (snd first = snd again);
  (* Routing by the dispatched process spreads the runs over the CPUs. *)
  match (fst again).Multiproc.rows with
  | one :: rest ->
      Alcotest.(check bool) "per-CPU rows differ from one CPU" true
        (List.exists (fun r -> r.Multiproc.base_misses <> one.Multiproc.base_misses) rest)
  | [] -> Alcotest.fail "no multiproc rows"

(* Live reference walks of the context's measurement execution. *)
let live_walk ctx ?on_data ?app_sinks ?on_switch renders =
  let wl = Context.workload ctx in
  ignore
    (Olayout_oltp.Server.run ~app:(Olayout_oltp.Workload.app wl)
       ~kernel:(Olayout_oltp.Workload.kernel wl) ~txns:(Context.measured_txns ctx) ~seed:1009
       ~renders:
         (List.map
            (fun (app_placement, kernel_placement, emit) ->
              { Olayout_oltp.Server.app_placement; kernel_placement; emit })
            renders)
       ?on_data ?app_sinks ?on_switch ()
      : Olayout_oltp.Server.result)

let test_context_renders_path () =
  let module Trace = Olayout_exec.Trace in
  let ctx = Context.create ~scale:Context.Quick () in
  let kernel = Context.kernel_base ctx in
  (* A kernel placement the context does not own: never cached. *)
  let other_kernel = Spike.optimize (Context.kernel_profile ctx) Spike.Chain in
  let streams =
    List.map (fun combo -> (combo, kernel)) Spike.all_combos
    @ [ (Spike.All, other_kernel) ]
  in
  let live = List.map (fun _ -> Trace.record ()) streams in
  live_walk ctx
    (List.map2
       (fun (combo, k) (emit, _) -> (Context.placement ctx combo, k, emit))
       streams live);
  let walks () = (Context.trace_stats ctx).Context.live_executions in
  let walks0 = walks () in
  let served =
    List.map
      (fun (combo, k) ->
        let emit, trace = Trace.record () in
        ignore (Context.measure ctx ~kernel_placement:k ~renders:[ (combo, emit) ] ());
        trace)
      streams
  in
  List.iter2
    (fun ((combo, k), (_, expected)) trace ->
      let name =
        Spike.combo_name combo ^ if k == kernel then "" else " / unowned kernel"
      in
      Alcotest.(check bool) (name ^ ": live stream nonempty") true (Trace.length expected > 0);
      Alcotest.(check bool) (name ^ ": byte-identical") true
        (Trace.contents expected = Trace.contents trace))
    (List.combine streams live) served;
  Alcotest.(check int) "one walk serves every stream" 1 (walks () - walks0)

(* An order-sensitive digest of a call sequence. *)
type digest = { mutable h : int; mutable calls : int }

let mix d xs =
  List.iter (fun x -> d.h <- ((d.h * 1_000_003) + x) land max_int) xs;
  d.calls <- d.calls + 1

let test_context_observer_order () =
  let ctx = Context.create ~scale:Context.Quick () in
  let kernel = Context.kernel_base ctx in
  (* Base is cached first, Chain is not: a cached stream renders alongside
     the observers as an uncached one does. *)
  ignore (Context.traces_for ctx [ Spike.Base ]);
  let combos = [ Spike.Base; Spike.Chain ] in
  let observe d =
    ( (fun ~proc ~block ~arm -> mix d [ 1; proc; block; arm ]),
      (fun addr -> mix d [ 2; addr ]),
      (fun pid -> mix d [ 3; pid ]),
      List.mapi (fun i _ (r : Olayout_exec.Run.t) -> mix d [ 4 + i; r.addr; r.len ]) combos )
  in
  let live = { h = 0; calls = 0 } in
  let app, data, switch, emits = observe live in
  live_walk ctx ~on_data:data ~app_sinks:[ app ] ~on_switch:switch
    (List.map2 (fun c emit -> (Context.placement ctx c, kernel, emit)) combos emits);
  let served = { h = 0; calls = 0 } in
  let app, data, switch, emits = observe served in
  ignore
    (Context.measure ctx ~on_data:data ~app_sinks:[ app ] ~on_switch:switch
       ~renders:(List.combine combos emits) ());
  Alcotest.(check bool) "live walk made calls" true (live.calls > 0);
  Alcotest.(check int) "same number of calls" live.calls served.calls;
  Alcotest.(check int) "same call order" live.h served.h

let test_report_selection () =
  Alcotest.(check bool) "ids nonempty" true (Olayout_harness.Report.experiment_ids <> []);
  Alcotest.(check bool) "unknown id rejected" true
    (try
       ignore
         (Olayout_harness.Report.run
            ~selection:(Olayout_harness.Report.Only [ "nope" ])
            (Lazy.force ctx)
            (Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())));
       false
     with Invalid_argument msg -> contains msg "valid ids")

(* A report publishes every numeric cell of its tables.  Every key must
   gate exactly (a key ending "_s" would become a warn-only timing metric),
   and two cells may not publish one key. *)
let test_report_publishes_cells () =
  let module Diff = Olayout_regress.Diff in
  let module Telemetry = Olayout_telemetry.Telemetry in
  ignore
    (Olayout_harness.Report.run
       ~selection:(Olayout_harness.Report.Only [ "fig14"; "multiproc"; "joint" ])
       (Lazy.force ctx)
       (Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())));
  let published =
    List.filter (fun (k, _) -> String.starts_with ~prefix:"fig." k) (Telemetry.gauges ())
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " published") true (List.mem_assoc key published))
    [ "fig.fig14.itlb.base"; "fig.multiproc.4cpu.ratio"; "fig.joint.kernel_joint.offset_bytes" ];
  List.iter
    (fun (key, _) ->
      Alcotest.(check bool) (key ^ " gates exactly") true
        (Diff.classify ("gauges." ^ key) = Diff.Deterministic))
    published;
  let publish = Table.publisher () in
  publish [ one_row_table "twice" [ Table.Int 1 ] ];
  Alcotest.(check bool) "a key published twice raises" true
    (try
       publish [ one_row_table "twice" [ Table.Int 2 ] ];
       false
     with Invalid_argument _ -> true)

let suite =
  ( "harness",
    [
      Alcotest.test_case "table formatting" `Quick test_table_formatting;
      Alcotest.test_case "formatters" `Quick test_formatters;
      Alcotest.test_case "table cells publish" `Quick test_table_cells_publish;
      Alcotest.test_case "context placements" `Slow test_context_placements;
      Alcotest.test_case "fig3 footprint" `Slow test_fig3;
      Alcotest.test_case "fig4 reduction band" `Slow test_fig4_reduction_band;
      Alcotest.test_case "fig7 ordering" `Slow test_fig7_ordering;
      Alcotest.test_case "fig8 sequences" `Slow test_fig8_sequences;
      Alcotest.test_case "fig12 combined" `Slow test_fig12_combined;
      Alcotest.test_case "fig14 memsys" `Slow test_fig14_memsys;
      Alcotest.test_case "fig15 speedup" `Slow test_fig15_speedup;
      Alcotest.test_case "fig8 1-instr band" `Slow test_fig8_one_instr_band;
      Alcotest.test_case "footprint calibration" `Slow test_footprint_calibration;
      Alcotest.test_case "prefetch experiment" `Slow test_prefetch_experiment;
      Alcotest.test_case "joint experiment" `Slow test_joint_experiment;
      Alcotest.test_case "trace replay in context" `Slow test_trace_replay_in_context;
      Alcotest.test_case "figures independent of order" `Slow test_figure_order_independence;
      Alcotest.test_case "context renders from the recorded path" `Slow
        test_context_renders_path;
      Alcotest.test_case "context observers in walk order" `Slow test_context_observer_order;
      Alcotest.test_case "report selection" `Slow test_report_selection;
      Alcotest.test_case "report publishes cells" `Slow test_report_publishes_cells;
    ] )
