(* Tests for Olayout_diag: the fully-associative shadow cache, the
   address->segment resolver, the three-C classification invariants, and
   the harness diagnose driver end to end on the Quick context. *)

open Olayout_ir
module Shadow = Olayout_diag.Shadow
module Resolver = Olayout_diag.Resolver
module Diag = Olayout_diag.Diag
module Icache = Olayout_cachesim.Icache
module Histogram = Olayout_metrics.Histogram
module Placement = Olayout_core.Placement
module Segment = Olayout_core.Segment
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run
module Context = Olayout_harness.Context
module Diagnose = Olayout_harness.Diagnose
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json

let app_run addr len = { Run.owner = Run.App; addr; len }

(* --- shadow cache --- *)

let test_shadow_lru () =
  let s = Shadow.create ~capacity:2 in
  Shadow.touch s 1;
  Shadow.touch s 2;
  Alcotest.(check bool) "1 resident" true (Shadow.mem s 1);
  Alcotest.(check int) "size 2" 2 (Shadow.size s);
  (* 1 becomes MRU, so inserting 3 evicts 2, the LRU line. *)
  Shadow.touch s 1;
  Shadow.touch s 3;
  Alcotest.(check bool) "1 kept" true (Shadow.mem s 1);
  Alcotest.(check bool) "2 evicted" false (Shadow.mem s 2);
  Alcotest.(check bool) "3 resident" true (Shadow.mem s 3);
  Alcotest.(check int) "size capped" 2 (Shadow.size s)

let test_shadow_mem_does_not_touch () =
  let s = Shadow.create ~capacity:2 in
  Shadow.touch s 1;
  Shadow.touch s 2;
  ignore (Shadow.mem s 1);
  (* mem must not refresh recency: 1 is still the LRU line. *)
  Shadow.touch s 3;
  Alcotest.(check bool) "1 evicted despite mem" false (Shadow.mem s 1);
  Alcotest.(check bool) "2 kept" true (Shadow.mem s 2)

let test_shadow_validation () =
  List.iter
    (fun capacity ->
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d rejected" capacity)
        true
        (try
           ignore (Shadow.create ~capacity);
           false
         with Invalid_argument _ -> true))
    [ 0; -1 ]

(* --- resolver --- *)

let test_resolver_whole_proc () =
  let prog = Helpers.straight_prog 3 in
  let pl = Placement.original prog in
  let r = Resolver.of_placements [ (Run.App, pl) ] in
  Alcotest.(check int) "one segment" 1 (Resolver.n_segments r);
  let entry = Placement.block_addr pl ~proc:0 ~block:0 in
  Alcotest.(check int) "entry resolves" 0 (Resolver.resolve r entry);
  Alcotest.(check int) "last byte resolves" 0
    (Resolver.resolve r (entry + Resolver.seg_bytes r 0 - 1));
  Alcotest.(check string) "named after the procedure" "main" (Resolver.name r 0);
  Alcotest.(check bool) "app owner" true (Resolver.owner r 0 = Run.App);
  Alcotest.(check int) "extent covers the encoding"
    (Placement.program_instrs pl * 4)
    (Resolver.seg_bytes r 0);
  Alcotest.(check int) "before text unmapped" (-1) (Resolver.resolve r (entry - 4));
  Alcotest.(check int) "after text unmapped" (-1)
    (Resolver.resolve r (entry + Resolver.seg_bytes r 0));
  Alcotest.(check string) "unresolved name" "?" (Resolver.name r (-1))

let test_resolver_split_naming () =
  let prog = Helpers.straight_prog 3 in
  let pl =
    Placement.of_segments ~align:4 prog
      [ { Segment.proc = 0; blocks = [ 0; 1 ] }; { Segment.proc = 0; blocks = [ 2 ] } ]
  in
  let r = Resolver.of_placements [ (Run.App, pl) ] in
  Alcotest.(check int) "two segments" 2 (Resolver.n_segments r);
  Alcotest.(check string) "first chain numbered" "main#0" (Resolver.name r 0);
  Alcotest.(check string) "second chain numbered" "main#1" (Resolver.name r 1)

let test_resolver_second_placement_prefixed () =
  let app = Placement.original (Helpers.straight_prog 2) in
  let kprog =
    Helpers.prog_of_blocks ~base_addr:0x8000 "kern" [ Helpers.block 0 4 Block.Ret ]
  in
  let r =
    Resolver.of_placements [ (Run.App, app); (Run.Kernel, Placement.original kprog) ]
  in
  Alcotest.(check int) "both placements covered" 2 (Resolver.n_segments r);
  Alcotest.(check string) "kernel segment prefixed" "kern/main" (Resolver.name r 1);
  Alcotest.(check bool) "kernel owner" true (Resolver.owner r 1 = Run.Kernel)

let test_resolver_overlap_rejected () =
  let pl = Placement.original (Helpers.straight_prog 2) in
  Alcotest.(check bool) "overlapping placements raise" true
    (try
       ignore (Resolver.of_placements [ (Run.App, pl); (Run.Kernel, pl) ]);
       false
     with Invalid_argument _ -> true)

(* --- classification --- *)

let tiny_resolver () =
  Resolver.of_placements [ (Run.App, Placement.original (Helpers.straight_prog 2)) ]

let test_diag_ping_pong_is_conflict () =
  (* 1KB direct-mapped, 64B lines: addresses 0 and 1024 share a set, but a
     fully-associative cache of the same capacity holds both - the textbook
     conflict miss. *)
  let c_conflict = Telemetry.counter "diag.conflict_misses" in
  let before = Telemetry.value c_conflict in
  let d =
    Diag.create ~resolver:(tiny_resolver ())
      (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  for _ = 1 to 5 do
    Diag.access_run d (app_run 0 1);
    Diag.access_run d (app_run 1024 1)
  done;
  let t = Diag.totals d in
  Alcotest.(check int) "every access misses" 10 t.Diag.total;
  Alcotest.(check int) "two first references" 2 t.Diag.compulsory;
  Alcotest.(check int) "rest are conflicts" 8 t.Diag.conflict;
  Alcotest.(check int) "nothing is capacity" 0 t.Diag.capacity;
  Alcotest.(check int) "telemetry counter tracks" 8 (Telemetry.value c_conflict - before);
  (match Diag.hot_sets ~top:1 d with
  | [ (set, m) ] ->
      Alcotest.(check (pair int int)) "all pressure on one set" (0, 10) (set, m)
  | _ -> Alcotest.fail "expected exactly one hot set");
  Alcotest.(check int) "pressure histogram: one set took 10" 1
    (Histogram.count (Diag.set_pressure d) 10)

let test_diag_fully_assoc_no_conflict () =
  (* assoc = number of lines: the cache IS the shadow, so no miss can be
     classified as conflict. *)
  let d =
    Diag.create ~resolver:(tiny_resolver ())
      (Icache.config ~size_kb:1 ~line:64 ~assoc:16 ())
  in
  (* 37 distinct lines cycled through a 16-line cache: capacity thrash. *)
  for i = 0 to 999 do
    Diag.access_run d (app_run (i * 7 mod 37 * 64) 1)
  done;
  let t = Diag.totals d in
  Alcotest.(check int) "no conflict misses" 0 t.Diag.conflict;
  Alcotest.(check bool) "capacity misses dominate" true (t.Diag.capacity > 0);
  Alcotest.(check int) "classes partition the misses" t.Diag.total
    (t.Diag.compulsory + t.Diag.capacity + t.Diag.conflict)

let test_diag_matches_plain_icache () =
  (* The diagnosed cache splits runs per line; its counters must equal a
     plain simulation of the same stream. *)
  let cfg () = Icache.config ~size_kb:1 ~line:64 ~assoc:2 () in
  let d = Diag.create ~resolver:(tiny_resolver ()) (cfg ()) in
  let plain = Icache.create (cfg ()) in
  let runs =
    List.init 400 (fun i -> app_run (i * 53 mod 4096 * 4) (1 + (i mod 40)))
  in
  List.iter
    (fun r ->
      Diag.access_run d r;
      Icache.access_run plain r)
    runs;
  Alcotest.(check int) "misses equal" (Icache.misses plain) (Icache.misses (Diag.icache d));
  Alcotest.(check int) "accesses equal" (Icache.accesses plain)
    (Icache.accesses (Diag.icache d));
  Alcotest.(check int) "cold equal" (Icache.cold_misses plain)
    (Icache.cold_misses (Diag.icache d));
  let t = Diag.totals d in
  Alcotest.(check int) "classes partition the misses" t.Diag.total
    (t.Diag.compulsory + t.Diag.capacity + t.Diag.conflict)

let test_diag_attribution () =
  let prog = Helpers.straight_prog 2 in
  let pl = Placement.original prog in
  let resolver = Resolver.of_placements [ (Run.App, pl) ] in
  let d = Diag.create ~resolver (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  let entry = Placement.block_addr pl ~proc:0 ~block:0 in
  Diag.access_run d (app_run entry 4);
  Diag.access_run d (app_run (entry + 1024) 4);  (* same set, unmapped address *)
  Diag.access_run d (app_run entry 4);
  let find n =
    List.find (fun (r : Diag.seg_row) -> r.Diag.seg_name = n) (Diag.by_segment d)
  in
  let main = find "main" and unk = find "?" in
  Alcotest.(check int) "main missed twice" 2 main.Diag.seg_misses;
  Alcotest.(check int) "main evicted once" 1 main.Diag.seg_evictions_suffered;
  Alcotest.(check int) "main evicts once" 1 main.Diag.seg_evictions_caused;
  Alcotest.(check int) "unmapped line missed once" 1 unk.Diag.seg_misses;
  Alcotest.(check bool) "unmapped has no owner" true (unk.Diag.seg_owner = None);
  Alcotest.(check bool) "pair ? -> main in the matrix" true
    (List.exists
       (fun (p : Diag.conflict_pair) ->
         p.Diag.cp_evictor = "?" && p.Diag.cp_victim = "main" && p.Diag.cp_count = 1)
       (Diag.conflict_pairs d))

let test_diag_json_shape () =
  let d =
    Diag.create ~resolver:(tiny_resolver ())
      (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Diag.access_run d (app_run 0 1);
  Diag.access_run d (app_run 1024 1);
  Diag.access_run d (app_run 0 1);
  match Diag.json d with
  | Json.Object fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true (List.mem_assoc key fields))
        [ "geometry"; "classification"; "segments"; "conflict_pairs"; "set_pressure" ]
  | _ -> Alcotest.fail "diag json must be an object"

(* --- the harness driver on the shared Quick context --- *)

let ctx = Test_harness.ctx

let test_diagnose_presets () =
  Alcotest.(check bool) "presets listed" true (List.length Diagnose.presets >= 3);
  Alcotest.(check string) "fig4 geometry" "fig4" (Diagnose.preset_of_figure "fig4").Diagnose.fig;
  Alcotest.(check bool) "unknown figure names the valid ones" true
    (try
       ignore (Diagnose.preset_of_figure "fig99");
       false
     with Invalid_argument msg ->
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       contains msg "fig99" && contains msg "fig4")

let test_diagnose_sum_invariant () =
  let ctx = Lazy.force ctx in
  let d = (Diagnose.run ~combo:Spike.Base ctx (Diagnose.preset_of_figure "fig4")).Diagnose.diag in
  let t = Diag.totals d in
  Alcotest.(check bool) "misses happened" true (t.Diag.total > 0);
  Alcotest.(check int) "classes partition the misses" t.Diag.total
    (t.Diag.compulsory + t.Diag.capacity + t.Diag.conflict);
  Alcotest.(check int) "total is the wrapped cache's misses"
    (Icache.misses (Diag.icache d))
    t.Diag.total;
  Alcotest.(check bool) "cold fills are first references" true
    (t.Diag.cold <= t.Diag.compulsory);
  Alcotest.(check bool) "conflict pairs recorded" true (Diag.conflict_pairs d <> []);
  Alcotest.(check bool) "segments attributed" true
    (List.exists (fun (r : Diag.seg_row) -> r.Diag.seg_owner = Some Run.App)
       (Diag.by_segment d))

let test_diagnose_replay_identical () =
  (* Two identical diagnoses through the context: the second replays the
     recorded trace and must classify byte-identically. *)
  let ctx = Lazy.force ctx in
  let preset = Diagnose.preset_of_figure "fig6" in
  let snapshot () =
    let d = (Diagnose.run ~combo:Spike.Chain ctx preset).Diagnose.diag in
    (Diag.totals d, Diag.by_segment d, Diag.conflict_pairs d, Diag.hot_sets ~top:16 d)
  in
  let first = snapshot () in
  let stats = Context.trace_stats ctx in
  let second = snapshot () in
  let stats' = Context.trace_stats ctx in
  Alcotest.(check bool) "identical diagnosis" true (first = second);
  Alcotest.(check bool) "second pass replayed" true
    (stats'.Context.replayed_traces > stats.Context.replayed_traces)

let test_diagnose_artifact_parses () =
  let ctx = Lazy.force ctx in
  let preset = Diagnose.preset_of_figure "fig4" in
  let combo = Spike.Base in
  let path = Filename.temp_file "olayout_diag" ".json" in
  Json.write_file path
    (Diagnose.artifact_json ~scale:"quick" ~combo ~preset (Diagnose.run ~combo ctx preset));
  let contents =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let j = Helpers.parse_json (String.trim contents) in
  let num path =
    match
      List.fold_left (fun acc k -> Option.bind acc (Helpers.jmem k)) (Some j) path
    with
    | Some (Helpers.Jnum f) -> int_of_float f
    | _ -> Alcotest.fail ("missing number " ^ String.concat "." path)
  in
  (match Helpers.jmem "schema" j with
  | Some (Helpers.Jstr s) ->
      Alcotest.(check string) "schema" Diagnose.artifact_schema s
  | _ -> Alcotest.fail "schema missing");
  let misses = num [ "diag"; "classification"; "misses" ] in
  Alcotest.(check int) "counter delta equals classified total" misses
    (num [ "icache_misses_counter_delta" ]);
  Alcotest.(check int) "classes sum to the total" misses
    (num [ "diag"; "classification"; "compulsory" ]
    + num [ "diag"; "classification"; "capacity" ]
    + num [ "diag"; "classification"; "conflict" ]);
  match Option.bind (Helpers.jmem "diag" j) (Helpers.jmem "conflict_pairs") with
  | Some (Helpers.Jarr (_ :: _)) -> ()
  | _ -> Alcotest.fail "conflict_pairs empty or missing"

let suite =
  ( "diag",
    [
      Alcotest.test_case "shadow LRU" `Quick test_shadow_lru;
      Alcotest.test_case "shadow mem is read-only" `Quick test_shadow_mem_does_not_touch;
      Alcotest.test_case "shadow validation" `Quick test_shadow_validation;
      Alcotest.test_case "resolver whole proc" `Quick test_resolver_whole_proc;
      Alcotest.test_case "resolver split naming" `Quick test_resolver_split_naming;
      Alcotest.test_case "resolver kernel prefix" `Quick test_resolver_second_placement_prefixed;
      Alcotest.test_case "resolver overlap rejected" `Quick test_resolver_overlap_rejected;
      Alcotest.test_case "ping-pong is conflict" `Quick test_diag_ping_pong_is_conflict;
      Alcotest.test_case "fully-assoc has no conflict" `Quick test_diag_fully_assoc_no_conflict;
      Alcotest.test_case "diag matches plain icache" `Quick test_diag_matches_plain_icache;
      Alcotest.test_case "attribution" `Quick test_diag_attribution;
      Alcotest.test_case "json shape" `Quick test_diag_json_shape;
      Alcotest.test_case "diagnose presets" `Quick test_diagnose_presets;
      Alcotest.test_case "diagnose sum invariant" `Slow test_diagnose_sum_invariant;
      Alcotest.test_case "diagnose replay identical" `Slow test_diagnose_replay_identical;
      Alcotest.test_case "diagnose artifact parses" `Slow test_diagnose_artifact_parses;
    ] )
