(* Tests for Olayout_memsim: iTLB, generic cache, hierarchy, physical
   translation. *)

module Itlb = Olayout_memsim.Itlb
module Cache = Olayout_memsim.Cache
module Hierarchy = Olayout_memsim.Hierarchy
module Phys = Olayout_memsim.Phys
module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Diag = Olayout_diag.Diag
module Resolver = Olayout_diag.Resolver
module Timing = Olayout_perf.Timing
module Machine = Olayout_perf.Machine
module Run = Olayout_exec.Run
module Trace = Olayout_exec.Trace
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline

let app_run addr len = { Run.owner = Run.App; addr; len }

let test_itlb_basics () =
  let t = Itlb.create ~entries:4 () in
  Itlb.access_run t (app_run 0 10);
  Alcotest.(check int) "first page misses" 1 (Itlb.misses t);
  Itlb.access_run t (app_run 100 10);
  Alcotest.(check int) "same page hits" 1 (Itlb.misses t);
  Itlb.access_run t (app_run 8192 1);
  Alcotest.(check int) "new page misses" 2 (Itlb.misses t);
  Alcotest.(check int) "unique pages" 2 (Itlb.unique_pages t)

let test_itlb_run_spans_pages () =
  let t = Itlb.create ~entries:8 () in
  (* 8 KB pages; run of 4096 instrs = 16 KB spans 3 pages from offset 4096. *)
  Itlb.access_run t (app_run 4096 4096);
  Alcotest.(check int) "three pages" 3 (Itlb.misses t)

let test_itlb_lru_eviction () =
  let t = Itlb.create ~entries:2 () in
  let page i = app_run (i * 8192) 1 in
  Itlb.access_run t (page 0);
  Itlb.access_run t (page 1);
  Itlb.access_run t (page 0);
  Itlb.access_run t (page 2);
  (* page 1 is LRU and evicted *)
  let m = Itlb.misses t in
  Itlb.access_run t (page 0);
  Alcotest.(check int) "page 0 survived" m (Itlb.misses t);
  Itlb.access_run t (page 1);
  Alcotest.(check int) "page 1 evicted" (m + 1) (Itlb.misses t)

let test_cache_kinds () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  Cache.access c ~kind:Cache.Instr 0;
  Cache.access c ~kind:Cache.Data 64;
  Cache.access c ~kind:Cache.Data 64;
  Alcotest.(check int) "instr misses" 1 (Cache.misses_kind c Cache.Instr);
  Alcotest.(check int) "data misses" 1 (Cache.misses_kind c Cache.Data);
  Alcotest.(check int) "data accesses" 2 (Cache.accesses_kind c Cache.Data);
  Alcotest.(check int) "total" 2 (Cache.misses c)

let test_cache_non_pow2_size () =
  (* 1.5 MB 6-way with 64 B lines: 4096 sets, legal. *)
  let c = Cache.create ~name:"l2" ~size_bytes:(1536 * 1024) ~line_bytes:64 ~assoc:6 () in
  Cache.access c ~kind:Cache.Instr 0;
  Alcotest.(check int) "works" 1 (Cache.misses c)

let test_cache_bad_configs () =
  (* line_bytes = 0 used to pass the power-of-two check (0 land -1 = 0) and
     then divide by zero computing the set count. *)
  List.iter
    (fun (size_bytes, line_bytes, assoc) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d/%d/%d rejected" size_bytes line_bytes assoc)
        true
        (try
           ignore (Cache.create ~name:"bad" ~size_bytes ~line_bytes ~assoc ());
           false
         with Invalid_argument _ -> true))
    [ (1024, 0, 1); (0, 64, 1); (1024, -64, 1); (1024, 48, 1); (1024, 64, 0) ]

let test_cache_on_miss () =
  let fired = ref 0 in
  let c =
    Cache.create ~on_miss:(fun _ -> incr fired) ~name:"t" ~size_bytes:1024 ~line_bytes:64
      ~assoc:1 ()
  in
  Cache.access c ~kind:Cache.Instr 0;
  Cache.access c ~kind:Cache.Instr 0;
  Alcotest.(check int) "fires on miss only" 1 !fired

let test_hierarchy_wiring () =
  let h = Hierarchy.create Hierarchy.simos_base in
  Hierarchy.fetch_run h (app_run 0 16);
  Alcotest.(check int) "l1i miss" 1 (Hierarchy.l1i_misses h);
  Alcotest.(check int) "l2 instr fed" 1 (Hierarchy.l2_instr_misses h);
  Alcotest.(check int) "itlb miss" 1 (Hierarchy.itlb_misses h);
  Hierarchy.data_access h 0x4000_0000;
  Alcotest.(check int) "l1d miss" 1 (Hierarchy.l1d_misses h);
  Alcotest.(check int) "l2 data fed" 1 (Hierarchy.l2_data_misses h);
  (* Re-fetch: L1 hit, L2 untouched. *)
  Hierarchy.fetch_run h (app_run 0 16);
  Alcotest.(check int) "l1i hit" 1 (Hierarchy.l1i_misses h);
  Alcotest.(check int) "l2 stable" 1 (Hierarchy.l2_instr_misses h)

(* --- one victim rule ---------------------------------------------------
   Every simulator fills the first empty way in way order, else replaces
   the way with the oldest stamp, the lowest way on a tie.  Each case
   drives one set of four ways through partly empty and full states. *)

(* [touch n] feeds line (or page) [n] and says whether it missed.  The
   residents are probed first, since a probe that misses evicts. *)
let check_set name touch ~resident ~evicted =
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%s: %d resident" name n) false (touch n))
    resident;
  Alcotest.(check bool) (Printf.sprintf "%s: %d evicted" name evicted) true (touch evicted)

(* Fill two ways, hit one, fill the rest, then miss: the way least
   recently used goes, whichever way it sits in. *)
let lru_through_empty_ways name touch =
  List.iter (fun n -> ignore (touch n)) [ 1; 2; 1; 3; 4; 5 ];
  check_set name touch ~resident:[ 1; 3; 4; 5 ] ~evicted:2;
  (* The probes left 1 least recent; refilling 2 replaced it. *)
  check_set name touch ~resident:[ 3; 4; 5; 2 ] ~evicted:1

let icache_one_set ?prefetch_next ?on_evict () =
  (* 1 KB of 256-byte lines, 4 ways: one set. *)
  let c =
    Icache.create ?prefetch_next ?on_evict (Icache.config ~size_kb:1 ~line:256 ~assoc:4 ())
  in
  let touch n =
    let m = Icache.misses c in
    Icache.access_run c (app_run (n * 256) 1);
    Icache.misses c > m
  in
  (c, touch)

let test_victim_rule () =
  let cache = Cache.create ~name:"one-set" ~size_bytes:256 ~line_bytes:64 ~assoc:4 () in
  lru_through_empty_ways "cache" (fun n ->
      let m = Cache.misses cache in
      Cache.access cache ~kind:Cache.Data (n * 64);
      Cache.misses cache > m);
  let itlb = Itlb.create ~entries:4 () in
  lru_through_empty_ways "itlb" (fun n ->
      let m = Itlb.misses itlb in
      Itlb.access_run itlb (app_run (n * Phys.page_bytes) 1);
      Itlb.misses itlb > m);
  let ic, touch = icache_one_set () in
  lru_through_empty_ways "icache" touch;
  (* Emptied ways keep their stamps but are still filled first. *)
  Icache.flush_residents ic;
  List.iter (fun n -> ignore (touch n)) [ 6; 7; 6; 8; 9; 10 ];
  check_set "icache after flush" touch ~resident:[ 6; 8; 9; 10 ] ~evicted:7

(* A prefetched line shares its demand line's stamp, so which of the two
   goes first shows the way order. *)
let test_victim_rule_prefetch () =
  let evicted = ref [] in
  let ic, touch =
    icache_one_set ~prefetch_next:1
      ~on_evict:(fun ~evictor ~victim -> evicted := (evictor / 256, victim / 256) :: !evicted)
      ()
  in
  let feed lines = List.iter (fun n -> ignore (touch n)) lines in
  let expect what want =
    Alcotest.(check (list (pair int int))) what want (List.rev !evicted);
    evicted := []
  in
  (* Line 0 and its prefetch 1 fill ways 0 and 1, 10 and 11 ways 2 and 3;
     the hits then leave the stamps falling with the way index. *)
  feed [ 0; 10; 11; 10; 1; 0 ];
  expect "no replacement while ways are empty" [];
  (* Flushed, the ways keep those stamps: the oldest is way 3's, but 20
     and its prefetch 21 still land in ways 0 and 1, and 30/31 in 2 and 3. *)
  Icache.flush_residents ic;
  feed [ 20; 30 ];
  expect "flushed ways fill without replacement" [];
  (* 20 and 21 tie on the oldest stamp: way 0 goes first. *)
  feed [ 40 ];
  expect "tie goes to the lowest way" [ (40, 20); (41, 21) ];
  (* 41 is used; 30 and 31 tie on the oldest stamp in ways 2 and 3. *)
  feed [ 41; 50 ];
  expect "then the next oldest pair" [ (50, 30); (51, 31) ]

(* --- every engine ------------------------------------------------------ *)

(* A run of no instructions touches nothing, wherever it starts: at
   address 0 its last byte would be -1, whose lines span the address
   space. *)
let test_zero_length_runs () =
  let cfg = Icache.config ~size_kb:1 ~line:64 ~assoc:1 () in
  let counters =
    List.map Telemetry.counter
      [
        "cachesim.icache_accesses"; "cachesim.icache_misses"; "cachesim.stackdist.accesses";
        "cachesim.stackdist.misses"; "memsim.itlb_accesses"; "memsim.itlb_misses";
        "memsim.cache_accesses";
      ]
  in
  let zero_len (d : Timeline.dump) =
    match String.split_on_char '.' d.d_name with _ :: "zero_len" :: _ -> true | _ -> false
  in
  Timeline.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Timeline.set_enabled false)
    (fun () ->
      let before = List.map Telemetry.value counters in
      let icache = Icache.create cfg and itlb = Itlb.create ~entries:4 () in
      let hierarchy = Hierarchy.create ~timeline:"zero_len" Hierarchy.simos_base in
      let diag =
        Diag.create ~timeline:"zero_len"
          ~resolver:
            (Resolver.of_placements
               [ (Run.App, Olayout_core.Placement.original (Helpers.straight_prog 2)) ])
          cfg
      in
      let batteries =
        List.map
          (fun engine ->
            Battery.create ~engine ~timeline:(cfg.Icache.name, "zero_len") [ cfg ])
          [ `Icache; `Stackdist ]
      in
      List.iter
        (fun (owner, addr) ->
          let r = { Run.owner; addr; len = 0 } in
          Icache.access_run icache r;
          Itlb.access_run itlb r;
          Hierarchy.fetch_run hierarchy r;
          Diag.access_run diag r;
          List.iter (fun b -> Battery.access_run b r) batteries)
        [ (Run.App, 0); (Run.App, 64); (Run.Kernel, 8192) ];
      Alcotest.(check (list int)) "simulator counts"
        [ 0; 0; 0; 0; 0; 0; 0; 0; 0 ]
        ([
           Icache.accesses icache; Icache.misses icache; Itlb.accesses itlb;
           Itlb.misses itlb; Icache.accesses (Hierarchy.l1i hierarchy);
           Itlb.accesses (Hierarchy.itlb hierarchy); Icache.accesses (Diag.icache diag);
         ]
        @ List.map (fun b -> Battery.misses b cfg.Icache.name) batteries);
      Alcotest.(check (list int)) "telemetry counters" before
        (List.map Telemetry.value counters);
      let series = List.filter zero_len (Timeline.dump ()) in
      Alcotest.(check int) "probed series" 7 (List.length series);
      Alcotest.(check (list (pair string int))) "timeline windows" []
        (List.filter_map
           (fun (d : Timeline.dump) ->
             if Array.length d.d_values > 0 then Some (d.d_name, Array.length d.d_values)
             else None)
           series))

(* Replaying a recorded trace into a warm per-access simulator allocates
   nothing beyond the runs it decodes (a [Run.t] is four words), counted in
   both heaps ([Helpers.allocated_words]): each is measured on a second
   replay, after the first allocated the first-touch pages.  Usage-tracking
   caches are exempt: their histograms grow per replacement. *)
let test_replay_allocation () =
  let state = ref 11 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let record, trace = Trace.record () in
  for _ = 1 to 20000 do
    let len = 1 + rand 24 in
    if rand 3 = 0 then record { Run.owner = Run.Kernel; addr = 0x8000_0000 + (rand 16384 * 4); len }
    else record (app_run (0x0120_0000 + (rand 65536 * 4)) len)
  done;
  let cfg = Icache.config ~size_kb:8 ~line:32 ~assoc:2 () in
  let hierarchy = Hierarchy.create Hierarchy.simos_base in
  List.iter
    (fun (name, feed) ->
      Trace.replay trace feed;
      let extra =
        Helpers.allocated_words (fun () -> Trace.replay trace feed) - (4 * Trace.length trace)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d words beyond the decoded runs" name extra)
        true (extra <= 64))
    [
      ("icache", Icache.access_run (Icache.create cfg));
      ("icache with prefetch", Icache.access_run (Icache.create ~prefetch_next:2 cfg));
      ("itlb", Itlb.access_run (Itlb.create ~entries:48 ()));
      ( "hierarchy",
        fun r ->
          Hierarchy.fetch_run hierarchy r;
          Hierarchy.data_access hierarchy (0x4000_0000 + r.Run.addr) );
      ("timing", Timing.fetch_run (Timing.create Machine.alpha_21264));
    ]

let test_phys_translate () =
  let a = Phys.translate 0x12345 in
  Alcotest.(check int) "offset preserved" (0x12345 land 8191) (a land 8191);
  Alcotest.(check int) "deterministic" a (Phys.translate 0x12345);
  (* Consecutive pages of one region keep consecutive cache colors. *)
  let color addr = (Phys.translate addr lsr 13) land 255 in
  let c0 = color 0x100000 and c1 = color (0x100000 + 8192) in
  Alcotest.(check int) "consecutive colors" ((c0 + 1) land 255) c1

let test_phys_no_trivial_collisions () =
  (* Sample pages across app and kernel text: frames should be distinct. *)
  let seen = Hashtbl.create 64 in
  let collisions = ref 0 in
  List.iter
    (fun base ->
      for i = 0 to 127 do
        let frame = Phys.translate (base + (i * 8192)) lsr 13 in
        if Hashtbl.mem seen frame then incr collisions else Hashtbl.add seen frame ()
      done)
    [ 0x0120_0000; 0x8000_0000 ];
  (* Frames have ~17 random bits; a couple of birthday collisions among 256
     sampled pages are acceptable, systematic aliasing is not. *)
  Alcotest.(check bool) "few frame collisions in sample" true (!collisions < 4)

let suite =
  ( "memsim",
    [
      Alcotest.test_case "itlb basics" `Quick test_itlb_basics;
      Alcotest.test_case "itlb run spans pages" `Quick test_itlb_run_spans_pages;
      Alcotest.test_case "itlb LRU eviction" `Quick test_itlb_lru_eviction;
      Alcotest.test_case "cache kinds" `Quick test_cache_kinds;
      Alcotest.test_case "cache non-pow2 size" `Quick test_cache_non_pow2_size;
      Alcotest.test_case "cache bad configs" `Quick test_cache_bad_configs;
      Alcotest.test_case "cache on_miss" `Quick test_cache_on_miss;
      Alcotest.test_case "hierarchy wiring" `Quick test_hierarchy_wiring;
      Alcotest.test_case "one victim rule" `Quick test_victim_rule;
      Alcotest.test_case "one victim rule under prefetch" `Quick test_victim_rule_prefetch;
      Alcotest.test_case "zero-length runs touch nothing" `Quick test_zero_length_runs;
      Alcotest.test_case "replay allocation" `Quick test_replay_allocation;
      Alcotest.test_case "phys translate" `Quick test_phys_translate;
      Alcotest.test_case "phys collisions" `Quick test_phys_no_trivial_collisions;
    ] )
