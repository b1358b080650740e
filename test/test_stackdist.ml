(* Tests for the stack-distance all-associativity engine: unit checks of
   the per-set LRU identity, the fully-associative degenerate case vs the
   diagnostics Shadow LRU, randomized exact-equality cross-checks against
   Icache over mixed and sweep-shaped geometries, feeding with one publish,
   block feeding against per-run feeding, per-run probe deltas, and the
   engine-selecting Battery API. *)

module Icache = Olayout_cachesim.Icache
module Stackdist = Olayout_cachesim.Stackdist
module Battery = Olayout_cachesim.Battery
module Shadow = Olayout_diag.Shadow
module Run = Olayout_exec.Run
module Trace = Olayout_exec.Trace
module Telemetry = Olayout_telemetry.Telemetry

let app_run addr len = { Run.owner = Run.App; addr; len }

let cfg ?name ~size_kb ~line ~assoc () = Icache.config ?name ~size_kb ~line ~assoc ()

let test_direct_mapped_conflict () =
  (* Mirrors the icache unit test: 1KB direct-mapped, 64B lines = 16 sets;
     addresses 0 and 1024 collide and ping-pong. *)
  let sd = Stackdist.create [ cfg ~name:"c" ~size_kb:1 ~line:64 ~assoc:1 () ] in
  Stackdist.feed sd (app_run 0 1);
  Stackdist.feed sd (app_run 1024 1);
  Stackdist.feed sd (app_run 0 1);
  Alcotest.(check int) "ping-pong" 3 (Stackdist.misses sd "c");
  Alcotest.(check int) "two cold" 2 (Stackdist.cold_misses sd "c")

let test_two_way_no_conflict () =
  let sd = Stackdist.create [ cfg ~name:"c" ~size_kb:1 ~line:64 ~assoc:2 () ] in
  Stackdist.feed sd (app_run 0 1);
  Stackdist.feed sd (app_run 1024 1);
  Stackdist.feed sd (app_run 0 1);
  Alcotest.(check int) "both fit" 2 (Stackdist.misses sd "c")

let test_one_pass_many_geometries () =
  (* One pass answers every geometry at the shared line size at once. *)
  let sd =
    Stackdist.create
      [
        cfg ~name:"dm" ~size_kb:1 ~line:64 ~assoc:1 ();
        cfg ~name:"2way" ~size_kb:1 ~line:64 ~assoc:2 ();
        cfg ~name:"big" ~size_kb:4 ~line:64 ~assoc:1 ();
      ]
  in
  Stackdist.feed sd (app_run 0 1);
  Stackdist.feed sd (app_run 1024 1);
  Stackdist.feed sd (app_run 0 1);
  Alcotest.(check int) "dm conflicts" 3 (Stackdist.misses sd "dm");
  Alcotest.(check int) "2-way fits" 2 (Stackdist.misses sd "2way");
  Alcotest.(check int) "4KB has distinct sets" 2 (Stackdist.misses sd "big");
  Alcotest.(check int) "one group" 1 (Stackdist.n_groups sd);
  Alcotest.(check int) "three accesses in the group" 3 (Stackdist.accesses sd);
  Alcotest.(check (list (pair string int)))
    "creation order preserved"
    [ ("dm", 3); ("2way", 2); ("big", 2) ]
    (List.map
       (fun ((c : Icache.config), m) -> (c.Icache.name, m))
       (Stackdist.misses_by_config sd))

let test_run_spanning_lines () =
  let sd = Stackdist.create [ cfg ~name:"c" ~size_kb:1 ~line:64 ~assoc:1 () ] in
  (* 40 instructions from 0: 160 bytes = lines 0,1,2 *)
  Stackdist.feed sd (app_run 0 40);
  Alcotest.(check int) "three lines missed" 3 (Stackdist.misses sd "c");
  Alcotest.(check int) "three accesses" 3 (Stackdist.accesses sd)

let test_groups_by_line_size () =
  let sd =
    Stackdist.create
      [
        cfg ~size_kb:1 ~line:32 ~assoc:1 ();
        cfg ~size_kb:2 ~line:64 ~assoc:1 ();
        cfg ~size_kb:4 ~line:32 ~assoc:2 ();
      ]
  in
  Alcotest.(check int) "two line sizes, two groups" 2 (Stackdist.n_groups sd)

let test_unknown_name_raises () =
  let sd = Stackdist.create [ cfg ~name:"only" ~size_kb:1 ~line:64 ~assoc:1 () ] in
  Alcotest.(check bool) "raises with available names" true
    (try
       ignore (Stackdist.misses sd "nope");
       false
     with Invalid_argument msg ->
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       contains msg "nope" && contains msg "only")

let test_bad_configs () =
  List.iter
    (fun (size_kb, line, assoc) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d/%d/%d rejected" size_kb line assoc)
        true
        (try
           ignore (Stackdist.create [ cfg ~size_kb ~line ~assoc () ]);
           false
         with Invalid_argument _ -> true))
    [ (3, 64, 1); (1, 48, 1); (1, 2048, 1); (1, 2, 1); (1, 64, 3) ]

let test_feed_block_bounds () =
  let sd = Stackdist.create [ cfg ~size_kb:1 ~line:64 ~assoc:1 () ] in
  let raises ~addrs ~lens lo hi =
    try
      Stackdist.feed_block sd ~addr:(Array.make addrs 0) ~len:(Array.make lens 1) ~lo ~hi;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check (list bool))
    "a negative lo, lo > hi, or hi past either array raises" [ true; true; true; true ]
    [
      raises ~addrs:4 ~lens:4 (-1) 2;
      raises ~addrs:4 ~lens:4 3 2;
      raises ~addrs:4 ~lens:3 0 4;
      raises ~addrs:3 ~lens:4 1 4;
    ];
  Alcotest.(check (list bool)) "ranges within both arrays feed" [ false; false; false ]
    [ raises ~addrs:4 ~lens:3 0 3; raises ~addrs:3 ~lens:4 1 3; raises ~addrs:4 ~lens:4 4 4 ];
  Alcotest.(check int) "five runs of one line, all at line 0" 5 (Stackdist.accesses sd)

(* --- fully-associative degenerate case = the diagnostics Shadow LRU --- *)

let test_fully_assoc_matches_shadow () =
  (* 1KB of 64B lines, 16-way = one set: the classic Mattson stack, which
     is exactly what Shadow implements with eviction. *)
  let capacity = 16 in
  let sd = Stackdist.create [ cfg ~name:"fa" ~size_kb:1 ~line:64 ~assoc:capacity () ] in
  let sh = Shadow.create ~capacity in
  let shadow_misses = ref 0 in
  let state = ref 42 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  for _ = 1 to 5000 do
    let line = rand 64 in
    if not (Shadow.mem sh line) then incr shadow_misses;
    Shadow.touch sh line;
    Stackdist.feed sd (app_run (line * 64) 1)
  done;
  Alcotest.(check int) "stackdist = shadow" !shadow_misses (Stackdist.misses sd "fa")

(* --- randomized exact equality against Icache ------------------------- *)

let mixed_configs =
  [
    cfg ~size_kb:1 ~line:16 ~assoc:1 ();
    cfg ~size_kb:2 ~line:16 ~assoc:2 ();
    cfg ~size_kb:4 ~line:16 ~assoc:4 ();
    cfg ~size_kb:1 ~line:64 ~assoc:1 ();
    cfg ~size_kb:2 ~line:64 ~assoc:4 ();
    cfg ~size_kb:8 ~line:64 ~assoc:2 ();
    cfg ~size_kb:1 ~line:128 ~assoc:8 ();
    cfg ~size_kb:16 ~line:128 ~assoc:1 ();
  ]

let qcheck_matches_icache =
  let gen =
    QCheck.make
      ~print:(fun runs ->
        String.concat ";" (List.map (fun (a, l) -> Printf.sprintf "(%d,%d)" a l) runs))
      QCheck.Gen.(list_size (int_range 1 400) (pair (int_range 0 8000) (int_range 1 40)))
  in
  QCheck.Test.make ~name:"stackdist = icache misses and cold (mixed geometries)"
    ~count:40 gen (fun runs ->
      let sd = Stackdist.create mixed_configs in
      let caches = List.map Icache.create mixed_configs in
      List.iter
        (fun (block, len) ->
          let run = app_run (block * 4) len in
          Stackdist.feed sd run;
          List.iter (fun c -> Icache.access_run c run) caches)
        runs;
      List.for_all2
        (fun c ((scfg : Icache.config), m) ->
          (Icache.cfg c).Icache.name = scfg.Icache.name
          && Icache.misses c = m
          && Icache.cold_misses c = Stackdist.cold_misses sd scfg.Icache.name)
        caches
        (Stackdist.misses_by_config sd))

(* --- a sweep-shaped grid ------------------------------------------------ *)

(* Like the figures' grids: several set counts per line size, different
   associativities at one set count, a direct-mapped-only group, and one
   fully associative configuration. *)
let sweep_grid =
  [
    cfg ~size_kb:1 ~line:32 ~assoc:1 ();
    cfg ~size_kb:2 ~line:32 ~assoc:2 ();
    cfg ~size_kb:4 ~line:32 ~assoc:4 ();
    cfg ~size_kb:2 ~line:32 ~assoc:1 ();
    cfg ~size_kb:4 ~line:32 ~assoc:2 ();
    cfg ~size_kb:8 ~line:32 ~assoc:1 ();
    cfg ~size_kb:2 ~line:128 ~assoc:16 ();
    cfg ~size_kb:2 ~line:128 ~assoc:1 ();
    cfg ~size_kb:2 ~line:128 ~assoc:2 ();
    cfg ~size_kb:4 ~line:128 ~assoc:4 ();
    cfg ~size_kb:4 ~line:128 ~assoc:2 ();
    cfg ~size_kb:8 ~line:128 ~assoc:8 ();
    cfg ~size_kb:16 ~line:128 ~assoc:1 ();
    cfg ~size_kb:1 ~line:16 ~assoc:1 ();
    cfg ~size_kb:4 ~line:16 ~assoc:1 ();
  ]

(* [n] runs from a seeded generator: application text near 0, kernel text
   at 0x8000_0000, and runs that start on the previous run's last line. *)
let sweep_runs ~seed n =
  let state = ref seed in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let prev = ref (app_run 0 1) in
  List.init n (fun _ ->
      let run =
        match rand 4 with
        | 0 -> { !prev with Run.addr = !prev.Run.addr + ((!prev.Run.len - 1) * 4); len = 1 + rand 8 }
        | 1 -> { Run.owner = Run.Kernel; addr = 0x8000_0000 + (rand 4096 * 4); len = 1 + rand 24 }
        | _ -> app_run (rand 4096 * 4) (1 + rand 24)
      in
      prev := run;
      run)

let results sd =
  List.map
    (fun ((c : Icache.config), m) ->
      (c.Icache.name, m, Stackdist.cold_misses sd c.Icache.name))
    (Stackdist.misses_by_config sd)

let qcheck_sweep_grid =
  QCheck.Test.make ~name:"sweep grid = icache (randomized)" ~count:30
    QCheck.(pair small_nat (int_range 1 3000))
    (fun (seed, n) ->
      let sd = Stackdist.create sweep_grid in
      let caches = List.map Icache.create sweep_grid in
      List.iter
        (fun run ->
          Stackdist.feed sd run;
          List.iter (fun c -> Icache.access_run c run) caches)
        (sweep_runs ~seed n);
      results sd
      = List.map
          (fun c -> ((Icache.cfg c).Icache.name, Icache.misses c, Icache.cold_misses c))
          caches)

(* How much [f] moves the three process-wide stackdist counters. *)
let counter_deltas f =
  let read () =
    List.map
      (fun n -> Telemetry.value (Telemetry.counter ("cachesim.stackdist." ^ n)))
      [ "accesses"; "misses"; "walk_steps" ]
  in
  let before = read () in
  f ();
  List.map2 ( - ) (read ()) before

let test_feed_then_publish () =
  let runs = sweep_runs ~seed:7 4000 in
  let per_run = Stackdist.create sweep_grid and fed = Stackdist.create sweep_grid in
  let want =
    counter_deltas (fun () ->
        List.iter
          (fun r ->
            Stackdist.feed per_run r;
            Stackdist.publish per_run)
          runs)
  in
  let got =
    counter_deltas (fun () ->
        (* Booked in the groups, not yet in the registry. *)
        Alcotest.(check (list int)) "unpublished while fed" [ 0; 0; 0 ]
          (counter_deltas (fun () -> List.iter (Stackdist.feed fed) runs));
        Stackdist.publish fed)
  in
  Alcotest.(check int) "three groups" 3 (Stackdist.n_groups per_run);
  Alcotest.(check int) "accesses" (Stackdist.accesses per_run) (Stackdist.accesses fed);
  Alcotest.(check (list (triple string int int))) "misses and cold" (results per_run)
    (results fed);
  Alcotest.(check bool) "counters moved" true (List.for_all (fun d -> d > 0) want);
  Alcotest.(check (list int)) "counter deltas" want got

(* A replayed trace publishes its counters once, at the end: the totals
   are what per-run feeding of the same kept runs books. *)
let test_battery_trace_counters () =
  let runs = sweep_runs ~seed:13 4000 in
  let record, trace = Trace.record () in
  List.iter record runs;
  let keep (r : Run.t) = r.owner = Run.App in
  let by_config b =
    List.map (fun ((c : Icache.config), m) -> (c.Icache.name, m)) (Battery.misses_by_config b)
  in
  let per_run = Battery.create ~engine:`Stackdist sweep_grid in
  let want =
    counter_deltas (fun () ->
        List.iter (fun r -> if keep r then Battery.access_run per_run r) runs)
  in
  let b = Battery.create ~engine:`Stackdist sweep_grid in
  let got = counter_deltas (fun () -> Battery.access_trace ~keep b trace) in
  Alcotest.(check (list int)) "counter deltas" want got;
  Alcotest.(check (list (pair string int))) "misses" (by_config per_run) (by_config b)

(* Replay allocates only the runs it decodes for [keep] (a [Run.t] is four
   words) plus a few words per trace, and per-run feeding allocates
   nothing, counted in both heaps ([Helpers.allocated_words]).  Replays
   are measured with spans on, as the suite runs, and off: a replay reads
   the clock twice per block, which allocates nothing, and with spans on
   books its decode and feed spans once per trace (about 30 words).
   The trace's 20,000 runs are 20 blocks, so a boxed float per clock read
   would add 80 words.  Each battery is measured after a warm-up pass,
   which allocates its block buffers and the first-touch bit set's
   pages. *)
let test_battery_allocation () =
  let runs = sweep_runs ~seed:17 20000 in
  let record, trace = Trace.record () in
  List.iter record runs;
  let words f =
    f ();
    Helpers.allocated_words f
  in
  let check what n = Alcotest.(check bool) (Printf.sprintf "%s: %d words" what n) true (n <= 64) in
  let spans = Telemetry.enabled () in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled spans)
    (fun () ->
      List.iter
        (fun on ->
          Telemetry.set_enabled on;
          let mode = if on then "spans on" else "spans off" in
          let b = Battery.create ~engine:`Stackdist sweep_grid in
          check
            (mode ^ ", access_trace ~keep, beyond the decoded runs")
            (words (fun () -> Battery.access_trace ~keep:(fun r -> r.Run.owner = Run.App) b trace)
            - (4 * Trace.length trace));
          let b = Battery.create ~engine:`Stackdist sweep_grid in
          check (mode ^ ", access_trace") (words (fun () -> Battery.access_trace b trace)))
        [ true; false ]);
  let arr = Array.of_list runs and b = Battery.create ~engine:`Stackdist sweep_grid in
  check "access_run" (words (fun () -> Array.iter (Battery.access_run b) arr))

(* Feeding blocks group by group books what feeding the same runs one at a
   time does, wherever the blocks end: blocks of one run, blocks that
   divide the runs, a partial last block, and one block with room to
   spare (its entries past the runs hold junk the feed must not read).
   Each block size is fed from the arrays' start and from a range that
   starts mid-array, after junk entries. *)
let config_pool =
  sweep_grid @ mixed_configs
  @ [
      (* three associativities at 64 sets of 32 B *)
      cfg ~size_kb:2 ~line:32 ~assoc:1 ();
      cfg ~size_kb:4 ~line:32 ~assoc:2 ();
      cfg ~size_kb:8 ~line:32 ~assoc:4 ();
      cfg ~size_kb:1 ~line:64 ~assoc:16 ();
    ]

let qcheck_block_feeding =
  let run =
    QCheck.Gen.(
      map3
        (fun kernel block len ->
          if kernel then { Run.owner = Run.Kernel; addr = 0x8000_0000 + (block * 4); len }
          else app_run (block * 4) len)
        (map (fun k -> k = 0) (int_bound 4))
        (int_range 0 6000) (int_range 0 40))
  in
  let gen =
    QCheck.Gen.(
      quad (list_size (int_range 1 6) (oneofl config_pool)) (list_size (int_range 1 600) run)
        (int_range 2 50) (int_range 1 20))
  in
  let print (configs, runs, b, lo) =
    Printf.sprintf "configs [%s], block %d, mid-array start %d, runs [%s]"
      (String.concat "; " (List.map (fun (c : Icache.config) -> c.Icache.name) configs))
      b lo
      (String.concat ";"
         (List.map (fun (r : Run.t) -> Printf.sprintf "(%d,%d)" r.Run.addr r.Run.len) runs))
  in
  QCheck.Test.make ~name:"block feeding = per-run feeding (counts, cold, counters)" ~count:60
    (QCheck.make ~print gen) (fun (configs, runs, b, lo) ->
      let runs = Array.of_list runs in
      let n = Array.length runs in
      let outcome sd =
        ( List.map
            (fun ((c : Icache.config), m) -> (c.Icache.name, m, Stackdist.cold_misses sd c.Icache.name))
            (Stackdist.misses_by_config sd),
          Stackdist.accesses sd )
      in
      let per_run = Stackdist.create configs in
      let want =
        counter_deltas (fun () ->
            Array.iter (Stackdist.feed per_run) runs;
            Stackdist.publish per_run)
      in
      let by_blocks (size, lo) =
        let sd = Stackdist.create configs in
        let cap = lo + max size n in
        let addr = Array.make cap (-7) and len = Array.make cap 3 in
        let deltas =
          counter_deltas (fun () ->
              let i = ref 0 in
              while !i < n do
                let m = min size (n - !i) in
                for j = 0 to m - 1 do
                  addr.(lo + j) <- runs.(!i + j).Run.addr;
                  len.(lo + j) <- runs.(!i + j).Run.len
                done;
                Stackdist.feed_block sd ~addr ~len ~lo ~hi:(lo + m);
                i := !i + m
              done;
              Stackdist.publish sd)
        in
        deltas = want && outcome sd = outcome per_run
      in
      let divisor = List.find (fun d -> n mod d = 0) [ 7; 5; 3; 2; n ] in
      List.for_all by_blocks
        (List.concat_map (fun size -> [ (size, 0); (size, lo) ]) [ 1; divisor; b; n + 9 ]))

(* The timeline contract: a probe's miss count moves, run by run, exactly
   as an icache's does. *)
let test_probe_deltas () =
  let sd = Stackdist.create sweep_grid in
  let probes = List.map (fun (c : Icache.config) -> Stackdist.probe sd c.Icache.name) sweep_grid in
  let caches = List.map Icache.create sweep_grid in
  List.iteri
    (fun i run ->
      let before = List.map Stackdist.probe_misses probes
      and before_i = List.map Icache.misses caches in
      Stackdist.feed sd run;
      List.iter (fun c -> Icache.access_run c run) caches;
      let delta now was = List.map2 ( - ) now was in
      Alcotest.(check (list int))
        (Printf.sprintf "run %d deltas" i)
        (delta (List.map Icache.misses caches) before_i)
        (delta (List.map Stackdist.probe_misses probes) before))
    (sweep_runs ~seed:11 3000)

(* --- the engine-selecting Battery API ---------------------------------- *)

let test_battery_engines_agree () =
  let feed b =
    Battery.access_run b (app_run 0 1);
    Battery.access_run b (app_run 1024 1);
    Battery.access_run b (app_run 0 40);
    Battery.access_run b (app_run 4096 16)
  in
  let bi = Battery.create ~engine:`Icache mixed_configs in
  let bs = Battery.create ~engine:`Stackdist mixed_configs in
  feed bi;
  feed bs;
  List.iter2
    (fun ((c : Icache.config), mi) (_, ms) ->
      Alcotest.(check int) (c.Icache.name ^ " misses agree") mi ms;
      Alcotest.(check int)
        (c.Icache.name ^ " cold agree")
        (Battery.cold_misses bi c.Icache.name)
        (Battery.cold_misses bs c.Icache.name))
    (Battery.misses_by_config bi)
    (Battery.misses_by_config bs)

let suite =
  ( "stackdist",
    [
      Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
      Alcotest.test_case "2-way no conflict" `Quick test_two_way_no_conflict;
      Alcotest.test_case "one pass, many geometries" `Quick test_one_pass_many_geometries;
      Alcotest.test_case "run spanning lines" `Quick test_run_spanning_lines;
      Alcotest.test_case "groups by line size" `Quick test_groups_by_line_size;
      Alcotest.test_case "unknown name raises" `Quick test_unknown_name_raises;
      Alcotest.test_case "bad configs" `Quick test_bad_configs;
      Alcotest.test_case "fully-assoc = shadow LRU" `Quick test_fully_assoc_matches_shadow;
      Alcotest.test_case "battery engines agree" `Quick test_battery_engines_agree;
      QCheck_alcotest.to_alcotest qcheck_matches_icache;
      QCheck_alcotest.to_alcotest qcheck_sweep_grid;
      Alcotest.test_case "feed, then publish once, equals per-run publish" `Quick
        test_feed_then_publish;
      Alcotest.test_case "probe deltas = icache per run" `Quick test_probe_deltas;
      Alcotest.test_case "battery trace counters = per-run" `Quick test_battery_trace_counters;
      Alcotest.test_case "battery allocation" `Quick test_battery_allocation;
      QCheck_alcotest.to_alcotest qcheck_block_feeding;
      Alcotest.test_case "feed_block bounds" `Quick test_feed_block_bounds;
    ] )
