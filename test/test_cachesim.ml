(* Tests for Olayout_cachesim: hits/misses, LRU, interference accounting,
   usage instrumentation, and a qcheck cross-check against a reference
   model. *)

module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Run = Olayout_exec.Run

let app_run addr len = { Run.owner = Run.App; addr; len }
let kernel_run addr len = { Run.owner = Run.Kernel; addr; len }

let test_cold_then_hit () =
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  Icache.access_run c (app_run 0 4);
  Alcotest.(check int) "first access misses" 1 (Icache.misses c);
  Alcotest.(check int) "cold" 1 (Icache.cold_misses c);
  Icache.access_run c (app_run 16 4);
  Alcotest.(check int) "same line hits" 1 (Icache.misses c);
  Alcotest.(check int) "accesses" 2 (Icache.accesses c)

let test_run_spanning_lines () =
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  (* 40 instructions from 0: 160 bytes = lines 0,1,2 *)
  Icache.access_run c (app_run 0 40);
  Alcotest.(check int) "three lines missed" 3 (Icache.misses c);
  Alcotest.(check int) "three accesses" 3 (Icache.accesses c);
  Alcotest.(check int) "unique lines" 3 (Icache.unique_lines c)

let test_direct_mapped_conflict () =
  (* 1KB direct-mapped, 64B lines = 16 sets; addresses 0 and 1024 collide. *)
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  Icache.access_run c (app_run 0 1);
  Icache.access_run c (app_run 1024 1);
  Icache.access_run c (app_run 0 1);
  Alcotest.(check int) "ping-pong" 3 (Icache.misses c)

let test_two_way_no_conflict () =
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:2 ()) in
  Icache.access_run c (app_run 0 1);
  Icache.access_run c (app_run 1024 1);
  Icache.access_run c (app_run 0 1);
  Alcotest.(check int) "both fit" 2 (Icache.misses c)

let test_lru_order () =
  (* 2-way set: touch A, B, A, then C evicts B (LRU), not A. *)
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:2 ()) in
  let a = 0 and b = 1024 and d = 2048 in
  Icache.access_run c (app_run a 1);
  Icache.access_run c (app_run b 1);
  Icache.access_run c (app_run a 1);
  Icache.access_run c (app_run d 1);
  (* A should still hit; B should miss. *)
  let before = Icache.misses c in
  Icache.access_run c (app_run a 1);
  Alcotest.(check int) "A survived" before (Icache.misses c);
  Icache.access_run c (app_run b 1);
  Alcotest.(check int) "B evicted" (before + 1) (Icache.misses c)

let test_owner_interference () =
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  Icache.access_run c (app_run 0 1);
  Icache.access_run c (kernel_run 1024 1);  (* kernel evicts app line *)
  Icache.access_run c (app_run 0 1);        (* app evicts kernel line *)
  Alcotest.(check int) "kernel on app" 1
    (Icache.displaced c ~miss:Run.Kernel ~victim:Run.App);
  Alcotest.(check int) "app on kernel" 1
    (Icache.displaced c ~miss:Run.App ~victim:Run.Kernel);
  Alcotest.(check int) "miss split app" 2 (Icache.misses_of c Run.App);
  Alcotest.(check int) "miss split kernel" 1 (Icache.misses_of c Run.Kernel)

let test_word_usage () =
  let c =
    Icache.create ~track_usage:true (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  (* Use words 0..3 of line 0 (4 instrs), then evict it, check histogram. *)
  Icache.access_run c (app_run 0 4);
  Icache.access_run c (app_run 1024 16);  (* evicts line 0, full line use *)
  Icache.flush_residents c;
  let h = Icache.words_used_histogram c in
  Alcotest.(check int) "4-word line" 1 (Olayout_metrics.Histogram.count h 4);
  Alcotest.(check int) "16-word line" 1 (Olayout_metrics.Histogram.count h 16);
  Alcotest.(check int) "total words used" 20 (Icache.words_used_total c);
  Alcotest.(check int) "fetched" 32 (Icache.instrs_fetched_into_cache c)

let test_word_reuse () =
  let c =
    Icache.create ~track_usage:true (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 0 2);
  Icache.access_run c (app_run 0 2);
  Icache.access_run c (app_run 0 2);
  Icache.flush_residents c;
  let h = Icache.word_reuse_histogram c in
  (* words 0-1 used 3x, words 2-15 never *)
  Alcotest.(check int) "3-use words" 2 (Olayout_metrics.Histogram.count h 3);
  Alcotest.(check int) "unused words" 14 (Olayout_metrics.Histogram.count h 0)

let test_lifetime () =
  let c =
    Icache.create ~track_usage:true (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 0 1);
  for _ = 1 to 7 do
    Icache.access_run c (app_run 64 1)
  done;
  Icache.access_run c (app_run 1024 1);
  (* line 0 lived from access 1 to eviction at access 9: lifetime 8 *)
  Icache.flush_residents c;
  let h = Icache.lifetime_histogram c in
  Alcotest.(check int) "log2(8)=3 bucket" 1 (Olayout_metrics.Histogram.count h 3)

let test_usage_requires_flag () =
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  Alcotest.(check bool) "raises without tracking" true
    (try
       ignore (Icache.words_used_histogram c);
       false
     with Invalid_argument _ -> true)

let test_on_miss_hook () =
  let missed = ref [] in
  let c =
    Icache.create
      ~on_miss:(fun addr -> missed := addr :: !missed)
      (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 100 1);
  Icache.access_run c (app_run 100 1);
  Alcotest.(check (list int)) "hook fires once with line addr" [ 64 ] !missed

let test_on_evict_hook () =
  let evts = ref [] in
  let c =
    Icache.create
      ~on_evict:(fun ~evictor ~victim -> evts := (evictor, victim) :: !evts)
      (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 0 1);
  Alcotest.(check (list (pair int int))) "cold fill is not an eviction" [] !evts;
  Icache.access_run c (app_run 1024 1);
  Alcotest.(check (list (pair int int))) "replacement reported" [ (1024, 0) ] !evts;
  Icache.access_run c (app_run 0 1);
  Alcotest.(check (list (pair int int)))
    "line addresses, most recent first"
    [ (0, 1024); (1024, 0) ]
    !evts

let test_on_evict_covers_prefetch_installs () =
  let evts = ref [] in
  let c =
    Icache.create ~prefetch_next:1
      ~on_evict:(fun ~evictor ~victim -> evts := (evictor, victim) :: !evts)
      (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  (* Occupy set 1 (line 17 = addr 1088), then miss on line 0: the prefetch
     of line 1 (addr 64) replaces it and must be reported. *)
  Icache.access_run c (app_run 1088 1);
  Icache.access_run c (app_run 0 1);
  Alcotest.(check (list (pair int int))) "prefetch replacement reported"
    [ (64, 1088) ]
    !evts

(* --- cold-miss semantics: compulsory = first-ever demand reference --- *)

let test_cold_counts_conflict_first_reference () =
  (* Regression: cold misses used to count fills into empty slots, so a
     first-ever reference landing on an occupied slot (a conflict victim's
     frame) was misclassified as a conflict miss. *)
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  Icache.access_run c (app_run 0 1);
  Alcotest.(check int) "first line cold" 1 (Icache.cold_misses c);
  (* Line 16 maps to the same set; the slot is occupied, but this is still
     the line's first-ever reference: compulsory. *)
  Icache.access_run c (app_run 1024 1);
  Alcotest.(check int) "conflict fill still compulsory" 2 (Icache.cold_misses c);
  (* Re-missing an already-seen line is a conflict miss, never cold. *)
  Icache.access_run c (app_run 0 1);
  Alcotest.(check int) "re-miss not cold" 2 (Icache.cold_misses c);
  Alcotest.(check int) "three misses" 3 (Icache.misses c);
  Alcotest.(check int) "cold = unique lines (no prefetch)"
    (Icache.unique_lines c) (Icache.cold_misses c)

let test_prefetch_hit_line_never_cold () =
  let c =
    Icache.create ~prefetch_next:1 (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 0 1);   (* cold; prefetches line 1 *)
  Icache.access_run c (app_run 64 1);  (* prefetch hit: no miss, so no cold *)
  Alcotest.(check int) "only the demand miss is cold" 1 (Icache.cold_misses c);
  (* Evict line 1 with its set-1 conflict partner, then re-reference it:
     the line was demand-referenced before, so the re-miss is a conflict. *)
  Icache.access_run c (app_run 1088 1);  (* line 17: first reference, cold *)
  Icache.access_run c (app_run 64 1);    (* line 1 again: conflict, not cold *)
  Alcotest.(check int) "re-miss of prefetch-seen line not cold" 2
    (Icache.cold_misses c);
  Alcotest.(check int) "misses" 3 (Icache.misses c)

(* --- usage accounting excludes prefetched-never-referenced lines --- *)

let test_usage_excludes_pure_prefetch_victim () =
  (* Regression: replacing a prefetched line that was never demand-
     referenced used to retire it into the usage histograms as a
     words_used = 0 observation. *)
  let c =
    Icache.create ~track_usage:true ~prefetch_next:1
      (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 0 1);     (* line 0 demand; line 1 prefetched *)
  Icache.access_run c (app_run 1088 1);  (* line 17 replaces pure-prefetch line 1 *)
  Icache.flush_residents c;
  let h = Icache.words_used_histogram c in
  Alcotest.(check int) "no zero-word observations" 0
    (Olayout_metrics.Histogram.count h 0);
  Alcotest.(check int) "both demand lines, one word each" 2
    (Olayout_metrics.Histogram.count h 1);
  Alcotest.(check int) "only demand lines observed" 2
    (Olayout_metrics.Histogram.total h)

let test_flush_excludes_pure_prefetch () =
  let c =
    Icache.create ~track_usage:true ~prefetch_next:1
      (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 0 1);  (* line 0 demand; line 1 prefetched *)
  Icache.flush_residents c;
  let h = Icache.words_used_histogram c in
  Alcotest.(check int) "flush skips the speculative line" 1
    (Olayout_metrics.Histogram.total h);
  Alcotest.(check int) "no zero-word observations" 0
    (Olayout_metrics.Histogram.count h 0);
  (* The flushed slot's prefetch flag is cleared: a line demand-filled into
     the same frame later retires normally. *)
  Icache.access_run c (app_run 64 1);  (* line 1, demand this time *)
  Icache.flush_residents c;
  Alcotest.(check int) "demand refill retires" 2
    (Olayout_metrics.Histogram.count h 1)

let test_battery () =
  let b =
    Battery.create ~engine:`Icache
      [ Icache.config ~size_kb:1 ~line:64 ~assoc:1 (); Icache.config ~size_kb:2 ~line:64 ~assoc:1 () ]
  in
  Battery.access_run b (app_run 0 1);
  Battery.access_run b (app_run 1024 1);
  Battery.access_run b (app_run 0 1);
  Alcotest.(check int) "1KB conflicts" 3 (Battery.misses b "1KB/64B/1-way");
  Alcotest.(check int) "2KB fits" 2 (Battery.misses b "2KB/64B/1-way");
  Alcotest.(check bool) "missing name raises with context" true
    (try
       ignore (Battery.misses b "nope");
       false
     with Invalid_argument msg ->
       (* the error names the request and the available configurations *)
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       contains msg "nope" && contains msg "1KB/64B/1-way" && contains msg "2KB/64B/1-way")

let test_prefetch_next_line () =
  let c = Icache.create ~prefetch_next:1 (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  Icache.access_run c (app_run 0 1);
  Alcotest.(check int) "demand miss counted" 1 (Icache.misses c);
  Alcotest.(check int) "next line prefetched" 1 (Icache.prefetch_fills c);
  (* Line 1 (addr 64) is now resident: no miss, one useful prefetch. *)
  Icache.access_run c (app_run 64 1);
  Alcotest.(check int) "prefetched line hits" 1 (Icache.misses c);
  Alcotest.(check int) "useful prefetch" 1 (Icache.prefetch_hits c);
  (* A second reference is a plain hit, not another prefetch hit. *)
  Icache.access_run c (app_run 64 1);
  Alcotest.(check int) "counted once" 1 (Icache.prefetch_hits c)

let test_prefetch_covers_run () =
  let c = Icache.create ~prefetch_next:2 (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  (* Run covering lines 0-1: the miss on line 0 prefetches lines 1-2, so
     line 1 is a (useful) prefetch hit, not a second demand miss. *)
  Icache.access_run c (app_run 0 32);
  Alcotest.(check int) "one demand miss" 1 (Icache.misses c);
  Alcotest.(check int) "two prefetch fills" 2 (Icache.prefetch_fills c);
  Alcotest.(check int) "one useful" 1 (Icache.prefetch_hits c)

let test_prefetch_unique_lines_demand_only () =
  let c =
    Icache.create ~prefetch_next:2 (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ())
  in
  Icache.access_run c (app_run 0 1);
  (* Lines 1-2 were prefetched but never referenced: not part of the demand
     footprint. *)
  Alcotest.(check int) "only the referenced line" 1 (Icache.unique_lines c);
  (* A hit on a still-speculative prefetched line makes it demand-referenced. *)
  Icache.access_run c (app_run 64 1);
  Alcotest.(check int) "referenced prefetch now counts" 2 (Icache.unique_lines c);
  Icache.access_run c (app_run 64 1);
  Alcotest.(check int) "counted once" 2 (Icache.unique_lines c)

let test_prefetch_off_by_default () =
  let c = Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:1 ()) in
  Icache.access_run c (app_run 0 1);
  Alcotest.(check int) "no prefetch" 0 (Icache.prefetch_fills c)

let test_bad_configs () =
  List.iter
    (fun (size_kb, line, assoc) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d/%d/%d rejected" size_kb line assoc)
        true
        (try
           ignore (Icache.create (Icache.config ~size_kb ~line ~assoc ()));
           false
         with Invalid_argument _ -> true))
    [ (3, 64, 1); (1, 48, 1); (1, 64, 0); (1, 2048, 1); (1, 0, 1); (1, 2, 1); (0, 64, 1);
      (1, 64, 3) ];
  (* 1KB / (64B x 3 ways) is no power-of-two set count: bit selection
     cannot index it, so the cache refuses it and says why. *)
  Alcotest.(check string) "3-way names its set count"
    "Icache.create: 1KB/64B/3-way has 1024 / (64 x 3) sets, not a power of two"
    (try
       ignore (Icache.create (Icache.config ~size_kb:1 ~line:64 ~assoc:3 ()));
       ""
     with Invalid_argument msg -> msg)

(* --- reference model cross-check --- *)

module Reference = struct
  (* Assoc-list LRU cache over line addresses; most recent first per set. *)
  type t = {
    line_bytes : int;
    n_sets : int;
    assoc : int;
    mutable sets : int list array;
    mutable misses : int;
  }

  let create ~size_bytes ~line_bytes ~assoc =
    let n_sets = size_bytes / (line_bytes * assoc) in
    { line_bytes; n_sets; assoc; sets = Array.make n_sets []; misses = 0 }

  let touch t line =
    let set = line mod t.n_sets in
    let entries = t.sets.(set) in
    if List.mem line entries then
      t.sets.(set) <- line :: List.filter (fun l -> l <> line) entries
    else begin
      t.misses <- t.misses + 1;
      let entries = line :: entries in
      t.sets.(set) <-
        (if List.length entries > t.assoc then List.filteri (fun i _ -> i < t.assoc) entries
         else entries)
    end

  let access_run t (r : Run.t) =
    let first = r.addr / t.line_bytes and last = (r.addr + (r.len * 4) - 1) / t.line_bytes in
    for line = first to last do
      touch t line
    done
end

let qcheck_matches_reference =
  let gen =
    QCheck.make
      ~print:(fun runs -> String.concat ";" (List.map (fun (a, l) -> Printf.sprintf "(%d,%d)" a l) runs))
      QCheck.Gen.(list_size (int_range 1 300) (pair (int_range 0 2000) (int_range 1 40)))
  in
  QCheck.Test.make ~name:"icache matches reference LRU model" ~count:60 gen (fun runs ->
      List.for_all
        (fun (size_kb, line, assoc) ->
          let c = Icache.create (Icache.config ~size_kb ~line ~assoc ()) in
          let r = Reference.create ~size_bytes:(size_kb * 1024) ~line_bytes:line ~assoc in
          List.iter
            (fun (block, len) ->
              let run = app_run (block * 4) len in
              Icache.access_run c run;
              Reference.access_run r run)
            runs;
          Icache.misses c = r.Reference.misses)
        [ (1, 64, 1); (1, 32, 2); (2, 16, 4); (4, 128, 2) ])

let suite =
  ( "cachesim",
    [
      Alcotest.test_case "cold then hit" `Quick test_cold_then_hit;
      Alcotest.test_case "run spanning lines" `Quick test_run_spanning_lines;
      Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
      Alcotest.test_case "2-way no conflict" `Quick test_two_way_no_conflict;
      Alcotest.test_case "LRU order" `Quick test_lru_order;
      Alcotest.test_case "owner interference" `Quick test_owner_interference;
      Alcotest.test_case "word usage" `Quick test_word_usage;
      Alcotest.test_case "word reuse" `Quick test_word_reuse;
      Alcotest.test_case "lifetime" `Quick test_lifetime;
      Alcotest.test_case "usage requires flag" `Quick test_usage_requires_flag;
      Alcotest.test_case "on_miss hook" `Quick test_on_miss_hook;
      Alcotest.test_case "on_evict hook" `Quick test_on_evict_hook;
      Alcotest.test_case "on_evict covers prefetch installs" `Quick
        test_on_evict_covers_prefetch_installs;
      Alcotest.test_case "cold counts conflict first reference" `Quick
        test_cold_counts_conflict_first_reference;
      Alcotest.test_case "prefetch-hit line never cold" `Quick
        test_prefetch_hit_line_never_cold;
      Alcotest.test_case "usage excludes pure-prefetch victim" `Quick
        test_usage_excludes_pure_prefetch_victim;
      Alcotest.test_case "flush excludes pure prefetch" `Quick
        test_flush_excludes_pure_prefetch;
      Alcotest.test_case "battery" `Quick test_battery;
      Alcotest.test_case "prefetch next line" `Quick test_prefetch_next_line;
      Alcotest.test_case "prefetch covers run" `Quick test_prefetch_covers_run;
      Alcotest.test_case "prefetch footprint is demand-only" `Quick
        test_prefetch_unique_lines_demand_only;
      Alcotest.test_case "prefetch off by default" `Quick test_prefetch_off_by_default;
      Alcotest.test_case "bad configs" `Quick test_bad_configs;
      QCheck_alcotest.to_alcotest qcheck_matches_reference;
    ] )
