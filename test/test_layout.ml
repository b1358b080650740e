(* Tests for the layout passes: chaining, splitting, Pettis-Hansen, the
   Spike pipeline and CFA. *)

open Olayout_ir
module Chaining = Olayout_core.Chaining
module Pettis_hansen = Olayout_core.Pettis_hansen
module Segment = Olayout_core.Segment
module Placement = Olayout_core.Placement
module Spike = Olayout_core.Spike
module Cfa = Olayout_core.Cfa
module Profile = Olayout_profile.Profile

let b = Helpers.block

(* The chains of the [k]-th procedure [b] holds, as block lists. *)
let chains_in (b : Chaining.buffers) k =
  List.init
    (b.first.(k + 1) - b.first.(k))
    (fun i ->
      let c = b.first.(k) + i in
      List.init (b.starts.(c + 1) - b.starts.(c)) (fun j -> b.order.(b.starts.(c) + j)))

let chain_proc profile pid =
  let b = Chaining.buffers () in
  Chaining.chain b profile [ Chaining.shape (Profile.prog profile) pid ];
  chains_in b 0

let built_segments algo profile = Placement.segments (Spike.build algo profile)

let test_segment_module () =
  let prog = Helpers.call_prog () in
  let p = Prog.proc prog 0 in
  let seg = Segment.of_proc p in
  Alcotest.(check int) "head" 0 (Segment.head seg);
  Alcotest.(check int) "size" 3 (Segment.n_blocks seg);
  Alcotest.(check bool) "has entry" true (Segment.contains_entry p seg);
  Alcotest.(check bool) "other proc" false
    (Segment.contains_entry (Prog.proc prog 1) seg);
  Alcotest.(check bool) "empty head raises" true
    (try
       ignore (Segment.head { Segment.proc = 0; blocks = [] });
       false
     with Invalid_argument _ -> true)

let test_spike_ablation_pipelines () =
  let built = Helpers.random_program 8 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile prog in
  let hc = Spike.build Spike.Hot_cold profile in
  Alcotest.(check bool) "hot/cold placement built" true (Placement.program_instrs hc > 0);
  let cfa = Spike.build (Spike.Cfa { cache_bytes = 16 * 1024; cfa_fraction = 0.25 }) profile in
  Alcotest.(check bool) "cfa placement built" true (Placement.program_instrs cfa > 0);
  (* The CFA layout reserves space: it can only be as large or larger. *)
  let all = Spike.optimize profile Spike.All in
  Alcotest.(check bool) "cfa at least as large" true
    (Placement.text_bytes cfa >= Placement.text_bytes all)

let chains_partition prog pid chains =
  let n = Proc.n_blocks (Prog.proc prog pid) in
  let seen = Array.make n 0 in
  List.iter (List.iter (fun blk -> seen.(blk) <- seen.(blk) + 1)) chains;
  Array.for_all (fun c -> c = 1) seen

let test_chaining_hot_path () =
  (* Diamond where the taken arm (b2) dominates: chaining should place b2
     right after b0 so the hot edge becomes a fall-through. *)
  let prog = Helpers.diamond_prog 0.9 in
  let profile = Profile.create prog in
  (* b0 executed 100x: 90 taken (arm0 -> b2), 10 fall (arm1 -> b1). *)
  for _ = 1 to 90 do
    Profile.record profile ~proc:0 ~block:0 ~arm:0
  done;
  for _ = 1 to 10 do
    Profile.record profile ~proc:0 ~block:0 ~arm:1
  done;
  for _ = 1 to 90 do
    Profile.record profile ~proc:0 ~block:2 ~arm:0
  done;
  for _ = 1 to 10 do
    Profile.record profile ~proc:0 ~block:1 ~arm:0
  done;
  for _ = 1 to 100 do
    Profile.record profile ~proc:0 ~block:3 ~arm:0
  done;
  let chains = chain_proc profile 0 in
  Alcotest.(check bool) "partition" true (chains_partition prog 0 chains);
  let first = List.hd chains in
  (* Hot path 0 -> 2 -> 3 chained together, entry first. *)
  Alcotest.(check bool) "hot edge adjacent" true
    (match first with 0 :: 2 :: _ -> true | _ -> false)

let test_chaining_call_glue () =
  let prog = Helpers.call_prog () in
  let profile = Helpers.uniform_profile prog 10 in
  let chains = chain_proc profile 0 in
  Alcotest.(check bool) "partition" true (chains_partition prog 0 chains);
  (* Call blocks stay glued to their return continuations. *)
  let rec glued = function
    | a :: (c :: _ as rest) ->
        (match (Proc.block (Prog.proc prog 0) a).Block.term with
        | Block.Call { ret; _ } -> ret = c && glued rest
        | _ -> glued rest)
    | _ -> true
  in
  List.iter
    (fun chain -> Alcotest.(check bool) "glue preserved" true (glued chain))
    chains

let test_chaining_loop_rotation () =
  (* The loop backedge (b2 -> b1, hot) should become a fall-through in some
     chain, eliminating the hot unconditional branch. *)
  let prog = Helpers.loop_prog 0.1 in
  let profile = Profile.create prog in
  Profile.record profile ~proc:0 ~block:0 ~arm:0;
  for _ = 1 to 9 do
    Profile.record profile ~proc:0 ~block:1 ~arm:1;
    Profile.record profile ~proc:0 ~block:2 ~arm:0
  done;
  Profile.record profile ~proc:0 ~block:1 ~arm:0;
  Profile.record profile ~proc:0 ~block:3 ~arm:0;
  let chains = chain_proc profile 0 in
  Alcotest.(check bool) "partition" true (chains_partition prog 0 chains);
  (* The heaviest edges are 1->2 (9) and 2->1 (9); chaining links one of
     them; the other would close a cycle and must be skipped. *)
  let adjacent x y =
    List.exists
      (fun chain ->
        let rec go = function
          | a :: (c :: _ as rest) -> (a = x && c = y) || go rest
          | _ -> false
        in
        go chain)
      chains
  in
  Alcotest.(check bool) "one loop edge chained" true (adjacent 1 2 || adjacent 2 1);
  Alcotest.(check bool) "not both (cycle)" false (adjacent 1 2 && adjacent 2 1)

let test_chaining_deterministic () =
  let built = Helpers.random_program 11 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile prog in
  let c1 = chain_proc profile 1 and c2 = chain_proc profile 1 in
  Alcotest.(check bool) "same chains" true (c1 = c2)

let qcheck_chaining_partitions =
  QCheck.Test.make ~name:"chaining partitions every procedure" ~count:25 QCheck.small_int
    (fun seed ->
      let built = Helpers.random_program seed in
      let prog = Olayout_codegen.Binary.prog built in
      let profile = Helpers.walked_profile ~calls:10 prog in
      List.for_all
        (fun pid -> chains_partition prog pid (chain_proc profile pid))
        (List.init (Prog.n_procs prog) (fun i -> i)))

let test_fine_grain_segments_end_unconditionally () =
  let built = Helpers.random_program 4 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile ~calls:10 prog in
  let segments = built_segments (Spike.Combo Spike.Chain_split) profile in
  Layout_reference.check_cover prog segments;
  (* Build the placement: within a segment no block other than the last may
     end with Ret (an unconditional transfer mid-segment would have been a
     chain break). *)
  List.iter
    (fun (seg : Segment.t) ->
      let p = Prog.proc prog seg.proc in
      let rec go = function
        | [] | [ _ ] -> ()
        | blk :: rest ->
            (match (Proc.block p blk).Block.term with
            | Block.Ret | Block.Halt -> Alcotest.fail "Ret mid-segment"
            | _ -> ());
            go rest
      in
      go seg.blocks)
    segments

let test_hot_cold_split () =
  let built = Helpers.random_program 6 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile ~calls:5 prog in
  let segments = built_segments Spike.Hot_cold profile in
  Layout_reference.check_cover prog segments;
  (* At most two segments per procedure. *)
  let per_proc = Hashtbl.create 8 in
  List.iter
    (fun (seg : Segment.t) ->
      Hashtbl.replace per_proc seg.proc
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_proc seg.proc)))
    segments;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check bool) "at most 2 segments" true (n <= 2))
    per_proc

let test_ph_simple_order () =
  (* Three procs; call weights caller->a heavy, a->b light: expect the
     heavy pair adjacent in the output. *)
  let prog =
    {
      Prog.name = "ph";
      base_addr = 0;
      procs =
        [|
          {
            Proc.id = 0;
            name = "caller";
            entry = 0;
            blocks =
              [|
                b 0 2 (Block.Call { callee = 1; ret = 1 });
                b 1 2 (Block.Call { callee = 2; ret = 2 });
                b 2 1 Block.Ret;
              |];
          };
          { Proc.id = 1; name = "a"; entry = 0; blocks = [| b 0 3 Block.Ret |] };
          { Proc.id = 2; name = "z"; entry = 0; blocks = [| b 0 3 Block.Ret |] };
        |];
    }
  in
  let profile = Profile.create prog in
  for _ = 1 to 100 do
    Profile.record profile ~proc:0 ~block:0 ~arm:0;
    Profile.record profile ~proc:1 ~block:0 ~arm:0
  done;
  for _ = 1 to 5 do
    Profile.record profile ~proc:0 ~block:1 ~arm:0;
    Profile.record profile ~proc:2 ~block:0 ~arm:0
  done;
  let ordered = built_segments (Spike.Combo Spike.Porder) profile in
  let procs_in_order = List.map (fun (s : Segment.t) -> s.proc) ordered in
  Alcotest.(check int) "permutation size" 3 (List.length procs_in_order);
  let rec adjacent x y = function
    | a :: (c :: _ as rest) -> (a = x && c = y) || (a = y && c = x) || adjacent x y rest
    | _ -> false
  in
  Alcotest.(check bool) "heavy pair adjacent" true (adjacent 0 1 procs_in_order)

let test_ph_pair_weights () =
  let prog = Helpers.call_prog () in
  let profile = Profile.create prog in
  for _ = 1 to 7 do
    Profile.record profile ~proc:0 ~block:0 ~arm:0
  done;
  for _ = 1 to 4 do
    Profile.record profile ~proc:0 ~block:1 ~arm:0
  done;
  (* One segment per procedure: segment p is procedure p. *)
  let weights = Pettis_hansen.pair_weights_of profile ~seg_of:(fun p _ -> p) in
  (* Two call sites 0->1 with counts 7 and 4 merge into one 11-weight edge;
     intra-proc glue edges stay inside one segment and do not count. *)
  Alcotest.(check (list (pair (pair int int) (float 1e-9)))) "weights" [ ((0, 1), 11.0) ]
    weights

let test_ph_permutation_random () =
  List.iter
    (fun seed ->
      let built = Helpers.random_program seed in
      let prog = Olayout_codegen.Binary.prog built in
      let profile = Helpers.walked_profile ~calls:10 prog in
      let segments = built_segments (Spike.Combo Spike.Chain_split) profile in
      let ordered = built_segments (Spike.Combo Spike.All) profile in
      Layout_reference.check_cover prog ordered;
      Alcotest.(check int) "same segment count" (List.length segments)
        (List.length ordered))
    [ 7; 8; 9 ]

let test_ph_cold_keeps_order () =
  (* No profile at all: everything is cold; P-H must keep input order. *)
  let built = Helpers.random_program 12 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Profile.create prog in
  let segments = List.map Segment.of_proc (Array.to_list prog.Prog.procs) in
  let ordered = built_segments (Spike.Combo Spike.Porder) profile in
  Alcotest.(check (list int)) "input order kept"
    (List.map (fun (s : Segment.t) -> s.proc) segments)
    (List.map (fun (s : Segment.t) -> s.proc) ordered)

let test_order_weighted_explicit () =
  (* Three segments; explicit weights force 0-2 adjacency. *)
  let procs =
    Array.to_list
      (Pettis_hansen.order_indices (Pettis_hansen.buffers ()) ~n:3
         ~weights:[ ((0, 2), 10.0); ((0, 1), 1.0) ]
         ~heat:(fun _ -> 1.0)
         ~hot:(fun f -> List.iter f [ 0; 1; 2 ])
         ~proc_of:Fun.id ())
  in
  let rec adjacent x y = function
    | a :: (c :: _ as rest) -> (a = x && c = y) || (a = y && c = x) || adjacent x y rest
    | _ -> false
  in
  Alcotest.(check bool) "weighted pair adjacent" true (adjacent 0 2 procs);
  Alcotest.(check int) "permutation" 3 (List.length procs)

let test_temporal_order_permutation () =
  let built = Helpers.random_program 21 in
  let prog = Olayout_codegen.Binary.prog built in
  let temporal = Olayout_profile.Temporal.create prog () in
  (* Interleave activations of procs 0 and 1 heavily. *)
  for _ = 1 to 50 do
    Olayout_profile.Temporal.sink temporal ~proc:0
      ~block:(Prog.proc prog 0).Proc.entry ~arm:0;
    Olayout_profile.Temporal.sink temporal ~proc:1
      ~block:(Prog.proc prog 1).Proc.entry ~arm:0
  done;
  let ordered = built_segments (Spike.Temporal_procs temporal) (Profile.create prog) in
  Layout_reference.check_cover prog ordered;
  let procs = List.map (fun (s : Segment.t) -> s.proc) ordered in
  let rec adjacent x y = function
    | a :: (c :: _ as rest) -> (a = x && c = y) || (a = y && c = x) || adjacent x y rest
    | _ -> false
  in
  Alcotest.(check bool) "interleaved procs placed together" true (adjacent 0 1 procs)

let test_spike_combos_valid () =
  let built = Helpers.random_program 3 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile prog in
  List.iter
    (fun combo ->
      let pl = Spike.optimize profile combo in
      (* of_segments validated the cover; sanity-check total size. *)
      Alcotest.(check bool)
        (Spike.combo_name combo ^ " nonempty")
        true
        (Placement.program_instrs pl > 0))
    Spike.all_combos

let test_spike_base_is_original () =
  let built = Helpers.random_program 5 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile prog in
  let base = Spike.optimize profile Spike.Base in
  let orig = Placement.original ~align:16 prog in
  Prog.iter_blocks prog (fun p blk ->
      Alcotest.(check int) "same address"
        (Placement.block_addr orig ~proc:p.Proc.id ~block:blk.Block.id)
        (Placement.block_addr base ~proc:p.Proc.id ~block:blk.Block.id))

let test_spike_hot_code_first () =
  (* Under All, the hottest procedure entry should land early in the text. *)
  let built = Helpers.random_program 9 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile prog in
  let pl = Spike.optimize profile Spike.All in
  let hottest = ref (-1) and best = ref (-1) in
  for pid = 0 to Prog.n_procs prog - 1 do
    let c = Profile.proc_entry_count profile pid in
    if c > !best then begin
      best := c;
      hottest := pid
    end
  done;
  let entry_addr =
    Placement.block_addr pl ~proc:!hottest ~block:(Prog.proc prog !hottest).Proc.entry
  in
  let text_end = prog.Prog.base_addr + Placement.text_bytes pl in
  Alcotest.(check bool) "hot entry in first half" true
    (entry_addr - prog.Prog.base_addr < (text_end - prog.Prog.base_addr) / 2)

(* The conflict-free area's promise: the hottest segments fill the first
   [cfa_fraction] of the cache from the text base, and no byte of any other
   segment maps to those cache sets — in any cache-sized period of the
   text, however the segment lines up with the period's end.  Small caches
   make the text span many periods, so segments meet period ends often.
   (A segment larger than the unprotected window cannot keep the promise;
   the random programs have none, as the last check asserts.) *)
let test_cfa_protected_region () =
  List.iter
    (fun (seed, cache_bytes) ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let profile = Helpers.walked_profile ~calls:20 ~seed prog in
      let cfa_bytes = cache_bytes / 2 in
      let pl = Spike.build (Spike.Cfa { cache_bytes; cfa_fraction = 0.5 }) profile in
      let base = prog.Prog.base_addr in
      let protected_bytes = ref 0 and periods = ref 0 and crossing = ref 0 and too_big = ref 0 in
      List.iter
        (fun (seg : Segment.t) ->
          let addr b = Placement.block_addr pl ~proc:seg.proc ~block:b in
          let start = addr (Segment.head seg) in
          let stop =
            List.fold_left
              (fun acc b ->
                max acc (addr b + (Placement.static_instrs pl ~proc:seg.proc ~block:b * 4)))
              start seg.blocks
          in
          if start - base < cfa_bytes then protected_bytes := max !protected_bytes (stop - base)
          else begin
            if stop - start > cache_bytes - cfa_bytes then incr too_big;
            let offset = (start - base) land (cache_bytes - 1) in
            periods := max !periods ((stop - base) / cache_bytes);
            if offset < cfa_bytes || offset + (stop - start) > cache_bytes then incr crossing
          end)
        (Placement.segments pl);
      let what = Printf.sprintf "program %d, %d-byte cache" seed cache_bytes in
      Alcotest.(check bool) (what ^ ": hot code fills the protected area only") true
        (!protected_bytes > 0 && !protected_bytes <= cfa_bytes);
      Alcotest.(check bool) (what ^ ": text spans several cache periods") true (!periods >= 3);
      Alcotest.(check int) (what ^ ": segments wider than the window") 0 !too_big;
      Alcotest.(check int) (what ^ ": unprotected segments on protected sets") 0 !crossing)
    [ (10, 1024); (10, 2048); (61, 1024); (62, 2048) ];
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 10) in
  let profile = Helpers.walked_profile prog in
  (* hot_bytes_needed grows with coverage. *)
  let h50 = Cfa.hot_bytes_needed profile ~coverage:0.5 in
  let h90 = Cfa.hot_bytes_needed profile ~coverage:0.9 in
  Alcotest.(check bool) "monotone coverage" true (h90 >= h50)

let test_coloring_cover_and_gaps () =
  let built = Helpers.random_program 14 in
  let prog = Olayout_codegen.Binary.prog built in
  let profile = Helpers.walked_profile prog in
  let pl = Spike.build (Spike.Colored { cache_bytes = 8 * 1024 }) profile in
  (* Cover is validated internally; the layout must not balloon: gaps are
     bounded by max_gap_lines per hot segment. *)
  let packed = Spike.build (Spike.Combo Spike.All) profile in
  Alcotest.(check bool) "same order as all" true
    (Placement.segments packed = Placement.segments pl);
  let budget =
    Placement.text_bytes packed
    + (List.length (Placement.segments pl) * (Olayout_core.Coloring.max_gap_lines + 1) * 64)
  in
  Alcotest.(check bool) "bounded expansion" true (Placement.text_bytes pl <= budget);
  Alcotest.(check bool) "rejects non-pow2 cache" true
    (try
       ignore (Spike.build (Spike.Colored { cache_bytes = 3000 }) profile);
       false
     with Invalid_argument _ -> true)

let test_coloring_spreads_hot_segments () =
  (* Two equally hot procs that pack to the same 1KB-cache color must end
     up on different colors when colored. *)
  let prog =
    {
      Prog.name = "clr";
      base_addr = 0;
      procs =
        [|
          { Proc.id = 0; name = "hot_a"; entry = 0; blocks = [| b 0 63 Block.Ret |] };
          { Proc.id = 1; name = "filler"; entry = 0; blocks = [| b 0 191 Block.Ret |] };
          { Proc.id = 2; name = "hot_b"; entry = 0; blocks = [| b 0 63 Block.Ret |] };
        |];
    }
  in
  let profile = Profile.create prog in
  for _ = 1 to 100 do
    Profile.record profile ~proc:0 ~block:0 ~arm:0;
    Profile.record profile ~proc:2 ~block:0 ~arm:0
  done;
  let rows =
    Array.map
      (fun p -> Helpers.encode_segments prog p.Proc.id [ Segment.of_proc p ])
      prog.Prog.procs
  in
  (* Packed in source order: hot_b starts at (63+1)*4 + 192*4 = 1024 ->
     same color as hot_a in a 1KB cache. *)
  let colored =
    Olayout_core.Coloring.place profile rows ~order:[| 0; 1; 2 |] ~cache_bytes:1024
  in
  let color addr = addr mod 1024 / 64 in
  let a = Placement.block_addr colored ~proc:0 ~block:0 in
  let b_ = Placement.block_addr colored ~proc:2 ~block:0 in
  Alcotest.(check bool) "hot segments on different colors" true (color a <> color b_)

let test_cfa_rejects_bad_args () =
  let built = Helpers.random_program 10 in
  let profile = Helpers.walked_profile (Olayout_codegen.Binary.prog built) in
  let rejected cache_bytes cfa_fraction =
    try
      ignore (Spike.build (Spike.Cfa { cache_bytes; cfa_fraction }) profile);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "non-pow2 rejected" true (rejected 10_000 0.5);
  Alcotest.(check bool) "fraction outside (0,1) rejected" true (rejected 16_384 1.0)

(* Chaining against its list-based oracle, for every procedure of random
   programs under dense, sparse and empty profiles (an empty profile links
   every candidate edge at weight zero, in source/destination order): the
   chains the buffers hold are the oracle's, each with its first block's
   count, and so are the numbers of linked edges and of chains formed.
   One buffer set serves every call, so state an earlier call left would
   show; each profile also chains the whole program in one call, last
   procedure first. *)
let test_chaining_oracle () =
  let module Telemetry = Olayout_telemetry.Telemetry in
  let counter name = Option.value (List.assoc_opt name (Telemetry.counters ())) ~default:0 in
  let b = Chaining.buffers () in
  List.iter
    (fun seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let n = Prog.n_procs prog in
      let shapes = Array.init n (Chaining.shape prog) in
      let sparse = Profile.create prog in
      let walk = Olayout_exec.Walk.create ~prog ~rng:(Olayout_util.Rng.create seed) in
      Olayout_exec.Walk.add_sink walk (fun ~proc ~block ~arm ->
          Profile.record sparse ~proc ~block ~arm);
      Olayout_exec.Walk.call walk (seed mod n);
      List.iter
        (fun (what, profile) ->
          let want = Array.init n (Chain_reference.chain_proc profile) in
          let check_chains name k pid =
            let chains = fst want.(pid) in
            Alcotest.(check (list (list int))) (name ^ ": chains") chains (chains_in b k);
            Alcotest.(check (list int))
              (name ^ ": head counts")
              (List.map (fun c -> Profile.block_count profile ~proc:pid ~block:(List.hd c)) chains)
              (List.init (b.first.(k + 1) - b.first.(k)) (fun i -> b.heads.(b.first.(k) + i)))
          in
          for pid = 0 to n - 1 do
            let name = Printf.sprintf "program %d, %s profile, p%d" seed what pid in
            let was_enabled = Telemetry.enabled () in
            Telemetry.set_enabled true;
            let l0 = counter "core.chain_edges_linked" and c0 = counter "core.chains_formed" in
            Chaining.chain b profile [ shapes.(pid) ];
            let l1 = counter "core.chain_edges_linked" and c1 = counter "core.chains_formed" in
            Telemetry.set_enabled was_enabled;
            check_chains name 0 pid;
            Alcotest.(check int) (name ^ ": edges linked") (snd want.(pid)) (l1 - l0);
            Alcotest.(check int) (name ^ ": chains formed") (List.length (fst want.(pid))) (c1 - c0)
          done;
          let last_first = List.rev (List.init n Fun.id) in
          Chaining.chain b profile (List.map (Array.get shapes) last_first);
          List.iteri
            (fun k pid ->
              check_chains (Printf.sprintf "program %d, %s profile, all, p%d" seed what pid) k pid)
            last_first)
        [
          ("dense", Helpers.walked_profile ~calls:(10 + seed) ~seed prog);
          ("sparse", sparse);
          ("empty", Profile.create prog);
        ])
    (List.init 16 (fun i -> 60 + i))

(* Every stage's hot list, from a build and from a rebuild on another
   profile, is exactly its procedure's local segments whose head block
   has a count. *)
let test_spike_hot_lists () =
  List.iter
    (fun seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let n = Prog.n_procs prog in
      let profiles =
        [ Helpers.walked_profile ~calls:5 ~seed prog; Profile.create prog;
          Helpers.walked_profile ~calls:12 ~seed:(seed + 1) prog ]
      in
      List.iter
        (fun algo ->
          let m, _ = Spike.memoize algo (List.hd profiles) in
          List.iteri
            (fun i profile ->
              if i > 0 then ignore (Spike.rebuild m profile ~dirty:(List.init n Fun.id));
              for p = 0 to n - 1 do
                let r, hot = Spike.entry m p in
                let segs = r.Placement.segs in
                Alcotest.(check (list int))
                  (Printf.sprintf "program %d, profile %d, p%d" seed i p)
                  (List.filter
                     (fun s ->
                       Profile.block_count profile ~proc:p ~block:(Segment.head segs.(s)) > 0)
                     (List.init (Array.length segs) Fun.id))
                  hot
              done)
            profiles)
        [
          Spike.Combo Spike.Porder; Spike.Combo Spike.Chain; Spike.Combo Spike.All; Spike.Hot_cold;
        ])
    [ 80; 81; 82 ]

let suite =
  ( "core.layout",
    [
      Alcotest.test_case "segment module" `Quick test_segment_module;
      Alcotest.test_case "spike ablation pipelines" `Quick test_spike_ablation_pipelines;
      Alcotest.test_case "chaining hot path" `Quick test_chaining_hot_path;
      Alcotest.test_case "chaining call glue" `Quick test_chaining_call_glue;
      Alcotest.test_case "chaining loop rotation" `Quick test_chaining_loop_rotation;
      Alcotest.test_case "chaining deterministic" `Quick test_chaining_deterministic;
      QCheck_alcotest.to_alcotest qcheck_chaining_partitions;
      Alcotest.test_case "chaining = list oracle" `Quick test_chaining_oracle;
      Alcotest.test_case "spike hot lists" `Quick test_spike_hot_lists;
      Alcotest.test_case "fine-grain segments" `Quick test_fine_grain_segments_end_unconditionally;
      Alcotest.test_case "hot/cold split" `Quick test_hot_cold_split;
      Alcotest.test_case "P-H simple order" `Quick test_ph_simple_order;
      Alcotest.test_case "P-H pair weights" `Quick test_ph_pair_weights;
      Alcotest.test_case "P-H permutation" `Quick test_ph_permutation_random;
      Alcotest.test_case "P-H cold keeps order" `Quick test_ph_cold_keeps_order;
      Alcotest.test_case "order_weighted explicit" `Quick test_order_weighted_explicit;
      Alcotest.test_case "temporal order" `Quick test_temporal_order_permutation;
      Alcotest.test_case "spike combos valid" `Quick test_spike_combos_valid;
      Alcotest.test_case "spike base = original" `Quick test_spike_base_is_original;
      Alcotest.test_case "spike hot code first" `Quick test_spike_hot_code_first;
      Alcotest.test_case "coloring cover/gaps" `Quick test_coloring_cover_and_gaps;
      Alcotest.test_case "coloring spreads hot" `Quick test_coloring_spreads_hot_segments;
      Alcotest.test_case "CFA protected region" `Quick test_cfa_protected_region;
      Alcotest.test_case "CFA rejects bad args" `Quick test_cfa_rejects_bad_args;
    ] )
