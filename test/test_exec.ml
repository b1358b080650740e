(* Tests for Olayout_exec: the walker, loop hints, run rendering/merging and
   sequence statistics. *)

open Olayout_ir
module Walk = Olayout_exec.Walk
module Render = Olayout_exec.Render
module Run = Olayout_exec.Run
module Seqstat = Olayout_exec.Seqstat
module Trace = Olayout_exec.Trace
module Placement = Olayout_core.Placement
module Rng = Olayout_util.Rng
module Telemetry = Olayout_telemetry.Telemetry

let events_of_walk ?(hints = []) ?(seed = 3) prog pid =
  let events = ref [] in
  let walk = Walk.create ~prog ~rng:(Rng.create seed) in
  Walk.add_sink walk (fun ~proc ~block ~arm -> events := (proc, block, arm) :: !events);
  Walk.call walk ~hints pid;
  List.rev !events

let test_straight_walk () =
  let prog = Helpers.straight_prog 3 in
  Alcotest.(check (list (triple int int int))) "events"
    [ (0, 0, 0); (0, 1, 0); (0, 2, 0) ]
    (events_of_walk prog 0)

let test_call_walk () =
  let prog = Helpers.call_prog () in
  Alcotest.(check (list (triple int int int))) "events"
    [ (0, 0, 0); (1, 0, 0); (0, 1, 0); (1, 0, 0); (0, 2, 0) ]
    (events_of_walk prog 0)

let test_walk_determinism () =
  let built = Helpers.random_program 33 in
  let prog = Olayout_codegen.Binary.prog built in
  let e1 = events_of_walk ~seed:9 prog 2 and e2 = events_of_walk ~seed:9 prog 2 in
  Alcotest.(check bool) "identical" true (e1 = e2)

let test_walk_probability () =
  (* Diamond p_taken=0.8: taken arm chosen ~80% of the time. *)
  let prog = Helpers.diamond_prog 0.8 in
  let walk = Walk.create ~prog ~rng:(Rng.create 17) in
  let takens = ref 0 and total = 5000 in
  Walk.add_sink walk (fun ~proc:_ ~block ~arm ->
      if block = 0 && arm = 0 then incr takens);
  for _ = 1 to total do
    Walk.call walk 0
  done;
  let freq = float_of_int !takens /. float_of_int total in
  Alcotest.(check bool) "p respected" true (abs_float (freq -. 0.8) < 0.03)

let test_loop_hint_exact () =
  let prog = Helpers.loop_prog 0.25 in
  (* Hint 5 on the header (block 1): the hot arm (fall = body, p=0.75) runs
     exactly 5 times, then the exit arm. *)
  let events = events_of_walk ~hints:[ (1, 5) ] prog 0 in
  let body_visits = List.length (List.filter (fun (_, blk, _) -> blk = 2) events) in
  Alcotest.(check int) "body runs 5x" 5 body_visits

let test_loop_hint_zero () =
  let prog = Helpers.loop_prog 0.25 in
  let events = events_of_walk ~hints:[ (1, 0) ] prog 0 in
  let body_visits = List.length (List.filter (fun (_, blk, _) -> blk = 2) events) in
  Alcotest.(check int) "body never runs" 0 body_visits

let test_instr_counter () =
  let prog = Helpers.straight_prog 3 in
  let walk = Walk.create ~prog ~rng:(Rng.create 1) in
  Walk.call walk 0;
  (* 4 + 4 + (4+1 ret) *)
  Alcotest.(check int) "instrs" 13 (Walk.instrs_executed walk);
  Alcotest.(check int) "blocks" 3 (Walk.blocks_executed walk);
  (* The walker sizes blocks without calling [Block.source_instrs]: one
     block of every terminator kind pins its copy of the rule. *)
  let b = Helpers.block in
  let prog =
    {
      Prog.name = "terms";
      base_addr = 0x1000;
      procs =
        [|
          {
            Proc.id = 0;
            name = "main";
            entry = 0;
            blocks =
              [|
                b 0 1 (Block.Fall 1);
                b 1 2 (Block.Jump 2);
                b 2 3 (Block.Cond { taken = 3; fall = 3; p_taken = 0.5 });
                b 3 4 (Block.Call { callee = 1; ret = 4 });
                b 4 5 (Block.Ijump [| (5, 1.0); (5, 1.0); (5, 1.0) |]);
                b 5 6 Block.Ret;
              |];
          };
          { Proc.id = 1; name = "leaf"; entry = 0; blocks = [| b 0 7 Block.Halt |] };
        |];
    }
  in
  let walk = Walk.create ~prog ~rng:(Rng.create 2) in
  Walk.call walk 0;
  (* each block once: 1 + (2+1) + (3+1) + (4+1) + 7 + (5+1) + (6+1) *)
  Alcotest.(check int) "blocks, every kind" 7 (Walk.blocks_executed walk);
  Alcotest.(check int) "instrs, every kind" 33 (Walk.instrs_executed walk)

(* A random program with every terminator kind: procedure [i] calls only
   later procedures, edges go forward but for conditional back edges
   (taken with probability at most 0.25), indirect jumps have two to five
   arms, and exits are [Ret] or [Halt]. *)
let random_cfg rng =
  let n_procs = 2 + Rng.int rng 3 in
  let procs =
    Array.init n_procs (fun pid ->
        let n = 2 + Rng.int rng 7 in
        let later j = j + 1 + Rng.int rng (n - 1 - j) in
        let term j =
          if j = n - 1 then if Rng.bool rng 0.3 then Block.Halt else Block.Ret
          else
            match Rng.int rng 8 with
            | 0 -> Block.Jump (later j)
            | 1 -> Block.Cond { taken = later j; fall = j + 1; p_taken = Rng.float rng }
            | 2 ->
                let p_taken = 0.25 *. Rng.float rng in
                Block.Cond { taken = Rng.int rng (j + 1); fall = j + 1; p_taken }
            | 3 when pid < n_procs - 1 ->
                Block.Call { callee = pid + 1 + Rng.int rng (n_procs - 1 - pid); ret = j + 1 }
            | 4 ->
                let arm _ = (later j, 0.1 +. Rng.float rng) in
                Block.Ijump (Array.init (2 + Rng.int rng 4) arm)
            | 5 -> Block.Ret
            | 6 -> Block.Halt
            | _ -> Block.Fall (j + 1)
        in
        let blocks = Array.init n (fun j -> Helpers.block j (Rng.int rng 6) (term j)) in
        { Proc.id = pid; name = Printf.sprintf "p%d" pid; entry = 0; blocks })
  in
  { Prog.name = "cfg"; base_addr = 0x1000; procs }

(* The walker against the reference walker it replaced: on random
   programs, calls and loop hints (repeated blocks included), both send
   every sink the same events, count the same blocks and instructions,
   and leave the shared RNG to draw the same values next.  The programs
   must reach every case: indirect-jump arms >= 2, calls, [Halt] and
   hinted branches. *)
let test_walker_reference () =
  let wide = ref 0 and calls = ref 0 and halts = ref 0 and hinted = ref 0 in
  for seed = 0 to 299 do
    let rng = Rng.create seed in
    let prog = random_cfg rng in
    let walk_rng = Rng.create seed and reference_rng = Rng.create seed in
    let walk = Walk.create ~prog ~rng:walk_rng in
    let reference = Walk_reference.create ~prog ~rng:reference_rng in
    let got = [| []; [] |] and want = [| []; [] |] in
    for i = 0 to 1 do
      Walk.add_sink walk (fun ~proc ~block ~arm -> got.(i) <- (proc, block, arm) :: got.(i));
      Walk_reference.add_sink reference (fun ~proc ~block ~arm ->
          want.(i) <- (proc, block, arm) :: want.(i))
    done;
    for call = 1 to 1 + Rng.int rng 6 do
      let pid = Rng.int rng (Prog.n_procs prog) in
      let p = Prog.proc prog pid in
      (* At least one trip: a hint of 0 on a back edge whose exit is the
         hot arm would loop forever, in either walker. *)
      let hints =
        List.init (Rng.int rng 4) (fun _ -> (Rng.int rng (Proc.n_blocks p), 1 + Rng.int rng 4))
      in
      Walk.call walk ~hints pid;
      Walk_reference.call reference ~hints pid;
      let where = Printf.sprintf "program %d, call %d" seed call in
      Alcotest.(check int) (where ^ ": instrs") (Walk_reference.instrs_executed reference)
        (Walk.instrs_executed walk);
      Alcotest.(check int) (where ^ ": blocks") (Walk_reference.blocks_executed reference)
        (Walk.blocks_executed walk);
      List.iter
        (fun (b, _) ->
          match (Proc.block p b).Block.term with
          | Block.Cond _ -> if List.exists (fun (_, q, _) -> q = b) got.(0) then incr hinted
          | _ -> ())
        hints
    done;
    let event = Alcotest.(triple int int int) in
    Alcotest.(check (list event)) (Printf.sprintf "program %d: events" seed) want.(0) got.(0);
    Alcotest.(check (list event)) (Printf.sprintf "program %d: second sink" seed) got.(0) got.(1);
    let draws r = List.init 3 (fun _ -> Rng.int64 r) in
    Alcotest.(check (list int64)) (Printf.sprintf "program %d: next draws" seed)
      (draws reference_rng) (draws walk_rng);
    List.iter
      (fun (proc, block, arm) ->
        if arm >= 2 then incr wide;
        match (Proc.block (Prog.proc prog proc) block).Block.term with
        | Block.Call _ -> incr calls
        | Block.Halt -> incr halts
        | _ -> ())
      got.(0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d arms >= 2, %d calls, %d halts, %d hints" !wide !calls !halts !hinted)
    true
    (!wide > 0 && !calls > 0 && !halts > 0 && !hinted > 0)

let render_runs ?(segments = None) prog pid =
  let placement =
    match segments with
    | None -> Placement.original ~align:16 prog
    | Some segs -> Placement.of_segments ~align:4 prog segs
  in
  let runs = ref [] in
  let m = Render.merger ~emit:(fun r -> runs := r :: !runs) in
  let r = Render.create ~placement ~owner:Run.App m in
  let walk = Walk.create ~prog ~rng:(Rng.create 3) in
  Walk.add_sink walk (Render.sink r);
  Walk.call walk pid;
  Render.flush m;
  List.rev !runs

let test_straight_single_run () =
  let prog = Helpers.straight_prog 4 in
  match render_runs prog 0 with
  | [ run ] ->
      Alcotest.(check int) "addr" 0x1000 run.Run.addr;
      (* 4+4+4+5: falls merge, ret included *)
      Alcotest.(check int) "merged length" 17 run.Run.len
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

let test_call_breaks_runs () =
  let prog = Helpers.call_prog () in
  let runs = render_runs prog 0 in
  (* call block / callee / ret-block / callee / final: 5 runs *)
  Alcotest.(check int) "five runs" 5 (List.length runs);
  (* Each run's length matches fetched instructions: 3,6,4,6,2 *)
  Alcotest.(check (list int)) "run lengths" [ 3; 6; 4; 6; 2 ]
    (List.map (fun r -> r.Run.len) runs)

let test_merger_owner_switch () =
  let runs = ref [] in
  let m = Render.merger ~emit:(fun r -> runs := r :: !runs) in
  Render.feed m Run.App ~addr:0 ~len:4;
  Render.feed m Run.App ~addr:16 ~len:2;  (* contiguous: merges *)
  Render.feed m Run.Kernel ~addr:24 ~len:1;  (* owner switch: flush *)
  Render.flush m;
  match List.rev !runs with
  | [ a; k ] ->
      Alcotest.(check int) "merged app run" 6 a.Run.len;
      Alcotest.(check bool) "kernel run" true (k.Run.owner = Run.Kernel)
  | l -> Alcotest.failf "expected 2 runs, got %d" (List.length l)

let test_merger_gap_breaks () =
  let runs = ref [] in
  let m = Render.merger ~emit:(fun r -> runs := r :: !runs) in
  Render.feed m Run.App ~addr:0 ~len:4;
  Render.feed m Run.App ~addr:32 ~len:2;  (* gap *)
  Render.flush m;
  Alcotest.(check int) "two runs" 2 (List.length !runs)

let test_block_path_placement_invariant () =
  (* The block path must not depend on the placement: render the same walk
     under two placements and compare per-placement run totals against the
     respective placements' expected fetch counts. *)
  let prog = Helpers.diamond_prog 0.5 in
  let events = events_of_walk ~seed:42 prog 0 in
  let total_for segments =
    let placement =
      match segments with
      | None -> Placement.original prog
      | Some segs -> Placement.of_segments ~align:4 prog segs
    in
    List.fold_left
      (fun acc (proc, block, arm) -> acc + Placement.exec_instrs placement ~proc ~block ~arm)
      0 events
  in
  let reordered = Some [ { Olayout_core.Segment.proc = 0; blocks = [ 0; 2; 3; 1 ] } ] in
  (* Same events; totals may differ only via terminator encoding. *)
  let a = total_for None and b = total_for reordered in
  Alcotest.(check bool) "totals close" true (abs (a - b) <= List.length events)

(* The merger buckets run lengths itself, counting short runs by length
   until [flush]; its [exec.run_len] histogram must read as if every
   emitted length had been observed, and must not move before the flush.
   A second batch after a flush books only its own runs. *)
let test_merger_run_len_histogram () =
  let buckets = Telemetry.histogram_buckets in
  let run_len = Telemetry.histogram "exec.run_len" in
  let lens = ref [] in
  let m = Render.merger ~emit:(fun r -> lens := r.Run.len :: !lens) in
  let batch name runs =
    let before = buckets run_len in
    lens := [];
    List.iteri
      (fun i len ->
        (* Alternating owners: every feed is its own run. *)
        Render.feed m (if i land 1 = 0 then Run.App else Run.Kernel) ~addr:0 ~len)
      runs;
    Alcotest.(check (list (pair int int))) (name ^ ": registry before flush") before
      (buckets run_len);
    Render.flush m;
    let observed = Telemetry.histogram ("tst.exec.run_len." ^ name) in
    List.iter (Telemetry.observe observed) !lens;
    let delta =
      List.filter_map
        (fun (floor, n) ->
          let was = Option.value ~default:0 (List.assoc_opt floor before) in
          if n > was then Some (floor, n - was) else None)
        (buckets run_len)
    in
    Alcotest.(check int) (name ^ ": runs") (List.length runs) (List.length !lens);
    Alcotest.(check (list (pair int int))) (name ^ ": buckets") (buckets observed) delta
  in
  batch "first" [ 1; 2; 3; 7; 8; 63; 64; 65; 1000; 1 lsl 40; 1 lsl 61; max_int ];
  batch "second" [ 63; 63; 5; 64; 127; 128 ]

(* A walk rendered under two placements allocates one four-word [Run.t]
   per emitted run and nothing per block, beyond a constant per call; the
   rendered instruction counts are the placements' own, every arm of an
   indirect jump included, and the walker counts [Block.source_instrs]. *)
let test_render_allocation () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 41) in
  let top = Prog.n_procs prog - 1 in
  let walk = Walk.create ~prog ~rng:(Rng.create 8) in
  let runs = ref 0 and instrs = [| 0; 0 |] and want = [| 0; 0 |] in
  let placements = [| Placement.original prog; Placement.original ~align:64 prog |] in
  let mergers =
    Array.mapi
      (fun i placement ->
        let m =
          Render.merger ~emit:(fun r ->
              incr runs;
              instrs.(i) <- instrs.(i) + r.Run.len)
        in
        Walk.add_sink walk (Render.sink (Render.create ~placement ~owner:Run.App m));
        m)
      placements
  in
  let wide = ref 0 and source = ref 0 in
  Walk.add_sink walk (fun ~proc ~block ~arm ->
      if arm >= 2 then incr wide;
      source := !source + Block.source_instrs prog.Prog.procs.(proc).Proc.blocks.(block);
      want.(0) <- want.(0) + Placement.exec_instrs placements.(0) ~proc ~block ~arm;
      want.(1) <- want.(1) + Placement.exec_instrs placements.(1) ~proc ~block ~arm);
  Walk.call walk top;
  Alcotest.(check int) "source instructions" !source (Walk.instrs_executed walk);
  let calls = 200 in
  let runs0 = !runs and blocks0 = Walk.blocks_executed walk in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Walk.call walk top
  done;
  let words = int_of_float (Gc.minor_words () -. w0) in
  let runs = !runs - runs0 and blocks = Walk.blocks_executed walk - blocks0 in
  Array.iter Render.flush mergers;
  Alcotest.(check bool) "instructions rendered" true (instrs = want);
  Alcotest.(check bool) (Printf.sprintf "%d events on arms >= 2" !wide) true (!wide > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d blocks per call" (blocks / calls))
    true (blocks > 8 * calls);
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d runs of %d blocks in %d calls" words runs blocks calls)
    true
    (words - (4 * runs) <= 2 * calls)

(* The sink's inline decode of the fetch word against the placement's
   accessor: the rendered instructions are the events' summed
   [exec_instrs], under every combo and under a diamond laid out one
   block per segment, whose fall arm also executes a companion branch. *)
let test_render_every_combo () =
  let random = Olayout_codegen.Binary.prog (Helpers.random_program 43) in
  let profile = Helpers.walked_profile ~calls:10 random in
  let diamond = Helpers.diamond_prog 0.5 in
  let apart =
    Placement.of_segments diamond
      (List.map (fun b -> { Olayout_core.Segment.proc = 0; blocks = [ b ] }) [ 0; 3; 1; 2 ])
  in
  let companions = ref 0 in
  List.iter
    (fun (name, prog, placement) ->
      let got = ref 0 and want = ref 0 in
      let m = Render.merger ~emit:(fun r -> got := !got + r.Run.len) in
      let walk = Walk.create ~prog ~rng:(Rng.create 5) in
      Walk.add_sink walk (Render.sink (Render.create ~placement ~owner:Run.App m));
      Walk.add_sink walk (fun ~proc ~block ~arm ->
          let n = Placement.exec_instrs placement ~proc ~block ~arm in
          if arm = 1 && n <> Placement.exec_instrs placement ~proc ~block ~arm:0 then
            incr companions;
          want := !want + n);
      for _ = 1 to 20 do
        for pid = 0 to Prog.n_procs prog - 1 do
          Walk.call walk pid
        done
      done;
      Render.flush m;
      Alcotest.(check int) name !want !got)
    (("diamond apart", diamond, apart)
    :: List.map
         (fun combo ->
           ( Olayout_core.Spike.combo_name combo,
             random,
             Olayout_core.Spike.optimize profile combo ))
         Olayout_core.Spike.all_combos);
  Alcotest.(check bool)
    (Printf.sprintf "%d fall arms with a companion branch" !companions)
    true (!companions > 0)

let test_seqstat () =
  let s = Seqstat.create () in
  Seqstat.observe s { Run.owner = Run.App; addr = 0; len = 10 };
  Seqstat.observe s { Run.owner = Run.App; addr = 0; len = 20 };
  Seqstat.observe s { Run.owner = Run.Kernel; addr = 0; len = 7 };
  Alcotest.(check (float 1e-9)) "app mean" 15.0 (Seqstat.mean s ~owner:Run.App);
  Alcotest.(check int) "app instrs" 30 (Seqstat.total_instrs s ~owner:Run.App);
  Alcotest.(check int) "app runs" 2 (Seqstat.total_runs s ~owner:Run.App);
  Alcotest.(check (float 1e-9)) "kernel mean" 7.0 (Seqstat.mean s ~owner:Run.Kernel)

let test_seqstat_cap () =
  let s = Seqstat.create ~cap:33 () in
  Seqstat.observe s { Run.owner = Run.App; addr = 0; len = 100 };
  let h = Seqstat.histogram s ~owner:Run.App in
  Alcotest.(check int) "capped" 1 (Olayout_metrics.Histogram.count h 33)

let test_ijump_distribution () =
  (* An indirect jump follows its weights. *)
  let prog =
    Helpers.prog_of_blocks "switch"
      [
        Helpers.block 0 2 (Block.Ijump [| (1, 3.0); (2, 1.0) |]);
        Helpers.block 1 4 Block.Ret;
        Helpers.block 2 4 Block.Ret;
      ]
  in
  let walk = Walk.create ~prog ~rng:(Rng.create 11) in
  let arm0 = ref 0 and n = 8000 in
  Walk.add_sink walk (fun ~proc:_ ~block ~arm -> if block = 0 && arm = 0 then incr arm0);
  for _ = 1 to n do
    Walk.call walk 0
  done;
  let frac = float_of_int !arm0 /. float_of_int n in
  Alcotest.(check bool) "weight 3:1 respected" true (abs_float (frac -. 0.75) < 0.03)

let replayed t =
  let acc = ref [] in
  Trace.replay t (fun r -> acc := r :: !acc);
  List.rev !acc

let test_trace_roundtrip () =
  (* Mixed owners, forward and backward address deltas, large jumps. *)
  let runs =
    [
      { Run.owner = Run.App; addr = 0x1000; len = 17 };
      { Run.owner = Run.Kernel; addr = 0x8000_0000; len = 3 };
      { Run.owner = Run.App; addr = 0x1044; len = 1 };
      { Run.owner = Run.App; addr = 0x10; len = 250 };
      { Run.owner = Run.Kernel; addr = 0x7fff_fff0; len = 1_000_000 };
      { Run.owner = Run.App; addr = 0; len = 1 };
    ]
  in
  let emit, t = Trace.record () in
  List.iter emit runs;
  Alcotest.(check int) "length" (List.length runs) (Trace.length t);
  Alcotest.(check int) "instrs"
    (List.fold_left (fun acc r -> acc + r.Run.len) 0 runs)
    (Trace.instrs t);
  Alcotest.(check bool) "roundtrip exact" true (replayed t = runs);
  (* Replay is repeatable. *)
  Alcotest.(check bool) "replay twice" true (replayed t = runs);
  Alcotest.(check bool) "footprint positive" true (Trace.memory_bytes t > 0)

let test_trace_multi_chunk () =
  (* Enough runs to span several 256KB chunks; addresses hop around so deltas
     are not trivially small. *)
  let n = 200_000 in
  let emit, t = Trace.record () in
  let expect = ref [] in
  for i = 0 to n - 1 do
    let r =
      {
        Run.owner = (if i land 3 = 0 then Run.Kernel else Run.App);
        addr = (i * 7919) land 0xff_ffff lor 0x10_0000;
        len = 1 + (i land 63);
      }
    in
    expect := r :: !expect;
    emit r
  done;
  Alcotest.(check int) "length" n (Trace.length t);
  Alcotest.(check bool) "spans chunks" true (Trace.memory_bytes t > 1 lsl 18);
  Alcotest.(check bool) "roundtrip exact" true (replayed t = List.rev !expect)

let test_trace_captures_merger_tail () =
  (* Recording through a merger: the trailing run only reaches the trace on
     flush, mirroring how Server.run finalises its renders. *)
  let emit, t = Trace.record () in
  let m = Render.merger ~emit in
  Render.feed m Run.App ~addr:0 ~len:4;
  Render.feed m Run.App ~addr:16 ~len:2;
  Alcotest.(check int) "tail unflushed" 0 (Trace.length t);
  Render.flush m;
  Alcotest.(check bool) "tail flushed" true
    (replayed t = [ { Run.owner = Run.App; addr = 0; len = 6 } ])

(* The encoder as it was before [Trace.append] wrote one-byte varints
   inline: the bytes a trace must keep. *)
let reference_encoding runs =
  let buf = Buffer.create 64 in
  let put v =
    let v = ref v and more = ref true in
    while !more do
      let b = !v land 0x7f in
      v := !v lsr 7;
      if !v = 0 then begin
        Buffer.add_char buf (Char.unsafe_chr b);
        more := false
      end
      else Buffer.add_char buf (Char.unsafe_chr (b lor 0x80))
    done
  in
  let prev_end = ref 0 in
  List.iter
    (fun (r : Run.t) ->
      put ((r.len lsl 1) lor match r.owner with Run.App -> 0 | Run.Kernel -> 1);
      let delta = r.addr - !prev_end in
      put ((delta lsl 1) lxor (delta asr 62));
      prev_end := r.addr + (r.len * 4))
    runs;
  Buffer.contents buf

(* A trace's bytes are the reference encoder's, at the one-byte/two-byte
   edges of both varints (length field 63/64 either owner; zigzag deltas
   -64, -65, 63 and 64), at large values and across chunk rollovers. *)
let test_trace_bytes () =
  let encoded runs =
    let emit, t = Trace.record () in
    List.iter emit runs;
    Trace.contents t
  in
  (* One run from address 0: a length field (len * 2 + owner) and a
     zigzag delta below 128 take one byte each, 128 or more two. *)
  List.iter
    (fun ((owner, len, addr), bytes) ->
      Alcotest.(check int)
        (Printf.sprintf "%s len %d, delta %d" (Run.owner_name owner) len addr)
        bytes
        (String.length (encoded [ { Run.owner; addr; len } ])))
    [
      ((Run.App, 63, 0), 2); ((Run.Kernel, 63, 0), 2); ((Run.App, 64, 0), 3);
      ((Run.Kernel, 64, 0), 3); ((Run.App, 1, -64), 2); ((Run.App, 1, -65), 3);
      ((Run.App, 1, 63), 2); ((Run.App, 1, 64), 3);
    ];
  (* The same edges mid-stream: each run starts [delta] bytes from the
     previous run's end. *)
  let edges =
    let prev_end = ref 0 in
    List.map
      (fun (owner, len, delta) ->
        let addr = !prev_end + delta in
        prev_end := addr + (len * 4);
        { Run.owner; addr; len })
      [
        (Run.App, 63, 0x1000); (Run.Kernel, 63, 63); (Run.App, 64, 64); (Run.Kernel, 64, -64);
        (Run.App, 31, -65); (Run.App, 32, 63); (Run.Kernel, 1, 64); (Run.App, 65, -1);
        (Run.App, 1 lsl 20, -(1 lsl 40)); (Run.Kernel, 8191, 1 lsl 45); (Run.App, 1, 0);
      ]
  in
  Alcotest.(check string) "edges" (reference_encoding edges) (encoded edges);
  Alcotest.(check bool) "edges replay" true
    (let emit, t = Trace.record () in
     List.iter emit edges;
     replayed t = edges);
  (* 90,000 runs of 3-4 bytes fill a 256 KiB chunk more than once. *)
  let many =
    List.init 90_000 (fun i ->
        {
          Run.owner = (if i mod 7 = 0 then Run.Kernel else Run.App);
          addr = 0x10_0000 + ((i * 7919) land 0xff_ffff);
          len = 1 + (i land 127);
        })
  in
  let emit, t = Trace.record () in
  List.iter emit many;
  Alcotest.(check bool) "rolls over" true (Trace.memory_bytes t > 1 lsl 18);
  Alcotest.(check bool) "rollover bytes" true (Trace.contents t = reference_encoding many);
  Alcotest.(check bool) "rollover replay" true (replayed t = many)

let test_sink_order () =
  (* Sinks fire in registration order, including sinks added between calls. *)
  let prog = Helpers.straight_prog 1 in
  let walk = Walk.create ~prog ~rng:(Rng.create 1) in
  let order = ref [] in
  Walk.add_sink walk (fun ~proc:_ ~block:_ ~arm:_ -> order := 1 :: !order);
  Walk.add_sink walk (fun ~proc:_ ~block:_ ~arm:_ -> order := 2 :: !order);
  Walk.call walk 0;
  Walk.add_sink walk (fun ~proc:_ ~block:_ ~arm:_ -> order := 3 :: !order);
  Walk.call walk 0;
  Alcotest.(check (list int)) "order" [ 1; 2; 1; 2; 3 ] (List.rev !order)

let test_listing_renders () =
  let prog = Helpers.call_prog () in
  let placement = Placement.original prog in
  let out =
    Format.asprintf "%a" (fun ppf () -> Olayout_core.Listing.pp_proc ppf placement ~proc:0) ()
  in
  Alcotest.(check bool) "mentions proc name" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains out "caller" && contains out "jsr" && contains out "ret");
  let summary =
    Format.asprintf "%a" (fun ppf () -> Olayout_core.Listing.pp_summary ppf placement) ()
  in
  Alcotest.(check bool) "summary has segments" true (String.length summary > 20)

let test_recursion_guard () =
  (* Build an (invalid) self-recursive program bypassing validation. *)
  let prog =
    {
      Prog.name = "rec";
      base_addr = 0;
      procs =
        [|
          {
            Proc.id = 0;
            name = "r";
            entry = 0;
            blocks =
              [|
                Helpers.block 0 1 (Block.Call { callee = 0; ret = 1 });
                Helpers.block 1 1 Block.Ret;
              |];
          };
        |];
    }
  in
  let walk = Walk.create ~prog ~rng:(Rng.create 1) in
  Alcotest.(check bool) "depth guard fires" true
    (try
       Walk.call walk 0;
       false
     with Invalid_argument _ -> true)

let suite =
  ( "exec",
    [
      Alcotest.test_case "straight walk" `Quick test_straight_walk;
      Alcotest.test_case "call walk" `Quick test_call_walk;
      Alcotest.test_case "walk determinism" `Quick test_walk_determinism;
      Alcotest.test_case "walk probability" `Quick test_walk_probability;
      Alcotest.test_case "loop hint exact" `Quick test_loop_hint_exact;
      Alcotest.test_case "loop hint zero" `Quick test_loop_hint_zero;
      Alcotest.test_case "instr counter" `Quick test_instr_counter;
      Alcotest.test_case "straight single run" `Quick test_straight_single_run;
      Alcotest.test_case "call breaks runs" `Quick test_call_breaks_runs;
      Alcotest.test_case "merger owner switch" `Quick test_merger_owner_switch;
      Alcotest.test_case "merger gap breaks" `Quick test_merger_gap_breaks;
      Alcotest.test_case "merger run_len histogram" `Quick test_merger_run_len_histogram;
      Alcotest.test_case "render allocation" `Quick test_render_allocation;
      Alcotest.test_case "render = exec_instrs, every combo" `Quick test_render_every_combo;
      Alcotest.test_case "placement invariance" `Quick test_block_path_placement_invariant;
      Alcotest.test_case "seqstat" `Quick test_seqstat;
      Alcotest.test_case "seqstat cap" `Quick test_seqstat_cap;
      Alcotest.test_case "recursion guard" `Quick test_recursion_guard;
      Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
      Alcotest.test_case "trace multi-chunk" `Quick test_trace_multi_chunk;
      Alcotest.test_case "trace merger tail" `Quick test_trace_captures_merger_tail;
      Alcotest.test_case "trace bytes" `Quick test_trace_bytes;
      Alcotest.test_case "sink order" `Quick test_sink_order;
      Alcotest.test_case "walker = reference walker" `Quick test_walker_reference;
      Alcotest.test_case "ijump distribution" `Quick test_ijump_distribution;
      Alcotest.test_case "listing renders" `Quick test_listing_renders;
    ] )
