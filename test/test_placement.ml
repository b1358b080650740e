(* Tests for Olayout_core.Placement: address assignment and terminator
   encodings under different block orders. *)

open Olayout_ir
module Placement = Olayout_core.Placement
module Segment = Olayout_core.Segment

let b = Helpers.block

let test_original_straight () =
  let prog = Helpers.straight_prog 3 in
  let pl = Placement.original ~align:16 prog in
  Alcotest.(check int) "b0 at base" 0x1000 (Placement.block_addr pl ~proc:0 ~block:0);
  (* fall-throughs adjacent: blocks are 4 instrs = 16 bytes each *)
  Alcotest.(check int) "b1 addr" 0x1010 (Placement.block_addr pl ~proc:0 ~block:1);
  Alcotest.(check int) "fall encodes to 0" 4 (Placement.static_instrs pl ~proc:0 ~block:0);
  Alcotest.(check int) "ret costs 1" 5 (Placement.static_instrs pl ~proc:0 ~block:2);
  Alcotest.(check int) "text bytes" ((4 + 4 + 5) * 4) (Placement.text_bytes pl);
  Alcotest.(check int) "program instrs" 13 (Placement.program_instrs pl)

let test_original_diamond_encodings () =
  let prog = Helpers.diamond_prog 0.5 in
  let pl = Placement.original prog in
  (* b0: cond with fall adjacent -> 1 terminator instr, both arms fetch 1. *)
  Alcotest.(check int) "cond static" 4 (Placement.static_instrs pl ~proc:0 ~block:0);
  Alcotest.(check int) "cond exec arm0" 4 (Placement.exec_instrs pl ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check int) "cond exec arm1" 4 (Placement.exec_instrs pl ~proc:0 ~block:0 ~arm:1);
  (* b1: jump to b3 which is not adjacent -> 1 instr *)
  Alcotest.(check int) "jump static" 6 (Placement.static_instrs pl ~proc:0 ~block:1);
  (* b2: fall to b3, adjacent -> 0 *)
  Alcotest.(check int) "fall static" 7 (Placement.static_instrs pl ~proc:0 ~block:2)

let test_reordered_encodings () =
  let prog = Helpers.diamond_prog 0.5 in
  (* Order b0 b2 b3 b1: cond's fall (b1) moved away, taken (b2) adjacent ->
     inverted cond, 1 instr.  b2 fall b3 adjacent -> 0.  b3 ret.  b1 jump b3
     not adjacent -> 1. *)
  let pl =
    Placement.of_segments ~align:4 prog [ { Segment.proc = 0; blocks = [ 0; 2; 3; 1 ] } ]
  in
  Alcotest.(check int) "inverted cond static" 4 (Placement.static_instrs pl ~proc:0 ~block:0);
  Alcotest.(check int) "inverted exec taken" 4 (Placement.exec_instrs pl ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check int) "inverted exec fall" 4 (Placement.exec_instrs pl ~proc:0 ~block:0 ~arm:1);
  (* order b0 b3 b1 b2: neither cond successor adjacent -> 2 instrs, fall arm
     fetches both. *)
  let pl2 =
    Placement.of_segments ~align:4 prog [ { Segment.proc = 0; blocks = [ 0; 3; 1; 2 ] } ]
  in
  Alcotest.(check int) "cond+companion static" 5 (Placement.static_instrs pl2 ~proc:0 ~block:0);
  Alcotest.(check int) "taken arm fetches 1" 4 (Placement.exec_instrs pl2 ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check int) "fall arm fetches 2" 5 (Placement.exec_instrs pl2 ~proc:0 ~block:0 ~arm:1);
  (* b2's fall to b3 is now backwards -> inserted branch. *)
  Alcotest.(check int) "fall needs branch" 8 (Placement.static_instrs pl2 ~proc:0 ~block:2)

let test_jump_elision () =
  let prog =
    Helpers.prog_of_blocks "jump"
      [ b 0 3 (Block.Jump 2); b 1 2 Block.Ret; b 2 1 Block.Ret ]
  in
  (* Source order: jump not adjacent -> 1.  Reordered 0,2,1: adjacent -> elided. *)
  let src = Placement.original prog in
  Alcotest.(check int) "jump kept" 4 (Placement.static_instrs src ~proc:0 ~block:0);
  let pl =
    Placement.of_segments ~align:4 prog [ { Segment.proc = 0; blocks = [ 0; 2; 1 ] } ]
  in
  Alcotest.(check int) "jump elided" 3 (Placement.static_instrs pl ~proc:0 ~block:0);
  Alcotest.(check int) "exec elided" 3 (Placement.exec_instrs pl ~proc:0 ~block:0 ~arm:0)

let test_alignment_padding () =
  let prog = Helpers.call_prog () in
  let pl = Placement.original ~align:64 prog in
  Alcotest.(check int) "caller at base" 0x1000 (Placement.block_addr pl ~proc:0 ~block:0);
  let callee_addr = Placement.block_addr pl ~proc:1 ~block:0 in
  Alcotest.(check int) "callee aligned" 0 (callee_addr mod 64);
  Alcotest.(check bool) "padding counted in text" true
    (Placement.text_bytes pl > Placement.program_instrs pl * 4)

let test_cover_validation () =
  let prog = Helpers.diamond_prog 0.5 in
  let bad_missing = [ { Segment.proc = 0; blocks = [ 0; 1; 2 ] } ] in
  Alcotest.(check bool) "missing block rejected" true
    (try
       ignore (Placement.of_segments prog bad_missing);
       false
     with Invalid_argument _ -> true);
  let bad_dup = [ { Segment.proc = 0; blocks = [ 0; 1; 2; 3; 3 ] } ] in
  Alcotest.(check bool) "duplicate block rejected" true
    (try
       ignore (Placement.of_segments prog bad_dup);
       false
     with Invalid_argument _ -> true)

let test_call_glue_enforced () =
  let prog = Helpers.call_prog () in
  (* Splitting the call block from its return block must be rejected. *)
  let bad =
    [
      { Segment.proc = 0; blocks = [ 0 ] };
      { Segment.proc = 0; blocks = [ 1; 2 ] };
      { Segment.proc = 1; blocks = [ 0 ] };
    ]
  in
  Alcotest.(check bool) "split call glue rejected" true
    (try
       ignore (Placement.of_segments prog bad);
       false
     with Invalid_argument _ -> true)

(* The encoder's other refusals, called directly: a block outside the
   procedure, an empty segment and a segment range [starts] does not hold
   or that runs past the block order; and the list constructor's refusal
   of a segment naming a procedure the program does not have.  The same
   cut, well formed, encodes. *)
let test_encoder_refusals () =
  let prog = Helpers.diamond_prog 0.5 in
  let refused what f =
    Alcotest.(check bool) what true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let encode blocks starts ~lo ~hi () =
    ignore (Placement.encode prog 0 ~blocks ~starts ~lo ~hi)
  in
  encode [| 0; 2; 3; 1 |] [| 0; 2; 4 |] ~lo:0 ~hi:2 ();
  refused "block past the procedure" (encode [| 0; 1; 2; 4 |] [| 0; 4 |] ~lo:0 ~hi:1);
  refused "negative block" (encode [| 0; 1; 2; -1 |] [| 0; 4 |] ~lo:0 ~hi:1);
  refused "empty segment" (encode [| 0; 2; 3; 1 |] [| 0; 2; 2; 4 |] ~lo:0 ~hi:3);
  refused "no segments" (encode [| 0; 2; 3; 1 |] [| 0 |] ~lo:0 ~hi:0);
  refused "range outside the starts" (encode [| 0; 2; 3; 1 |] [| 0; 4 |] ~lo:0 ~hi:2);
  refused "starts past the blocks" (encode [| 0; 2; 3 |] [| 0; 4 |] ~lo:0 ~hi:1);
  refused "segment of an unknown procedure" (fun () ->
      ignore
        (Placement.of_segments prog
           [ { Segment.proc = 0; blocks = [ 0; 1; 2; 3 ] }; { Segment.proc = 1; blocks = [ 0 ] } ]))

let test_no_overlaps_random () =
  (* Blocks never overlap in any placement built from valid segments. *)
  List.iter
    (fun seed ->
      let built = Helpers.random_program seed in
      let prog = Olayout_codegen.Binary.prog built in
      let pl = Placement.original prog in
      let spans = ref [] in
      Placement.iter_placed pl (fun ~proc:_ ~block:_ ~addr ~instrs ->
          spans := (addr, addr + (instrs * 4)) :: !spans);
      let sorted = List.sort compare !spans in
      let rec no_overlap = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && no_overlap rest
        | _ -> true
      in
      Alcotest.(check bool) "no overlaps" true (no_overlap sorted))
    [ 1; 2; 3 ]

let test_cond_branch_outcomes () =
  let prog = Helpers.diamond_prog 0.5 in
  (* Source order: fall (b1) adjacent — branch targets taken (b2); arm 0 is
     the taken outcome. *)
  let src = Placement.original prog in
  (match Placement.cond_branch src ~proc:0 ~block:0 ~arm:0 with
  | Some (pc, target, taken) ->
      Alcotest.(check bool) "taken on arm0" true taken;
      Alcotest.(check int) "pc after body" (0x1000 + (3 * 4)) pc;
      Alcotest.(check int) "targets b2" (Placement.block_addr src ~proc:0 ~block:2) target
  | None -> Alcotest.fail "expected cond");
  (match Placement.cond_branch src ~proc:0 ~block:0 ~arm:1 with
  | Some (_, _, taken) -> Alcotest.(check bool) "not taken on arm1" false taken
  | None -> Alcotest.fail "expected cond");
  (* Inverted: taken successor adjacent — branch targets fall; taken on arm1. *)
  let inv =
    Placement.of_segments ~align:4 prog [ { Segment.proc = 0; blocks = [ 0; 2; 3; 1 ] } ]
  in
  (match Placement.cond_branch inv ~proc:0 ~block:0 ~arm:1 with
  | Some (_, target, taken) ->
      Alcotest.(check bool) "inverted: taken on arm1" true taken;
      Alcotest.(check int) "inverted targets fall" (Placement.block_addr inv ~proc:0 ~block:1)
        target
  | None -> Alcotest.fail "expected cond");
  (* Non-cond blocks report nothing. *)
  Alcotest.(check bool) "jump is not a cond" true
    (Placement.cond_branch src ~proc:0 ~block:1 ~arm:0 = None)

let test_long_branches () =
  let prog = Helpers.diamond_prog 0.5 in
  let near = Placement.original prog in
  Alcotest.(check int) "small program has none" 0 (Placement.long_branches near ());
  (* With a 16-byte reach, the diamond's jump b1->b3 is far. *)
  Alcotest.(check bool) "tiny reach flags branches" true
    (Placement.long_branches near ~max_displacement:8 () > 0)

(* Segment-relative placement against the list constructor and the
   reference cursor loop: encoding each procedure's segments once and
   laying them out by one prefix sum gives the placement [of_segments] and
   the list-based reference give for the same segments in the same order,
   at either alignment; an order that is not a permutation is refused. *)
let test_of_rows_matches_of_segments () =
  List.iter
    (fun seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let profile = Helpers.walked_profile ~calls:20 ~seed prog in
      let segments = Array.of_list (Layout_reference.fine_grain profile) in
      let rows =
        Array.init (Prog.n_procs prog) (fun pid ->
            Helpers.encode_segments prog pid
              (List.filter (fun (s : Segment.t) -> s.proc = pid) (Array.to_list segments)))
      in
      let n = Array.length segments in
      let order = Array.init n Fun.id in
      let rng = Olayout_util.Rng.create seed in
      for i = n - 1 downto 1 do
        let j = Olayout_util.Rng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      List.iter
        (fun align ->
          let listed = Array.to_list (Array.map (Array.get segments) order) in
          let want = Placement.of_segments ~align prog listed in
          let got = Placement.of_rows ~align prog rows ~order in
          Alcotest.(check bool)
            (Printf.sprintf "program %d, align %d: same placement" seed align)
            true (Placement.equal want got);
          Alcotest.(check bool)
            (Printf.sprintf "program %d, align %d: = reference" seed align)
            true
            (Layout_reference.matches (Layout_reference.place ~align prog listed) got))
        [ 4; 16 ];
      if n > 1 then begin
        let dup = Array.copy order in
        dup.(0) <- dup.(1);
        Alcotest.(check bool) "repeated segment refused" true
          (match Placement.of_rows prog rows ~order:dup with
          | exception Invalid_argument _ -> true
          | _ -> false)
      end)
    (List.init 8 (fun i -> 40 + i))

(* Each block's fetch word packs its address and its arm-0 and arm-1
   executed instrs.  Under every combo a memoized placement's rows start as
   relative rows, each word negative and with the instruction fields
   [encode] gives the placement's own segments; filling a
   procedure's row writes, for each block, its segment's start plus its
   byte offset there (the head block's is 0) above the relative word's
   instruction fields, and [block_addr], [exec_instrs] and [static_instrs]
   read the same values before and after the fill.  Every arm of an
   indirect jump executes its body and the jump.  A from-scratch build
   comes filled, and equal. *)
let test_fetch_words () =
  List.iter
    (fun seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let profile = Helpers.walked_profile ~calls:10 ~seed prog in
      List.iter
        (fun combo ->
          let _, pl = Olayout_core.Spike.memoize (Olayout_core.Spike.Combo combo) profile in
          let built = Olayout_core.Spike.optimize profile combo in
          let segments = Placement.segments pl in
          let rows =
            Array.init (Prog.n_procs prog) (fun pid ->
                Helpers.encode_segments prog pid
                  (List.filter (fun (s : Segment.t) -> s.proc = pid) segments))
          in
          let bits = Placement.exec_bits in
          let mask = (1 lsl bits) - 1 and fields = (1 lsl (2 * bits)) - 1 in
          let table = Placement.fetch_rows pl in
          let ok = ref true in
          Array.iteri
            (fun proc (r : Placement.rows) ->
              ok :=
                !ok
                && Array.for_all2
                     (fun w rel -> w < 0 && w land fields = rel land fields)
                     table.(proc) r.Placement.word)
            rows;
          let read proc block =
            ( Placement.block_addr pl ~proc ~block,
              Placement.static_instrs pl ~proc ~block,
              Placement.exec_instrs pl ~proc ~block ~arm:0,
              Placement.exec_instrs pl ~proc ~block ~arm:1 )
          in
          let local = Array.make (Prog.n_procs prog) 0 in
          List.iter
            (fun (seg : Segment.t) ->
              let proc = seg.proc and rel = rows.(seg.proc).Placement.word in
              let i = local.(proc) in
              local.(proc) <- i + 1;
              let start = Placement.block_addr pl ~proc ~block:(Segment.head seg) in
              let offset = ref 0 in
              List.iter
                (fun block ->
                  let before = read proc block in
                  let w = Placement.fetch_word pl ~proc ~block in
                  let body = (Proc.block (Prog.proc prog proc) block).Block.body in
                  ok :=
                    !ok
                    && rows.(proc).Placement.seg_of.(block) = i
                    && w >= 0
                    && (Placement.fetch_rows pl).(proc).(block) = w
                    && w lsr (2 * bits) = start + !offset
                    && w land fields = rel.(block) land fields
                    && before = read proc block
                    && Placement.block_addr pl ~proc ~block = w lsr (2 * bits)
                    && Placement.exec_instrs pl ~proc ~block ~arm:0 = w land mask
                    && Placement.exec_instrs pl ~proc ~block ~arm:1 = (w lsr bits) land mask
                    && Placement.static_instrs pl ~proc ~block = (w lsr bits) land mask
                    && Placement.exec_instrs pl ~proc ~block ~arm:0 >= body
                    && (match (Proc.block (Prog.proc prog proc) block).Block.term with
                       | Block.Ijump targets ->
                           Array.for_all Fun.id
                             (Array.mapi
                                (fun arm _ -> Placement.exec_instrs pl ~proc ~block ~arm = body + 1)
                                targets)
                       | _ -> true);
                  offset :=
                    !offset + (Placement.static_instrs pl ~proc ~block * Block.bytes_per_instr))
                seg.blocks)
            segments;
          ok :=
            !ok
            && Array.for_all (Array.for_all (fun w -> w >= 0)) (Placement.fetch_rows built)
            && Placement.equal pl built;
          Alcotest.(check bool)
            (Printf.sprintf "program %d, %s" seed (Olayout_core.Spike.combo_name combo))
            true !ok)
        Olayout_core.Spike.all_combos)
    [ 50; 51; 52 ]

(* A block whose executed count or address does not fit its fetch word is
   refused, never wrapped; the largest that fit are kept exactly. *)
let test_fetch_word_bounds () =
  let limit = 1 lsl Placement.exec_bits in
  let refused f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let ret body = Helpers.prog_of_blocks "ret" [ b 0 body Block.Ret ] in
  let pl = Placement.original (ret (limit - 2)) in
  Alcotest.(check int) "largest count kept" (limit - 1)
    (Placement.exec_instrs pl ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check bool) "count past the field refused" true
    (refused (fun () -> Placement.original (ret (limit - 1))));
  (* A conditional branch with neither successor adjacent executes two
     terminator instrs on its fall arm only. *)
  let cond body =
    Helpers.prog_of_blocks "cond"
      [
        b 0 body (Block.Cond { taken = 2; fall = 2; p_taken = 0.5 });
        b 1 1 Block.Ret;
        b 2 1 Block.Ret;
      ]
  in
  Alcotest.(check int) "fall arm at the limit" (limit - 1)
    (Placement.exec_instrs (Placement.original (cond (limit - 3))) ~proc:0 ~block:0 ~arm:1);
  Alcotest.(check bool) "fall arm past the field refused" true
    (refused (fun () -> Placement.original (cond (limit - 2))));
  (* A segment must end below the address field's limit. *)
  let top = 1 lsl (Sys.int_size - (2 * Placement.exec_bits)) in
  let at base = Helpers.prog_of_blocks ~base_addr:base "at" [ b 0 3 Block.Ret ] in
  Alcotest.(check int) "highest address kept" (top - 32)
    (Placement.block_addr (Placement.original (at (top - 32))) ~proc:0 ~block:0);
  (* A fetch word that high is negative, like a relative word, so such a
     placement keeps its rows relative and computes each word. *)
  let high = Placement.original (at (top - 32)) in
  Alcotest.(check int) "highest fetch word" (top - 32)
    (Placement.fetch_word high ~proc:0 ~block:0 lsr (2 * Placement.exec_bits));
  Alcotest.(check bool) "high rows stay relative" true
    (Array.for_all (fun w -> w < 0) (Placement.fetch_rows high).(0));
  Alcotest.(check bool) "segment reaching the limit refused" true
    (refused (fun () -> Placement.original (at (top - 16))));
  Alcotest.(check bool) "address past the field refused" true
    (refused (fun () -> Placement.original (at top)));
  Alcotest.(check bool) "negative address refused" true
    (refused (fun () -> Placement.original (at (-64))));
  Alcotest.(check bool) "start rule past the field refused" true
    (refused (fun () ->
         Placement.of_segments_at (at 0x1000) ~addr_of:(fun _ _ -> top)
           [ Segment.of_proc (Prog.proc (at 0x1000) 0) ]))

(* [equal] compares fetch words: two placements that differ in one
   block's address alone, with the same extent and segments, are told
   apart.  The moved block's segment shifts inside the next one's
   alignment padding. *)
let test_equal_sees_one_address () =
  let prog = Helpers.straight_prog 3 in
  let segs = List.map (fun blk -> { Segment.proc = 0; blocks = [ blk ] }) [ 0; 1; 2 ] in
  let place moved =
    Placement.of_segments_at ~align:16 prog segs ~addr_of:(fun s a ->
        if moved && s.Segment.blocks = [ 1 ] then a + 4 else a)
  in
  let a = place false and moved = place true in
  Alcotest.(check bool) "equal to itself rebuilt" true (Placement.equal a (place false));
  Alcotest.(check (list int)) "one address moved" [ 0; 4; 0 ]
    (List.map
       (fun block ->
         Placement.block_addr moved ~proc:0 ~block - Placement.block_addr a ~proc:0 ~block)
       [ 0; 1; 2 ]);
  Alcotest.(check int) "same extent" (Placement.text_bytes a) (Placement.text_bytes moved);
  Alcotest.(check bool) "same segments" true (Placement.segments a = Placement.segments moved);
  Alcotest.(check bool) "told apart" false (Placement.equal a moved)

let suite =
  ( "core.placement",
    [
      Alcotest.test_case "original straight" `Quick test_original_straight;
      Alcotest.test_case "diamond encodings" `Quick test_original_diamond_encodings;
      Alcotest.test_case "reordered encodings" `Quick test_reordered_encodings;
      Alcotest.test_case "jump elision" `Quick test_jump_elision;
      Alcotest.test_case "alignment padding" `Quick test_alignment_padding;
      Alcotest.test_case "cover validation" `Quick test_cover_validation;
      Alcotest.test_case "call glue enforced" `Quick test_call_glue_enforced;
      Alcotest.test_case "encoder refusals" `Quick test_encoder_refusals;
      Alcotest.test_case "no overlaps (random)" `Quick test_no_overlaps_random;
      Alcotest.test_case "cond branch outcomes" `Quick test_cond_branch_outcomes;
      Alcotest.test_case "long branches" `Quick test_long_branches;
      Alcotest.test_case "of_rows = of_segments" `Quick test_of_rows_matches_of_segments;
      Alcotest.test_case "fetch words = encoded rows" `Quick test_fetch_words;
      Alcotest.test_case "fetch word bounds" `Quick test_fetch_word_bounds;
      Alcotest.test_case "equal sees one address" `Quick test_equal_sees_one_address;
    ] )
