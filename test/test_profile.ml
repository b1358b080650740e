(* Tests for Olayout_profile: exact profiles, edge weights, estimation and
   the sampling profiler. *)

open Olayout_ir
module Profile = Olayout_profile.Profile
module Sampler = Olayout_profile.Sampler

let test_record_counts () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:1;
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Alcotest.(check int) "block count" 3 (Profile.block_count p ~proc:0 ~block:0);
  Alcotest.(check int) "arm0" 2 (Profile.arm_count p ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check int) "arm1" 1 (Profile.arm_count p ~proc:0 ~block:0 ~arm:1);
  Alcotest.(check int) "untouched block" 0 (Profile.block_count p ~proc:0 ~block:2);
  Alcotest.(check int) "total events" 3 (Profile.total_block_events p)

let test_dynamic_instrs () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  (* b0 (3+1 instrs) twice, b1 (5+1) once. *)
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:1;
  Profile.record p ~proc:0 ~block:1 ~arm:0;
  Alcotest.(check int) "dyn instrs" ((2 * 4) + 6) (Profile.dynamic_instrs p)

let test_flow_edges () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:1;
  let edges = Profile.proc_flow_edges p 0 in
  let weight src arm =
    (List.find (fun (e : Profile.flow_edge) -> e.src = src && e.arm = arm) edges).weight
  in
  Alcotest.(check (float 1e-9)) "taken weight" 2.0 (weight 0 0);
  Alcotest.(check (float 1e-9)) "fall weight" 1.0 (weight 0 1);
  (* Ret contributes no edge: b3 absent from sources. *)
  Alcotest.(check bool) "no ret edge" true
    (not (List.exists (fun (e : Profile.flow_edge) -> e.src = 3) edges))

(* Call-site counts as the drift metrics read them: each executed call-site
   block adds its count to its (caller, callee) pair, and nothing else adds
   an edge.  Two sites 0->1 run once and twice against one site 0->2 run
   three times, so the pairs weigh 3:3. *)
let test_call_sites () =
  let module Divergence = Olayout_drift.Divergence in
  let leaf id = { Proc.id; name = "leaf"; entry = 0; blocks = [| Helpers.block 0 5 Block.Ret |] } in
  let prog =
    {
      Prog.name = "two callees";
      base_addr = 0x1000;
      procs =
        [|
          {
            Proc.id = 0;
            name = "caller";
            entry = 0;
            blocks =
              [|
                Helpers.block 0 2 (Block.Call { callee = 1; ret = 1 });
                Helpers.block 1 3 (Block.Call { callee = 1; ret = 2 });
                Helpers.block 2 1 (Block.Call { callee = 2; ret = 3 });
                Helpers.block 3 1 Block.Ret;
              |];
          };
          leaf 1;
          leaf 2;
        |];
    }
  in
  let summary blocks =
    let p = Profile.create prog in
    List.iter
      (fun (proc, block, n) ->
        for _ = 1 to n do
          Profile.record p ~proc ~block ~arm:0
        done)
      blocks;
    Divergence.summarize p
  in
  let l1 = Divergence.l1_edge_permille in
  let p = summary [ (0, 0, 1); (0, 1, 2); (0, 2, 3); (0, 3, 6); (1, 0, 3); (2, 0, 3) ] in
  Alcotest.(check int) "sites of one pair add up" 0 (l1 p (summary [ (0, 0, 1); (0, 2, 1) ]));
  Alcotest.(check int) "second 0->1 site counted" 250 (l1 p (summary [ (0, 0, 1); (0, 2, 3) ]));
  let no_calls = summary [ (0, 3, 4); (1, 0, 2); (2, 0, 1) ] in
  Alcotest.(check int) "returns add no edge" 0 (l1 no_calls (summary []));
  Alcotest.(check int) "calls vs none" 1000 (l1 p no_calls)

let test_estimate_arms () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  (* Block counts only: b0 100, b1 25, b2 75 -> estimated taken (b2) 75. *)
  Profile.record_block p ~proc:0 ~block:0 ~count:100;
  Profile.record_block p ~proc:0 ~block:1 ~count:25;
  Profile.record_block p ~proc:0 ~block:2 ~count:75;
  let est = Profile.estimate_arms p in
  Alcotest.(check int) "taken est" 75 (Profile.arm_count est ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check int) "fall est" 25 (Profile.arm_count est ~proc:0 ~block:0 ~arm:1);
  (* Sum preserved. *)
  Alcotest.(check int) "arm sum = count" 100
    (Profile.arm_count est ~proc:0 ~block:0 ~arm:0
    + Profile.arm_count est ~proc:0 ~block:0 ~arm:1)

let test_estimate_cold_uniform () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record_block p ~proc:0 ~block:0 ~count:10;
  (* no successor counts: uniform split *)
  let est = Profile.estimate_arms p in
  Alcotest.(check int) "uniform arm0" 5 (Profile.arm_count est ~proc:0 ~block:0 ~arm:0)

let test_scale_merge () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  let doubled = Profile.scale p 2.0 in
  Alcotest.(check int) "scaled" 4 (Profile.block_count doubled ~proc:0 ~block:0);
  let merged = Profile.merge p doubled in
  Alcotest.(check int) "merged" 6 (Profile.block_count merged ~proc:0 ~block:0);
  Alcotest.(check int) "merged arms" 6 (Profile.arm_count merged ~proc:0 ~block:0 ~arm:0)

let test_sampler_approximates () =
  (* Walk a random program; compare sampled block counts against exact. *)
  let built = Helpers.random_program 21 in
  let prog = Olayout_codegen.Binary.prog built in
  let exact = Profile.create prog in
  let sampler = Sampler.create prog ~period:13 in
  let walk = Olayout_exec.Walk.create ~prog ~rng:(Olayout_util.Rng.create 5) in
  Olayout_exec.Walk.add_sink walk (fun ~proc ~block ~arm ->
      Profile.record exact ~proc ~block ~arm;
      Sampler.sink sampler ~proc ~block ~arm);
  for _ = 1 to 300 do
    Olayout_exec.Walk.call walk 0
  done;
  Alcotest.(check bool) "samples taken" true (Sampler.samples_taken sampler > 100);
  let est = Sampler.to_profile sampler in
  (* Total dynamic instructions should agree within 20%. *)
  let de = float_of_int (Profile.dynamic_instrs exact) in
  let ds = float_of_int (Profile.dynamic_instrs est) in
  Alcotest.(check bool) "dyn instrs approx" true (abs_float (ds -. de) /. de < 0.2)

let test_sampler_period_validation () =
  let prog = Helpers.straight_prog 2 in
  Alcotest.(check bool) "bad period" true
    (try
       ignore (Sampler.create prog ~period:0);
       false
     with Invalid_argument _ -> true)

let test_profile_io_roundtrip () =
  let built = Helpers.random_program 17 in
  let prog = Olayout_codegen.Binary.prog built in
  let p = Helpers.walked_profile ~calls:20 prog in
  let path = Filename.temp_file "olayout" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save_file path p;
      let q = Profile.load_file prog path in
      Alcotest.(check int) "events preserved" (Profile.total_block_events p)
        (Profile.total_block_events q);
      Alcotest.(check int) "dyn instrs preserved" (Profile.dynamic_instrs p)
        (Profile.dynamic_instrs q);
      Prog.iter_blocks prog (fun pr b ->
          let pid = pr.Proc.id and bid = b.Block.id in
          Alcotest.(check int) "block count" (Profile.block_count p ~proc:pid ~block:bid)
            (Profile.block_count q ~proc:pid ~block:bid);
          for arm = 0 to Block.arm_count b - 1 do
            Alcotest.(check int) "arm count" (Profile.arm_count p ~proc:pid ~block:bid ~arm)
              (Profile.arm_count q ~proc:pid ~block:bid ~arm)
          done))

let test_profile_io_mismatch () =
  let prog_a = Olayout_codegen.Binary.prog (Helpers.random_program 18) in
  let prog_b = Olayout_codegen.Binary.prog (Helpers.random_program 19) in
  let p = Helpers.walked_profile ~calls:3 prog_a in
  let path = Filename.temp_file "olayout" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save_file path p;
      Alcotest.(check bool) "wrong program rejected" true
        (try
           ignore (Profile.load_file prog_b path);
           false
         with Failure _ -> true))

(* --- row storage: bounds, sums, per-procedure identity ----------------- *)

let raises_invalid f = match f () with exception Invalid_argument _ -> true | _ -> false

let test_flat_bounds () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 23) in
  let p = Profile.create prog in
  (* Index 0's row ends where procedure 1's begins: one past its last block
     must not read or write procedure 1's first count. *)
  let past = Proc.n_blocks (Prog.proc prog 0) in
  let check what f = Alcotest.(check bool) what true (raises_invalid f) in
  check "block_count past the row" (fun () -> Profile.block_count p ~proc:0 ~block:past);
  check "arm_count past the row" (fun () -> Profile.arm_count p ~proc:0 ~block:past ~arm:0);
  check "record past the row" (fun () -> Profile.record p ~proc:0 ~block:past ~arm:0);
  check "record_block past the row" (fun () ->
      Profile.record_block p ~proc:0 ~block:past ~count:1);
  check "negative block" (fun () -> Profile.block_count p ~proc:0 ~block:(-1));
  check "procedure past the program" (fun () ->
      Profile.block_count p ~proc:(Prog.n_procs prog) ~block:0);
  (* An arm past a block's arms must not reach the next block's arms. *)
  let b = Proc.block (Prog.proc prog 0) 0 in
  let arms = Block.arm_count b in
  check "arm_count past the block" (fun () -> Profile.arm_count p ~proc:0 ~block:0 ~arm:arms);
  check "record past the block" (fun () -> Profile.record p ~proc:0 ~block:0 ~arm:arms);
  check "negative arm" (fun () -> Profile.arm_count p ~proc:0 ~block:0 ~arm:(-1));
  Alcotest.(check int) "rejected records count nothing" 0 (Profile.total_block_events p);
  Alcotest.(check int) "next block untouched" 0
    (Profile.arm_count p ~proc:0 ~block:1 ~arm:0)

let equal_profiles a b =
  let prog = Profile.prog a in
  List.for_all (Profile.proc_equal a b) (List.init (Prog.n_procs prog) Fun.id)

let test_windowed_merged_is_fold () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 24) in
  let w = Olayout_profile.Windowed.create ~window:16 prog in
  let walk = Olayout_exec.Walk.create ~prog ~rng:(Olayout_util.Rng.create 24) in
  Olayout_exec.Walk.add_sink walk (Olayout_profile.Windowed.sink w);
  for _ = 1 to 4 do
    for pid = 0 to Prog.n_procs prog - 1 do
      Olayout_exec.Walk.call walk pid
    done
  done;
  let n = Olayout_profile.Windowed.windows w in
  Alcotest.(check bool) "several windows" true (n > 8);
  List.iter
    (fun (lo, hi) ->
      let fold = ref (Profile.create prog) in
      for i = max 0 lo to min n hi - 1 do
        fold := Profile.merge !fold (Olayout_profile.Windowed.profile w i)
      done;
      let merged = Olayout_profile.Windowed.merged w ~lo ~hi in
      Alcotest.(check bool) (Printf.sprintf "merged [%d, %d)" lo hi) true
        (equal_profiles !fold merged);
      Alcotest.(check int) (Printf.sprintf "events [%d, %d)" lo hi)
        (Profile.total_block_events !fold) (Profile.total_block_events merged))
    [ (0, n); (2, 5); (-3, 2); (n - 2, n + 10); (3, 3); (5, 2); (n + 1, n + 5); (-5, -1) ];
  (* Folding a range leaves the capture untouched. *)
  let before = Profile.total_block_events (Olayout_profile.Windowed.profile w 0) in
  ignore (Olayout_profile.Windowed.merged w ~lo:0 ~hi:n);
  Alcotest.(check int) "window 0 unchanged" before
    (Profile.total_block_events (Olayout_profile.Windowed.profile w 0))

(* The capture is the block path, not a profile per window: over many
   small windows it holds a few words per event, where one whole-program
   profile per window would hold hundreds. *)
let test_windowed_holds_events () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 24) in
  let w = Olayout_profile.Windowed.create ~window:16 prog in
  let walk = Olayout_exec.Walk.create ~prog ~rng:(Olayout_util.Rng.create 24) in
  Olayout_exec.Walk.add_sink walk (Olayout_profile.Windowed.sink w);
  for _ = 1 to 40 do
    for pid = 0 to Prog.n_procs prog - 1 do
      Olayout_exec.Walk.call walk pid
    done
  done;
  let events = Olayout_profile.Windowed.events w in
  let windows = Olayout_profile.Windowed.windows w in
  Alcotest.(check bool) (Printf.sprintf "many windows (%d)" windows) true (windows > 1000);
  let words = Obj.reachable_words (Obj.repr w) - Obj.reachable_words (Obj.repr prog) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d events" words events)
    true
    (words < 4 * events)

let test_proc_equal_last_arm () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 25) in
  let last = Prog.n_procs prog - 1 in
  let p = Prog.proc prog last in
  let block = Proc.n_blocks p - 1 in
  let arm = Block.arm_count (Proc.block p block) - 1 in
  let a = Helpers.walked_profile ~calls:3 prog and b = Helpers.walked_profile ~calls:3 prog in
  Alcotest.(check bool) "equal before" true (equal_profiles a b);
  (* Both gain one execution of the block; only [a] says which arm. *)
  Profile.record a ~proc:last ~block ~arm;
  Profile.record_block b ~proc:last ~block ~count:1;
  Alcotest.(check int) "block counts agree" (Profile.block_count a ~proc:last ~block)
    (Profile.block_count b ~proc:last ~block);
  Alcotest.(check bool) "last procedure differs" false (Profile.proc_equal a b last);
  Alcotest.(check bool) "other procedures equal" true
    (List.for_all (Profile.proc_equal a b) (List.init last Fun.id))

(* Every App_model binary is named "oltp-app"; seeds 7 and 8 differ in
   shape, so neither merging nor diffing their profiles may proceed. *)
let test_shape_not_name () =
  let app seed = Olayout_codegen.Binary.prog (Olayout_oltp.App_model.build ~seed) in
  let p7 = app 7 and p8 = app 8 in
  Alcotest.(check string) "same name" p7.Prog.name p8.Prog.name;
  Alcotest.(check bool) "different block counts" true (Prog.n_blocks p7 <> Prog.n_blocks p8);
  let a = Profile.create p7 and b = Profile.create p8 in
  Alcotest.(check bool) "shapes differ" false (Profile.same_shape a b);
  Alcotest.check_raises "merge" (Invalid_argument "Profile.merge: different programs")
    (fun () -> ignore (Profile.merge a b));
  Alcotest.check_raises "Delta.diff"
    (Invalid_argument "Delta.diff: profiles of different programs") (fun () ->
      ignore (Olayout_core.Delta.diff a b));
  (* A second build of the same seed is another value of the same shape. *)
  let a' = Profile.create (app 7) in
  Profile.record a' ~proc:0 ~block:0 ~arm:0;
  Alcotest.(check bool) "same shape" true (Profile.same_shape a a');
  Alcotest.(check int) "merges" 1 (Profile.total_block_events (Profile.merge a a'));
  Alcotest.(check int) "diffs" 1 (Olayout_core.Delta.n_dirty (Olayout_core.Delta.diff a a'))

let qcheck_estimate_preserves_block_counts =
  QCheck.Test.make ~name:"estimate_arms preserves block counts" ~count:20 QCheck.small_int
    (fun seed ->
      let built = Helpers.random_program seed in
      let prog = Olayout_codegen.Binary.prog built in
      let p = Helpers.walked_profile ~calls:5 prog in
      let est = Profile.estimate_arms p in
      let ok = ref true in
      Prog.iter_blocks prog (fun pr blk ->
          if
            Profile.block_count p ~proc:pr.Proc.id ~block:blk.Block.id
            <> Profile.block_count est ~proc:pr.Proc.id ~block:blk.Block.id
          then ok := false);
      !ok)

(* --- per-procedure rows against a dense reference ------------------------

   A dense mirror of a profile — every block count and every arm count, per
   procedure, none of it shared — kept beside each live profile while random
   operations run.  Procedures a profile has not counted share read-only
   zero rows, so the property checks every live profile after every step:
   a write into one result must leave every other profile as it was. *)

type dense = { d_blocks : int array array; d_arms : int array array array }

let dense_zero prog =
  {
    d_blocks = Array.map (fun p -> Array.make (Proc.n_blocks p) 0) prog.Prog.procs;
    d_arms =
      Array.map
        (fun (p : Proc.t) -> Array.map (fun b -> Array.make (Block.arm_count b) 0) p.blocks)
        prog.Prog.procs;
  }

let dense_map f d =
  {
    d_blocks = Array.map (Array.map f) d.d_blocks;
    d_arms = Array.map (Array.map (Array.map f)) d.d_arms;
  }

let dense_sum a b =
  {
    d_blocks = Array.map2 (Array.map2 ( + )) a.d_blocks b.d_blocks;
    d_arms = Array.map2 (Array.map2 (Array.map2 ( + ))) a.d_arms b.d_arms;
  }

(* Spike's estimate over the dense mirror: a block's count apportioned to
   its arms by the successors' counts, leftovers to the first heaviest,
   a uniform split when every successor is cold. *)
let dense_estimate prog d =
  let e = dense_map Fun.id d in
  Array.iteri
    (fun pid (p : Proc.t) ->
      Array.iter
        (fun (b : Block.t) ->
          let c = d.d_blocks.(pid).(b.id) and arms = e.d_arms.(pid).(b.id) in
          let n = Array.length arms in
          let succ =
            Array.init n (fun arm ->
                match Block.arm_target b arm with Some t -> d.d_blocks.(pid).(t) | None -> 0)
          in
          let total = Array.fold_left ( + ) 0 succ in
          if n = 1 then arms.(0) <- c
          else if total = 0 then Array.fill arms 0 n (c / n)
          else begin
            Array.iteri (fun arm s -> arms.(arm) <- c * s / total) succ;
            let best = ref 0 in
            Array.iteri (fun arm s -> if s > succ.(!best) then best := arm) succ;
            arms.(!best) <- arms.(!best) + c - Array.fold_left ( + ) 0 arms
          end)
        p.blocks)
    prog.Prog.procs;
  e

(* The mirror's nonzero block and arm counts, in procedure, block, arm
   order. *)
let dense_nonzero d =
  let blocks = ref [] and arms = ref [] in
  Array.iteri
    (fun proc row ->
      Array.iteri
        (fun block c ->
          if c <> 0 then blocks := (proc, block, 0, c) :: !blocks;
          Array.iteri
            (fun arm c -> if c <> 0 then arms := (proc, block, arm, c) :: !arms)
            d.d_arms.(proc).(block))
        row)
    d.d_blocks;
  (List.rev !blocks, List.rev !arms)

(* Every count, both nonzero iterations in order, and the event total. *)
let agrees prog (p, d) =
  let counts_ok = ref true in
  Array.iteri
    (fun pid (pr : Proc.t) ->
      Array.iter
        (fun (b : Block.t) ->
          if Profile.block_count p ~proc:pid ~block:b.id <> d.d_blocks.(pid).(b.id) then
            counts_ok := false;
          Array.iteri
            (fun arm c ->
              if Profile.arm_count p ~proc:pid ~block:b.id ~arm <> c then counts_ok := false)
            d.d_arms.(pid).(b.id))
        pr.blocks)
    prog.Prog.procs;
  let blocks = ref [] and arms = ref [] in
  Profile.iter_nonzero_blocks p (fun ~proc ~block c -> blocks := (proc, block, 0, c) :: !blocks);
  Profile.iter_nonzero_arms p (fun ~proc ~block ~arm c -> arms := (proc, block, arm, c) :: !arms);
  !counts_ok
  && (List.rev !blocks, List.rev !arms) = dense_nonzero d
  && Profile.total_block_events p = Array.fold_left (Array.fold_left ( + )) 0 d.d_blocks

let qcheck_rows_match_dense =
  QCheck.Test.make ~name:"per-procedure rows match a dense reference" ~count:25 QCheck.small_int
    (fun seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let rng = Olayout_util.Rng.create (seed + 1) in
      let pick n = Olayout_util.Rng.int rng n in
      let procs = Prog.n_procs prog in
      (* A capture whose window folds join the live set. *)
      let w = Olayout_profile.Windowed.create ~window:16 prog in
      let walk = Olayout_exec.Walk.create ~prog ~rng:(Olayout_util.Rng.create seed) in
      Olayout_exec.Walk.add_sink walk (Olayout_profile.Windowed.sink w);
      for _ = 1 to 2 do
        Olayout_exec.Walk.call walk (pick procs)
      done;
      let windows = Olayout_profile.Windowed.windows w in
      let fold () =
        let lo = pick (windows + 1) in
        let hi = lo + pick (windows + 2 - lo) in
        let d = dense_zero prog in
        Olayout_profile.Windowed.replay w ~lo ~hi
          ~app:(fun ~proc ~block ~arm ->
            d.d_blocks.(proc).(block) <- d.d_blocks.(proc).(block) + 1;
            d.d_arms.(proc).(block).(arm) <- d.d_arms.(proc).(block).(arm) + 1)
          ();
        (Olayout_profile.Windowed.merged w ~lo ~hi, d)
      in
      let path = Filename.temp_file "olayout" ".profile" in
      let roundtrip p =
        Profile.save_file path p;
        Profile.load_file prog path
      in
      let live = ref [| fold (); (Profile.create prog, dense_zero prog) |] in
      let add x = live := Array.append !live [| x |] in
      (* The newest profile half the time, so results get written into. *)
      let any () =
        let n = Array.length !live in
        !live.(if Olayout_util.Rng.bool rng 0.5 then n - 1 else pick n)
      in
      let ok = ref true in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          for _ = 1 to 30 do
            (match pick 8 with
            | 0 -> add (Profile.create prog, dense_zero prog)
            | 1 ->
                (* A burst into one procedure, so others stay uncounted. *)
                let p, d = any () and proc = pick procs in
                let pr = Prog.proc prog proc in
                for _ = 0 to pick 4 do
                  let b = Proc.block pr (pick (Proc.n_blocks pr)) in
                  let arm = pick (Block.arm_count b) in
                  Profile.record p ~proc ~block:b.id ~arm;
                  d.d_blocks.(proc).(b.id) <- d.d_blocks.(proc).(b.id) + 1;
                  d.d_arms.(proc).(b.id).(arm) <- d.d_arms.(proc).(b.id).(arm) + 1
                done
            | 2 ->
                (* Counts of 0 too: a written row that still reads zero. *)
                let p, d = any () and proc = pick procs in
                let block = pick (Proc.n_blocks (Prog.proc prog proc)) and count = pick 4 in
                Profile.record_block p ~proc ~block ~count;
                d.d_blocks.(proc).(block) <- d.d_blocks.(proc).(block) + count
            | 3 ->
                let (a, da), (b, db) = (any (), any ()) in
                add (Profile.merge a b, dense_sum da db)
            | 4 ->
                let p, d = any () and factor = [| 0.0; 0.5; 1.0; 2.5 |].(pick 4) in
                let f x = int_of_float (float x *. factor) in
                add (Profile.scale p factor, dense_map f d)
            | 5 ->
                let p, d = any () in
                add (Profile.estimate_arms p, dense_estimate prog d)
            | 6 ->
                let p, d = any () in
                add (roundtrip p, dense_map Fun.id d)
            | _ -> add (fold ()));
            if not (Array.for_all (agrees prog) !live) then ok := false
          done);
      (* proc_equal against the reference, for every pair and procedure. *)
      Array.iter
        (fun (a, da) ->
          Array.iter
            (fun (b, db) ->
              for pid = 0 to procs - 1 do
                let want =
                  da.d_blocks.(pid) = db.d_blocks.(pid) && da.d_arms.(pid) = db.d_arms.(pid)
                in
                if Profile.proc_equal a b pid <> want then ok := false
              done)
            !live)
        !live;
      !ok)

module Temporal = Olayout_profile.Temporal

let test_temporal_basics () =
  let prog = Helpers.call_prog () in
  let t = Temporal.create prog ~window:4 () in
  (* caller entry (proc 0 block 0), callee entry (proc 1 block 0) *)
  Temporal.sink t ~proc:0 ~block:0 ~arm:0;
  Temporal.sink t ~proc:1 ~block:0 ~arm:0;
  Temporal.sink t ~proc:0 ~block:0 ~arm:0;
  Alcotest.(check int) "activations" 3 (Temporal.activations t);
  Alcotest.(check bool) "pair related" true (Temporal.weight t 0 1 > 0.0);
  Alcotest.(check (float 1e-9)) "symmetric" (Temporal.weight t 0 1) (Temporal.weight t 1 0);
  (* non-entry blocks are not activations *)
  Temporal.sink t ~proc:0 ~block:1 ~arm:0;
  Alcotest.(check int) "non-entry ignored" 3 (Temporal.activations t)

let test_temporal_window_limits () =
  (* Procedures further apart than the window are unrelated. *)
  let procs =
    Array.init 6 (fun i ->
        { Olayout_ir.Proc.id = i; name = Printf.sprintf "p%d" i; entry = 0;
          blocks = [| Helpers.block 0 1 Olayout_ir.Block.Ret |] })
  in
  let prog = { Olayout_ir.Prog.name = "t"; base_addr = 0; procs } in
  let t = Temporal.create prog ~window:2 () in
  for p = 0 to 5 do
    Temporal.sink t ~proc:p ~block:0 ~arm:0
  done;
  Alcotest.(check bool) "neighbors related" true (Temporal.weight t 4 5 > 0.0);
  Alcotest.(check (float 1e-9)) "distant unrelated" 0.0 (Temporal.weight t 0 5)

let suite =
  ( "profile",
    [
      Alcotest.test_case "record counts" `Quick test_record_counts;
      Alcotest.test_case "dynamic instrs" `Quick test_dynamic_instrs;
      Alcotest.test_case "flow edges" `Quick test_flow_edges;
      Alcotest.test_case "call sites" `Quick test_call_sites;
      Alcotest.test_case "estimate arms" `Quick test_estimate_arms;
      Alcotest.test_case "estimate cold uniform" `Quick test_estimate_cold_uniform;
      Alcotest.test_case "scale + merge" `Quick test_scale_merge;
      Alcotest.test_case "sampler approximates" `Quick test_sampler_approximates;
      Alcotest.test_case "sampler validation" `Quick test_sampler_period_validation;
      Alcotest.test_case "profile io roundtrip" `Quick test_profile_io_roundtrip;
      Alcotest.test_case "profile io mismatch" `Quick test_profile_io_mismatch;
      Alcotest.test_case "temporal basics" `Quick test_temporal_basics;
      Alcotest.test_case "temporal window" `Quick test_temporal_window_limits;
      Alcotest.test_case "flat bounds" `Quick test_flat_bounds;
      Alcotest.test_case "windowed merged is a fold" `Quick test_windowed_merged_is_fold;
      Alcotest.test_case "windowed capture holds O(events) words" `Quick
        test_windowed_holds_events;
      Alcotest.test_case "proc_equal sees one arm" `Quick test_proc_equal_last_arm;
      Alcotest.test_case "shape, not name" `Quick test_shape_not_name;
      QCheck_alcotest.to_alcotest qcheck_estimate_preserves_block_counts;
      QCheck_alcotest.to_alcotest qcheck_rows_match_dense;
    ] )
