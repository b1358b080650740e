(* Pettis-Hansen against its oracle: the production engine must build the
   same pair weights, return the same segment order and record the same
   provenance events (merge partner/weight/step, then rank) as the
   list-based engine in Ph_reference, on tie-heavy random weight graphs, on
   profiles of random programs under every segment recipe, and through
   temporal ordering. *)

open Olayout_ir
module Rng = Olayout_util.Rng
module Profile = Olayout_profile.Profile
module Temporal = Olayout_profile.Temporal
module Provenance = Olayout_telemetry.Provenance
module Segment = Olayout_core.Segment
module Pettis_hansen = Olayout_core.Pettis_hansen
module Temporal_order = Olayout_core.Temporal_order

(* Run [f] with provenance on; its result and the events it recorded. *)
let recorded f =
  Provenance.reset ();
  Provenance.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Provenance.set_enabled false;
      Provenance.reset ())
    (fun () ->
      let r = f () in
      (r, Provenance.events ()))

(* The production engine over a segment list: segment [i] is numbered [i],
   every segment's heat is read. *)
let engine_order ?pass ~weights ~heat segments =
  let seg_arr = Array.of_list segments in
  let n = Array.length seg_arr in
  Pettis_hansen.order_indices (Pettis_hansen.buffers ()) ?pass ~n ~weights ~heat
    ~hot:(fun f ->
      for i = 0 to n - 1 do
        f i
      done)
    ~proc_of:(fun i -> seg_arr.(i).Segment.proc)
    ()
  |> Array.to_list
  |> List.map (Array.get seg_arr)

(* The production pair weights over a segment list. *)
let engine_weights profile segments =
  let seg_of = Hashtbl.create 256 in
  List.iteri
    (fun i (seg : Segment.t) -> List.iter (fun b -> Hashtbl.replace seg_of (seg.proc, b) i) seg.blocks)
    segments;
  Pettis_hansen.pair_weights_of profile ~seg_of:(fun p b -> Hashtbl.find seg_of (p, b))

let check_same what ~engine ~oracle =
  let got, got_events = recorded engine in
  let want, want_events = recorded oracle in
  Alcotest.(check (list (pair int (list int))))
    (what ^ ": segment order")
    (List.map (fun (s : Segment.t) -> (s.proc, s.blocks)) want)
    (List.map (fun (s : Segment.t) -> (s.proc, s.blocks)) got);
  Alcotest.(check int) (what ^ ": event count") (List.length want_events)
    (List.length got_events);
  Alcotest.(check bool) (what ^ ": events") true (want_events = got_events)

(* A random graph over several hundred segments whose weights come from
   {1, 2, 3}, so nearly every heap pop is a tie; a few pairs repeat, point
   at themselves or carry no weight, and heats tie too. *)
let tie_heavy_graph seed =
  let rng = Rng.create seed in
  let n = 200 + Rng.int rng 400 in
  let segments = List.init n (fun i -> { Segment.proc = i / 3; blocks = [ i ] }) in
  let weights =
    List.init (n * (1 + Rng.int rng 3)) (fun _ ->
        let a = Rng.int rng n and b = if Rng.bool rng 0.02 then -1 else Rng.int rng n in
        let b = if b < 0 then a else b in
        ((a, b), if Rng.bool rng 0.05 then 0.0 else float_of_int (1 + Rng.int rng 3)))
  in
  let heats = Array.init n (fun _ -> float_of_int (Rng.int rng 4)) in
  (segments, weights, fun i -> heats.(i))

let qcheck_tie_heavy =
  QCheck.Test.make ~name:"PH = oracle on tie-heavy graphs" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let segments, weights, heat = tie_heavy_graph seed in
      check_same
        (Printf.sprintf "graph %d" seed)
        ~engine:(fun () -> engine_order ~weights ~heat segments)
        ~oracle:(fun () -> Ph_reference.order_weighted ~weights ~heat segments);
      true)

let recipes =
  [
    ("one per procedure", Layout_reference.whole);
    ("chained", Layout_reference.joined);
    ("fine-grain", Layout_reference.fine_grain);
    ("hot/cold", Layout_reference.hot_cold);
  ]

let test_profiles_every_recipe () =
  List.iter
    (fun seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let profile = Helpers.walked_profile ~calls:(5 + (seed mod 20)) ~seed prog in
      List.iter
        (fun (name, recipe) ->
          let segments = recipe profile in
          let seg_arr = Array.of_list segments in
          let heat i =
            let seg = seg_arr.(i) in
            float_of_int (Profile.block_count profile ~proc:seg.Segment.proc ~block:(Segment.head seg))
          in
          let what = Printf.sprintf "program %d, %s" seed name in
          let weights = Ph_reference.pair_weights profile segments in
          Alcotest.(check (list (pair (pair int int) (float 0.0))))
            (what ^ ": pair weights") weights
            (engine_weights profile segments);
          check_same what
            ~engine:(fun () -> engine_order ~weights ~heat segments)
            ~oracle:(fun () -> Ph_reference.order_weighted ~weights ~heat segments))
        recipes)
    (List.init 12 (fun i -> 30 + i))

let test_temporal_order () =
  List.iter
    (fun seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program seed) in
      let temporal = Temporal.create prog () in
      let profile = Profile.create prog in
      let walk = Olayout_exec.Walk.create ~prog ~rng:(Rng.create seed) in
      Olayout_exec.Walk.add_sink walk (fun ~proc ~block ~arm ->
          Temporal.sink temporal ~proc ~block ~arm;
          Profile.record profile ~proc ~block ~arm);
      for _ = 1 to 20 do
        for p = 0 to Prog.n_procs prog - 1 do
          Olayout_exec.Walk.call walk p
        done
      done;
      let segments = Layout_reference.fine_grain profile in
      let seg_arr = Array.of_list segments in
      let heat i = Layout_reference.head_heat profile seg_arr.(i) in
      (* The production representative: each procedure's hottest segment,
         the first on a tie. *)
      let rep p =
        let best = ref None in
        Array.iteri
          (fun i (seg : Segment.t) ->
            if seg.proc = p then
              match !best with
              | Some j when heat j >= heat i -> ()
              | Some _ | None -> best := Some i)
          seg_arr;
        !best
      in
      check_same
        (Printf.sprintf "temporal %d" seed)
        ~engine:(fun () ->
          engine_order ~pass:"temporal_order" ~weights:(Temporal_order.weights_by temporal ~rep)
            ~heat segments)
        ~oracle:(fun () -> Layout_reference.temporal_order temporal profile segments))
    [ 3; 4; 5; 6; 7; 8 ]

let suite =
  ( "core.ph_oracle",
    [
      QCheck_alcotest.to_alcotest qcheck_tie_heavy;
      Alcotest.test_case "random programs, every recipe" `Quick test_profiles_every_recipe;
      Alcotest.test_case "temporal order" `Quick test_temporal_order;
    ] )
