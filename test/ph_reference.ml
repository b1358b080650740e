(* The list-based Pettis-Hansen engine, kept verbatim as the test oracle
   for Olayout_core.Pettis_hansen: [pair_weights] walks every block of the
   program, and in [order_weighted] each group is an OCaml list, every
   merge builds all four end-pairing concatenations, and every segment gets
   an adjacency table up front.  The production engine must return the
   same weights, the same order and the same provenance events. *)

open Olayout_ir
module Profile = Olayout_profile.Profile
module Segment = Olayout_core.Segment
module Telemetry = Olayout_telemetry.Telemetry
module Provenance = Olayout_telemetry.Provenance

let c_edges_merged = Telemetry.counter "core.ph_edges_merged"

(* --- small array-based max-heap of (weight, a, b), lazily deleted --- *)
module Heap = struct
  type entry = { w : float; a : int; b : int }
  type t = { mutable arr : entry array; mutable len : int }

  let create () = { arr = Array.make 64 { w = 0.0; a = 0; b = 0 }; len = 0 }

  let swap h i j =
    let t = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- t

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) e in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.arr.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.arr.((!i - 1) / 2).w < h.arr.(!i).w do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let biggest = ref !i in
        if l < h.len && h.arr.(l).w > h.arr.(!biggest).w then biggest := l;
        if r < h.len && h.arr.(r).w > h.arr.(!biggest).w then biggest := r;
        if !biggest = !i then continue := false
        else begin
          swap h !i !biggest;
          i := !biggest
        end
      done;
      Some top
    end
end

(* Build (segment index of each (proc, block)) and the undirected pair
   weights from the profile. *)
let build_graph profile segments =
  let prog = Profile.prog profile in
  let seg_arr = Array.of_list segments in
  let seg_of =
    Array.map (fun (p : Proc.t) -> Array.make (Proc.n_blocks p) (-1)) prog.Prog.procs
  in
  Array.iteri
    (fun i (seg : Segment.t) ->
      List.iter (fun b -> seg_of.(seg.proc).(b) <- i) seg.blocks)
    seg_arr;
  let weights : (int * int, float ref) Hashtbl.t = Hashtbl.create 1024 in
  let bump a b w =
    if a <> b && w > 0.0 then begin
      let key = if a < b then (a, b) else (b, a) in
      match Hashtbl.find_opt weights key with
      | Some r -> r := !r +. w
      | None -> Hashtbl.add weights key (ref w)
    end
  in
  Prog.iter_blocks prog (fun p b ->
      let pid = p.Proc.id and bid = b.Block.id in
      let src = seg_of.(pid).(bid) in
      (* Call edges: call-site block to callee entry segment. *)
      (match b.Block.term with
      | Block.Call { callee; _ } ->
          let centry = (Prog.proc prog callee).Proc.entry in
          let w = float_of_int (Profile.arm_count profile ~proc:pid ~block:bid ~arm:0) in
          bump src seg_of.(callee).(centry) w
      | _ -> ());
      (* Intra-procedure branches that cross segments. *)
      let n = Block.arm_count b in
      for arm = 0 to n - 1 do
        match (b.Block.term, Block.arm_target b arm) with
        | Block.Call _, _ -> () (* return glue stays within a segment *)
        | _, Some dst ->
            let w = float_of_int (Profile.arm_count profile ~proc:pid ~block:bid ~arm) in
            bump src seg_of.(pid).(dst) w
        | _, None -> ()
      done);
  (seg_arr, seg_of, weights)

let pair_weights profile segments =
  let _, _, weights = build_graph profile segments in
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) weights []
  |> List.sort (fun ((a1, b1), _) ((a2, b2), _) -> compare (a1, b1) (a2, b2))

let rec find parent x = if parent.(x) = x then x else find parent parent.(x)

let order_weighted ?(pass = "pettis_hansen") ~weights ~heat segments =
  let seg_arr = Array.of_list segments in
  let n = Array.length seg_arr in
  (* Decision provenance is checked once per invocation; the merge loop
     pays nothing while the subsystem is disabled. *)
  let prov = Provenance.enabled () in
  let merge_step = ref 0 in
  let proc_of i = seg_arr.(i).Segment.proc in
  let wtbl : (int * int, float ref) Hashtbl.t = Hashtbl.create (List.length weights * 2) in
  List.iter
    (fun ((a, b), w) ->
      if a <> b && w > 0.0 then begin
        let key = if a < b then (a, b) else (b, a) in
        match Hashtbl.find_opt wtbl key with
        | Some r -> r := !r +. w
        | None -> Hashtbl.add wtbl key (ref w)
      end)
    weights;
  let weights = wtbl in
  let original_w a b =
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt weights key with Some r -> !r | None -> 0.0
  in
  (* Per-representative adjacency (merged weights) and group sequences. *)
  let adj = Array.init n (fun _ -> Hashtbl.create 4) in
  let seq = Array.init n (fun i -> [ i ]) in
  let parent = Array.init n (fun i -> i) in
  let heap = Heap.create () in
  Hashtbl.iter
    (fun (a, b) r ->
      Hashtbl.replace adj.(a) b !r;
      Hashtbl.replace adj.(b) a !r;
      Heap.push heap { Heap.w = !r; a; b })
    weights;
  let current_weight a b =
    match Hashtbl.find_opt adj.(a) b with Some w -> w | None -> 0.0
  in
  let rec merge_loop () =
    match Heap.pop heap with
    | None -> ()
    | Some { Heap.w; a; b } ->
        let ra = find parent a and rb = find parent b in
        if ra <> rb && w > 0.0 && a = ra && b = rb && current_weight ra rb = w then begin
          (* Choose orientation: of the four end pairings, keep the one whose
             touching endpoint segments have the heaviest original weight. *)
          let sa = seq.(ra) and sb = seq.(rb) in
          let head l = List.hd l and tail l = List.hd (List.rev l) in
          let candidates =
            [
              (original_w (tail sa) (head sb), sa @ sb);
              (original_w (tail sa) (tail sb), sa @ List.rev sb);
              (original_w (head sa) (head sb), List.rev sa @ sb);
              (original_w (head sa) (tail sb), sb @ sa);
            ]
          in
          let best =
            List.fold_left
              (fun (bw, bs) (w', s') -> if w' > bw then (w', s') else (bw, bs))
              (List.hd candidates |> fun (w0, s0) -> (w0, s0))
              (List.tl candidates)
          in
          let merged = snd best in
          Telemetry.incr c_edges_merged;
          if prov then begin
            (* One event per merge, charged to the group being absorbed:
               "this procedure was pulled next to that one by an edge of
               this weight, at this point in the greedy order". *)
            incr merge_step;
            Provenance.record ~pass ~subject:(proc_of rb)
              [
                ("partner", Provenance.Int (proc_of ra));
                ("weight", Provenance.Float w);
                ("step", Provenance.Int !merge_step);
              ]
          end;
          (* rb joins ra. *)
          parent.(rb) <- ra;
          seq.(ra) <- merged;
          seq.(rb) <- [];
          Hashtbl.remove adj.(ra) rb;
          Hashtbl.remove adj.(rb) ra;
          Hashtbl.iter
            (fun other w' ->
              let other = find parent other in
              if other <> ra then begin
                let updated = current_weight ra other +. w' in
                Hashtbl.replace adj.(ra) other updated;
                Hashtbl.replace adj.(other) ra updated;
                Hashtbl.remove adj.(other) rb;
                let x = min ra other and y = max ra other in
                Heap.push heap { Heap.w = updated; a = x; b = y }
              end)
            adj.(rb);
          Hashtbl.reset adj.(rb)
        end;
        merge_loop ()
  in
  merge_loop ();
  (* Collect groups: hottest first, cold singletons keep input order. *)
  let groups = ref [] in
  for i = 0 to n - 1 do
    if find parent i = i && seq.(i) <> [] then groups := (i, seq.(i)) :: !groups
  done;
  let group_heat (_, members) =
    List.fold_left (fun acc m -> max acc (heat m)) 0.0 members
  in
  let groups =
    List.stable_sort
      (fun g1 g2 ->
        match compare (group_heat g2) (group_heat g1) with
        | 0 -> compare (fst g1) (fst g2)
        | c -> c)
      (List.rev !groups)
  in
  let ordered =
    List.concat_map (fun (_, members) -> List.map (fun i -> seg_arr.(i)) members) groups
  in
  if prov then
    List.iteri
      (fun rank (seg : Segment.t) ->
        Provenance.record ~pass ~subject:seg.Segment.proc
          [ ("rank", Provenance.Int rank) ])
      ordered;
  ordered
