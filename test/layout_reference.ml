(* The list-based layout pipeline, kept as the test oracle for
   Olayout_core.Spike.  Segments are lists: each recipe's segment stage
   runs procedure by procedure over Chain_reference's chains, its order is
   Ph_reference's list-based engine, and addresses come from a cursor
   walked over the ordered list with this file's own encoder.  The
   production build shares one engine between from-scratch and
   incremental layouts, so an update-equals-scratch check cannot see a
   bug inside that engine; this pipeline can. *)

open Olayout_ir
module Profile = Olayout_profile.Profile
module Temporal = Olayout_profile.Temporal
module Provenance = Olayout_telemetry.Provenance
module Segment = Olayout_core.Segment
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement

(* --- cover ---------------------------------------------------------------- *)

(* The segments partition the program's blocks: every block of every
   procedure appears in exactly one segment, and a call block is
   immediately followed by its return block. *)
let check_cover prog segments =
  let seen = Array.map (fun p -> Array.make (Proc.n_blocks p) false) prog.Prog.procs in
  List.iter
    (fun (seg : Segment.t) ->
      let p = Prog.proc prog seg.proc in
      let rec go = function
        | [] -> ()
        | b :: rest ->
            if seen.(seg.proc).(b) then
              invalid_arg (Printf.sprintf "check_cover: p%d b%d placed twice" seg.proc b);
            seen.(seg.proc).(b) <- true;
            (match ((Proc.block p b).Block.term, rest) with
            | Block.Call { ret; _ }, next :: _ when next = ret -> ()
            | Block.Call _, _ ->
                invalid_arg
                  (Printf.sprintf "check_cover: p%d b%d call not glued to its return" seg.proc b)
            | _ -> ());
            go rest
      in
      go seg.blocks)
    segments;
  Array.iteri
    (fun pid blocks ->
      Array.iteri
        (fun b placed ->
          if not placed then invalid_arg (Printf.sprintf "check_cover: p%d b%d never placed" pid b))
        blocks)
    seen

(* --- segment stages --------------------------------------------------------- *)

let chains profile pid = fst (Chain_reference.chain_proc profile pid)
let procs profile = List.init (Prog.n_procs (Profile.prog profile)) Fun.id

let whole profile =
  Array.to_list (Array.map Segment.of_proc (Profile.prog profile).Prog.procs)

let joined profile =
  List.map (fun pid -> { Segment.proc = pid; blocks = List.concat (chains profile pid) }) (procs profile)

(* Every stage that splits books one "splitting" event per procedure, in
   procedure order, after all procedures are cut. *)
let record_cuts per_proc =
  if Provenance.enabled () then
    List.iteri
      (fun pid segs ->
        Provenance.record ~pass:"splitting" ~subject:pid
          [
            ("segments", Provenance.Int (List.length segs));
            ("blocks", Provenance.Int (List.fold_left (fun acc s -> acc + Segment.n_blocks s) 0 segs));
          ])
      per_proc;
  List.concat per_proc

let fine_grain profile =
  record_cuts
    (List.map
       (fun pid -> List.map (fun blocks -> { Segment.proc = pid; blocks }) (chains profile pid))
       (procs profile))

(* Stock-Spike hot/cold: the chained blocks with a count, then the rest; a
   call block and its return block are promoted to hot together. *)
let hot_cold profile =
  let prog = Profile.prog profile in
  record_cuts
    (List.map
       (fun pid ->
         let p = Prog.proc prog pid in
         let chained = List.concat (chains profile pid) in
         let hot = Array.init (Proc.n_blocks p) (fun b -> Profile.block_count profile ~proc:pid ~block:b > 0) in
         let changed = ref true in
         while !changed do
           changed := false;
           Array.iter
             (fun (blk : Block.t) ->
               match blk.Block.term with
               | Block.Call { ret; _ } when hot.(blk.id) <> hot.(ret) ->
                   hot.(blk.id) <- true;
                   hot.(ret) <- true;
                   changed := true
               | _ -> ())
             p.blocks
         done;
         List.filter_map
           (fun blocks -> if blocks = [] then None else Some { Segment.proc = pid; blocks })
           [ List.filter (fun b -> hot.(b)) chained; List.filter (fun b -> not hot.(b)) chained ])
       (procs profile))

(* --- orders ------------------------------------------------------------------- *)

let head_heat profile (seg : Segment.t) =
  float_of_int (Profile.block_count profile ~proc:seg.proc ~block:(Segment.head seg))

let pettis_hansen profile segments =
  let seg_arr = Array.of_list segments in
  Ph_reference.order_weighted
    ~weights:(Ph_reference.pair_weights profile segments)
    ~heat:(fun i -> head_heat profile seg_arr.(i))
    segments

(* Temporal affinities attach to each procedure's hottest segment, the
   first on a tie. *)
let temporal_weights temporal profile segments =
  let rep = Hashtbl.create 64 in
  List.iteri
    (fun i (seg : Segment.t) ->
      match Hashtbl.find_opt rep seg.proc with
      | Some (_, h) when h >= head_heat profile seg -> ()
      | Some _ | None -> Hashtbl.replace rep seg.proc (i, head_heat profile seg))
    segments;
  List.filter_map
    (fun ((pa, pb), w) ->
      match (Hashtbl.find_opt rep pa, Hashtbl.find_opt rep pb) with
      | Some (i, _), Some (j, _) -> Some ((i, j), w)
      | _ -> None)
    (Temporal.pairs temporal)

let temporal_order temporal profile segments =
  let seg_arr = Array.of_list segments in
  Ph_reference.order_weighted ~pass:"temporal_order"
    ~weights:(temporal_weights temporal profile segments)
    ~heat:(fun i -> head_heat profile seg_arr.(i))
    segments

(* --- address assignment --------------------------------------------------------- *)

type t = {
  addr : int array array;
  size : int array array;  (* encoded instrs, terminator included *)
  exec0 : int array array;  (* executed terminator instrs, arm 0 *)
  exec1 : int array array;  (* executed terminator instrs, arm 1 *)
  text_bytes : int;
  segments : Segment.t list;
}

(* A branch to the next block in the segment is elided; a conditional
   branch costs one instruction when either successor follows it and two
   otherwise. *)
let term_instrs (b : Block.t) next =
  match b.term with
  | Block.Fall d | Block.Jump d -> if next = d then 0 else 1
  | Block.Cond { taken; fall; _ } -> if next = fall || next = taken then 1 else 2
  | Block.Call _ | Block.Ijump _ | Block.Ret -> 1
  | Block.Halt -> 0

let place ?(align = 16) ?(addr_of = fun _ a -> a) prog segments =
  check_cover prog segments;
  let shape () = Array.map (fun p -> Array.make (Proc.n_blocks p) 0) prog.Prog.procs in
  let addr = shape () and size = shape () and exec0 = shape () and exec1 = shape () in
  let cursor = ref prog.Prog.base_addr in
  List.iter
    (fun (seg : Segment.t) ->
      cursor := addr_of seg ((!cursor + align - 1) / align * align);
      let p = Prog.proc prog seg.proc in
      let rec go = function
        | [] -> ()
        | b :: rest ->
            let blk = Proc.block p b in
            let t = term_instrs blk (match rest with nb :: _ -> nb | [] -> -1) in
            addr.(seg.proc).(b) <- !cursor;
            size.(seg.proc).(b) <- blk.Block.body + t;
            exec0.(seg.proc).(b) <- (match blk.Block.term with Block.Cond _ -> 1 | _ -> t);
            exec1.(seg.proc).(b) <- t;
            cursor := !cursor + ((blk.Block.body + t) * Block.bytes_per_instr);
            go rest
      in
      go seg.blocks)
    segments;
  { addr; size; exec0; exec1; text_bytes = !cursor - prog.Prog.base_addr; segments }

(* Byte-for-byte agreement with a production placement. *)
let matches r pl =
  let prog = Placement.prog pl in
  let ok = ref (r.text_bytes = Placement.text_bytes pl && r.segments = Placement.segments pl) in
  Prog.iter_blocks prog (fun p b ->
      let proc = p.Proc.id and block = b.Block.id in
      let body = b.Block.body in
      ok :=
        !ok
        && Placement.block_addr pl ~proc ~block = r.addr.(proc).(block)
        && Placement.static_instrs pl ~proc ~block = r.size.(proc).(block)
        && Placement.exec_instrs pl ~proc ~block ~arm:0 = body + r.exec0.(proc).(block)
        && Placement.exec_instrs pl ~proc ~block ~arm:1 = body + r.exec1.(proc).(block));
  !ok

(* --- recipes -------------------------------------------------------------------- *)

(* A recipe's segments in their final order, up to its placer. *)
let ordered algo profile =
  let by_calls stage = pettis_hansen profile (stage profile) in
  match algo with
  | Spike.Combo Spike.Base -> whole profile
  | Spike.Combo Spike.Chain -> joined profile
  | Spike.Combo Spike.Chain_split -> fine_grain profile
  | Spike.Combo Spike.Porder | Spike.Colored_procs _ -> by_calls whole
  | Spike.Combo Spike.Chain_porder -> by_calls joined
  | Spike.Combo Spike.All | Spike.Colored _ | Spike.Cfa _ | Spike.Hot_aligned -> by_calls fine_grain
  | Spike.Hot_cold -> by_calls hot_cold
  | Spike.Temporal t -> temporal_order t profile (fine_grain profile)
  | Spike.Temporal_procs t -> temporal_order t profile (whole profile)

(* Does [placement] agree with the reference build of [algo]: byte for
   byte where the placer packs or line-aligns, and in segment order for
   the address-aware placers (coloring keeps its input order; the
   conflict-free area first ranks it hottest-first, stably)? *)
let agrees algo profile placement =
  let prog = Profile.prog profile in
  let segments = ordered algo profile in
  match algo with
  | Spike.Combo Spike.Base -> matches (place ~align:16 prog segments) placement
  | Spike.Combo _ | Spike.Temporal _ | Spike.Temporal_procs _ | Spike.Hot_cold ->
      matches (place ~align:4 prog segments) placement
  | Spike.Hot_aligned ->
      let threshold = max 1 (Profile.total_block_events profile / 100_000) in
      matches
        (place ~align:4 prog segments ~addr_of:(fun seg a ->
             if head_heat profile seg > float_of_int threshold then (a + 63) land lnot 63 else a))
        placement
  | Spike.Colored _ | Spike.Colored_procs _ -> segments = Placement.segments placement
  | Spike.Cfa _ ->
      let heat = Segment.heat profile in
      List.stable_sort (fun s1 s2 -> compare (heat s2) (heat s1)) segments
      = Placement.segments placement
