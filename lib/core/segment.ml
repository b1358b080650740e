open Olayout_ir

type t = { proc : int; blocks : Block.id list }

let of_proc (p : Proc.t) =
  { proc = p.id; blocks = List.init (Proc.n_blocks p) (fun i -> i) }

let head t =
  match t.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Segment.head: empty segment"

let n_blocks t = List.length t.blocks

let contains_entry (p : Proc.t) t = t.proc = p.id && List.mem p.entry t.blocks

(* The block -> local segment map of one procedure's segments, built while
   checking that they partition its blocks with call glue intact. *)
let index prog pid segments =
  let p = Prog.proc prog pid in
  let seg_of = Array.make (Proc.n_blocks p) (-1) in
  Array.iteri
    (fun i seg ->
      if seg.proc <> pid then
        invalid_arg
          (Printf.sprintf "Segment.index: p%d segment among p%d's" seg.proc pid);
      let rec go = function
        | [] -> ()
        | b :: rest ->
            if b < 0 || b >= Proc.n_blocks p then
              invalid_arg (Printf.sprintf "Segment.index: p%d b%d out of range" pid b);
            if seg_of.(b) >= 0 then
              invalid_arg (Printf.sprintf "Segment.index: p%d b%d placed twice" pid b);
            seg_of.(b) <- i;
            (match (Proc.block p b).Block.term with
            | Block.Call { ret; _ } -> (
                match rest with
                | next :: _ when next = ret -> ()
                | _ ->
                    invalid_arg
                      (Printf.sprintf
                         "Segment.index: p%d b%d call not glued to its return block" pid
                         b))
            | _ -> ());
            go rest
      in
      go seg.blocks)
    segments;
  Array.iteri
    (fun bid i ->
      if i < 0 then
        invalid_arg (Printf.sprintf "Segment.index: p%d b%d never placed" pid bid))
    seg_of;
  seg_of

let heat profile t =
  List.fold_left
    (fun acc b -> acc + Olayout_profile.Profile.block_count profile ~proc:t.proc ~block:b)
    0 t.blocks

let max_bytes prog t =
  let p = Prog.proc prog t.proc in
  List.fold_left
    (fun acc b -> acc + (((Proc.block p b).Block.body + 2) * Block.bytes_per_instr))
    0 t.blocks
