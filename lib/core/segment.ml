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

let heat profile t =
  List.fold_left
    (fun acc b -> acc + Olayout_profile.Profile.block_count profile ~proc:t.proc ~block:b)
    0 t.blocks

let max_bytes prog t =
  let p = Prog.proc prog t.proc in
  List.fold_left
    (fun acc b -> acc + (((Proc.block p b).Block.body + 2) * Block.bytes_per_instr))
    0 t.blocks
