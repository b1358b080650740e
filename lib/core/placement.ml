open Olayout_ir

type t = {
  prog : Prog.t;
  fetch : int array array;  (* fetch words, built by [of_rows] *)
  text_bytes : int;
  segments : Segment.t list;
}

(* A block's fetch word: its address above its executed instrs on arms 1
   and 0, [exec_bits] bits each; arm 1 executes the whole encoded block.
   12 bits hold 4,095 instructions, about 50 times the largest block body
   the workloads generate; the address keeps the other 39 bits (512 GiB). *)
let exec_bits = 12
let exec_mask = (1 lsl exec_bits) - 1
let addr_shift = 2 * exec_bits
let addr_limit = 1 lsl (Sys.int_size - addr_shift)

let align_up a alignment = (a + alignment - 1) / alignment * alignment

(* Encoded terminator instrs for block [b] when block [next] (-1: none) is
   placed right after it in the same segment. *)
let term_instrs (b : Block.t) next =
  match b.term with
  | Block.Fall d | Block.Jump d -> if next = d then 0 else 1
  | Block.Cond { taken; fall; _ } ->
      (* Fall-through adjacent, or taken adjacent with the condition
         inverted: one instruction; neither: cond + companion branch. *)
      if next = fall || next = taken then 1 else 2
  | Block.Call _ | Block.Ijump _ | Block.Ret -> 1
  | Block.Halt -> 0

let check_align align =
  if align < Block.bytes_per_instr || align mod Block.bytes_per_instr <> 0 then
    invalid_arg "Placement: bad alignment"

type rows = {
  proc : int;
  segs : Segment.t array;
  seg_of : int array;
  word : int array;
  seg_bytes : int array;
}

(* Each block's fetch word relative to its segment's start: its byte
   offset there, its encoded size (instrs, terminator included), which is
   what arm 1 executes, and the instrs arm 0 executes: a conditional
   branch costs one terminator instruction on the taken arm, and its fall
   path also executes the companion branch; other terminators execute what
   they encode.  A segment's encoding depends on its own block order
   alone. *)
let encode prog pid segments =
  let seg_of = Segment.index prog pid segments in
  let word = Array.make (Array.length seg_of) 0 in
  let p = Prog.proc prog pid in
  let rec go cursor = function
    | [] -> cursor
    | b :: rest ->
        let blk = Proc.block p b in
        let t = term_instrs blk (match rest with nb :: _ -> nb | [] -> -1) in
        let size = blk.Block.body + t in
        let exec0 = blk.Block.body + (match blk.Block.term with Block.Cond _ -> 1 | _ -> t) in
        if size lsr exec_bits <> 0 then
          invalid_arg (Printf.sprintf "Placement: p%d block %d: %d instrs overflow" pid b size);
        word.(b) <- (cursor lsl addr_shift) lor (size lsl exec_bits) lor exec0;
        go (cursor + (size * Block.bytes_per_instr)) rest
  in
  let seg_bytes = Array.map (fun (seg : Segment.t) -> go 0 seg.blocks) segments in
  { proc = pid; segs = segments; seg_of; word; seg_bytes }

let numbering rows =
  let base = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun p r -> base.(p + 1) <- base.(p) + Array.length r.segs) rows;
  base

let numbered rows = Array.concat (Array.to_list (Array.map (fun r -> r.segs) rows))

let of_rows ?(align = 16) ?(addr_of = fun _ a -> a) prog rows ~order =
  check_align align;
  if Array.length rows <> Prog.n_procs prog then
    invalid_arg "Placement.of_rows: one row set per procedure";
  Array.iteri
    (fun p r -> if r.proc <> p then invalid_arg "Placement.of_rows: rows out of procedure order")
    rows;
  let base = numbering rows in
  let n = base.(Array.length rows) in
  if Array.length order <> n then invalid_arg "Placement.of_rows: order is not a permutation";
  let bytes = Array.concat (Array.to_list (Array.map (fun r -> r.seg_bytes) rows)) in
  (* The one loop that assigns addresses: a prefix sum over the segment
     sizes, in order, with each start aligned, then moved by [addr_of]; a
     segment met twice (hence one never met), or one reaching past a fetch
     word's address field, is refused.  A block's fetch word is its
     segment's start added to its relative word. *)
  let start = Array.make n (-1) in
  let cursor = ref prog.Prog.base_addr in
  for k = 0 to n - 1 do
    let g = order.(k) in
    if g < 0 || g >= n || start.(g) >= 0 then
      invalid_arg "Placement.of_rows: order is not a permutation";
    let s = addr_of g (align_up !cursor align) in
    if s < !cursor then invalid_arg "Placement: addr_of moved backwards";
    if s mod Block.bytes_per_instr <> 0 then
      invalid_arg "Placement: addr_of returned unaligned address";
    if s < 0 || s + bytes.(g) >= addr_limit then
      invalid_arg (Printf.sprintf "Placement: segment at 0x%x past the address field" s);
    start.(g) <- s;
    cursor := s + bytes.(g)
  done;
  let fetch =
    Array.mapi
      (fun p r ->
        let b0 = base.(p) and seg_of = r.seg_of and word = r.word in
        let a = Array.make (Array.length seg_of) 0 in
        for b = 0 to Array.length a - 1 do
          a.(b) <- (start.(b0 + seg_of.(b)) lsl addr_shift) + word.(b)
        done;
        a)
      rows
  in
  let segs = numbered rows in
  let segments = ref [] in
  for k = n - 1 downto 0 do
    segments := segs.(order.(k)) :: !segments
  done;
  { prog; fetch; text_bytes = !cursor - prog.Prog.base_addr; segments = !segments }

(* The list constructors: encode every procedure's segments, number them
   procedure-major, and lay them out in list order. *)
let of_segments_at ?align prog ~addr_of segments =
  let by_proc = Array.make (Prog.n_procs prog) [] in
  List.iter
    (fun (seg : Segment.t) ->
      if seg.proc < 0 || seg.proc >= Array.length by_proc then
        invalid_arg (Printf.sprintf "Placement: segment of p%d out of range" seg.proc);
      by_proc.(seg.proc) <- seg :: by_proc.(seg.proc))
    segments;
  let rows = Array.mapi (fun pid segs -> encode prog pid (Array.of_list (List.rev segs))) by_proc in
  let next = numbering rows in
  let order =
    List.map
      (fun (seg : Segment.t) ->
        let g = next.(seg.proc) in
        next.(seg.proc) <- g + 1;
        g)
      segments
  in
  let segs = numbered rows in
  of_rows ?align prog rows ~order:(Array.of_list order) ~addr_of:(fun g a -> addr_of segs.(g) a)

let of_segments ?align prog segments =
  of_segments_at ?align prog ~addr_of:(fun _ a -> a) segments

let original ?align prog =
  of_segments ?align prog
    (Array.to_list (Array.map Segment.of_proc prog.Prog.procs))

let prog t = t.prog
let block_addr t ~proc ~block = t.fetch.(proc).(block) lsr addr_shift

let exec_instrs t ~proc ~block ~arm =
  let w = t.fetch.(proc).(block) in
  (if arm = 1 then w lsr exec_bits else w) land exec_mask

let static_instrs t ~proc ~block = exec_instrs t ~proc ~block ~arm:1

let fetch_words t = t.fetch
let text_bytes t = t.text_bytes

let program_instrs t =
  let encoded acc w = acc + ((w lsr exec_bits) land exec_mask) in
  Array.fold_left (fun acc row -> Array.fold_left encoded acc row) 0 t.fetch

let segments t = t.segments

(* Byte-for-byte layout identity: every address, encoded size and executed
   terminator cost (the fetch words) and the segment order itself.  The
   incremental engine's equivalence guarantee is asserted through this. *)
let equal (a : t) (b : t) =
  a.text_bytes = b.text_bytes && a.fetch = b.fetch && a.segments = b.segments

let long_branches t ?(max_displacement = 0x10_0000) () =
  let count = ref 0 in
  let far pc target = abs (target - pc) > max_displacement in
  Prog.iter_blocks t.prog (fun p b ->
      let proc = p.Proc.id and block = b.Block.id in
      let addr = block_addr t ~proc ~block in
      let size = static_instrs t ~proc ~block in
      let end_addr = addr + (size * Block.bytes_per_instr) in
      let target d = block_addr t ~proc ~block:d in
      match b.Block.term with
      | Block.Jump d | Block.Fall d ->
          (* Encoded as a branch only when not adjacent. *)
          if target d <> end_addr && far (end_addr - 4) (target d) then incr count
      | Block.Cond { taken; fall; _ } ->
          let pc = addr + (b.Block.body * Block.bytes_per_instr) in
          if target taken = end_addr then begin
            (* Inverted condition: the branch targets the fall successor. *)
            if far pc (target fall) then incr count
          end
          else begin
            if far pc (target taken) then incr count;
            (* Companion branch when neither successor is adjacent. *)
            if target fall <> end_addr && far (end_addr - 4) (target fall) then incr count
          end
      | Block.Call _ | Block.Ijump _ | Block.Ret | Block.Halt -> ())
  ;
  !count

let cond_branch t ~proc ~block ~arm =
  let p = Prog.proc t.prog proc in
  match (Proc.block p block).Block.term with
  | Block.Cond { taken; fall; _ } ->
      let addr = block_addr t ~proc ~block in
      let body = (Proc.block p block).Block.body in
      let pc = addr + (body * Block.bytes_per_instr) in
      let end_addr = addr + (static_instrs t ~proc ~block * Block.bytes_per_instr) in
      let taken_addr = block_addr t ~proc ~block:taken
      and fall_addr = block_addr t ~proc ~block:fall in
      if taken_addr = end_addr then
        (* Inverted condition: the branch targets the original fall-through. *)
        Some (pc, fall_addr, arm = 1)
      else
        (* Normal encoding, or condition plus companion branch: the
           conditional instruction itself is taken exactly on arm 0. *)
        Some (pc, taken_addr, arm = 0)
  | Block.Fall _ | Block.Jump _ | Block.Call _ | Block.Ijump _ | Block.Ret | Block.Halt ->
      None

let iter_placed t f =
  List.iter
    (fun (seg : Segment.t) ->
      List.iter
        (fun b ->
          f ~proc:seg.proc ~block:b ~addr:(block_addr t ~proc:seg.proc ~block:b)
            ~instrs:(static_instrs t ~proc:seg.proc ~block:b))
        seg.blocks)
    t.segments
