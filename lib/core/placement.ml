open Olayout_ir

(* A block's fetch word: its address above its executed instrs on arms 1
   and 0, [exec_bits] bits each; arm 1 executes the whole encoded block.
   12 bits hold 4,095 instructions, about 50 times the largest block body
   the workloads generate; the address keeps the other 39 bits (512 GiB). *)
let exec_bits = 12
let exec_mask = (1 lsl exec_bits) - 1
let addr_shift = 2 * exec_bits
let addr_limit = 1 lsl (Sys.int_size - addr_shift)
let fields_mask = (1 lsl addr_shift) - 1

(* A relative word keeps the two instruction fields and, above them, the
   block's byte offset in its segment ([off_bits] bits, 4 MiB) and its
   segment's local number (16 bits), with the sign bit set.  A fetch word
   is negative only at an address of 2{^38} or more, and a placement
   reaching that far never fills a row ([fillable]), so a negative word
   always comes from a relative row.  The workloads' largest procedure
   has 374 blocks and 11 KB. *)
let off_bits = 22
let off_mask = (1 lsl off_bits) - 1
let seg_shift = addr_shift + off_bits
let seg_limit = 1 lsl (Sys.int_size - 1 - seg_shift)

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

(* The one encoder.  Segment [i] of the procedure is
   [blocks.(starts.(lo + i))] to [blocks.(starts.(lo + i + 1) - 1)].  One
   pass over the blocks checks that the segments partition the
   procedure's blocks with call glue intact and writes each block's fetch
   word relative to its segment's start: its local segment and byte
   offset there, its encoded size (instrs, terminator included), which is
   what arm 1 executes, and the instrs arm 0 executes: a conditional
   branch costs one terminator instruction on the taken arm, and its fall
   path also executes the companion branch; other terminators execute
   what they encode.  A segment's encoding depends on its own block order
   alone. *)
let encode prog pid ~blocks ~starts ~lo ~hi =
  let p = Prog.proc prog pid in
  let n = Proc.n_blocks p in
  let bad fmt = Printf.ksprintf (fun msg -> invalid_arg ("Placement.encode: " ^ msg)) fmt in
  if lo < 0 || hi < lo || hi >= Array.length starts then bad "p%d: segments %d to %d" pid lo hi;
  if hi - lo > seg_limit then bad "p%d has over %d segments" pid seg_limit;
  if starts.(lo) < 0 || starts.(hi) > Array.length blocks then
    bad "p%d: segments past the block order" pid;
  let seg_of = Array.make n (-1) and word = Array.make n 0 in
  let seg_bytes = Array.make (hi - lo) 0 in
  for i = 0 to hi - lo - 1 do
    let first = starts.(lo + i) and last = starts.(lo + i + 1) - 1 in
    if last < first then bad "p%d segment %d is empty" pid i;
    let tag = min_int lor (i lsl seg_shift) in
    let cursor = ref 0 in
    for k = first to last do
      let b = blocks.(k) in
      if b < 0 || b >= n then bad "p%d b%d out of range" pid b;
      if seg_of.(b) >= 0 then bad "p%d b%d placed twice" pid b;
      seg_of.(b) <- i;
      let blk = Proc.block p b in
      let next = if k < last then blocks.(k + 1) else -1 in
      (match blk.Block.term with
      | Block.Call { ret; _ } when ret <> next ->
          bad "p%d b%d call not glued to its return block" pid b
      | _ -> ());
      let t = term_instrs blk next in
      let size = blk.Block.body + t in
      let exec0 = blk.Block.body + (match blk.Block.term with Block.Cond _ -> 1 | _ -> t) in
      if size lsr exec_bits <> 0 then bad "p%d block %d: %d instrs overflow" pid b size;
      if !cursor lsr off_bits <> 0 then bad "p%d block %d past its segment's offset field" pid b;
      word.(b) <- tag lor (!cursor lsl addr_shift) lor (size lsl exec_bits) lor exec0;
      cursor := !cursor + (size * Block.bytes_per_instr)
    done;
    seg_bytes.(i) <- !cursor
  done;
  (* No block twice, so [n] placed every block. *)
  if starts.(hi) - starts.(lo) <> n then
    bad "p%d: %d of its %d blocks placed" pid (starts.(hi) - starts.(lo)) n;
  let segs =
    Array.init (hi - lo) (fun i ->
        let acc = ref [] in
        for k = starts.(lo + i + 1) - 1 downto starts.(lo + i) do
          acc := blocks.(k) :: !acc
        done;
        { Segment.proc = pid; blocks = !acc })
  in
  { proc = pid; segs; seg_of; word; seg_bytes }

let numbering rows =
  let base = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun p r -> base.(p + 1) <- base.(p) + Array.length r.segs) rows;
  base

let numbered rows = Array.concat (Array.to_list (Array.map (fun r -> r.segs) rows))

type t = {
  prog : Prog.t;
  text_bytes : int;
  base : int array;  (* [numbering] of the rows *)
  order : int array;  (* segment numbers in address order *)
  start : int array;  (* segment number -> start address *)
  segs : Segment.t array array;  (* procedure -> its segments *)
  words : int array array;
      (* procedure -> its relative row, until [fetch_word] fills the slot
         with the procedure's fetch words *)
  fillable : bool;  (* every fetch word is non-negative *)
}

let of_rows ?(align = 16) ?(addr_of = fun _ a -> a) prog rows ~order =
  check_align align;
  let n_procs = Array.length rows in
  if n_procs <> Prog.n_procs prog then invalid_arg "Placement.of_rows: one row set per procedure";
  let base = numbering rows in
  let n = base.(n_procs) in
  if Array.length order <> n then invalid_arg "Placement.of_rows: order is not a permutation";
  (* [start] holds each segment's size complemented, negative, until the
     segment is placed. *)
  let start = Array.make n 0 in
  for p = 0 to n_procs - 1 do
    let r = rows.(p) and b0 = base.(p) in
    if r.proc <> p then invalid_arg "Placement.of_rows: rows out of procedure order";
    for i = 0 to Array.length r.seg_bytes - 1 do
      start.(b0 + i) <- lnot r.seg_bytes.(i)
    done
  done;
  (* The one loop that assigns addresses: a prefix sum over the segment
     sizes, in order, with each start aligned, then moved by [addr_of]; a
     segment met twice (hence one never met), or one reaching past a fetch
     word's address field, is refused. *)
  let cursor = ref prog.Prog.base_addr in
  for k = 0 to n - 1 do
    let g = order.(k) in
    if g < 0 || g >= n || start.(g) >= 0 then
      invalid_arg "Placement.of_rows: order is not a permutation";
    let bytes = lnot start.(g) in
    let s = addr_of g (align_up !cursor align) in
    if s < !cursor then invalid_arg "Placement: addr_of moved backwards";
    if s mod Block.bytes_per_instr <> 0 then
      invalid_arg "Placement: addr_of returned unaligned address";
    if s < 0 || s + bytes >= addr_limit then
      invalid_arg (Printf.sprintf "Placement: segment at 0x%x past the address field" s);
    start.(g) <- s;
    cursor := s + bytes
  done;
  {
    prog;
    text_bytes = !cursor - prog.Prog.base_addr;
    base;
    order;
    start;
    segs = Array.map (fun (r : rows) -> r.segs) rows;
    words = Array.map (fun (r : rows) -> r.word) rows;
    fillable = !cursor < addr_limit / 2;
  }

(* The list constructors: flatten each procedure's segments, in list
   order, into one encoding, number them procedure-major, and lay them out
   in list order. *)
let of_segments_at ?align prog ~addr_of segments =
  let by_proc = Array.make (Prog.n_procs prog) [] in
  List.iter
    (fun (seg : Segment.t) ->
      if seg.proc < 0 || seg.proc >= Array.length by_proc then
        invalid_arg (Printf.sprintf "Placement: segment of p%d out of range" seg.proc);
      by_proc.(seg.proc) <- seg :: by_proc.(seg.proc))
    segments;
  let rows =
    Array.mapi
      (fun pid segs ->
        let segs = List.rev segs and n = List.length segs in
        let starts = Array.make (n + 1) 0 in
        List.iteri
          (fun i (seg : Segment.t) -> starts.(i + 1) <- starts.(i) + List.length seg.blocks)
          segs;
        let blocks = Array.of_list (List.concat_map (fun (seg : Segment.t) -> seg.blocks) segs) in
        encode prog pid ~blocks ~starts ~lo:0 ~hi:n)
      by_proc
  in
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

(* A fetch word from relative word [w] of a procedure whose first segment
   is number [b0]: its segment's start added to its offset. *)
let[@inline] absolute start b0 w =
  let seg = (w lsr seg_shift) land (seg_limit - 1) in
  ((start.(b0 + seg) + ((w lsr addr_shift) land off_mask)) lsl addr_shift)
  lor (w land fields_mask)

let word t p b =
  let w = t.words.(p).(b) in
  if w >= 0 then w else absolute t.start t.base.(p) w

let fetch_rows t = t.words

(* A fill builds the whole row, then publishes it with one store; two
   domains that race store equal rows. *)
let fill_row t p =
  let row = t.words.(p) in
  let n = Array.length row in
  if t.fillable && n > 0 && row.(0) < 0 then begin
    let filled = Array.make n 0 and start = t.start and b0 = t.base.(p) in
    for b = 0 to n - 1 do
      filled.(b) <- absolute start b0 row.(b)
    done;
    t.words.(p) <- filled
  end

let fetch_word t ~proc ~block =
  fill_row t proc;
  word t proc block

let fill t =
  for p = 0 to Array.length t.words - 1 do
    fill_row t p
  done

let block_addr t ~proc ~block = word t proc block lsr addr_shift

(* The instruction fields read the same in a relative word. *)
let exec_instrs t ~proc ~block ~arm =
  let w = t.words.(proc).(block) in
  (if arm = 1 then w lsr exec_bits else w) land exec_mask

let static_instrs t ~proc ~block = exec_instrs t ~proc ~block ~arm:1
let text_bytes t = t.text_bytes

let program_instrs t =
  let encoded acc w = acc + ((w lsr exec_bits) land exec_mask) in
  Array.fold_left (fun acc row -> Array.fold_left encoded acc row) 0 t.words

(* Every segment, indexed by its number. *)
let by_number t = Array.concat (Array.to_list t.segs)

let segments t =
  let segs = by_number t and order = t.order in
  let acc = ref [] in
  for k = Array.length order - 1 downto 0 do
    acc := segs.(order.(k)) :: !acc
  done;
  !acc

(* Byte-for-byte layout identity: every address, encoded size and executed
   terminator cost (the fetch words, filled or not) and the segment order
   itself.  The incremental engine's equivalence guarantee is asserted
   through this. *)
let equal (a : t) (b : t) =
  let same_words p row =
    Array.length row = Array.length b.words.(p)
    &&
    let same = ref true in
    Array.iteri (fun blk _ -> if word a p blk <> word b p blk then same := false) row;
    !same
  in
  a.text_bytes = b.text_bytes
  && Array.length a.words = Array.length b.words
  && Array.for_all Fun.id (Array.mapi same_words a.words)
  && segments a = segments b

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
  let segs = by_number t in
  Array.iter
    (fun g ->
      let { Segment.proc; blocks } = segs.(g) in
      List.iter
        (fun block ->
          let w = word t proc block in
          f ~proc ~block ~addr:(w lsr addr_shift) ~instrs:((w lsr exec_bits) land exec_mask))
        blocks)
    t.order
