module Placement = Olayout_core.Placement
module Telemetry = Olayout_telemetry.Telemetry

let c_runs = Telemetry.counter "exec.runs_rendered"
let c_instrs = Telemetry.counter "exec.instrs_rendered"
let h_run_len = Telemetry.histogram "exec.run_len"

(* Runs shorter than [short] instructions, most of them, are counted per
   length and bucketed into the tally at [flush]; a longer one is bucketed
   as it is emitted. *)
let short = 64

type merger = {
  emit : Run.t -> unit;
  mutable owner : Run.owner;
  mutable addr : int;  (* start of pending run; -1 when none *)
  mutable len : int;   (* pending instructions *)
  (* Emitted since the last [flush], published there. *)
  mutable runs : int;
  mutable instrs : int;
  by_len : int array;  (* runs by length, below [short] *)
  run_len : Telemetry.tally;
}

let merger ~emit =
  let by_len = Array.make short 0 and run_len = Telemetry.tally () in
  { emit; owner = Run.App; addr = -1; len = 0; runs = 0; instrs = 0; by_len; run_len }

(* Number of significant bits: a positive run length's tally bucket
   before the clamp ([Telemetry.tally]). *)
let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1)

(* Books [n] runs of [len] instructions into the tally. *)
let book (tally : Telemetry.tally) len n =
  let counts = (tally :> int array) in
  let b = bits len 0 and top = Array.length counts - 1 in
  let b = if b < top then b else top in
  counts.(b) <- counts.(b) + n

let emit_pending m =
  let len = m.len in
  if m.addr >= 0 && len > 0 then begin
    m.runs <- m.runs + 1;
    m.instrs <- m.instrs + len;
    if len < short then m.by_len.(len) <- m.by_len.(len) + 1 else book m.run_len len 1;
    m.emit { Run.owner = m.owner; addr = m.addr; len }
  end;
  m.addr <- -1;
  m.len <- 0

let flush m =
  emit_pending m;
  for len = 1 to short - 1 do
    book m.run_len len m.by_len.(len);
    m.by_len.(len) <- 0
  done;
  Telemetry.add c_runs m.runs;
  Telemetry.add c_instrs m.instrs;
  Telemetry.publish_tally h_run_len m.run_len;
  m.runs <- 0;
  m.instrs <- 0

let feed m owner ~addr ~len =
  if len > 0 then
    if m.addr >= 0 && m.owner = owner && addr = m.addr + (m.len * 4) then
      m.len <- m.len + len
    else begin
      emit_pending m;
      m.owner <- owner;
      m.addr <- addr;
      m.len <- len
    end

type t = { placement : Placement.t; owner : Run.owner; m : merger }

let create ~placement ~owner m = { placement; owner; m }

(* A block's run from its fetch word [w]: arm 1 executes the encoded
   block, arm 0 the field below it. *)
let[@inline] feed_word m owner ~bits ~shift ~mask w ~arm =
  feed m owner ~addr:(w lsr shift) ~len:((if arm = 1 then w lsr bits else w) land mask)

(* A procedure's first event: fill its row, then feed the block. *)
let feed_first t ~proc ~block ~arm =
  let bits = Placement.exec_bits in
  feed_word t.m t.owner ~bits ~shift:(2 * bits) ~mask:((1 lsl bits) - 1) ~arm
    (Placement.fetch_word t.placement ~proc ~block)

(* A block event reads its procedure's row and the block's word.  A
   procedure's first event meets its relative row, whose words are
   negative, and has [Placement.fetch_word] fill it; later events in it
   call nothing outside this module (unless the text reaches 2^38, where
   rows stay relative).  Both paths end in a tail call, so the common one
   spills nothing.  The word's layout is read from [Placement] once per
   sink. *)
let sink t =
  let { placement; owner; m } = t in
  let rows = Placement.fetch_rows placement in
  let bits = Placement.exec_bits in
  let shift = 2 * bits and mask = (1 lsl bits) - 1 in
  fun ~proc ~block ~arm ->
    let w = rows.(proc).(block) in
    if w >= 0 then feed_word m owner ~bits ~shift ~mask w ~arm else feed_first t ~proc ~block ~arm

let stream ~app ~kernel emit =
  let m = merger ~emit in
  ( m,
    sink (create ~placement:app ~owner:Run.App m),
    sink (create ~placement:kernel ~owner:Run.Kernel m) )
