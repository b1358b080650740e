open Olayout_ir

(* Windowed capture of an execution's block path: every event, in
   execution order, as one packed int, and a window as the index of its
   first application event on {!Sampler}'s clock.  The sinks are pure
   bookkeeping on the dispatching domain; profiles fold on demand. *)

(* An event is one int: a two-bit tag (0 application, 1 kernel, 2 data
   reference, 3 process switch) below its payload.  A block event's payload
   is three [bits]-wide fields (proc, block, arm); a data reference's is
   its address and a switch's the process id. *)
let bits = 20
let mask = (1 lsl bits) - 1
let app_tag = 0
let kernel_tag = 1
let data_tag = 2
let switch_tag = 3

(* Events live in fixed-size chunks, so the capture grows without copying
   and holds O(events) words. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits

type t = {
  prog : Prog.t;
  window : int;
  mutable chunks : int array array;
  mutable count : int;  (* events of every kind *)
  mutable starts : int array;  (* event index of each window's first app event *)
  mutable n : int;  (* windows in use: highest written index + 1 *)
  mutable position : int;  (* source instructions observed so far *)
  mutable events : int;  (* application events *)
}

let create ?window prog =
  let window =
    match window with Some w -> w | None -> Olayout_telemetry.Timeline.window ()
  in
  if window < 1 then invalid_arg "Windowed.create: window must be >= 1 instruction";
  { prog; window; chunks = [||]; count = 0; starts = [||]; n = 0; position = 0; events = 0 }

let[@inline] push t e =
  let i = t.count in
  let c = i lsr chunk_bits in
  if c = Array.length t.chunks then t.chunks <- Array.append t.chunks (Array.make (max 16 c) [||]);
  if i land (chunk_size - 1) = 0 then t.chunks.(c) <- Array.make chunk_size 0;
  t.chunks.(c).(i land (chunk_size - 1)) <- e;
  t.count <- i + 1

let append t ~tag ~proc ~block ~arm =
  if (proc lor block lor arm) land lnot mask <> 0 then
    invalid_arg
      (Printf.sprintf "Windowed: event (%d, %d, %d) does not fit the capture" proc block arm);
  push t ((((((proc lsl bits) lor block) lsl bits) lor arm) lsl 2) lor tag)

(* Checked like {!Profile.record}: an event the program does not have is
   rejected before it is recorded.  The block's arm count and source size
   ([Block.arm_count], [Block.source_instrs]) are read off its record here,
   as the walker does: a call into [Block] per event is an indirect
   application. *)
let sink t ~proc ~block ~arm =
  let procs = t.prog.Prog.procs in
  let blocks = if proc >= 0 && proc < Array.length procs then procs.(proc).Proc.blocks else [||] in
  let arms, size =
    if block < 0 || block >= Array.length blocks then (0, 0)
    else
      let b = blocks.(block) in
      match b.Block.term with
      | Block.Fall _ | Block.Halt -> (1, b.body)
      | Block.Jump _ | Block.Call _ | Block.Ret -> (1, b.body + 1)
      | Block.Cond _ -> (2, b.body + 1)
      | Block.Ijump targets -> (Array.length targets, b.body + 1)
  in
  if arm < 0 || arm >= arms then
    invalid_arg
      (Printf.sprintf "Windowed.sink: no event (%d, %d, %d) in the program" proc block arm);
  (* The event opens the window containing its *start* position (matching
     Timeline.Series.add's convention for run deltas); a window a block
     jumps over starts where the next one does. *)
  let w = t.position / t.window in
  while t.n <= w do
    if t.n = Array.length t.starts then
      t.starts <- Array.append t.starts (Array.make (max 16 t.n) 0);
    t.starts.(t.n) <- t.count;
    t.n <- t.n + 1
  done;
  append t ~tag:app_tag ~proc ~block ~arm;
  t.events <- t.events + 1;
  t.position <- t.position + if size > 1 then size else 1

let kernel_sink t ~proc ~block ~arm = append t ~tag:kernel_tag ~proc ~block ~arm

(* A payload fills the 60 bits above the tag: [3 * bits] wide. *)
let value t ~tag what v =
  if v lsr (3 * bits) <> 0 then
    invalid_arg (Printf.sprintf "Windowed.%s: %d does not fit the capture" what v);
  push t ((v lsl 2) lor tag)

let data_sink t addr = value t ~tag:data_tag "data_sink" addr
let switch_sink t pid = value t ~tag:switch_tag "switch_sink" pid

let window t = t.window
let windows t = t.n
let instrs t = t.position
let events t = t.events

(* The event indices of windows [lo, hi), clamped to the capture: other
   events before the first application event belong to window 0, and
   those after the last one to the last window. *)
let first t w = if w <= 0 then 0 else if w >= t.n then t.count else t.starts.(w)

let[@inline] feed sink e =
  sink ~proc:(e lsr (2 + (2 * bits))) ~block:((e lsr (2 + bits)) land mask)
    ~arm:((e lsr 2) land mask)

let replay t ~lo ~hi ~app ?kernel ?data ?switch () =
  for i = first t lo to first t hi - 1 do
    let e = t.chunks.(i lsr chunk_bits).(i land (chunk_size - 1)) in
    let tag = e land 3 in
    if tag = app_tag then feed app e
    else if tag = kernel_tag then (match kernel with Some k -> feed k e | None -> ())
    else
      match if tag = data_tag then data else switch with
      | Some f -> f (e lsr 2)
      | None -> ()
  done

let merged t ~lo ~hi =
  let acc = Profile.create t.prog in
  replay t ~lo ~hi ~app:(Profile.record acc) ();
  acc

let profile t w =
  if w < 0 || w >= t.n then invalid_arg "Windowed.profile: window out of range";
  merged t ~lo:w ~hi:(w + 1)
