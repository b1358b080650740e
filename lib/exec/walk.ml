open Olayout_ir
module Rng = Olayout_util.Rng
module Telemetry = Olayout_telemetry.Telemetry

(* Updated once per [call] episode (by delta), not per block: the per-block
   loop stays telemetry-free. *)
let c_calls = Telemetry.counter "exec.walk_calls"
let c_blocks = Telemetry.counter "exec.walk_blocks"
let c_instrs = Telemetry.counter "exec.walk_instrs"
let c_dispatches = Telemetry.counter "exec.sink_dispatches"

type sink = proc:int -> block:int -> arm:int -> unit

type t = {
  procs : Proc.t array;
  rng : Rng.t;
  mutable sinks : sink array;  (* registration order; replaced, never written *)
  mutable instrs : int;
  mutable blocks : int;
}

let create ~prog ~rng = { procs = prog.Prog.procs; rng; sinks = [||]; instrs = 0; blocks = 0 }
let add_sink t sink = t.sinks <- Array.append t.sinks [| sink |]

let max_depth = 64

(* A loop hint of the episode's top-level procedure: [left] more choices of
   [block]'s more probable arm before it takes the other one and rearms to
   [trips]. *)
type hint = { block : Block.id; trips : int; mutable left : int }

let no_hints : hint array = [||]

(* Scanned from the end, so the last hint given for a block wins. *)
let rec find_hint hints bid i =
  if i < 0 || hints.(i).block = bid then i else find_hint hints bid (i - 1)

(* Iterative within a procedure; recursive only across call depth.  The
   per-block loop allocates nothing and calls nothing outside this module
   but the sinks and the RNG: the cursor is an int (-1 once the procedure
   returns), blocks are read from the procedure's array, and the [match]
   works out the block's arm, successor, terminator source size (the rule
   of [Block.source_instrs], read off the block here: a call into [Block]
   per block is an indirect application) and callee, with no tuple
   allocated, before the one place that counts the event and runs the
   sinks. *)
let rec walk_proc t sinks pid depth hints =
  if depth > max_depth then invalid_arg "Walk.call: call depth exceeded (recursion?)";
  let p = t.procs.(pid) in
  let blocks = p.Proc.blocks in
  let current = ref p.Proc.entry in
  while !current >= 0 do
    let bid = !current in
    let b = blocks.(bid) in
    let arm, next, term, callee =
      match b.Block.term with
      | Block.Fall d -> (0, d, 0, -1)
      | Block.Jump d -> (0, d, 1, -1)
      | Block.Cond { taken; fall; p_taken } ->
          let h = find_hint hints bid (Array.length hints - 1) in
          let choose_taken =
            if h >= 0 then begin
              let h = hints.(h) in
              let hot_is_taken = p_taken >= 0.5 in
              if h.left > 0 then begin
                h.left <- h.left - 1;
                hot_is_taken
              end
              else begin
                h.left <- h.trips;
                not hot_is_taken
              end
            end
            else Rng.bool t.rng p_taken
          in
          if choose_taken then (0, taken, 1, -1) else (1, fall, 1, -1)
      | Block.Call { callee; ret } -> (0, ret, 1, callee)
      | Block.Ijump targets ->
          let arm = Rng.weighted_index t.rng targets in
          (arm, fst targets.(arm), 1, -1)
      | Block.Ret -> (0, -1, 1, -1)
      | Block.Halt -> (0, -1, 0, -1)
    in
    t.blocks <- t.blocks + 1;
    t.instrs <- t.instrs + b.Block.body + term;
    for i = 0 to Array.length sinks - 1 do
      sinks.(i) ~proc:pid ~block:bid ~arm
    done;
    if callee >= 0 then walk_proc t sinks callee (depth + 1) no_hints;
    current := next
  done

let call t ?(hints = []) pid =
  let sinks = t.sinks in
  let hints =
    match hints with
    | [] -> no_hints
    | hs -> Array.of_list (List.map (fun (block, n) -> { block; trips = n; left = n }) hs)
  in
  let blocks0 = t.blocks and instrs0 = t.instrs in
  walk_proc t sinks pid 0 hints;
  Telemetry.incr c_calls;
  let d_blocks = t.blocks - blocks0 in
  Telemetry.add c_blocks d_blocks;
  Telemetry.add c_instrs (t.instrs - instrs0);
  Telemetry.add c_dispatches (d_blocks * Array.length sinks)

let instrs_executed t = t.instrs
let blocks_executed t = t.blocks
