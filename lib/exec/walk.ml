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
  mutable rev_sinks : sink list;  (* newest first: O(1) registration *)
  mutable sinks : sink array;     (* frozen registration-order view *)
  mutable sinks_stale : bool;
  mutable instrs : int;
  mutable blocks : int;
}

let create ~prog ~rng =
  {
    procs = prog.Prog.procs;
    rng;
    rev_sinks = [];
    sinks = [||];
    sinks_stale = false;
    instrs = 0;
    blocks = 0;
  }

let add_sink t sink =
  t.rev_sinks <- sink :: t.rev_sinks;
  t.sinks_stale <- true

let frozen_sinks t =
  if t.sinks_stale then begin
    t.sinks <- Array.of_list (List.rev t.rev_sinks);
    t.sinks_stale <- false
  end;
  t.sinks

let max_depth = 64

(* A loop hint of the episode's top-level procedure: [left] more choices of
   [block]'s more probable arm before it takes the other one and rearms to
   [trips]. *)
type hint = { block : Block.id; trips : int; mutable left : int }

let no_hints : hint array = [||]

(* Scanned from the end, so the last hint given for a block wins. *)
let rec find_hint hints bid i =
  if i < 0 || hints.(i).block = bid then i else find_hint hints bid (i - 1)

(* [Block.source_instrs], read off the block here: a call into [Block]
   per block is an indirect application, and a table of sizes allocated
   per walker moves the heap's peak. *)
let source_instrs (b : Block.t) =
  b.body
  +
  match b.term with
  | Block.Fall _ | Block.Halt -> 0
  | Block.Jump _ | Block.Cond _ | Block.Call _ | Block.Ijump _ | Block.Ret -> 1

let record t sinks pid (b : Block.t) arm =
  t.blocks <- t.blocks + 1;
  t.instrs <- t.instrs + source_instrs b;
  for i = 0 to Array.length sinks - 1 do
    sinks.(i) ~proc:pid ~block:b.Block.id ~arm
  done

(* Iterative within a procedure; recursive only across call depth.  The
   per-block loop allocates nothing and calls nothing outside this module
   but the sinks and the RNG: the cursor is an int (-1 once the procedure
   returns), blocks are read from the procedure's array, and the sinks
   run from a [for] loop. *)
let rec walk_proc t sinks pid depth hints =
  if depth > max_depth then invalid_arg "Walk.call: call depth exceeded (recursion?)";
  let p = t.procs.(pid) in
  let blocks = p.Proc.blocks in
  let current = ref p.Proc.entry in
  while !current >= 0 do
    let bid = !current in
    let b = blocks.(bid) in
    match b.Block.term with
    | Block.Fall d | Block.Jump d ->
        record t sinks pid b 0;
        current := d
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
        if choose_taken then begin
          record t sinks pid b 0;
          current := taken
        end
        else begin
          record t sinks pid b 1;
          current := fall
        end
    | Block.Call { callee; ret } ->
        record t sinks pid b 0;
        walk_proc t sinks callee (depth + 1) no_hints;
        current := ret
    | Block.Ijump targets ->
        let arm = Rng.weighted_index t.rng targets in
        record t sinks pid b arm;
        current := fst targets.(arm)
    | Block.Ret | Block.Halt ->
        record t sinks pid b 0;
        current := -1
  done

let call t ?(hints = []) pid =
  let sinks = frozen_sinks t in
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
