(* The walker as it was before its loop had one event site, kept as the
   test oracle for Olayout_exec.Walk: every terminator kind counts and
   sinks its own event, through [record], and the source size comes from
   [Block.source_instrs].  Given the same program, hints and RNG state, the
   production walker must send the sinks the same events, count the same
   blocks and instructions, and leave the RNG in the same state. *)

open Olayout_ir
module Rng = Olayout_util.Rng

type sink = proc:int -> block:int -> arm:int -> unit

type t = {
  procs : Proc.t array;
  rng : Rng.t;
  mutable sinks : sink list;  (* registration order *)
  mutable instrs : int;
  mutable blocks : int;
}

let create ~prog ~rng = { procs = prog.Prog.procs; rng; sinks = []; instrs = 0; blocks = 0 }
let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

type hint = { block : Block.id; trips : int; mutable left : int }

let record t pid (b : Block.t) arm =
  t.blocks <- t.blocks + 1;
  t.instrs <- t.instrs + Block.source_instrs b;
  List.iter (fun sink -> sink ~proc:pid ~block:b.Block.id ~arm) t.sinks

let rec walk_proc t pid depth hints =
  if depth > 64 then invalid_arg "Walk.call: call depth exceeded (recursion?)";
  let p = t.procs.(pid) in
  let current = ref p.Proc.entry in
  while !current >= 0 do
    let bid = !current in
    let b = p.Proc.blocks.(bid) in
    match b.Block.term with
    | Block.Fall d | Block.Jump d ->
        record t pid b 0;
        current := d
    | Block.Cond { taken; fall; p_taken } ->
        (* The last hint given for a block wins. *)
        let choose_taken =
          match List.find_opt (fun h -> h.block = bid) (List.rev hints) with
          | Some h ->
              let hot_is_taken = p_taken >= 0.5 in
              if h.left > 0 then begin
                h.left <- h.left - 1;
                hot_is_taken
              end
              else begin
                h.left <- h.trips;
                not hot_is_taken
              end
          | None -> Rng.bool t.rng p_taken
        in
        if choose_taken then begin
          record t pid b 0;
          current := taken
        end
        else begin
          record t pid b 1;
          current := fall
        end
    | Block.Call { callee; ret } ->
        record t pid b 0;
        walk_proc t callee (depth + 1) [];
        current := ret
    | Block.Ijump targets ->
        let arm = Rng.weighted_index t.rng targets in
        record t pid b arm;
        current := fst targets.(arm)
    | Block.Ret | Block.Halt ->
        record t pid b 0;
        current := -1
  done

let call t ?(hints = []) pid =
  walk_proc t pid 0 (List.map (fun (block, n) -> { block; trips = n; left = n }) hints)

let instrs_executed t = t.instrs
let blocks_executed t = t.blocks
