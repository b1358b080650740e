open Olayout_ir
module Profile = Olayout_profile.Profile

(* A profile delta: which procedures' weight vectors moved between two
   profiles of the same program.  Dirtiness is conservative and exact at
   procedure granularity — a procedure is dirty iff any of its block or arm
   counts differ — which is precisely the granularity the per-procedure
   pipeline passes consume: Chaining.chain_proc reads only the procedure's
   own rows (proc_flow_edges + block counts), so a clean procedure's chains
   are bitwise-reusable.  The global passes (Pettis-Hansen, temporal order,
   coloring, placement) read cross-procedure state and must re-run whenever
   the delta is non-empty; Incremental owns that decision. *)

type t = {
  prog : Prog.t;
  dirty : bool array;
  n_dirty : int;
  new_hot : int;  (* procedures whose total count went 0 -> nonzero *)
  gone_cold : int;  (* nonzero -> 0 *)
  blocks_changed : int;
  arms_changed : int;
}

let diff old_p new_p =
  let prog = Profile.prog old_p in
  if not (Profile.same_shape old_p new_p) then
    invalid_arg "Delta.diff: profiles of different programs";
  let n = Prog.n_procs prog in
  let dirty = Array.make n false in
  let n_dirty = ref 0 in
  let new_hot = ref 0 and gone_cold = ref 0 in
  let blocks_changed = ref 0 and arms_changed = ref 0 in
  for pid = 0 to n - 1 do
    if not (Profile.proc_equal old_p new_p pid) then begin
      dirty.(pid) <- true;
      incr n_dirty;
      let p = Prog.proc prog pid in
      let old_total = ref 0 and new_total = ref 0 in
      for b = 0 to Proc.n_blocks p - 1 do
        let co = Profile.block_count old_p ~proc:pid ~block:b in
        let cn = Profile.block_count new_p ~proc:pid ~block:b in
        old_total := !old_total + co;
        new_total := !new_total + cn;
        if co <> cn then incr blocks_changed;
        let blk = Proc.block p b in
        for arm = 0 to Block.arm_count blk - 1 do
          if
            Profile.arm_count old_p ~proc:pid ~block:b ~arm
            <> Profile.arm_count new_p ~proc:pid ~block:b ~arm
          then incr arms_changed
        done
      done;
      if !old_total = 0 && !new_total > 0 then incr new_hot;
      if !old_total > 0 && !new_total = 0 then incr gone_cold
    end
  done;
  {
    prog;
    dirty;
    n_dirty = !n_dirty;
    new_hot = !new_hot;
    gone_cold = !gone_cold;
    blocks_changed = !blocks_changed;
    arms_changed = !arms_changed;
  }

let prog t = t.prog
let n_procs t = Array.length t.dirty
let is_dirty t pid = t.dirty.(pid)
let n_dirty t = t.n_dirty
let is_empty t = t.n_dirty = 0
let new_hot t = t.new_hot
let gone_cold t = t.gone_cold
let blocks_changed t = t.blocks_changed
let arms_changed t = t.arms_changed

let dirty_procs t =
  let acc = ref [] in
  for pid = Array.length t.dirty - 1 downto 0 do
    if t.dirty.(pid) then acc := pid :: !acc
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf
    "delta: %d/%d procs dirty (%d newly hot, %d gone cold), %d blocks / %d \
     arms changed"
    t.n_dirty (n_procs t) t.new_hot t.gone_cold t.blocks_changed
    t.arms_changed
