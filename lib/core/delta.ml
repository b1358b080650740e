open Olayout_ir
module Profile = Olayout_profile.Profile

(* A profile delta: which procedures' weight vectors moved between two
   profiles of the same program.  Dirtiness is conservative and exact at
   procedure granularity — a procedure is dirty iff any of its block or arm
   counts differ — which is precisely the granularity the per-procedure
   pipeline passes consume: Chaining.chain writes each procedure's chains
   into the memo's buffers from the procedure's own rows alone (its arm
   counts and block counts), so a clean procedure's encoded chains are
   bitwise-reusable.  The global passes (Pettis-Hansen, temporal
   order, coloring, placement) read cross-procedure state and must re-run
   whenever the delta is non-empty; Incremental owns that decision.  The
   diff compares the two profiles' rows procedure by procedure; a
   procedure neither profile counted shares the zero rows in both and is
   clean without a read. *)

type t = { prog : Prog.t; dirty : bool array; n_dirty : int }

let diff old_p new_p =
  let prog = Profile.prog old_p in
  if not (Profile.same_shape old_p new_p) then
    invalid_arg "Delta.diff: profiles of different programs";
  let dirty = Array.init (Prog.n_procs prog) (fun pid -> not (Profile.proc_equal old_p new_p pid)) in
  { prog; dirty; n_dirty = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty }

let prog t = t.prog
let n_procs t = Array.length t.dirty
let is_dirty t pid = t.dirty.(pid)
let n_dirty t = t.n_dirty
let is_empty t = t.n_dirty = 0

let dirty_procs t =
  let acc = ref [] in
  for pid = Array.length t.dirty - 1 downto 0 do
    if t.dirty.(pid) then acc := pid :: !acc
  done;
  !acc
