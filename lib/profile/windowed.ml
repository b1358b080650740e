open Olayout_ir

(* Windowed profile capture: one {!Profile.t} per fixed-width span of the
   walked instruction stream, on the same producer-local clock as
   {!Sampler} (positions advance by each block's source-encoding size, so
   the windows line up with every other instruction-clock series).  The
   sink is pure bookkeeping on the dispatching domain — drift analysis
   runs over the finished windows after the walk, never inside it. *)

(* A window's profile and the procedures its sink recorded into. *)
type slot = { profile : Profile.t; touched : bool array }

type t = {
  prog : Prog.t;
  window : int;
  mutable slots : slot option array;
  mutable n : int;  (* windows in use: highest written index + 1 *)
  mutable position : int;  (* source instructions observed so far *)
  mutable events : int;
}

let create ?window prog =
  let window =
    match window with Some w -> w | None -> Olayout_telemetry.Timeline.window ()
  in
  if window < 1 then invalid_arg "Windowed.create: window must be >= 1 instruction";
  { prog; window; slots = [||]; n = 0; position = 0; events = 0 }

let ensure t w =
  if w >= Array.length t.slots then begin
    let cap = max (w + 1) (max 16 (2 * Array.length t.slots)) in
    let p = Array.make cap None in
    Array.blit t.slots 0 p 0 t.n;
    t.slots <- p
  end

(* The event is attributed to the window containing its *start* position
   (matching Timeline.Series.add's convention for run deltas). *)
let sink t ~proc ~block ~arm =
  let w = t.position / t.window in
  ensure t w;
  let slot =
    match t.slots.(w) with
    | Some s -> s
    | None ->
        let s =
          { profile = Profile.create t.prog; touched = Array.make (Prog.n_procs t.prog) false }
        in
        t.slots.(w) <- Some s;
        s
  in
  Profile.record slot.profile ~proc ~block ~arm;
  slot.touched.(proc) <- true;
  if w + 1 > t.n then t.n <- w + 1;
  t.events <- t.events + 1;
  let len = Block.source_instrs (Proc.block (Prog.proc t.prog proc) block) in
  t.position <- t.position + max len 1

let window t = t.window
let windows t = t.n
let instrs t = t.position
let events t = t.events

let profile t w =
  if w < 0 || w >= t.n then invalid_arg "Windowed.profile: window out of range";
  match t.slots.(w) with Some s -> s.profile | None -> Profile.create t.prog

(* Merge the half-open window range [lo, hi) into one profile (the
   per-phase grouping of the staleness matrix), summing in place the
   procedures each window touched: a window's other rows are zero. *)
let merged t ~lo ~hi =
  let acc = Profile.create t.prog in
  for w = max 0 lo to min t.n hi - 1 do
    match t.slots.(w) with
    | Some s ->
        Array.iteri
          (fun pid touched -> if touched then Profile.merge_proc_into ~into:acc s.profile pid)
          s.touched
    | None -> ()
  done;
  acc
