open Olayout_ir

(* Windowed profile capture: one {!Profile.t} per fixed-width span of the
   walked instruction stream, on the same producer-local clock as
   {!Sampler} (positions advance by each block's source-encoding size, so
   the windows line up with every other instruction-clock series).  The
   sink is pure bookkeeping on the dispatching domain — drift analysis
   runs over the finished windows after the walk, never inside it. *)

type t = {
  prog : Prog.t;
  window : int;
  mutable profiles : Profile.t option array;
  mutable n : int;  (* windows in use: highest written index + 1 *)
  mutable position : int;  (* source instructions observed so far *)
  mutable events : int;
}

let create ?window prog =
  let window =
    match window with Some w -> w | None -> Olayout_telemetry.Timeline.window ()
  in
  if window < 1 then invalid_arg "Windowed.create: window must be >= 1 instruction";
  { prog; window; profiles = [||]; n = 0; position = 0; events = 0 }

let ensure t w =
  if w >= Array.length t.profiles then begin
    let cap = max (w + 1) (max 16 (2 * Array.length t.profiles)) in
    let p = Array.make cap None in
    Array.blit t.profiles 0 p 0 t.n;
    t.profiles <- p
  end

(* The event is attributed to the window containing its *start* position
   (matching Timeline.Series.add's convention for run deltas). *)
let sink t ~proc ~block ~arm =
  let w = t.position / t.window in
  ensure t w;
  let profile =
    match t.profiles.(w) with
    | Some p -> p
    | None ->
        let p = Profile.create t.prog in
        t.profiles.(w) <- Some p;
        p
  in
  Profile.record profile ~proc ~block ~arm;
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
  match t.profiles.(w) with Some p -> p | None -> Profile.create t.prog

(* Merge the half-open window range [lo, hi) into one profile (the
   per-phase grouping of the staleness matrix), summing in place. *)
let merged t ~lo ~hi =
  let acc = Profile.create t.prog in
  for w = max 0 lo to min t.n hi - 1 do
    match t.profiles.(w) with
    | Some p -> Profile.merge_into ~into:acc p
    | None -> ()
  done;
  acc
