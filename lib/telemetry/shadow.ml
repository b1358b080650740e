(* One flag and one install/restore helper for the three instrument
   registries (Telemetry, Timeline, Provenance).  Each keeps its own
   shadow type and merge; this module only decides which shadow, if any,
   a write on the current domain lands in. *)

let parallel = ref false
let set_parallel b = parallel := b

type 'a slot = 'a option ref Domain.DLS.key

let slot () = Domain.DLS.new_key (fun () -> ref None)
let installed k = !(Domain.DLS.get k)

let within k shadow f =
  let cell = Domain.DLS.get k in
  let prev = !cell in
  cell := Some shadow;
  Fun.protect ~finally:(fun () -> cell := prev) f
