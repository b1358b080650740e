(** Placement validity: every block of the program placed exactly once,
    no two blocks overlapping. *)

val check :
  Olayout_ir.Prog.t ->
  ((proc:int -> block:int -> addr:int -> instrs:int -> unit) -> unit) ->
  (unit, string) result
(** [check prog iter] validates the blocks [iter] reports, which must come
    in ascending address order (as {!Olayout_core.Placement.iter_placed}
    gives them).  The error names the first offending block. *)

val placement : Olayout_core.Placement.t -> (unit, string) result
(** [check] over a placement's own blocks. *)
