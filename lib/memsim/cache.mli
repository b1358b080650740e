(** Generic set-associative LRU cache over single byte addresses.

    Used for the L1 data cache, the unified L2 and the board-level cache in
    the Figure 14 and in-text experiments.  Accesses are classified by
    {!kind} purely for statistics; all kinds share the same storage — which
    is what makes the paper's L2 observation emerge: packing the code
    better means instruction lines displace fewer data lines. *)

type kind = Instr | Data
(** Statistics class of an access.  [Instr] covers L1I-miss refills reaching
    a unified level; [Data] covers data references ([Data] is also the
    convention for untyped streams such as the board cache). *)

type t

val create :
  ?on_miss:(int -> unit) ->
  name:string ->
  size_bytes:int ->
  line_bytes:int ->
  assoc:int ->
  unit ->
  t
(** A cache on the {!Olayout_cachesim.Lru} core, the access kind as its
    owner code.  [on_miss] fires with the missing line's byte address on
    every miss. *)

val access : t -> kind:kind -> int -> unit
(** [access t ~kind addr] looks up the line containing [addr]. *)

val name : t -> string
val accesses : t -> int
val misses : t -> int
val misses_kind : t -> kind -> int
val accesses_kind : t -> kind -> int
