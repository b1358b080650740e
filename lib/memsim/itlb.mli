(** Instruction TLB simulator: one set of [entries] ways of the
    {!Olayout_cachesim.Lru} core over {!Phys.page_bytes} pages, fed
    instruction-fetch runs.  The paper's simulated Alpha has a 64-entry
    fully associative iTLB over 8 KB pages; the 21164 has 48 entries. *)

type t

val create : entries:int -> unit -> t
(** @raise Invalid_argument unless [entries >= 1]. *)

val access_run : t -> Olayout_exec.Run.t -> unit

val accesses : t -> int
(** Page lookups: one per page a run touches, none when [len <= 0]. *)

val misses : t -> int
val unique_pages : t -> int
(** Distinct instruction pages ever touched (code footprint in pages). *)
