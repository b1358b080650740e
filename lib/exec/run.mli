(** Instruction-fetch runs.

    The executor does not emit one event per instruction; it emits maximal
    *runs* of sequentially fetched instructions (the paper's "sequentially
    executed instructions between control breaks", Figure 8).  A run is
    broken by any taken control transfer, by a call or return, and by a
    stream switch (context switch or kernel entry). *)

type owner = App | Kernel

type t = { owner : owner; addr : int; len : int }
(** [len] instructions fetched starting at byte address [addr]. *)

val owner_name : owner -> string
