(** Heap files: unordered record storage over the buffer pool.

    Records are addressed by stable record ids (page, slot).  Inserts fill
    the last page before allocating a new one — good enough for TPC-B,
    whose only growing table (history) is append-only. *)

type rid = { page : int; slot : int }

type t

val create : Buffer.t -> Disk.t -> Hooks.t -> t

val clone : t -> Buffer.t -> Disk.t -> Hooks.t -> t
(** The same heap file (its pages, in order) over a clone of its pool and
    disk. *)

val insert : t -> bytes -> rid
(** Store a record.  @raise Invalid_argument if it exceeds a page. *)

val fetch : t -> rid -> bytes option
val update : t -> rid -> bytes -> bool
(** Same-size in-place update; reports [Heap_update]. *)

val delete : t -> rid -> bool

val iter : t -> (rid -> bytes -> unit) -> unit
(** All live records, page order. *)

val n_pages : t -> int
val pages : t -> int list
(** Disk page numbers backing this heap, in allocation order. *)
