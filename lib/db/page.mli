(** Slotted pages: the on-"disk" unit of storage (8 KB).

    Layout: a header (slot count, free-space pointer), a slot directory
    growing down from the header (one (offset, length) entry per slot) and
    record payloads growing up from the end of the page.  Deleted slots keep
    their directory entry with length 0 (tombstone); record ids therefore
    stay stable.  Free space is not compacted — like most real engines we
    rely on page reuse, and the workload's history table is append-only. *)

type t

val size : int
(** Page size in bytes (8192). *)

val create : unit -> t
(** A fresh empty page. *)

val of_bytes : bytes -> t
(** Adopt a raw image (for disk reads).  @raise Invalid_argument on size
    mismatch. *)

val to_bytes : t -> bytes
(** The backing image (not a copy). *)

val copy : t -> t

val n_slots : t -> int

val free_space : t -> int
(** Bytes available for a new record (slot entry included). *)

val insert : t -> bytes -> int option
(** [insert p rec] adds a record, returning its slot number, or [None] if it
    does not fit. *)

val read : t -> int -> bytes option
(** [read p slot] is the record payload, [None] if deleted/out of range. *)

val delete : t -> int -> bool
(** Tombstone a slot; false if already deleted or out of range. *)

val update : t -> int -> bytes -> bool
(** In-place update; only succeeds when the new payload's length equals the
    old one (fixed-width rows, as in the TPC-B schema). *)

val iter : t -> (int -> bytes -> unit) -> unit
(** Live records in slot order. *)
