(** The simulated disk: a growable array of page images.

    All I/O goes through here so the buffer pool and the log can report
    device traffic to the hooks (which the OLTP harness turns into kernel
    syscall episodes).  Reads of never-written pages return zeroed images,
    like a sparse file. *)

type t

val create : Hooks.t -> t
val allocate : t -> int
(** Reserve a fresh page number. *)

val n_pages : t -> int
val read : t -> int -> Page.t
(** A copy of the stored image. *)

val write : t -> int -> Page.t -> unit
(** Store a copy of the image. *)

val reads : t -> int
val writes : t -> int

val stored : t -> int -> Page.t option
(** The stored image itself, not a copy, and no I/O counted ([None] for a
    never-written page).  Stored images are never changed in place — a
    {!write} stores a new copy — so it may be shared, but must not be
    written. *)

val clone : t -> Hooks.t -> t
(** An independent device in [t]'s current state — same pages (their
    images shared, see {!stored}), same I/O counters — reporting to
    [hooks]. *)

val crash_copy : t -> t
(** An independent copy of the current on-device state (the recovery tests'
    "surviving disk"): same pages, fresh I/O counters, null hooks. *)
