(** Buffer pool: fixed set of in-memory frames caching disk pages, with LRU
    replacement, pin counts and dirty tracking.

    The paper's workload caches all tables in memory after warm-up; sizing
    the pool appropriately reproduces that (high hit rates, occasional
    misses on cold data), while a small pool produces an I/O-bound variant
    used by the examples. *)

type t

val create : ?before_page_write:(unit -> unit) -> Disk.t -> Hooks.t -> frames:int -> t
(** [before_page_write] runs before any dirty page is written back — the
    write-ahead rule: {!Env} wires it to [Wal.force] so a stolen page's log
    records are durable before the page is (recovery depends on this). *)

val pin : t -> int -> Page.t
(** [pin t page] fixes [page] in the pool and returns its frame contents
    (mutable — callers update in place and call {!mark_dirty}; never
    shared with another pool or the disk).
    Reports [Buffer_hit]/[Buffer_miss] and a [Page_touch].
    @raise Failure when every frame is pinned. *)

val unpin : t -> int -> unit
(** Release one pin.  @raise Invalid_argument if not pinned. *)

val mark_dirty : t -> int -> unit
(** Record that the frame holding [page] was modified (page must be pinned
    or resident). *)

val with_page : t -> int -> ?dirty:bool -> (Page.t -> 'a) -> 'a
(** Pin, apply, optionally mark dirty, unpin (exception-safe). *)

val flush_all : t -> unit
(** Write back every dirty resident page. *)

val freeze : t -> unit
(** Make [t] a source for {!clone}: flush, then let every resident frame
    hold its page's stored disk image itself ({!Disk.stored}) instead of a
    copy of it, so the pool costs one copy of each page, not two.  Frames
    are then shared: a pin copies its frame first, so the disk image is
    never written through.
    @raise Invalid_argument if a frame is pinned. *)

val clone : t -> ?before_page_write:(unit -> unit) -> Disk.t -> Hooks.t -> t
(** A pool over [disk] in frozen [t]'s exact state: the same resident pages
    in the same frames, LRU clock and ages, hit and miss counts.  Each
    frame shares [t]'s contents until its first pin, which copies them, so
    cloning only reads [t] and no clone sees another's writes.  [disk]
    should be a {!Disk.clone} of [t]'s disk.
    @raise Invalid_argument if a frame of [t] has been pinned since
    {!freeze} (since {!create}, for a pool never frozen). *)

val hits : t -> int
val misses : t -> int
val resident : t -> int
