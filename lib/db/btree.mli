(** B+tree index: int64 keys to heap record ids, nodes stored in pages
    through the buffer pool.

    Inserts use preemptive splitting (full children are split on the way
    down), leaves are chained for range scans, and deletes remove leaf
    entries without rebalancing (like many production engines' lazy
    deletion; TPC-B never deletes).  The descent depth and split counts are
    reported through the hooks — they parameterize the synthetic B-tree
    procedures' loop trip counts, so real index shape drives the
    instruction trace. *)

type t

val create : Buffer.t -> Disk.t -> Hooks.t -> ?max_keys:int -> unit -> t
(** [max_keys] is the per-node key capacity (default 256; lower it in tests
    to force deep trees).  Must be in [4, 511] and even. *)

val clone : t -> Buffer.t -> Disk.t -> Hooks.t -> t
(** The same tree (root, height, entry count) over a clone of its pool and
    disk. *)

val search : t -> int64 -> Heap.rid option
(** Point lookup; reports [Btree_search] with the descent depth. *)

val insert : t -> int64 -> Heap.rid -> [ `Ok | `Duplicate ]
(** Insert a unique key; reports [Btree_insert] with depth and splits. *)

val delete : t -> int64 -> bool
(** Remove a key from its leaf; [false] when absent. *)

val iter : t -> (int64 -> Heap.rid -> unit) -> unit
(** All entries in ascending key order. *)

val iter_range : t -> lo:int64 -> hi:int64 -> (int64 -> Heap.rid -> unit) -> unit
(** Entries with [lo <= key <= hi], ascending. *)

val height : t -> int
(** Levels from root to leaf inclusive (1 for a lone leaf). *)

val n_entries : t -> int
