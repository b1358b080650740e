(** Figures 4 and 5: application instruction cache misses across cache size
    (32-512 KB) and line size (16-256 B), direct-mapped, isolated
    application stream; baseline vs fully optimized binaries, and the
    relative misses of optimized over baseline.

    Paper: 128-byte lines are the sweet spot for both binaries; the
    optimized binary reduces misses by ~55-65% at 64-128 KB, with larger
    relative gains at larger line and cache sizes (up to 256 KB). *)

val cache_sizes_kb : int list
val line_sizes : int list

type grid
(** Misses indexed by (cache size, line size) position in the lists above,
    built once from the battery — O(1) per cell. *)

type result = { base : grid; optimized : grid }

(** Replays the cached (Base, All) streams through the two 25-config
    batteries; falls back to rendering them from the recorded path when the
    streams could not be recorded. *)
val run : Context.t -> result

val misses : grid -> size_kb:int -> line:int -> int
(** @raise Invalid_argument on a size or line value not in the sweep. *)

val size_row : Table.t -> int -> Table.cell list -> unit
(** [size_row tbl kb cells] adds the row [<kb>kb], labelled [<kb>KB] in
    the first column: a cache-size row of Figs 4-7 and 12. *)

val tables : result -> Table.t list
