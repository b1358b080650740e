(** Figure 6: impact of associativity (direct-mapped vs 4-way, 128-byte
    lines) on baseline and optimized binaries, isolated application stream.

    Paper: at realistic sizes (32-128 KB) associativity matters little —
    capacity dominates — and the layout optimizations are worth much more
    than added associativity. *)

type result = {
  rows : (int * int * int * int * int) list;
      (** (size KB, base DM, base 4-way, opt DM, opt 4-way) *)
}

val run : Context.t -> result
val tables : result -> Table.t list
