(** Extension experiment: sequential prefetching ("stream buffers").

    The paper's §6 suggests, citing Ranganathan et al., that code layout
    optimizations can enhance instruction stream buffers by lengthening
    sequential runs.  This experiment measures a 64 KB cache with 0, 1 and
    3 lines of sequential prefetch on demand misses, for the baseline and
    optimized binaries (isolated application stream), quantifying how the
    two techniques overlap. *)

type row = {
  prefetch : int;
  base_misses : int;
  base_useful : int * int;  (** (prefetched lines referenced, lines prefetched) *)
  opt_misses : int;
  opt_useful : int * int;
}

type result = { rows : row list }

val run : Context.t -> result
val tables : result -> Table.t list
