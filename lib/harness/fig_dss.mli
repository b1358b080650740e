(** Extension experiment: the same layout pipeline on a DSS workload.

    The paper repeatedly contrasts OLTP with decision support: DSS runs
    tight scan loops over a small instruction footprint, so layout
    optimization matters much less (§6).  This experiment profiles the DSS
    query engine, optimizes it with the identical pipeline, and compares
    miss reductions side by side with the OLTP numbers. *)

type row = { size_kb : int; base : int; optimized : int }

type result = {
  footprint_kb : int;  (** executed footprint of the DSS engine *)
  rows : row list;
  oltp_64k : int * int;  (** OLTP's (optimized, base) misses at 64 KB, for contrast *)
}

val run : Context.t -> result
val tables : result -> Table.t list
