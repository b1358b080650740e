(** The paper's in-text measurements (§4.1 and §5):

    - footprint in unique 128-byte cache lines: 500 KB baseline vs 315 KB
      optimized (37% smaller), and the fraction of fetched instructions
      never used (46% vs 21%);
    - the 21164 AlphaServer hardware-counter numbers: 28% fewer
      instruction misses (8 KB L1I), 43% fewer iTLB misses (48 entries),
      39% fewer board-cache misses (2 MB direct-mapped). *)

type result = {
  base_lines_kb : int;
  opt_lines_kb : int;
  base_unused : int * int;  (** (fetched words never used, words fetched) *)
  opt_unused : int * int;
  base_l1i_8k : int;
  opt_l1i_8k : int;
  base_itlb_48 : int;
  opt_itlb_48 : int;
  base_board : int;
  opt_board : int;
}

val run : Context.t -> result
val tables : result -> Table.t list
