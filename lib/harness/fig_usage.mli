(** Figures 9, 10 and 11: spatial/temporal line-usage metrics at a 128 KB /
    128-byte-line / 4-way cache, isolated application stream.

    - Fig 9: unique words (instructions) used in a line before replacement —
      the optimized binary uses the full 128-byte line before replacement in
      over 60% of replacements.
    - Fig 10: times each fetched word is used before replacement — over
      half the fetched words are never used in the baseline; the optimized
      binary has far fewer unused and more multiply-used words.
    - Fig 11: line lifetimes in cache accesses (log2 buckets) — mean
      lifetime more than doubles. *)

type histo = (int * float) list

type result = {
  base_words : histo;  (** Fig 9: fraction of replacements per unique-word count *)
  opt_words : histo;
  base_reuse : histo;  (** Fig 10: fraction of fetched words per use count *)
  opt_reuse : histo;
  base_life : histo;  (** Fig 11: fraction of replacements per log2 lifetime *)
  opt_life : histo;
  base_mean_life : float;
  opt_mean_life : float;
  base_unused : int * int;  (** (fetched words never used, words fetched) *)
  opt_unused : int * int;
}

val unused_words : Olayout_cachesim.Icache.t -> int * int
(** (fetched words never used, words fetched) of a usage-tracked cache
    whose residents were flushed. *)

val run : Context.t -> result
val tables : result -> Table.t list
