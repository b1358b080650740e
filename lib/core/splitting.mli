(** Procedure splitting (paper §2, Figure 1b).

    Fine-grain splitting — the variant developed for the paper — cuts the
    chained code of a procedure at every unconditional branch or return, so
    each chain becomes a separate code segment ("a new procedure" in Spike's
    terms), giving the follow-on placement pass freedom to separate hot and
    cold paths at a fine granularity.  A chain is already such a segment,
    so {!Spike} builds fine-grain segments straight from the chains.

    Hot/cold splitting — the variant in the stock Spike distribution, kept
    here for the ablation benches — splits each procedure into just two
    segments: the blocks that executed during profiling, and the rest. *)

val record_cuts : Placement.rows array -> unit
(** Book one split of every procedure into the segments of its rows: the
    [core.split_segments_cut] counter takes the total and, while
    provenance is enabled, each procedure gets its ["splitting"] event
    (segments and blocks), in procedure order. *)

val hot_cold :
  Olayout_profile.Profile.t -> int -> int array -> lo:int -> hi:int -> int array * int array
(** [hot_cold profile pid chained ~lo ~hi]: stock-Spike splitting of
    procedure [pid]'s chained blocks [chained.(lo)] to [chained.(hi - 1)]
    into a hot segment (the blocks with a nonzero profile count) and a
    cold one (the rest), each in chained order; an empty one is dropped.
    A call block and its return glue move together: if either is hot, both
    are.  Returns the blocks, hot then cold, and the segment starts ending
    with the block count, as {!Placement.encode} reads them. *)
