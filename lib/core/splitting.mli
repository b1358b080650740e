(** Procedure splitting (paper §2, Figure 1b).

    Fine-grain splitting — the variant developed for the paper — cuts the
    chained code of a procedure at every unconditional branch or return, so
    each chain becomes a separate code segment ("a new procedure" in Spike's
    terms), giving the follow-on placement pass freedom to separate hot and
    cold paths at a fine granularity.

    Hot/cold splitting — the variant in the stock Spike distribution, kept
    here for the ablation benches — splits each procedure into just two
    segments: the blocks that executed during profiling, and the rest. *)

val fine_grain : Olayout_profile.Profile.t -> Segment.t list
(** One segment per chain, for every procedure; procedures in original
    order, chains in chaining's emission order. *)

val record_cuts : n_procs:int -> segments:(int -> int) -> blocks:(int -> int) -> unit
(** Book one fine-grain build of procedures [0 .. n_procs-1], procedure
    [pid] cut into [segments pid] segments holding [blocks pid] blocks:
    the [core.split_segments_cut] counter takes the total and, while
    provenance is enabled, each procedure gets its ["splitting"] event, in
    procedure order.  {!fine_grain} books through this; so does
    {!Incremental}, which keeps the segments themselves. *)

val hot_cold : ?threshold:int -> Olayout_profile.Profile.t -> Segment.t list
(** Stock-Spike splitting: per procedure, a hot segment (chained blocks with
    profile count > [threshold], default 0) and a cold segment (the rest, in
    source order).  A call block and its return glue move together: if
    either is hot, both are. *)
