(** Cache-line-coloring procedure placement (Hashemi, Kaeli & Calder,
    PLDI'97; also Kalamaitianos & Kaeli — both cited in the paper's §6).

    Instead of only packing related code close together (Pettis-Hansen),
    coloring tracks which cache lines ("colors") of a target direct-mapped
    cache the already-placed hot code occupies, and inserts small gaps so a
    newly placed hot segment avoids the most contended colors.  The paper
    argues such placement-only schemes are ineffective for OLTP without
    chaining and splitting; the [coloring] ablation measures this
    implementation against Pettis-Hansen on equal (chained + split)
    segments. *)

val max_gap_lines : int
(** The widest gap a hot segment may be shifted by: 16 cache lines. *)

val place :
  Olayout_profile.Profile.t -> Placement.rows array -> order:int array -> cache_bytes:int -> Placement.t
(** Place the segments of [rows] in [order] (segment numbers, as in
    {!Placement.of_rows}), shifting each hot segment by up to
    {!max_gap_lines} cache lines to the start whose colors carry the least
    already-placed execution heat.  A segment's heat is
    {!Segment.heat} and its size {!Segment.max_bytes}.  Cold segments (zero
    heat) are packed without gaps.  [cache_bytes] must be a power of two. *)
