(** Conflict-free area placement (the CFA optimization of Ramirez et al.,
    "Software trace cache", evaluated and rejected for OLTP in the paper).

    The hottest code segments are packed into a contiguous region whose size
    is a fraction of the instruction cache; all remaining code is placed so
    that it never maps to the cache sets backing that region, guaranteeing
    the hot area is conflict-free.  The paper found OLTP's hot footprint too
    large for a reasonable CFA, so the optimization yielded no gains there —
    our ablation bench reproduces that negative result. *)

val place :
  Olayout_profile.Profile.t ->
  Placement.rows array ->
  order:int array ->
  cache_bytes:int ->
  cfa_fraction:float ->
  Placement.t
(** [place profile rows ~order ~cache_bytes ~cfa_fraction] sorts the
    segments of [order] hottest-first ({!Segment.heat}, stable), fills the
    conflict-free area with as many of the hottest segments as fit in
    [cfa_fraction * cache_bytes] (sized by {!Segment.max_bytes}), and lays
    out the rest so that none of their encoded bytes maps to the protected
    cache sets: a segment that would start on them, or run onto the next
    cache-sized period's, moves past them.  A segment wider than the
    unprotected window cannot keep that promise.  [cache_bytes] must be a
    power of two. *)

val hot_bytes_needed : Olayout_profile.Profile.t -> coverage:float -> int
(** Bytes of hottest code needed to cover [coverage] of dynamic execution —
    the feasibility metric that made the paper reject CFA for OLTP. *)
