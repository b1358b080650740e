(** Pure divergence metrics between two execution profiles of the same
    program.

    All metrics are scale-invariant — each profile is normalized by its own
    mass — so a single-window slice compares meaningfully against a full
    training profile, and all results are integer permille: the drift
    artifacts that carry them must be byte-identical across [-j] values and
    sweep engines.  The metrics read {!summary} values, so a series that
    compares each window with its predecessor and with the training
    profile reads each profile once. *)

module Profile = Olayout_profile.Profile

type summary
(** A profile's caller->callee edge weights and its procedures ranked by
    dynamic-instruction weight (source encoding): all the metrics below
    read of it. *)

val summarize : Profile.t -> summary
(** One pass over the profile's nonzero block counts. *)

val l1_edge_permille : summary -> summary -> int
(** Halved L1 distance between the normalized caller->callee edge-weight
    vectors (call-site counts aggregated per pair), in [0, 1000]:
    0 = identical distributions, 1000 = disjoint edge sets.  A profile with
    no calls is at distance 1000 from any profile with calls. *)

val hotset_jaccard_permille : k:int -> summary -> summary -> int
(** Jaccard {e similarity} of the two top-[k] procedure hot sets (by
    weight, ties toward the lower procedure id), in permille:
    1000 = identical hot sets.
    @raise Invalid_argument when [k < 1]. *)

val rank_churn_permille : k:int -> summary -> summary -> int
(** Weight-normalized rank displacement over the union of the two top-[k]
    sets, in permille: 0 = same ranking, 1000 = fully swapped.
    @raise Invalid_argument when [k < 1]. *)
