(** The Spike-style optimizer (paper §2): one pass sequence — chaining, a
    segment stage, an order, address assignment — builds every layout,
    the paper's six combinations (Figure 7 / Figure 15) and the extension
    and ablation variants alike.

    Every build runs on a per-procedure memo ({!memo}): a from-scratch
    build is a rebuild of an empty memo with every procedure dirty, and
    {!Incremental}'s re-layout ticks rebuild only the dirty ones.  So a
    from-scratch layout and an incremental one are the same code, and
    byte-identical by construction. *)

type combo =
  | Base  (** Original compiler layout. *)
  | Porder  (** Pettis-Hansen over whole procedures only. *)
  | Chain  (** Basic-block chaining only. *)
  | Chain_split
      (** Chaining + fine-grain splitting, segments kept in natural order. *)
  | Chain_porder  (** Chaining + Pettis-Hansen over whole procedures. *)
  | All  (** Chaining + fine-grain splitting + Pettis-Hansen: "all". *)

val all_combos : combo list
(** In the paper's presentation order. *)

val combo_name : combo -> string

(** Every layout a driver builds.  Each is a segment stage, an order and a
    placer.  Optimized layouts pack segments at 4-byte alignment; [Base]
    keeps the compiler's 16. *)
type algo =
  | Combo of combo  (** The six Spike pipeline combinations. *)
  | Temporal of Olayout_profile.Temporal.t
      (** Chaining + fine-grain splitting + temporal ordering (Gloy et
          al.), as in the [temporal] figure. *)
  | Temporal_procs of Olayout_profile.Temporal.t
      (** Temporal ordering of whole procedures (the [temporal] figure). *)
  | Colored of { cache_bytes : int }
      (** Chaining + fine-grain splitting + Pettis-Hansen, placed by
          cache-line coloring ({!Coloring}), as in the [coloring] figure. *)
  | Colored_procs of { cache_bytes : int }
      (** Pettis-Hansen over whole procedures, placed by coloring. *)
  | Hot_cold
      (** Ablation: chaining + stock-Spike hot/cold splitting
          ({!Splitting.hot_cold}) + Pettis-Hansen. *)
  | Cfa of { cache_bytes : int; cfa_fraction : float }
      (** Ablation: "all" placed with a conflict-free area ({!Cfa}). *)
  | Hot_aligned
      (** Ablation: "all" with every segment whose head runs more than
          about once per measured transaction started on a 64-byte line. *)

val chained : algo -> bool
(** Does the recipe chain each procedure? *)

val ordered : algo -> bool
(** Does the recipe run an ordering pass (Pettis-Hansen or temporal)? *)

val build : algo -> Olayout_profile.Profile.t -> Placement.t
(** The from-scratch layout: a rebuild of an empty memo.  Each pass runs
    in its own telemetry span — ["chaining"], then the segment stage
    (["chaining"], ["splitting"] or ["hot_cold"]), then the order
    (["pettis_hansen"] or ["temporal_order"]), then the placer
    (["placement"], ["coloring"] or ["cfa"]).
    @raise Invalid_argument on a placer's bad parameters (see {!Coloring},
    {!Cfa}). *)

val optimize : Olayout_profile.Profile.t -> combo -> Placement.t
(** [build (Combo combo)], counted in [spike.optimize_calls] and run under
    an ["optimize"] span; while provenance is enabled it closes with one
    ["placement"] event per procedure. *)

(** {1 The memo} *)

type memo
(** Per procedure: its chaining shape, its segments encoded
    segment-relative ({!Placement.rows}) and its hot segments, plus the
    chaining and Pettis-Hansen working buffers. *)

val memoize : algo -> Olayout_profile.Profile.t -> memo * Placement.t
(** {!build}, keeping the memo. *)

val entry : memo -> int -> Placement.rows * int list
(** [entry m p]: procedure [p]'s encoded segments and its hot ones, the
    local segments whose head block has a count, in order (the ordering
    passes' hot singletons). *)

val rebuild : memo -> Olayout_profile.Profile.t -> dirty:int list -> Placement.t
(** Re-chain, re-cut and re-encode the [dirty] procedures under the new
    profile, then re-run the order and the placer over every procedure.
    Equal to [build] on the new profile when every procedure whose profile
    rows changed is in [dirty]: a procedure's entry depends on its own
    rows alone, and the order and placer are pure functions of (profile,
    segments). *)
