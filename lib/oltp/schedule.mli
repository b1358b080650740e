(** Deterministic mid-run workload mix-shift for the drift observatory.

    A schedule partitions a run's measured transactions into equal slots
    and assigns each slot a phase:

    - {!Tpcb} — the stock TPC-B §5 input mix;
    - {!Tpcb_skewed} — TPC-B with [hot_pct]% of tellers drawn from one hot
      branch (key-skew rotation);
    - {!Scan} — a DSS-style read-only query probing [rows] account
      balances of one branch (B-tree search / heap fetch / buffer paths
      only: no locks, no log, no updates).

    Phase assignment depends only on the schedule and the measured
    transaction index, so a scheduled run is exactly as deterministic as an
    unscheduled one. *)

type phase =
  | Tpcb
  | Tpcb_skewed of { hot_branch : int; hot_pct : int }
  | Scan of { rows : int }

type t

val create : phase list -> t
(** One slot per listed phase, in order.
    @raise Invalid_argument on an empty list, [hot_pct] outside 0..100 or
    [rows < 1]. *)

val rotation : slots:int -> t
(** The default drift workload: [slots] slots rotating
    tpcb, scan, skewed-tpcb, tpcb, ... with the hot branch advancing on
    every skewed slot.
    @raise Invalid_argument when [slots < 1]. *)

val slots : t -> int
val slot_phase : t -> int -> phase
(** Wraps modulo {!slots}. *)

val assign : t -> txns:int -> int -> phase
(** [assign t ~txns i] is the phase of measured transaction [i] (0-based,
    clamped into [0, txns)) when [txns] transactions are measured: slot
    boundaries fall at equal transaction counts. *)

val phase_name : phase -> string
(** ["tpcb"] / ["tpcb_skewed"] / ["scan"]. *)

val slot_names : t -> string array

val signature : t -> string
(** Canonical identity, e.g. ["tpcb+scan24+skew0:80"].  Equal signatures
    imply identical transaction assignment, so the signature is the
    schedule component of {!Olayout_harness.Context}'s scheduled-capture
    key. *)

val scan_rows_default : int
(** Probe count of {!rotation}'s scan slots — sized so a scan's
    instruction volume is comparable to a TPC-B transaction's. *)
