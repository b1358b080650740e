(** The TPC-B banking workload (paper §3.1) on the mini engine.

    Four tables: branch, teller, account (each with a B+tree on their id)
    and the append-only history.  A transaction picks an account, updates
    its balance and the balances of a teller and of the account's branch,
    and appends a history row — all under exclusive row locks in the fixed
    order account, teller, branch (deadlock-free), committing through the
    WAL.

    The invariant used by the consistency tests (and by TPC-B's own audit
    rules): for every branch, branch.balance = sum of its accounts' deltas =
    sum of its tellers' deltas = sum of history deltas for that branch. *)

type config = {
  branches : int;
  tellers_per_branch : int;
  accounts_per_branch : int;
  buffer_frames : int;
}

val default_config : config
(** 40 branches (as in the paper's 900 MB database, scaled down in rows per
    branch), 10 tellers and 2,000 accounts per branch, 16 MB buffer pool. *)

type t

val env : t -> Env.t
val config : t -> config

val setup : ?config:config -> Hooks.t -> t
(** A freshly bulk-loaded database reporting to [hooks] (the load itself
    has no WAL traffic; it mirrors the paper's pre-profiling warm-up).
    The load runs once per [config], into an image kept for the life of
    the process; each call returns an independent database over that
    image, in exactly the state {!load} would leave, without repeating the
    load or reporting its events.  Safe to call from any domain. *)

val load : ?config:config -> Hooks.t -> t
(** Bulk-load a database from scratch, reporting the load's own events to
    [hooks]: what {!setup}'s image is built from, and the reference the
    tests compare {!setup} against. *)

type input = { aid : int; tid : int; bid : int; delta : int }

val gen_input : t -> Olayout_util.Rng.t -> input
(** TPC-B §5 input generation: a uniformly random teller; 85% of the time
    the account is local to the teller's branch, 15% remote. *)

val run :
  t -> wait:(Lock.key -> unit) -> input -> [ `Committed | `Aborted ]
(** Execute one transaction.  [wait] is called each time a lock request must
    wait (the server's scheduler yield); it must eventually return. *)

val account_balance : t -> int -> int64
val branch_balance : t -> int -> int64
val teller_balance : t -> int -> int64
val history_rows : t -> int

val check_consistency : t -> (unit, string) result
(** Verify the per-branch balance invariant across all four tables. *)

val data_pages : t -> int list
(** All heap pages of the four tables (for the data-reference model). *)
