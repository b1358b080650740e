(** A fixed Domain work pool with deterministic telemetry merge.

    The pool owns [jobs - 1] worker domains (the dispatching domain is the
    [jobs]-th executor: it helps run queued tasks while it waits).  Every
    task runs inside {!Olayout_telemetry.Telemetry.Isolated.capture}, so
    counters/gauges/histograms/spans written on a worker accumulate in a
    domain-local shadow registry; snapshots are merged back into the global
    registry {e in submission order} when the dispatcher collects results.
    Deterministic metrics are therefore identical between [jobs = 1] and
    [jobs = N] — the property the regression gate enforces.

    At [jobs = 1] no domains are spawned, parallel mode stays off, and
    {!submit} runs its thunk inline: the serial code path is unchanged.

    Tasks are submitted from the dispatching domain only: a task runs to
    completion without submitting or awaiting others. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ()] sizes the pool by [Domain.recommended_domain_count ()];
    [~jobs] overrides (clamped to >= 1).  With [jobs > 1] this spawns the
    worker domains and flips telemetry into parallel mode. *)

val jobs : t -> int
(** Degree of parallelism, including the dispatching domain. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue one task.  At [jobs = 1] the thunk runs immediately on the
    calling domain and {!await} just returns.
    @raise Invalid_argument when called from inside a pool task. *)

val await : 'a future -> 'a
(** Block until the future settles, helping run queued tasks while
    waiting.  On first await of a settled task, merges its telemetry
    snapshot (successes only) — so awaiting futures in submission order
    yields the serial merge order.  Re-raises the task's exception with its
    original backtrace if it failed. *)

val await_snapshot :
  'a future -> 'a * Olayout_telemetry.Telemetry.Isolated.snapshot option
(** As {!await}, additionally returning the task's merged telemetry
    snapshot so the caller can attribute per-task counter deltas (e.g. the
    per-figure rows of the bench artifact).  [None] for tasks that ran
    inline (their writes went to the enclosing registry directly). *)

type stats = {
  st_jobs : int;
  st_tasks : int;  (** tasks executed (workers + dispatcher helping) *)
  st_helped : int;  (** tasks the dispatching domain ran while waiting *)
  st_idle_s : float;  (** cumulative seconds workers spent waiting for work *)
}

val stats : t -> stats

val publish_stats : t -> unit
(** Set the [par.jobs], [par.tasks], [par.helped_tasks] and
    [par.idle_seconds] gauges from {!stats} (idempotent; call from the
    dispatching domain before the bench artifact is written). *)

val shutdown : t -> unit
(** Drain nothing (callers must have collected their futures), close the
    queue, join the workers and leave telemetry parallel mode.  Idempotent. *)
