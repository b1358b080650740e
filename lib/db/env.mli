(** Database environment: one disk, buffer pool, log, lock manager and
    transaction manager wired to a common hook sink. *)

type t = {
  hooks : Hooks.t;
  disk : Disk.t;
  buffer : Buffer.t;
  wal : Wal.t;
  locks : Lock.t;
  txns : Txn.manager;
}

val create : ?frames:int -> Hooks.t -> t
(** [frames] is the buffer pool size in pages (default 2048 = 16 MB). *)

val clone : t -> Hooks.t -> t
(** An independent environment reporting to [hooks], whose disk and buffer
    pool start in [t]'s exact state ({!Disk.clone}, {!Buffer.clone}), with
    a fresh log, lock table and transaction manager.  Meant for a quiescent
    [t] — no active transaction, no log record — whose log, locks and
    transactions are then in their initial state anyway. *)

val checkpoint : t -> int
(** Flush all dirty pages (write-ahead rule respected), force the log and
    truncate it up to the oldest LSN still needed (the oldest active
    transaction's [Begin], or the durable end when quiescent).  Returns the
    new {!Wal.base_lsn}.  After a crash, {!Recovery.recover} on the
    truncated log plus the flushed disk restores full consistency. *)
