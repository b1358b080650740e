type t = {
  hooks : Hooks.t;
  disk : Disk.t;
  buffer : Buffer.t;
  wal : Wal.t;
  locks : Lock.t;
  txns : Txn.manager;
}

let make hooks disk buffer =
  let wal = Wal.create hooks in
  (* Write-ahead rule: log records are forced before any dirty page. *)
  let buffer = buffer ~before_page_write:(fun () -> Wal.force wal) in
  let locks = Lock.create hooks in
  let txns = Txn.manager wal locks hooks in
  { hooks; disk; buffer; wal; locks; txns }

let create ?(frames = 2048) hooks =
  let disk = Disk.create hooks in
  make hooks disk (fun ~before_page_write ->
      Buffer.create ~before_page_write disk hooks ~frames)

let clone t hooks =
  let disk = Disk.clone t.disk hooks in
  make hooks disk (fun ~before_page_write ->
      Buffer.clone t.buffer ~before_page_write disk hooks)

let checkpoint t =
  (* Flush every dirty page (each flush forces the log first), force the
     tail, then drop log records nothing can still need: everything before
     min(durable+1, oldest active transaction's Begin). *)
  Buffer.flush_all t.buffer;
  Wal.force t.wal;
  let keep_from =
    match Txn.oldest_active_begin t.txns with
    | Some lsn -> min lsn (Wal.durable_lsn t.wal + 1)
    | None -> Wal.durable_lsn t.wal + 1
  in
  Wal.truncate t.wal ~keep_from;
  keep_from
