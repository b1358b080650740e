(* Tests for Olayout_db: pages, disk, buffer pool, WAL, locks, heap, B+tree,
   records, tables, transactions and the TPC-B workload. *)

module Page = Olayout_db.Page
module Disk = Olayout_db.Disk
module Buffer = Olayout_db.Buffer
module Wal = Olayout_db.Wal
module Lock = Olayout_db.Lock
module Heap = Olayout_db.Heap
module Btree = Olayout_db.Btree
module Record = Olayout_db.Record
module Table = Olayout_db.Table
module Txn = Olayout_db.Txn
module Env = Olayout_db.Env
module Tpcb = Olayout_db.Tpcb
module Hooks = Olayout_db.Hooks
module Rng = Olayout_util.Rng
module Int64Map = Map.Make (Int64)

let bytes_t = Alcotest.testable (fun ppf b -> Fmt.string ppf (Bytes.to_string b)) Bytes.equal

(* ---------- pages ---------- *)

let test_page_roundtrip () =
  let p = Page.create () in
  Alcotest.(check int) "fresh has no slots" 0 (Page.n_slots p);
  let s0 = Page.insert p (Bytes.of_string "hello") in
  let s1 = Page.insert p (Bytes.of_string "world!") in
  Alcotest.(check (option int)) "slot 0" (Some 0) s0;
  Alcotest.(check (option int)) "slot 1" (Some 1) s1;
  Alcotest.(check (option bytes_t)) "read 0" (Some (Bytes.of_string "hello")) (Page.read p 0);
  Alcotest.(check (option bytes_t)) "read 1" (Some (Bytes.of_string "world!")) (Page.read p 1);
  Alcotest.(check (option bytes_t)) "read oob" None (Page.read p 2)

let test_page_delete_update () =
  let p = Page.create () in
  ignore (Page.insert p (Bytes.of_string "aaaa"));
  ignore (Page.insert p (Bytes.of_string "bbbb"));
  Alcotest.(check bool) "delete" true (Page.delete p 0);
  Alcotest.(check bool) "re-delete fails" false (Page.delete p 0);
  Alcotest.(check (option bytes_t)) "deleted reads none" None (Page.read p 0);
  Alcotest.(check bool) "update same size" true (Page.update p 1 (Bytes.of_string "BBBB"));
  Alcotest.(check (option bytes_t)) "updated" (Some (Bytes.of_string "BBBB")) (Page.read p 1);
  Alcotest.(check bool) "update wrong size" false (Page.update p 1 (Bytes.of_string "xy"));
  Alcotest.(check bool) "update deleted" false (Page.update p 0 (Bytes.of_string "aaaa"));
  (* iter skips tombstones *)
  let seen = ref [] in
  Page.iter p (fun slot _ -> seen := slot :: !seen);
  Alcotest.(check (list int)) "iter live" [ 1 ] !seen

let test_page_fill () =
  let p = Page.create () in
  let record = Bytes.make 100 'x' in
  let inserted = ref 0 in
  let full = ref false in
  while not !full do
    match Page.insert p record with
    | Some _ -> incr inserted
    | None -> full := true
  done;
  (* 8192 bytes, 100B records + 4B slots + 4B header: ~78 fit *)
  Alcotest.(check bool) "capacity sane" true (!inserted >= 75 && !inserted <= 80);
  Alcotest.(check bool) "free space small" true (Page.free_space p < 104)

let qcheck_page_model =
  (* Page vs a list model, random inserts/deletes. *)
  let gen = QCheck.(list_of_size (QCheck.Gen.int_range 1 120) (pair bool (int_range 1 60))) in
  QCheck.Test.make ~name:"page matches list model" ~count:60 gen (fun ops ->
      let p = Page.create () in
      let model = Stdlib.Hashtbl.create 16 in
      List.iteri
        (fun i (is_insert, len) ->
          if is_insert then begin
            let payload = Bytes.make len (Char.chr (65 + (i mod 26))) in
            match Page.insert p payload with
            | Some slot -> Stdlib.Hashtbl.replace model slot payload
            | None -> ()
          end
          else begin
            (* delete a pseudo-random existing slot *)
            let n = Page.n_slots p in
            if n > 0 then begin
              let slot = i * 7 mod n in
              let had = Stdlib.Hashtbl.mem model slot in
              let deleted = Page.delete p slot in
              if had <> deleted then failwith "delete mismatch";
              Stdlib.Hashtbl.remove model slot
            end
          end)
        ops;
      Stdlib.Hashtbl.fold
        (fun slot payload acc -> acc && Page.read p slot = Some payload)
        model true)

(* ---------- disk / buffer ---------- *)

let test_disk () =
  let d = Disk.create Hooks.null in
  let p0 = Disk.allocate d and p1 = Disk.allocate d in
  Alcotest.(check int) "page ids" 1 (p1 - p0);
  let img = Page.create () in
  ignore (Page.insert img (Bytes.of_string "data"));
  Disk.write d p0 img;
  let back = Disk.read d p0 in
  Alcotest.(check (option bytes_t)) "persisted" (Some (Bytes.of_string "data")) (Page.read back 0);
  (* unwritten page reads as empty *)
  Alcotest.(check int) "fresh page empty" 0 (Page.n_slots (Disk.read d p1));
  Alcotest.(check bool) "oob read rejected" true
    (try
       ignore (Disk.read d 99);
       false
     with Invalid_argument _ -> true)

let test_buffer_hit_miss () =
  let d = Disk.create Hooks.null in
  let pg = Disk.allocate d in
  let b = Buffer.create d Hooks.null ~frames:2 in
  ignore (Buffer.pin b pg);
  Buffer.unpin b pg;
  ignore (Buffer.pin b pg);
  Buffer.unpin b pg;
  Alcotest.(check int) "one miss" 1 (Buffer.misses b);
  Alcotest.(check int) "one hit" 1 (Buffer.hits b)

let test_buffer_eviction_writeback () =
  let d = Disk.create Hooks.null in
  let p0 = Disk.allocate d and p1 = Disk.allocate d and p2 = Disk.allocate d in
  let b = Buffer.create d Hooks.null ~frames:2 in
  Buffer.with_page b p0 ~dirty:true (fun p -> ignore (Page.insert p (Bytes.of_string "zero")));
  Buffer.with_page b p1 (fun _ -> ());
  (* Touch p2: evicts LRU (p0), which must be written back. *)
  Buffer.with_page b p2 (fun _ -> ());
  let back = Disk.read d p0 in
  Alcotest.(check (option bytes_t)) "dirty page written back" (Some (Bytes.of_string "zero"))
    (Page.read back 0)

let test_buffer_pins_block_eviction () =
  let d = Disk.create Hooks.null in
  let p0 = Disk.allocate d and p1 = Disk.allocate d and p2 = Disk.allocate d in
  let b = Buffer.create d Hooks.null ~frames:2 in
  ignore (Buffer.pin b p0);
  ignore (Buffer.pin b p1);
  Alcotest.(check bool) "all pinned fails" true
    (try
       ignore (Buffer.pin b p2);
       false
     with Failure _ -> true);
  Buffer.unpin b p1;
  ignore (Buffer.pin b p2);
  Alcotest.(check int) "p0 still resident with p2" 2 (Buffer.resident b)

let test_buffer_unpin_guard () =
  let d = Disk.create Hooks.null in
  let pg = Disk.allocate d in
  let b = Buffer.create d Hooks.null ~frames:2 in
  ignore (Buffer.pin b pg);
  Buffer.unpin b pg;
  Alcotest.(check bool) "double unpin rejected" true
    (try
       Buffer.unpin b pg;
       false
     with Invalid_argument _ -> true)

(* ---------- WAL ---------- *)

let test_wal_lsn_and_force () =
  let w = Wal.create Hooks.null in
  let l0 = Wal.append w (Wal.Begin { txn = 0 }) in
  let l1 = Wal.append w (Wal.Commit { txn = 0 }) in
  Alcotest.(check int) "lsn 0" 0 l0;
  Alcotest.(check int) "lsn 1" 1 l1;
  Alcotest.(check int) "not durable yet" (-1) (Wal.durable_lsn w);
  Wal.force w;
  Alcotest.(check int) "durable" 1 (Wal.durable_lsn w);
  let forces = Wal.forces w in
  Wal.force w;
  Alcotest.(check int) "idempotent force" forces (Wal.forces w)

let test_wal_replay_committed_only () =
  let w = Wal.create Hooks.null in
  ignore (Wal.append w (Wal.Begin { txn = 1 }));
  ignore
    (Wal.append w
       (Wal.Update { txn = 1; table = 0; page = 0; slot = 0; before = Bytes.empty; after = Bytes.empty }));
  ignore (Wal.append w (Wal.Commit { txn = 1 }));
  ignore (Wal.append w (Wal.Begin { txn = 2 }));
  ignore
    (Wal.append w
       (Wal.Update { txn = 2; table = 0; page = 0; slot = 0; before = Bytes.empty; after = Bytes.empty }));
  Wal.force w;
  let committed = ref 0 and all = ref 0 in
  Wal.replay w ~committed_only:true ~redo:(fun _ -> incr committed);
  Wal.replay w ~committed_only:false ~redo:(fun _ -> incr all);
  Alcotest.(check int) "committed records" 3 !committed;
  Alcotest.(check int) "all durable records" 5 !all

let test_wal_replay_skips_undurable () =
  let w = Wal.create Hooks.null in
  ignore (Wal.append w (Wal.Begin { txn = 1 }));
  Wal.force w;
  ignore (Wal.append w (Wal.Commit { txn = 1 }));
  (* Commit not forced: replay must not see it. *)
  let seen = ref 0 in
  Wal.replay w ~committed_only:false ~redo:(fun _ -> incr seen);
  Alcotest.(check int) "only durable" 1 !seen

let test_wal_record_bytes () =
  Alcotest.(check bool) "update bigger than begin" true
    (Wal.record_bytes
       (Wal.Update
          { txn = 0; table = 0; page = 0; slot = 0; before = Bytes.make 10 'x'; after = Bytes.make 10 'y' })
    > Wal.record_bytes (Wal.Begin { txn = 0 }))

(* ---------- locks ---------- *)

let key item = { Lock.space = 0; item }

let test_lock_shared_compatible () =
  let lt = Lock.create Hooks.null in
  Alcotest.(check bool) "t1 S" true (Lock.acquire lt ~txn:1 (key 5) Lock.Shared = `Granted);
  Alcotest.(check bool) "t2 S" true (Lock.acquire lt ~txn:2 (key 5) Lock.Shared = `Granted);
  Alcotest.(check bool) "t3 X waits" true (Lock.acquire lt ~txn:3 (key 5) Lock.Exclusive = `Wait)

let test_lock_exclusive_conflicts () =
  let lt = Lock.create Hooks.null in
  Alcotest.(check bool) "t1 X" true (Lock.acquire lt ~txn:1 (key 5) Lock.Exclusive = `Granted);
  Alcotest.(check bool) "t2 S waits" true (Lock.acquire lt ~txn:2 (key 5) Lock.Shared = `Wait);
  Alcotest.(check bool) "other item free" true
    (Lock.acquire lt ~txn:2 (key 6) Lock.Exclusive = `Granted)

let test_lock_reentrant_and_upgrade () =
  let lt = Lock.create Hooks.null in
  ignore (Lock.acquire lt ~txn:1 (key 5) Lock.Shared);
  Alcotest.(check bool) "re-acquire S" true (Lock.acquire lt ~txn:1 (key 5) Lock.Shared = `Granted);
  Alcotest.(check bool) "upgrade sole holder" true
    (Lock.acquire lt ~txn:1 (key 5) Lock.Exclusive = `Granted);
  Alcotest.(check bool) "now holds X" true (Lock.holds lt ~txn:1 (key 5) Lock.Exclusive);
  (* Upgrade with another shared holder must wait. *)
  let lt2 = Lock.create Hooks.null in
  ignore (Lock.acquire lt2 ~txn:1 (key 9) Lock.Shared);
  ignore (Lock.acquire lt2 ~txn:2 (key 9) Lock.Shared);
  Alcotest.(check bool) "upgrade with peers waits" true
    (Lock.acquire lt2 ~txn:1 (key 9) Lock.Exclusive = `Wait)

let test_lock_release_all () =
  let lt = Lock.create Hooks.null in
  ignore (Lock.acquire lt ~txn:1 (key 1) Lock.Exclusive);
  ignore (Lock.acquire lt ~txn:1 (key 2) Lock.Exclusive);
  Alcotest.(check int) "held" 2 (Lock.held_count lt ~txn:1);
  Alcotest.(check int) "released" 2 (Lock.release_all lt ~txn:1);
  Alcotest.(check bool) "t2 can take" true (Lock.acquire lt ~txn:2 (key 1) Lock.Exclusive = `Granted)

let test_lock_deadlock_detection () =
  let lt = Lock.create Hooks.null in
  ignore (Lock.acquire lt ~txn:1 (key 1) Lock.Exclusive);
  ignore (Lock.acquire lt ~txn:2 (key 2) Lock.Exclusive);
  Alcotest.(check bool) "t1 waits for t2" true (Lock.acquire lt ~txn:1 (key 2) Lock.Exclusive = `Wait);
  Alcotest.(check bool) "no deadlock yet" false (Lock.deadlocked lt ~txn:1);
  Alcotest.(check bool) "t2 waits for t1" true (Lock.acquire lt ~txn:2 (key 1) Lock.Exclusive = `Wait);
  Alcotest.(check bool) "deadlock now" true (Lock.deadlocked lt ~txn:1);
  Alcotest.(check bool) "symmetric" true (Lock.deadlocked lt ~txn:2)

(* ---------- heap ---------- *)

let mk_heap () =
  let d = Disk.create Hooks.null in
  let b = Buffer.create d Hooks.null ~frames:16 in
  (Heap.create b d Hooks.null, d)

let test_heap_roundtrip_multi_page () =
  let h, _ = mk_heap () in
  let rids =
    List.init 300 (fun i -> (i, Heap.insert h (Bytes.make 100 (Char.chr (33 + (i mod 90))))))
  in
  Alcotest.(check bool) "multiple pages" true (Heap.n_pages h > 1);
  List.iter
    (fun (i, rid) ->
      Alcotest.(check (option bytes_t))
        (Printf.sprintf "rid %d" i)
        (Some (Bytes.make 100 (Char.chr (33 + (i mod 90)))))
        (Heap.fetch h rid))
    rids;
  (* update and delete *)
  let _, rid0 = List.hd rids in
  Alcotest.(check bool) "update" true (Heap.update h rid0 (Bytes.make 100 '!'));
  Alcotest.(check (option bytes_t)) "updated" (Some (Bytes.make 100 '!')) (Heap.fetch h rid0);
  Alcotest.(check bool) "delete" true (Heap.delete h rid0);
  Alcotest.(check (option bytes_t)) "deleted" None (Heap.fetch h rid0);
  let live = ref 0 in
  Heap.iter h (fun _ _ -> incr live);
  Alcotest.(check int) "iter count" 299 !live

(* ---------- btree ---------- *)

let mk_btree ?(max_keys = 4) () =
  let d = Disk.create Hooks.null in
  let b = Buffer.create d Hooks.null ~frames:64 in
  Btree.create b d Hooks.null ~max_keys ()

let rid_of_int i = { Heap.page = i; slot = i mod 7 }

let test_btree_insert_search () =
  let t = mk_btree () in
  let rng = Rng.create 99 in
  let keys = Array.init 1000 (fun i -> Int64.of_int (i * 3)) in
  Rng.shuffle rng keys;
  Array.iter
    (fun k ->
      match Btree.insert t k (rid_of_int (Int64.to_int k)) with
      | `Ok -> ()
      | `Duplicate -> Alcotest.fail "unexpected duplicate")
    keys;
  Alcotest.(check int) "entries" 1000 (Btree.n_entries t);
  Alcotest.(check bool) "grew" true (Btree.height t > 2);
  Array.iter
    (fun k ->
      match Btree.search t k with
      | Some rid ->
          Alcotest.(check int) "payload" (Int64.to_int k) rid.Heap.page
      | None -> Alcotest.failf "missing key %Ld" k)
    keys;
  Alcotest.(check (option reject)) "absent key" None
    (Option.map (fun _ -> ()) (Btree.search t 1L))

let test_btree_duplicates () =
  let t = mk_btree () in
  Alcotest.(check bool) "first" true (Btree.insert t 5L (rid_of_int 1) = `Ok);
  Alcotest.(check bool) "dup" true (Btree.insert t 5L (rid_of_int 2) = `Duplicate);
  Alcotest.(check int) "count unchanged" 1 (Btree.n_entries t)

let test_btree_iteration_sorted () =
  let t = mk_btree () in
  let rng = Rng.create 7 in
  let keys = Array.init 500 (fun i -> Int64.of_int i) in
  Rng.shuffle rng keys;
  Array.iter (fun k -> ignore (Btree.insert t k (rid_of_int 0))) keys;
  let seen = ref [] in
  Btree.iter t (fun k _ -> seen := k :: !seen);
  let ascending = List.rev !seen in
  Alcotest.(check int) "all iterated" 500 (List.length ascending);
  Alcotest.(check bool) "sorted" true (List.sort compare ascending = ascending)

let test_btree_range () =
  let t = mk_btree () in
  for i = 0 to 99 do
    ignore (Btree.insert t (Int64.of_int (2 * i)) (rid_of_int i))
  done;
  let seen = ref [] in
  Btree.iter_range t ~lo:10L ~hi:20L (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int64)) "inclusive range" [ 10L; 12L; 14L; 16L; 18L; 20L ]
    (List.rev !seen)

let test_btree_delete () =
  let t = mk_btree () in
  for i = 0 to 199 do
    ignore (Btree.insert t (Int64.of_int i) (rid_of_int i))
  done;
  for i = 0 to 199 do
    if i mod 2 = 0 then Alcotest.(check bool) "delete" true (Btree.delete t (Int64.of_int i))
  done;
  Alcotest.(check bool) "delete absent" false (Btree.delete t 0L);
  Alcotest.(check int) "half left" 100 (Btree.n_entries t);
  for i = 0 to 199 do
    let expect = i mod 2 = 1 in
    Alcotest.(check bool)
      (Printf.sprintf "key %d" i)
      expect
      (Btree.search t (Int64.of_int i) <> None)
  done

let test_btree_depth_hook () =
  let d = Disk.create Hooks.null in
  let b = Buffer.create d Hooks.null ~frames:64 in
  let depths = ref [] in
  let hooks =
    {
      Hooks.on_op =
        (fun op ->
          match op with
          | Hooks.Btree_search { depth; _ } -> depths := depth :: !depths
          | _ -> ());
    }
  in
  let t = Btree.create b d hooks ~max_keys:4 () in
  for i = 0 to 200 do
    ignore (Btree.insert t (Int64.of_int i) (rid_of_int i))
  done;
  ignore (Btree.search t 100L);
  Alcotest.(check (list int)) "reported depth = height" [ Btree.height t ] !depths

let qcheck_btree_vs_map =
  let op_gen =
    QCheck.Gen.(
      list_size (int_range 1 400)
        (pair (int_range 0 2) (int_range 0 99) (* op, key *)))
  in
  QCheck.Test.make ~name:"btree matches Map on random ops" ~count:40
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";" (List.map (fun (o, k) -> Printf.sprintf "(%d,%d)" o k) ops))
       op_gen)
    (fun ops ->
      let t = mk_btree () in
      let model = ref Int64Map.empty in
      List.for_all
        (fun (op, k) ->
          let key = Int64.of_int k in
          match op with
          | 0 ->
              let expected = if Int64Map.mem key !model then `Duplicate else `Ok in
              let got = Btree.insert t key (rid_of_int k) in
              if got = `Ok then model := Int64Map.add key k !model;
              got = expected
          | 1 ->
              let expected = Int64Map.mem key !model in
              let got = Btree.delete t key in
              if got then model := Int64Map.remove key !model;
              got = expected
          | _ ->
              let expected = Int64Map.find_opt key !model in
              let got = Option.map (fun (r : Heap.rid) -> r.Heap.page) (Btree.search t key) in
              got = expected)
        ops)

(* ---------- records ---------- *)

let test_record_roundtrip () =
  let schema = { Record.name = "t"; fields = 3; pad = 10 } in
  Alcotest.(check int) "row bytes" 34 (Record.row_bytes schema);
  let row = [| 1L; -5L; Int64.max_int |] in
  let encoded = Record.encode schema row in
  Alcotest.(check int) "encoded size" 34 (Bytes.length encoded);
  Alcotest.(check (array int64)) "decode" row (Record.decode schema encoded);
  Record.set schema encoded 1 42L;
  Alcotest.(check int64) "field set/get" 42L (Record.get schema encoded 1)

let qcheck_record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size (QCheck.Gen.return 8) int64))
    (fun (fields, values) ->
      let schema = { Record.name = "q"; fields; pad = 3 } in
      let row = Array.of_list (List.filteri (fun i _ -> i < fields) values) in
      QCheck.assume (Array.length row = fields);
      Record.decode schema (Record.encode schema row) = row)

(* ---------- tables + transactions ---------- *)

let test_table_txn_commit_abort () =
  let env = Env.create ~frames:64 Hooks.null in
  let schema = { Record.name = "kv"; fields = 2; pad = 0 } in
  let tbl = Table.create env ~id:0 ~name:"kv" ~schema ~indexed:true ~key_field:0 in
  (* committed insert *)
  let txn = Txn.begin_ env.Env.txns in
  let rid = Table.insert tbl env txn [| 1L; 100L |] in
  Txn.commit env.Env.txns txn;
  Alcotest.(check bool) "lookup after commit" true (Table.lookup tbl 1L <> None);
  (* aborted update restores the row *)
  let txn2 = Txn.begin_ env.Env.txns in
  Table.update tbl env txn2 rid [| 1L; 999L |];
  (match Table.fetch tbl rid with
  | Some row -> Alcotest.(check int64) "visible inside txn" 999L row.(1)
  | None -> Alcotest.fail "row lost");
  Txn.abort env.Env.txns txn2;
  (match Table.fetch tbl rid with
  | Some row -> Alcotest.(check int64) "restored" 100L row.(1)
  | None -> Alcotest.fail "row lost after abort");
  (* aborted insert disappears, from heap and index *)
  let txn3 = Txn.begin_ env.Env.txns in
  ignore (Table.insert tbl env txn3 [| 2L; 200L |]);
  Txn.abort env.Env.txns txn3;
  Alcotest.(check bool) "aborted insert gone" true (Table.lookup tbl 2L = None);
  Alcotest.(check int) "row count back" 1 (Table.n_rows tbl)

let test_txn_commit_releases_locks () =
  let env = Env.create ~frames:16 Hooks.null in
  let txn = Txn.begin_ env.Env.txns in
  ignore (Lock.acquire env.Env.locks ~txn:txn.Txn.id (key 5) Lock.Exclusive);
  Txn.commit env.Env.txns txn;
  let txn2 = Txn.begin_ env.Env.txns in
  Alcotest.(check bool) "free after commit" true
    (Lock.acquire env.Env.locks ~txn:txn2.Txn.id (key 5) Lock.Exclusive = `Granted);
  Alcotest.(check int) "active count" 1 (Txn.active env.Env.txns)

let test_txn_state_guard () =
  let env = Env.create ~frames:16 Hooks.null in
  let txn = Txn.begin_ env.Env.txns in
  Txn.commit env.Env.txns txn;
  Alcotest.(check bool) "double commit rejected" true
    (try
       Txn.commit env.Env.txns txn;
       false
     with Invalid_argument _ -> true)

(* ---------- TPC-B ---------- *)

let small_config =
  { Tpcb.branches = 4; tellers_per_branch = 3; accounts_per_branch = 50; buffer_frames = 256 }

let test_tpcb_setup () =
  let db = Tpcb.setup ~config:small_config Hooks.null in
  Alcotest.(check int64) "account starts at 0" 0L (Tpcb.account_balance db 0);
  Alcotest.(check int64) "branch starts at 0" 0L (Tpcb.branch_balance db 3);
  Alcotest.(check int) "no history" 0 (Tpcb.history_rows db);
  Alcotest.(check bool) "consistent when fresh" true (Tpcb.check_consistency db = Ok ())

let test_tpcb_single_transaction () =
  let db = Tpcb.setup ~config:small_config Hooks.null in
  let input = { Tpcb.aid = 7; tid = 2; bid = 0; delta = 1234 } in
  (match Tpcb.run db ~wait:(fun _ -> Alcotest.fail "unexpected wait") input with
  | `Committed -> ()
  | `Aborted -> Alcotest.fail "aborted");
  Alcotest.(check int64) "account" 1234L (Tpcb.account_balance db 7);
  Alcotest.(check int64) "teller" 1234L (Tpcb.teller_balance db 2);
  Alcotest.(check int64) "branch" 1234L (Tpcb.branch_balance db 0);
  Alcotest.(check int) "history row" 1 (Tpcb.history_rows db);
  Alcotest.(check bool) "consistent" true (Tpcb.check_consistency db = Ok ())

let test_tpcb_serial_run_consistent () =
  let db = Tpcb.setup ~config:small_config Hooks.null in
  let rng = Rng.create 1234 in
  for _ = 1 to 200 do
    let input = Tpcb.gen_input db rng in
    match Tpcb.run db ~wait:(fun _ -> Alcotest.fail "serial: no waits") input with
    | `Committed -> ()
    | `Aborted -> Alcotest.fail "aborted"
  done;
  Alcotest.(check int) "history rows" 200 (Tpcb.history_rows db);
  match Tpcb.check_consistency db with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_tpcb_gen_input_ranges () =
  let db = Tpcb.setup ~config:small_config Hooks.null in
  let rng = Rng.create 5 in
  let local = ref 0 and n = 2000 in
  for _ = 1 to n do
    let i = Tpcb.gen_input db rng in
    Alcotest.(check bool) "aid range" true (i.Tpcb.aid >= 0 && i.aid < 200);
    Alcotest.(check bool) "tid range" true (i.tid >= 0 && i.tid < 12);
    Alcotest.(check bool) "bid range" true (i.bid >= 0 && i.bid < 4);
    Alcotest.(check bool) "teller matches bid" true (i.tid / 3 = i.bid);
    if i.aid / 50 = i.bid then incr local
  done;
  let frac = float_of_int !local /. float_of_int n in
  Alcotest.(check bool) "85% local rule" true (abs_float (frac -. 0.85) < 0.04)

(* ---------- database image ---------- *)

(* [Tpcb.setup] clones a per-config image instead of repeating the bulk
   load; [Tpcb.load] is the from-scratch reference.  A database is driven
   with hooks recording every op after its set-up. *)
type twin = { db : Tpcb.t; ops : Hooks.op list ref }

let recorded make =
  let ops = ref [] in
  let db = make { Hooks.on_op = (fun op -> ops := op :: !ops) } in
  ops := [];
  { db; ops }

let imaged config = recorded (Tpcb.setup ~config)
let fresh config = recorded (Tpcb.load ~config)

let run_txns tw rng n =
  for _ = 1 to n do
    match Tpcb.run tw.db ~wait:(fun _ -> Alcotest.fail "serial: no waits") (Tpcb.gen_input tw.db rng) with
    | `Committed -> ()
    | `Aborted -> Alcotest.fail "aborted"
  done

let stats db =
  let e = Tpcb.env db in
  [
    ("buffer hits", Buffer.hits e.Env.buffer);
    ("buffer misses", Buffer.misses e.Env.buffer);
    ("resident", Buffer.resident e.Env.buffer);
    ("disk reads", Disk.reads e.Env.disk);
    ("disk writes", Disk.writes e.Env.disk);
    ("disk pages", Disk.n_pages e.Env.disk);
    ("log bytes", Wal.appended_bytes e.Env.wal);
    ("log forces", Wal.forces e.Env.wal);
    ("history rows", Tpcb.history_rows db);
  ]

let page_images db =
  let d = (Tpcb.env db).Env.disk in
  List.init (Disk.n_pages d) (fun p -> Option.map Page.to_bytes (Disk.stored d p))

(* Every balance, read through each database's own pool in the same
   order, so the reads leave both in the same state. *)
let balances db =
  let c = Tpcb.config db in
  let all n f = List.init n f in
  ( all (c.Tpcb.branches * c.Tpcb.accounts_per_branch) (Tpcb.account_balance db),
    all (c.Tpcb.branches * c.Tpcb.tellers_per_branch) (Tpcb.teller_balance db),
    all c.Tpcb.branches (Tpcb.branch_balance db) )

let check_same what (a : twin) (b : twin) =
  let msg m = Printf.sprintf "%s: %s" what m in
  let ops_a = List.rev !(a.ops) and ops_b = List.rev !(b.ops) in
  Alcotest.(check int) (msg "op count") (List.length ops_b) (List.length ops_a);
  List.iteri
    (fun i (x, y) ->
      if x <> y then
        Alcotest.failf "%s: op %d is %s, reference %s" what i (Hooks.op_name x) (Hooks.op_name y))
    (List.combine ops_a ops_b);
  Alcotest.(check (list (pair string int))) (msg "stats") (stats b.db) (stats a.db);
  Alcotest.(check (list (option bytes_t))) (msg "disk page images") (page_images b.db)
    (page_images a.db);
  Alcotest.(check bool) (msg "balances") true (balances a.db = balances b.db);
  Alcotest.(check bool) (msg "consistent") true (Tpcb.check_consistency a.db = Ok ())

let image_equals_fresh_load config () =
  let n = 300 in
  (* The same seeded transactions on an image-built database and on a
     from-scratch load. *)
  let a = imaged config and r = fresh config in
  run_txns a (Rng.create 1) n;
  run_txns r (Rng.create 1) n;
  check_same "first setup" a r;
  (* [a] has written pages and evicted frames: a later setup must still
     see the untouched image. *)
  let b = imaged config and r = fresh config in
  run_txns b (Rng.create 2) n;
  run_txns r (Rng.create 2) n;
  check_same "setup after writes" b r;
  (* Two databases over the image, alive at once, transactions
     interleaved. *)
  let c1 = imaged config and c2 = imaged config in
  let rng1 = Rng.create 3 and rng2 = Rng.create 4 in
  for _ = 1 to n do
    run_txns c1 rng1 1;
    run_txns c2 rng2 1
  done;
  let r1 = fresh config and r2 = fresh config in
  run_txns r1 (Rng.create 3) n;
  run_txns r2 (Rng.create 4) n;
  check_same "interleaved, first" c1 r1;
  check_same "interleaved, second" c2 r2

(* ---------- crash recovery ---------- *)

module Recovery = Olayout_db.Recovery

let kv_schema = { Record.name = "kv"; fields = 2; pad = 84 }

(* A key-value table with a tiny stealing buffer pool: bulk rows, committed
   updates, one transaction still active at the crash. *)
let crash_scenario () =
  let env = Env.create ~frames:3 Hooks.null in
  let tbl = Table.create env ~id:0 ~name:"kv" ~schema:kv_schema ~indexed:false ~key_field:0 in
  let rids = Array.init 500 (fun i -> Table.insert_raw tbl [| Int64.of_int i; 0L |]) in
  Buffer.flush_all env.Env.buffer;
  (* Committed work: every 3rd row gets balance = 7 * key, twice. *)
  for round = 1 to 2 do
    let txn = Txn.begin_ env.Env.txns in
    Array.iteri
      (fun i rid ->
        if i mod 3 = 0 then
          Table.update tbl env txn rid [| Int64.of_int i; Int64.of_int (round * 7 * i) |])
      rids;
    Txn.commit env.Env.txns txn
  done;
  (* A loser: updates everything to -1 but never commits.  The tiny pool
     guarantees many of its dirty pages reach the disk before the crash. *)
  let loser = Txn.begin_ env.Env.txns in
  Array.iteri
    (fun i rid -> Table.update tbl env loser rid [| Int64.of_int i; -1L |])
    rids;
  (env, rids)

let test_recovery_crash_consistency () =
  let env, rids = crash_scenario () in
  let survivor = Disk.crash_copy env.Env.disk in
  (* Sanity: without recovery, the surviving disk is actually corrupt
     (stale committed data and/or loser data present). *)
  let balance_on disk (rid : Heap.rid) =
    match Page.read (Disk.read disk rid.Heap.page) rid.Heap.slot with
    | Some image -> (Record.decode kv_schema image).(1)
    | None -> Alcotest.fail "row missing on disk"
  in
  let expected i = if i mod 3 = 0 then Int64.of_int (14 * i) else 0L in
  let corrupt = ref 0 in
  Array.iteri
    (fun i rid -> if balance_on survivor rid <> expected i then incr corrupt)
    rids;
  Alcotest.(check bool) "crash left damage to repair" true (!corrupt > 0);
  let redone, undone = Recovery.recover env.Env.wal survivor in
  Alcotest.(check bool) "redo applied" true (redone > 0);
  Alcotest.(check bool) "undo applied (stolen loser pages)" true (undone > 0);
  Array.iteri
    (fun i rid ->
      Alcotest.(check int64) (Printf.sprintf "row %d recovered" i) (expected i)
        (balance_on survivor rid))
    rids

let test_recovery_convergent () =
  (* Without page LSNs, physical redo may re-walk intermediate images, but
     repeated recovery must converge to the same final state and never
     resurrect loser data. *)
  let env, rids = crash_scenario () in
  let survivor = Disk.crash_copy env.Env.disk in
  ignore (Recovery.recover env.Env.wal survivor);
  let snapshot (rid : Heap.rid) =
    match Page.read (Disk.read survivor rid.Heap.page) rid.Heap.slot with
    | Some image -> image
    | None -> Alcotest.fail "row missing"
  in
  let first = Array.map snapshot rids in
  let _, undone2 = Recovery.recover env.Env.wal survivor in
  Alcotest.(check int) "no losers left to undo" 0 undone2;
  Array.iteri
    (fun i rid ->
      Alcotest.(check bytes_t) (Printf.sprintf "row %d stable" i) first.(i) (snapshot rid))
    rids

let test_table_range_scan () =
  let env = Env.create ~frames:64 Hooks.null in
  let schema = { Record.name = "r"; fields = 2; pad = 0 } in
  let tbl = Table.create env ~id:0 ~name:"r" ~schema ~indexed:true ~key_field:0 in
  for i = 0 to 99 do
    ignore (Table.insert_raw tbl [| Int64.of_int (3 * i); Int64.of_int i |])
  done;
  let seen = ref [] in
  Table.iter_key_range tbl ~lo:10L ~hi:20L (fun _ row -> seen := row.(0) :: !seen);
  Alcotest.(check (list int64)) "range keys" [ 12L; 15L; 18L ] (List.rev !seen);
  let empty = ref 0 in
  Table.iter_key_range tbl ~lo:1000L ~hi:2000L (fun _ _ -> incr empty);
  Alcotest.(check int) "empty range" 0 !empty;
  let unindexed =
    Table.create env ~id:1 ~name:"u" ~schema ~indexed:false ~key_field:0
  in
  Alcotest.(check bool) "unindexed rejected" true
    (try
       Table.iter_key_range unindexed ~lo:0L ~hi:1L (fun _ _ -> ());
       false
     with Invalid_argument _ -> true)

let test_buffer_with_page_exception_safe () =
  let d = Disk.create Hooks.null in
  let pg = Disk.allocate d in
  let b = Buffer.create d Hooks.null ~frames:2 in
  (try Buffer.with_page b pg (fun _ -> failwith "boom") with Failure _ -> ());
  (* The pin must have been released: we can pin twice more. *)
  ignore (Buffer.pin b pg);
  ignore (Buffer.pin b pg);
  Buffer.unpin b pg;
  Buffer.unpin b pg

let test_wal_appended_bytes () =
  let w = Wal.create Hooks.null in
  ignore (Wal.append w (Wal.Begin { txn = 0 }));
  ignore
    (Wal.append w
       (Wal.Insert { txn = 0; table = 0; page = 0; slot = 0; image = Bytes.make 40 'x' }));
  Alcotest.(check int) "byte accounting"
    (Wal.record_bytes (Wal.Begin { txn = 0 })
    + Wal.record_bytes
        (Wal.Insert { txn = 0; table = 0; page = 0; slot = 0; image = Bytes.make 40 'x' }))
    (Wal.appended_bytes w)

let test_wal_truncate () =
  let w = Wal.create Hooks.null in
  for txn = 0 to 4 do
    ignore (Wal.append w (Wal.Begin { txn }));
    ignore (Wal.append w (Wal.Commit { txn }))
  done;
  Wal.force w;
  Alcotest.(check int) "ten records" 10 (List.length (Wal.records w));
  Wal.truncate w ~keep_from:6;
  Alcotest.(check int) "four kept" 4 (List.length (Wal.records w));
  Alcotest.(check int) "base lsn" 6 (Wal.base_lsn w);
  (* replay sees only retained records *)
  let seen = ref 0 in
  Wal.replay w ~committed_only:false ~redo:(fun _ -> incr seen);
  Alcotest.(check int) "replay on tail" 4 !seen;
  (* cannot truncate into the non-durable tail *)
  ignore (Wal.append w (Wal.Begin { txn = 9 }));
  Alcotest.(check bool) "guard" true
    (try
       Wal.truncate w ~keep_from:11;
       false
     with Invalid_argument _ -> true)

let test_checkpoint_truncates_and_recovers () =
  (* Committed work, checkpoint (while a loser is active), more committed
     work, crash: recovery on the truncated log must restore everything. *)
  let env = Env.create ~frames:3 Hooks.null in
  let tbl = Table.create env ~id:0 ~name:"kv" ~schema:kv_schema ~indexed:false ~key_field:0 in
  let rids = Array.init 200 (fun i -> Table.insert_raw tbl [| Int64.of_int i; 0L |]) in
  Buffer.flush_all env.Env.buffer;
  (* round 1: committed *)
  let t1 = Txn.begin_ env.Env.txns in
  Array.iteri (fun i rid -> Table.update tbl env t1 rid [| Int64.of_int i; 7L |]) rids;
  Txn.commit env.Env.txns t1;
  (* loser starts before the checkpoint and stays active across it *)
  let loser = Txn.begin_ env.Env.txns in
  Table.update tbl env loser rids.(0) [| 0L; -1L |];
  let kept_from = Env.checkpoint env in
  Alcotest.(check bool) "kept from loser's begin" true
    (kept_from <= loser.Txn.begin_lsn);
  Alcotest.(check bool) "log actually truncated" true (Wal.base_lsn env.Env.wal > 0);
  (* loser keeps scribbling (steals flush some of it), never commits *)
  Array.iteri (fun i rid -> Table.update tbl env loser rid [| Int64.of_int i; -2L |]) rids;
  (* round 2: a committed transaction after the checkpoint *)
  let t2 = Txn.begin_ env.Env.txns in
  Table.update tbl env t2 rids.(5) [| 5L; 99L |];
  Txn.commit env.Env.txns t2;
  (* crash + recover *)
  let survivor = Disk.crash_copy env.Env.disk in
  ignore (Recovery.recover env.Env.wal survivor);
  let balance rid =
    match Page.read (Disk.read survivor rid.Heap.page) rid.Heap.slot with
    | Some image -> (Record.decode kv_schema image).(1)
    | None -> Alcotest.fail "row missing"
  in
  Array.iteri
    (fun i rid ->
      let expect = if i = 5 then 99L else 7L in
      Alcotest.(check int64) (Printf.sprintf "row %d" i) expect (balance rid))
    rids

let test_tpcb_data_pages () =
  let db = Tpcb.setup ~config:small_config Hooks.null in
  let pages = Tpcb.data_pages db in
  Alcotest.(check bool) "has pages" true (List.length pages > 4);
  let sorted = List.sort_uniq compare pages in
  Alcotest.(check int) "pages distinct" (List.length pages) (List.length sorted)

let suite =
  ( "db",
    [
      Alcotest.test_case "page roundtrip" `Quick test_page_roundtrip;
      Alcotest.test_case "page delete/update" `Quick test_page_delete_update;
      Alcotest.test_case "page fill" `Quick test_page_fill;
      QCheck_alcotest.to_alcotest qcheck_page_model;
      Alcotest.test_case "disk" `Quick test_disk;
      Alcotest.test_case "buffer hit/miss" `Quick test_buffer_hit_miss;
      Alcotest.test_case "buffer eviction writeback" `Quick test_buffer_eviction_writeback;
      Alcotest.test_case "buffer pins" `Quick test_buffer_pins_block_eviction;
      Alcotest.test_case "buffer unpin guard" `Quick test_buffer_unpin_guard;
      Alcotest.test_case "wal lsn/force" `Quick test_wal_lsn_and_force;
      Alcotest.test_case "wal replay committed" `Quick test_wal_replay_committed_only;
      Alcotest.test_case "wal replay durable" `Quick test_wal_replay_skips_undurable;
      Alcotest.test_case "wal record bytes" `Quick test_wal_record_bytes;
      Alcotest.test_case "lock shared" `Quick test_lock_shared_compatible;
      Alcotest.test_case "lock exclusive" `Quick test_lock_exclusive_conflicts;
      Alcotest.test_case "lock reentrant/upgrade" `Quick test_lock_reentrant_and_upgrade;
      Alcotest.test_case "lock release all" `Quick test_lock_release_all;
      Alcotest.test_case "lock deadlock detection" `Quick test_lock_deadlock_detection;
      Alcotest.test_case "heap multi-page" `Quick test_heap_roundtrip_multi_page;
      Alcotest.test_case "btree insert/search" `Quick test_btree_insert_search;
      Alcotest.test_case "btree duplicates" `Quick test_btree_duplicates;
      Alcotest.test_case "btree iteration" `Quick test_btree_iteration_sorted;
      Alcotest.test_case "btree range" `Quick test_btree_range;
      Alcotest.test_case "btree delete" `Quick test_btree_delete;
      Alcotest.test_case "btree depth hook" `Quick test_btree_depth_hook;
      QCheck_alcotest.to_alcotest qcheck_btree_vs_map;
      Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_record_roundtrip;
      Alcotest.test_case "table txn commit/abort" `Quick test_table_txn_commit_abort;
      Alcotest.test_case "txn releases locks" `Quick test_txn_commit_releases_locks;
      Alcotest.test_case "txn state guard" `Quick test_txn_state_guard;
      Alcotest.test_case "table range scan" `Quick test_table_range_scan;
      Alcotest.test_case "buffer with_page safety" `Quick test_buffer_with_page_exception_safe;
      Alcotest.test_case "wal appended bytes" `Quick test_wal_appended_bytes;
      Alcotest.test_case "wal truncate" `Quick test_wal_truncate;
      Alcotest.test_case "checkpoint + recovery" `Quick test_checkpoint_truncates_and_recovers;
      Alcotest.test_case "recovery crash consistency" `Quick test_recovery_crash_consistency;
      Alcotest.test_case "recovery convergent" `Quick test_recovery_convergent;
      Alcotest.test_case "tpcb setup" `Quick test_tpcb_setup;
      Alcotest.test_case "tpcb single txn" `Quick test_tpcb_single_transaction;
      Alcotest.test_case "tpcb serial consistency" `Quick test_tpcb_serial_run_consistent;
      Alcotest.test_case "tpcb input generation" `Quick test_tpcb_gen_input_ranges;
      Alcotest.test_case "tpcb data pages" `Quick test_tpcb_data_pages;
      Alcotest.test_case "tpcb image = fresh load (default config)" `Quick
        (image_equals_fresh_load Tpcb.default_config);
      Alcotest.test_case "tpcb image = fresh load (pool smaller than tables)" `Quick
        (image_equals_fresh_load
           { Tpcb.branches = 4; tellers_per_branch = 10; accounts_per_branch = 2000; buffer_frames = 64 });
    ] )
