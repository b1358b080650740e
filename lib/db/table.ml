type t = {
  id : int;
  name : string;
  schema : Record.schema;
  heap : Heap.t;
  index : Btree.t option;
  key_field : int;
  mutable rows : int;
}

let create (env : Env.t) ~id ~name ~schema ~indexed ~key_field =
  {
    id;
    name;
    schema;
    heap = Heap.create env.Env.buffer env.Env.disk env.Env.hooks;
    index =
      (if indexed then Some (Btree.create env.Env.buffer env.Env.disk env.Env.hooks ())
       else None);
    key_field;
    rows = 0;
  }

let clone t (env : Env.t) =
  let { Env.buffer; disk; hooks; _ } = env in
  {
    t with
    heap = Heap.clone t.heap buffer disk hooks;
    index = Option.map (fun ix -> Btree.clone ix buffer disk hooks) t.index;
  }

let id t = t.id
let name t = t.name
let schema t = t.schema

let index_insert t key rid =
  match t.index with
  | None -> ()
  | Some ix -> (
      match Btree.insert ix key rid with
      | `Ok -> ()
      | `Duplicate ->
          invalid_arg (Printf.sprintf "Table.insert: duplicate key in %s" t.name))

let insert_raw t values =
  let image = Record.encode t.schema values in
  let rid = Heap.insert t.heap image in
  index_insert t values.(t.key_field) rid;
  t.rows <- t.rows + 1;
  rid

let insert t (env : Env.t) txn values =
  let image = Record.encode t.schema values in
  let rid = Heap.insert t.heap image in
  index_insert t values.(t.key_field) rid;
  t.rows <- t.rows + 1;
  Txn.log_update env.Env.txns txn
    (Wal.Insert
       { txn = txn.Txn.id; table = t.id; page = rid.Heap.page; slot = rid.Heap.slot; image })
    ~undo:(fun () ->
      ignore (Heap.delete t.heap rid);
      (match t.index with
      | Some ix -> ignore (Btree.delete ix values.(t.key_field))
      | None -> ());
      t.rows <- t.rows - 1);
  rid

let lookup t key =
  match t.index with
  | None -> invalid_arg (Printf.sprintf "Table.lookup: %s has no index" t.name)
  | Some ix -> (
      match Btree.search ix key with
      | None -> None
      | Some rid -> (
          match Heap.fetch t.heap rid with
          | Some image -> Some (rid, Record.decode t.schema image)
          | None -> None))

let fetch t rid =
  match Heap.fetch t.heap rid with
  | Some image -> Some (Record.decode t.schema image)
  | None -> None

let iter_key_range t ~lo ~hi f =
  match t.index with
  | None -> invalid_arg (Printf.sprintf "Table.iter_key_range: %s has no index" t.name)
  | Some ix ->
      Btree.iter_range ix ~lo ~hi (fun _key rid ->
          match Heap.fetch t.heap rid with
          | Some image -> f rid (Record.decode t.schema image)
          | None -> ())

let update t (env : Env.t) txn rid values =
  let before =
    match Heap.fetch t.heap rid with
    | Some image -> image
    | None -> invalid_arg (Printf.sprintf "Table.update: dangling rid in %s" t.name)
  in
  let after = Record.encode t.schema values in
  if not (Heap.update t.heap rid after) then
    invalid_arg (Printf.sprintf "Table.update: in-place update failed in %s" t.name);
  Txn.log_update env.Env.txns txn
    (Wal.Update
       {
         txn = txn.Txn.id;
         table = t.id;
         page = rid.Heap.page;
         slot = rid.Heap.slot;
         before;
         after;
       })
    ~undo:(fun () -> ignore (Heap.update t.heap rid before))

let iter t f = Heap.iter t.heap (fun rid image -> f rid (Record.decode t.schema image))
let n_rows t = t.rows
let index_height t = Option.map Btree.height t.index
let heap_pages t = Heap.pages t.heap
