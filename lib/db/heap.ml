type rid = { page : int; slot : int }

type t = {
  buffer : Buffer.t;
  disk : Disk.t;
  hooks : Hooks.t;
  mutable rev_pages : int list;  (* newest first *)
  mutable n_pages : int;
}

let create buffer disk hooks = { buffer; disk; hooks; rev_pages = []; n_pages = 0 }
let clone t buffer disk hooks = { t with buffer; disk; hooks }

let add_page t =
  let page = Disk.allocate t.disk in
  t.rev_pages <- page :: t.rev_pages;
  t.n_pages <- t.n_pages + 1;
  page

let insert t record =
  if Bytes.length record > Page.size - 64 then
    invalid_arg "Heap.insert: record larger than a page";
  t.hooks.Hooks.on_op Hooks.Heap_insert;
  let try_page page =
    Buffer.with_page t.buffer page ~dirty:true (fun p -> Page.insert p record)
  in
  let page, slot =
    match t.rev_pages with
    | last :: _ -> (
        match try_page last with
        | Some slot -> (last, slot)
        | None ->
            let fresh = add_page t in
            (match try_page fresh with
            | Some slot -> (fresh, slot)
            | None -> assert false))
    | [] ->
        let fresh = add_page t in
        (match try_page fresh with
        | Some slot -> (fresh, slot)
        | None -> assert false)
  in
  { page; slot }

let fetch t rid =
  t.hooks.Hooks.on_op Hooks.Heap_fetch;
  Buffer.with_page t.buffer rid.page (fun p -> Page.read p rid.slot)

let update t rid record =
  t.hooks.Hooks.on_op Hooks.Heap_update;
  Buffer.with_page t.buffer rid.page ~dirty:true (fun p -> Page.update p rid.slot record)

let delete t rid =
  Buffer.with_page t.buffer rid.page ~dirty:true (fun p -> Page.delete p rid.slot)

let iter t f =
  List.iter
    (fun page ->
      Buffer.with_page t.buffer page (fun p ->
          Page.iter p (fun slot r -> f { page; slot } r)))
    (List.rev t.rev_pages)

let n_pages t = t.n_pages
let pages t = List.rev t.rev_pages
