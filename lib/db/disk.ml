type t = {
  hooks : Hooks.t;
  mutable pages : bytes option array;
  mutable used : int;
  mutable reads : int;
  mutable writes : int;
}

let create hooks = { hooks; pages = Array.make 64 None; used = 0; reads = 0; writes = 0 }

let ensure t n =
  if n > Array.length t.pages then begin
    let bigger = Array.make (max n (2 * Array.length t.pages)) None in
    Array.blit t.pages 0 bigger 0 (Array.length t.pages);
    t.pages <- bigger
  end

let allocate t =
  let page = t.used in
  t.used <- page + 1;
  ensure t t.used;
  page

let n_pages t = t.used

let check t page what =
  if page < 0 || page >= t.used then
    invalid_arg (Printf.sprintf "Disk.%s: page %d out of range" what page)

let read t page =
  check t page "read";
  t.reads <- t.reads + 1;
  t.hooks.Hooks.on_op (Hooks.Disk_read { page });
  match t.pages.(page) with
  | Some img -> Page.of_bytes (Bytes.copy img)
  | None -> Page.create ()

let write t page p =
  check t page "write";
  t.writes <- t.writes + 1;
  t.hooks.Hooks.on_op (Hooks.Disk_write { page });
  t.pages.(page) <- Some (Bytes.copy (Page.to_bytes p))

let reads t = t.reads
let writes t = t.writes

let stored t page =
  check t page "stored";
  Option.map Page.of_bytes t.pages.(page)

let clone t hooks = { t with hooks; pages = Array.copy t.pages }
let crash_copy t = { (clone t Hooks.null) with reads = 0; writes = 0 }
