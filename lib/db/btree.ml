(* Node layout (within an 8 KB page):
     0: u16 node kind (0 = leaf, 1 = internal)
     2: u16 key count
     4: i32 next-leaf page (-1 = none; leaves only)
     8: keys, i64 each, capacity max_keys
     8 + 8*max_keys: leaf values (i32 page, i32 slot) or internal children
       (i32 each, capacity max_keys + 1) *)

type t = {
  buffer : Buffer.t;
  disk : Disk.t;
  hooks : Hooks.t;
  max_keys : int;
  mutable root : int;
  mutable height : int;
  mutable entries : int;
}

let leaf_kind = 0
let internal_kind = 1

let kind p = Bytes.get_uint16_le (Page.to_bytes p) 0
let set_kind p k = Bytes.set_uint16_le (Page.to_bytes p) 0 k
let nkeys p = Bytes.get_uint16_le (Page.to_bytes p) 2
let set_nkeys p n = Bytes.set_uint16_le (Page.to_bytes p) 2 n
let next_leaf p = Int32.to_int (Bytes.get_int32_le (Page.to_bytes p) 4)
let set_next_leaf p v = Bytes.set_int32_le (Page.to_bytes p) 4 (Int32.of_int v)

let key_at p i = Bytes.get_int64_le (Page.to_bytes p) (8 + (8 * i))
let set_key p i k = Bytes.set_int64_le (Page.to_bytes p) (8 + (8 * i)) k

let voff t = 8 + (8 * t.max_keys)

let value_at t p i =
  let b = Page.to_bytes p in
  let off = voff t + (8 * i) in
  {
    Heap.page = Int32.to_int (Bytes.get_int32_le b off);
    slot = Int32.to_int (Bytes.get_int32_le b (off + 4));
  }

let set_value t p i (rid : Heap.rid) =
  let b = Page.to_bytes p in
  let off = voff t + (8 * i) in
  Bytes.set_int32_le b off (Int32.of_int rid.Heap.page);
  Bytes.set_int32_le b (off + 4) (Int32.of_int rid.Heap.slot)

let child_at t p j = Int32.to_int (Bytes.get_int32_le (Page.to_bytes p) (voff t + (4 * j)))

let set_child t p j c =
  Bytes.set_int32_le (Page.to_bytes p) (voff t + (4 * j)) (Int32.of_int c)

let init_node p k =
  set_kind p k;
  set_nkeys p 0;
  set_next_leaf p (-1)

let create buffer disk hooks ?(max_keys = 256) () =
  if max_keys < 4 || max_keys > 511 || max_keys mod 2 <> 0 then
    invalid_arg "Btree.create: max_keys must be even and in [4, 511]";
  let root = Disk.allocate disk in
  Buffer.with_page buffer root ~dirty:true (fun p -> init_node p leaf_kind);
  { buffer; disk; hooks; max_keys; root; height = 1; entries = 0 }

let clone t buffer disk hooks = { t with buffer; disk; hooks }

(* First index whose key is >= [key]. *)
let lower_bound p n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key_at p mid < key then lo := mid + 1 else hi := mid
  done;
  !lo

let search t key =
  let rec descend page depth =
    Buffer.with_page t.buffer page (fun p ->
        let n = nkeys p in
        if kind p = leaf_kind then begin
          let i = lower_bound p n key in
          let found = i < n && key_at p i = key in
          t.hooks.Hooks.on_op (Hooks.Btree_search { depth; found });
          if found then Some (value_at t p i) else None
        end
        else begin
          let i = lower_bound p n key in
          (* Child i covers keys < keys[i]; equal keys go right. *)
          let i = if i < n && key_at p i = key then i + 1 else i in
          let child = child_at t p i in
          descend child (depth + 1)
        end)
  in
  descend t.root 1

(* Split full child [ci] of internal parent page [pp].  Child page number is
   [cp].  Allocates the right sibling and pushes the separator into the
   parent, which must have room. *)
let split_child t pp ci cp =
  let rp = Disk.allocate t.disk in
  Buffer.with_page t.buffer pp ~dirty:true (fun parent ->
      Buffer.with_page t.buffer cp ~dirty:true (fun child ->
          Buffer.with_page t.buffer rp ~dirty:true (fun right ->
              let n = nkeys child in
              assert (n = t.max_keys);
              let mid = n / 2 in
              let separator =
                if kind child = leaf_kind then begin
                  init_node right leaf_kind;
                  (* Right leaf takes keys[mid..n-1]. *)
                  for i = mid to n - 1 do
                    set_key right (i - mid) (key_at child i);
                    set_value t right (i - mid) (value_at t child i)
                  done;
                  set_nkeys right (n - mid);
                  set_nkeys child mid;
                  set_next_leaf right (next_leaf child);
                  set_next_leaf child rp;
                  key_at right 0
                end
                else begin
                  init_node right internal_kind;
                  (* Separator keys[mid] moves up; right takes
                     keys[mid+1..n-1] and children[mid+1..n]. *)
                  for i = mid + 1 to n - 1 do
                    set_key right (i - mid - 1) (key_at child i)
                  done;
                  for j = mid + 1 to n do
                    set_child t right (j - mid - 1) (child_at t child j)
                  done;
                  set_nkeys right (n - mid - 1);
                  let sep = key_at child mid in
                  set_nkeys child mid;
                  sep
                end
              in
              (* Insert separator and right pointer into the parent at ci. *)
              let pn = nkeys parent in
              for i = pn - 1 downto ci do
                set_key parent (i + 1) (key_at parent i)
              done;
              for j = pn downto ci + 1 do
                set_child t parent (j + 1) (child_at t parent j)
              done;
              set_key parent ci separator;
              set_child t parent (ci + 1) rp;
              set_nkeys parent (pn + 1))))

let insert t key rid =
  let splits = ref 0 in
  (* Grow the root first if full. *)
  let root_full =
    Buffer.with_page t.buffer t.root (fun p -> nkeys p = t.max_keys)
  in
  if root_full then begin
    let new_root = Disk.allocate t.disk in
    Buffer.with_page t.buffer new_root ~dirty:true (fun p ->
        init_node p internal_kind;
        set_child t p 0 t.root);
    split_child t new_root 0 t.root;
    incr splits;
    t.root <- new_root;
    t.height <- t.height + 1
  end;
  let rec insert_nonfull page depth =
    Buffer.with_page t.buffer page (fun p ->
        let n = nkeys p in
        if kind p = leaf_kind then begin
          let i = lower_bound p n key in
          if i < n && key_at p i = key then `Dup depth
          else begin
            for j = n - 1 downto i do
              set_key p (j + 1) (key_at p j);
              set_value t p (j + 1) (value_at t p j)
            done;
            set_key p i key;
            set_value t p i rid;
            set_nkeys p (n + 1);
            Buffer.mark_dirty t.buffer page;
            `Inserted depth
          end
        end
        else begin
          let i = lower_bound p n key in
          let i = if i < n && key_at p i = key then i + 1 else i in
          let child = child_at t p i in
          let child_full =
            Buffer.with_page t.buffer child (fun c -> nkeys c = t.max_keys)
          in
          let i =
            if child_full then begin
              split_child t page i child;
              incr splits;
              (* Re-decide direction against the new separator. *)
              if key >= key_at p i then i + 1 else i
            end
            else i
          in
          insert_nonfull (child_at t p i) (depth + 1)
        end)
  in
  match insert_nonfull t.root 1 with
  | `Dup depth ->
      t.hooks.Hooks.on_op (Hooks.Btree_insert { depth; splits = !splits });
      `Duplicate
  | `Inserted depth ->
      t.entries <- t.entries + 1;
      t.hooks.Hooks.on_op (Hooks.Btree_insert { depth; splits = !splits });
      `Ok

let delete t key =
  let rec descend page =
    Buffer.with_page t.buffer page (fun p ->
        let n = nkeys p in
        let i = lower_bound p n key in
        if kind p = leaf_kind then
          if i < n && key_at p i = key then begin
            for j = i to n - 2 do
              set_key p j (key_at p (j + 1));
              set_value t p j (value_at t p (j + 1))
            done;
            set_nkeys p (n - 1);
            Buffer.mark_dirty t.buffer page;
            true
          end
          else false
        else
          let i = if i < n && key_at p i = key then i + 1 else i in
          descend (child_at t p i))
  in
  let removed = descend t.root in
  if removed then t.entries <- t.entries - 1;
  removed

(* Leaf holding the first key >= lo. *)
let seek_leaf t lo =
  let rec go page =
    Buffer.with_page t.buffer page (fun p ->
        if kind p = leaf_kind then page
        else begin
          let n = nkeys p in
          let i = lower_bound p n lo in
          let i = if i < n && key_at p i = lo then i + 1 else i in
          go (child_at t p i)
        end)
  in
  go t.root

let iter_range t ~lo ~hi f =
  let rec walk page =
    if page >= 0 then begin
      let next =
        Buffer.with_page t.buffer page (fun p ->
            let n = nkeys p in
            let stop = ref false in
            for i = 0 to n - 1 do
              let k = key_at p i in
              if k > hi then stop := true
              else if k >= lo then f k (value_at t p i)
            done;
            if !stop then -1 else next_leaf p)
      in
      walk next
    end
  in
  walk (seek_leaf t lo)

let iter t f = iter_range t ~lo:Int64.min_int ~hi:Int64.max_int f

let height t = t.height
let n_entries t = t.entries
