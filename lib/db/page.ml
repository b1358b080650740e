(* Header: [0..1] n_slots, [2..3] free pointer (top of payload area).
   Slot directory entry i at 4 + 4*i: [off:2][len:2].  Payloads grow down
   from the end; free pointer is the lowest used payload byte. *)

type t = bytes

let size = 8192
let header_bytes = 4
let slot_bytes = 4

let get16 p off = Char.code (Bytes.get p off) lor (Char.code (Bytes.get p (off + 1)) lsl 8)

let set16 p off v =
  Bytes.set p off (Char.chr (v land 0xff));
  Bytes.set p (off + 1) (Char.chr ((v lsr 8) land 0xff))

let n_slots p = get16 p 0
let free_ptr p = get16 p 2

let create () =
  let p = Bytes.make size '\000' in
  set16 p 2 size;
  p

let of_bytes b =
  if Bytes.length b <> size then invalid_arg "Page.of_bytes: wrong size";
  b

let to_bytes p = p
let copy = Bytes.copy

let slot_off p i = get16 p (header_bytes + (slot_bytes * i))
let slot_len p i = get16 p (header_bytes + (slot_bytes * i) + 2)

let set_slot p i ~off ~len =
  set16 p (header_bytes + (slot_bytes * i)) off;
  set16 p (header_bytes + (slot_bytes * i) + 2) len

let dir_end p = header_bytes + (slot_bytes * n_slots p)

let free_space p =
  let space = free_ptr p - dir_end p - slot_bytes in
  max 0 space

let insert p record =
  let len = Bytes.length record in
  if len = 0 || len > free_space p then None
  else begin
    let slot = n_slots p in
    let off = free_ptr p - len in
    Bytes.blit record 0 p off len;
    set_slot p slot ~off ~len;
    set16 p 0 (slot + 1);
    set16 p 2 off;
    Some slot
  end

let read p slot =
  if slot < 0 || slot >= n_slots p then None
  else
    let len = slot_len p slot in
    if len = 0 then None else Some (Bytes.sub p (slot_off p slot) len)

let delete p slot =
  if slot < 0 || slot >= n_slots p || slot_len p slot = 0 then false
  else begin
    set_slot p slot ~off:0 ~len:0;
    true
  end

let update p slot record =
  if slot < 0 || slot >= n_slots p then false
  else
    let len = slot_len p slot in
    if len = 0 || len <> Bytes.length record then false
    else begin
      Bytes.blit record 0 p (slot_off p slot) len;
      true
    end

let iter p f =
  for slot = 0 to n_slots p - 1 do
    match read p slot with Some r -> f slot r | None -> ()
  done
