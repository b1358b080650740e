module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry

(* --- first-touch sets -------------------------------------------------- *)

type seen = { mutable pages : Bytes.t array; mutable count : int }

let seen () = { pages = [||]; count = 0 }
let seen_page_bits = 15

let first_reference s key =
  let p = key lsr seen_page_bits in
  if p >= Array.length s.pages then begin
    let doubled = 2 * Array.length s.pages in
    let b = Array.make (if p < doubled then doubled else p + 1) Bytes.empty in
    Array.blit s.pages 0 b 0 (Array.length s.pages);
    s.pages <- b
  end;
  if Bytes.length s.pages.(p) = 0 then
    s.pages.(p) <- Bytes.make (1 lsl (seen_page_bits - 3)) '\000';
  let page = s.pages.(p) in
  let i = (key land ((1 lsl seen_page_bits) - 1)) lsr 3 and bit = 1 lsl (key land 7) in
  let byte = Char.code (Bytes.get page i) in
  byte land bit = 0
  && begin
       Bytes.set page i (Char.unsafe_chr (byte lor bit));
       s.count <- s.count + 1;
       true
     end

let seen_count s = s.count

(* --- caches ------------------------------------------------------------ *)

type t = {
  ways : int;
  set_mask : int;
  shift : int;
  tags : int array;
  stamps : int array;
  owners : int array;
  seen : seen;
  first_touch : bool;
  on_miss : (int -> unit) option;
  on_evict : (evictor:int -> victim:int -> unit) option;
  c_accesses : Telemetry.counter;
  c_misses : Telemetry.counter;
  mutable clock : int;
  mutable misses : int;
  mutable cold : int;
  miss_of : int array;
  displaced : int array;
  mutable evicted : int;
  mutable mru_slot : int;
  mutable booked_accesses : int;
  mutable booked_misses : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ?on_miss ?on_evict ~accesses ~misses ~first_touch ~sets ~ways ~line_bytes () =
  {
    ways;
    set_mask = sets - 1;
    shift = log2 line_bytes;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    owners = Array.make (sets * ways) 0;
    seen = seen ();
    first_touch;
    on_miss;
    on_evict;
    c_accesses = accesses;
    c_misses = misses;
    clock = 0;
    misses = 0;
    cold = 0;
    miss_of = Array.make 2 0;
    displaced = Array.make 4 0;
    evicted = -1;
    mru_slot = 0;
    booked_accesses = 0;
    booked_misses = 0;
  }

let owner_code = function Run.App -> 0 | Run.Kernel -> 1

(* The way in [i, last) holding [key], or -1. *)
let rec find tags key i last =
  if i = last then -1 else if Array.unsafe_get tags i = key then i else find tags key (i + 1) last

(* The victim rule over ways [i, last), [v] the oldest seen so far: the
   first empty way, else the oldest stamp, the lowest way on a tie. *)
let rec victim t v i last =
  if i = last then v
  else if Array.unsafe_get t.tags i = -1 then i
  else victim t (if Array.unsafe_get t.stamps i < t.stamps.(v) then i else v) (i + 1) last

let fill t slot owner key =
  let old = t.tags.(slot) in
  (match t.on_evict with
  | Some f when old >= 0 -> f ~evictor:(key lsl t.shift) ~victim:(old lsl t.shift)
  | _ -> ());
  t.evicted <- old;
  t.tags.(slot) <- key;
  t.owners.(slot) <- owner;
  t.stamps.(slot) <- t.clock

let miss t owner key base =
  t.misses <- t.misses + 1;
  t.miss_of.(owner) <- t.miss_of.(owner) + 1;
  if t.first_touch && first_reference t.seen key then t.cold <- t.cold + 1;
  (match t.on_miss with Some f -> f (key lsl t.shift) | None -> ());
  let slot = victim t base base (base + t.ways) in
  if t.tags.(slot) >= 0 then begin
    let d = (owner * 2) + t.owners.(slot) in
    t.displaced.(d) <- t.displaced.(d) + 1
  end;
  fill t slot owner key;
  slot

let access t owner key =
  t.clock <- t.clock + 1;
  let slot =
    if t.tags.(t.mru_slot) = key then t.mru_slot
    else
      let base = (key land t.set_mask) * t.ways in
      match find t.tags key base (base + t.ways) with -1 -> miss t owner key base | s -> s
  in
  t.stamps.(slot) <- t.clock;
  t.mru_slot <- slot;
  slot

let publish t =
  if t.clock > t.booked_accesses then Telemetry.add t.c_accesses (t.clock - t.booked_accesses);
  if t.misses > t.booked_misses then Telemetry.add t.c_misses (t.misses - t.booked_misses);
  t.booked_accesses <- t.clock;
  t.booked_misses <- t.misses

let access_run t (r : Run.t) =
  if r.len > 0 then begin
    let owner = owner_code r.owner in
    for key = r.addr lsr t.shift to (r.addr + (r.len * 4) - 1) lsr t.shift do
      ignore (access t owner key)
    done;
    publish t
  end

let prefetch t owner key =
  let base = (key land t.set_mask) * t.ways in
  if find t.tags key base (base + t.ways) >= 0 then -1
  else begin
    let slot = victim t base base (base + t.ways) in
    fill t slot owner key;
    slot
  end

let clear t = Array.fill t.tags 0 (Array.length t.tags) (-1)
