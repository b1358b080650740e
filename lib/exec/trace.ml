(* Compact append-only instruction-trace buffer (see trace.mli).

   Encoding: one record per merged run, two LEB128 varints —
     k     = (len lsl 1) lor owner_bit
     delta = zigzag (addr - previous run's end address)
   Sequential streams make the address delta small (often one byte), so a
   run costs ~2-5 bytes instead of three boxed-record words.  Chunks are
   fixed-size Bytes buffers; appending never allocates per run beyond the
   occasional fresh chunk. *)

let chunk_bytes = 1 lsl 18

(* Worst case record: two 10-byte varints. *)
let max_record_bytes = 20

type t = {
  mutable filled : (Bytes.t * int) list;  (* complete chunks, newest first *)
  mutable cur : Bytes.t;
  mutable pos : int;
  mutable runs : int;
  mutable instrs : int;
  mutable prev_end : int;  (* end address of the last appended run *)
}

let create () =
  {
    filled = [];
    cur = Bytes.create chunk_bytes;
    pos = 0;
    runs = 0;
    instrs = 0;
    prev_end = 0;
  }

(* Unsigned LEB128 of [v] at [pos] in [buf]; returns the next position.
   [append] writes a one-byte varint itself. *)
let rec put buf pos v =
  if v lsr 7 = 0 then (Bytes.unsafe_set buf pos (Char.unsafe_chr v); pos + 1)
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (v land 0x7f lor 0x80));
    put buf (pos + 1) (v lsr 7)
  end

let append t (r : Run.t) =
  if t.pos > chunk_bytes - max_record_bytes then begin
    t.filled <- (t.cur, t.pos) :: t.filled;
    t.cur <- Bytes.create chunk_bytes;
    t.pos <- 0
  end;
  let buf = t.cur and pos = t.pos and len = r.Run.len in
  let k = (len lsl 1) lor match r.Run.owner with Run.App -> 0 | Run.Kernel -> 1 in
  let delta = r.Run.addr - t.prev_end in
  (* zigzag: small negative deltas also encode in one byte *)
  let zig = (delta lsl 1) lxor (delta asr 62) in
  let pos =
    if k lsr 7 = 0 then (Bytes.unsafe_set buf pos (Char.unsafe_chr k); pos + 1) else put buf pos k
  in
  t.pos <-
    (if zig lsr 7 = 0 then (Bytes.unsafe_set buf pos (Char.unsafe_chr zig); pos + 1)
     else put buf pos zig);
  t.prev_end <- r.Run.addr + (len * 4);
  t.runs <- t.runs + 1;
  t.instrs <- t.instrs + len

let record () =
  let t = create () in
  ((fun r -> append t r), t)

(* Both varints decode inline: a local decoding closure would capture [pos]
   and be allocated once per record. *)
let replay t f =
  let prev_end = ref 0 in
  let consume buf len =
    let pos = ref 0 in
    while !pos < len do
      let k = ref 0 and shift = ref 0 and b = ref 0x80 in
      while !b >= 0x80 do
        b := Char.code (Bytes.unsafe_get buf !pos);
        incr pos;
        k := !k lor ((!b land 0x7f) lsl !shift);
        shift := !shift + 7
      done;
      let zig = ref 0 in
      shift := 0;
      b := 0x80;
      while !b >= 0x80 do
        b := Char.code (Bytes.unsafe_get buf !pos);
        incr pos;
        zig := !zig lor ((!b land 0x7f) lsl !shift);
        shift := !shift + 7
      done;
      let k = !k and zig = !zig in
      let delta = (zig lsr 1) lxor (- (zig land 1)) in
      let owner = if k land 1 = 0 then Run.App else Run.Kernel in
      let len = k lsr 1 in
      let addr = !prev_end + delta in
      f { Run.owner; addr; len };
      prev_end := addr + (len * 4)
    done
  in
  List.iter (fun (buf, len) -> consume buf len) (List.rev t.filled);
  consume t.cur t.pos

let contents t =
  let chunk (buf, len) = Bytes.sub_string buf 0 len in
  String.concat "" (List.rev_map chunk ((t.cur, t.pos) :: t.filled))

let length t = t.runs
let instrs t = t.instrs

let memory_bytes t =
  (* Allocated chunk space; the tail chunk counts in full. *)
  (List.length t.filled + 1) * chunk_bytes
