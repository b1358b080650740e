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

(* --- decoding ------------------------------------------------------- *)

type block = { addr : int array; len : int array; owner : Run.owner array }

let block n =
  if n < 1 then invalid_arg "Trace.block: a block holds at least one run";
  { addr = Array.make n 0; len = Array.make n 0; owner = Array.make n Run.App }

(* The one varint decoder: the value at [pos], and how many bytes it took,
   which follows from the value: it is the count [put] writes for it.
   Most varints are one byte; both are inlined where records are
   decoded. *)
let[@inline] varint buf pos =
  let b = Char.code (Bytes.unsafe_get buf pos) in
  if b < 0x80 then b
  else begin
    let v = ref (b land 0x7f) and shift = ref 7 and p = ref pos and byte = ref b in
    while !byte >= 0x80 do
      incr p;
      byte := Char.code (Bytes.unsafe_get buf !p);
      v := !v lor ((!byte land 0x7f) lsl !shift);
      shift := !shift + 7
    done;
    !v
  end

let[@inline] varint_bytes v =
  let n = ref 1 and rest = ref (v lsr 7) in
  while !rest <> 0 do
    incr n;
    rest := !rest lsr 7
  done;
  !n

(* Where decoding stands: the next byte of the current chunk, the block
   entries filled and the previous record's end address. *)
type cursor = { mutable pos : int; mutable used : int; mutable prev_end : int }

(* Records of [buf] from [c.pos] below [limit] into [b] from entry
   [c.used], until the chunk ends or the block is full.  The loop calls
   nothing, so its state stays in registers. *)
let fill c b buf limit =
  let cap = Array.length b.addr and addrs = b.addr and lens = b.len and owners = b.owner in
  let pos = ref c.pos and n = ref c.used and prev_end = ref c.prev_end in
  while !pos < limit && !n < cap do
    let k = varint buf !pos in
    pos := !pos + varint_bytes k;
    let zig = varint buf !pos in
    pos := !pos + varint_bytes zig;
    let len = k lsr 1 and addr = !prev_end + ((zig lsr 1) lxor (- (zig land 1))) in
    let i = !n in
    Array.unsafe_set addrs i addr;
    Array.unsafe_set lens i len;
    Array.unsafe_set owners i (if k land 1 = 0 then Run.App else Run.Kernel);
    prev_end := addr + (len * 4);
    n := i + 1
  done;
  c.pos <- !pos;
  c.used <- !n;
  c.prev_end <- !prev_end

(* Decode the chunks oldest first: [filled] lists them newest first. *)
let rec fill_chunks c b f = function
  | [] -> ()
  | (buf, limit) :: older ->
      fill_chunks c b f older;
      c.pos <- 0;
      while c.pos < limit do
        fill c b buf limit;
        if c.used = Array.length b.addr then begin
          f c.used;
          c.used <- 0
        end
      done

let blocks t b f =
  let c = { pos = 0; used = 0; prev_end = 0 } in
  fill_chunks c b f ((t.cur, t.pos) :: t.filled);
  if c.used > 0 then f c.used

(* As [fill], a run at a time, into [f]; the previous chunk's end address
   in, this one's out. *)
let replay_chunk f prev_end (buf, limit) =
  let pos = ref 0 and prev_end = ref prev_end in
  while !pos < limit do
    let k = varint buf !pos in
    pos := !pos + varint_bytes k;
    let zig = varint buf !pos in
    pos := !pos + varint_bytes zig;
    let len = k lsr 1 and addr = !prev_end + ((zig lsr 1) lxor (- (zig land 1))) in
    f { Run.owner = (if k land 1 = 0 then Run.App else Run.Kernel); addr; len };
    prev_end := addr + (len * 4)
  done;
  !prev_end

let replay t f =
  ignore (List.fold_left (replay_chunk f) 0 (List.rev ((t.cur, t.pos) :: t.filled)))

let contents t =
  let chunk (buf, len) = Bytes.sub_string buf 0 len in
  String.concat "" (List.rev_map chunk ((t.cur, t.pos) :: t.filled))

let length t = t.runs
let instrs t = t.instrs

let memory_bytes t =
  (* Allocated chunk space; the tail chunk counts in full. *)
  (List.length t.filled + 1) * chunk_bytes
