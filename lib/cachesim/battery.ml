module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline

type engine = [ `Icache | `Stackdist ]

(* Two interchangeable backends over the same configuration list: an array
   of full per-config simulators, or one grouped stack-distance simulation
   whose miss counts are byte-identical (both are exact per-set LRU; the
   cross-engine CI leg enforces the equality). *)
type backend = Caches of Icache.t array | Stack of Stackdist.t

(* Timeline designation: one configuration whose cumulative miss count
   ([tl_misses_now]) is polled around every fed run or range of runs, the
   delta attributed to the window holding the first run's start position.
   Deltas are equal under both engines (exact per-set LRU each), so the
   resulting series is engine-agnostic. *)
type tl = {
  tl_misses : Timeline.series;
  tl_accesses : Timeline.series;
  tl_misses_now : unit -> int;
  tl_shift : int; (* log2 line_bytes of the designated configuration *)
  mutable tl_pos : int; (* cumulative fed instructions *)
}

(* [block] is the replay's decode buffer, made by the first replay: a
   battery fed run by run never allocates it. *)
type t = { backend : backend; tl : tl option; mutable block : Trace.block option }

let engine_name = function `Icache -> "icache" | `Stackdist -> "stackdist"

let cache caches name =
  match Array.find_opt (fun c -> String.equal (Icache.cfg c).Icache.name name) caches with
  | Some c -> c
  | None ->
      let available =
        Array.to_list caches
        |> List.map (fun c -> (Icache.cfg c).Icache.name)
        |> String.concat ", "
      in
      invalid_arg
        (Printf.sprintf "Battery: no cache configuration %S (available: %s)" name
           (if available = "" then "none" else available))

(* The designated configuration is looked up whether or not timelines are
   on, so an unknown name raises either way; its series are registered
   only while they are on. *)
let designate backend (name, prefix) =
  let tl_misses_now, tl_shift =
    match backend with
    | Caches caches ->
        let c = cache caches name in
        ((fun () -> Icache.misses c), (Icache.lru c).Lru.shift)
    | Stack sd ->
        let p = Stackdist.probe sd name in
        ((fun () -> Stackdist.probe_misses p), Stackdist.probe_line_shift p)
  in
  if not (Timeline.enabled ()) then None
  else
    let series leaf = Timeline.series (Printf.sprintf "cachesim.%s.%s" prefix leaf) in
    Some
      {
        tl_misses = series "misses";
        tl_accesses = series "accesses";
        tl_misses_now;
        tl_shift;
        tl_pos = 0;
      }

let create ~engine ?timeline configs =
  let backend =
    match engine with
    | `Icache -> Caches (Array.of_list (List.map (fun c -> Icache.create c) configs))
    | `Stackdist -> Stack (Stackdist.create configs)
  in
  { backend; tl = Option.bind timeline (designate backend); block = None }

(* Lines a run of [len] instructions at [addr] touches at [shift]. *)
let lines shift addr len =
  if len <= 0 then 0 else ((addr + (len * 4) - 1) lsr shift) - (addr lsr shift) + 1

(* Attribute the designated configuration's miss delta since [before] and
   [touched] line touches to the window holding the position, then move
   the position on by [instrs]. *)
let book tl ~before ~touched ~instrs =
  let pos = tl.tl_pos in
  Timeline.add tl.tl_misses ~pos (tl.tl_misses_now () - before);
  Timeline.add tl.tl_accesses ~pos touched;
  tl.tl_pos <- pos + instrs

let feed_run t run =
  match t.backend with
  | Caches caches ->
      for i = 0 to Array.length caches - 1 do
        Icache.access_run caches.(i) run
      done
  | Stack sd ->
      Stackdist.feed sd run;
      Stackdist.publish sd

let access_run t (run : Run.t) =
  match t.tl with
  | None -> feed_run t run
  | Some tl ->
      let before = tl.tl_misses_now () in
      feed_run t run;
      book tl ~before ~touched:(lines tl.tl_shift run.addr run.len) ~instrs:run.len

(* A replay decodes its trace this many runs at a time, and a stackdist
   battery feeds each block group by group (the sweep grid's 16 B group
   keeps 0.5 MB of tags).  Blocks of 128 to 4,096 runs fed the sweep grid
   equally fast on a 2 MB L2; the buffers a battery keeps for them grow
   with the block, and a benchmark op makes a battery, so the block is
   small. *)
let block_runs = 1024

(* Move the entries of [b] below [n] that [keep] takes to its front, in
   order; their count. *)
let kept keep (b : Trace.block) n =
  let j = ref 0 in
  for i = 0 to n - 1 do
    let owner = b.owner.(i) and addr = b.addr.(i) and len = b.len.(i) in
    if keep { Run.owner; addr; len } then begin
      b.owner.(!j) <- owner;
      b.addr.(!j) <- addr;
      b.len.(!j) <- len;
      incr j
    end
  done;
  !j

(* Feed the runs [lo, hi) of [b] to every configuration. *)
let feed_range t (b : Trace.block) lo hi =
  match t.backend with
  | Stack sd -> Stackdist.feed_block sd ~addr:b.addr ~len:b.len ~lo ~hi
  | Caches caches ->
      for i = lo to hi - 1 do
        let run = { Run.owner = b.owner.(i); addr = b.addr.(i); len = b.len.(i) } in
        for j = 0 to Array.length caches - 1 do
          Icache.access_run caches.(j) run
        done
      done

(* Feed the first [n] runs of [b] in ranges whose runs start in one
   timeline window, booking each range's miss delta and line touches
   there.  [Timeline.add] sums the deltas of a window and skips zeros, and
   neither count is negative, so this books exactly what booking run by
   run does. *)
let feed_windows t tl (b : Trace.block) n =
  let window = Timeline.window () and lo = ref 0 in
  while !lo < n do
    let start = tl.tl_pos in
    let next = ((start / window) + 1) * window in
    let hi = ref !lo and pos = ref start and touched = ref 0 in
    while !hi < n && !pos < next do
      let len = b.len.(!hi) in
      touched := !touched + lines tl.tl_shift b.addr.(!hi) len;
      pos := !pos + len;
      incr hi
    done;
    let before = tl.tl_misses_now () in
    feed_range t b !lo !hi;
    book tl ~before ~touched:!touched ~instrs:(!pos - start);
    lo := !hi
  done

(* One pass over the trace: decode it a block at a time into the battery's
   block and feed each block, in window ranges for a timeline.  A [Run.t]
   is built only for [keep] and for icache feeding.  Stackdist groups book
   their counters while fed and publish them once, at the end.  The time
   between blocks is booked as two children of the current span (nothing
   while spans are off): [trace.decode] (decoding and [keep]) and
   [cachesim.feed].  [Unix.gettimeofday] is an unboxed primitive, so
   reading it per block and summing in [clock] allocate nothing. *)
let access_trace ?keep t trace =
  let b =
    match t.block with
    | Some b -> b
    | None ->
        let b = Trace.block block_runs in
        t.block <- Some b;
        b
  in
  let decoded n = match keep with None -> n | Some keep -> kept keep b n in
  let feed n = match t.tl with None -> feed_range t b 0 n | Some tl -> feed_windows t tl b n in
  (* seconds decoding, seconds feeding, and the end of the last feed *)
  let clock = [| 0.; 0.; Unix.gettimeofday () |] in
  Trace.blocks trace b (fun n ->
      let n = decoded n in
      let fed = Unix.gettimeofday () in
      clock.(0) <- clock.(0) +. (fed -. clock.(2));
      feed n;
      clock.(2) <- Unix.gettimeofday ();
      clock.(1) <- clock.(1) +. (clock.(2) -. fed));
  Telemetry.add_span "trace.decode" (clock.(0) +. (Unix.gettimeofday () -. clock.(2)));
  Telemetry.add_span "cachesim.feed" clock.(1);
  match t.backend with Stack sd -> Stackdist.publish sd | Caches _ -> ()

let misses t name =
  match t.backend with
  | Caches caches -> Icache.misses (cache caches name)
  | Stack sd -> Stackdist.misses sd name

let cold_misses t name =
  match t.backend with
  | Caches caches -> Icache.cold_misses (cache caches name)
  | Stack sd -> Stackdist.cold_misses sd name

let misses_by_config t =
  match t.backend with
  | Caches caches ->
      Array.to_list (Array.map (fun c -> (Icache.cfg c, Icache.misses c)) caches)
  | Stack sd -> Stackdist.misses_by_config sd
