module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry

(* Aggregated over every instance, like the icache counters: figure sweeps
   run several batteries; per-configuration numbers stay in [t]. *)
let c_accesses = Telemetry.counter "cachesim.stackdist.accesses"
let c_misses = Telemetry.counter "cachesim.stackdist.misses"
let c_walk_steps = Telemetry.counter "cachesim.stackdist.walk_steps"

(* One line size.  Its set counts ("levels", increasing) lie flat in int
   arrays indexed by level.  Level [l] has [masks.(l) + 1] sets; each keeps
   its [d = depths.(l)] most recent distinct lines, newest first (-1
   empty), where the depth is the largest associativity swept at this set
   count: a line found at depth [p] hits exactly the configurations with
   more than [p] ways.  A line beyond the stack is booked at depth [d],
   which every configuration here misses.  A set's stack starts at
   [stack.(offsets.(l) + set * (d + 1))] and is followed by one slot for
   the walk's sentinel; a set of depth one is just a tag, at
   [offsets.(l) + set].  [hist.(hists.(l) + p)] counts the references
   found at depth [p], and [miss_at.(hists.(l) + p)] is the number of
   configurations at this set count that miss there.  Level 0 starts at
   offset 0. *)
type group = {
  line_shift : int;
  direct : bool;  (* every level direct-mapped: [stack] is tag arrays *)
  (* [masks.(0)] and the first level's set stride, read by the
     most-recent test every touch makes *)
  mask0 : int;
  stride0 : int;
  masks : int array;
  depths : int array;
  offsets : int array;
  hists : int array;
  stack : int array;
  hist : int array;
  miss_at : int array;
  seen : Lru.seen;  (* lines referenced so far: its count is the cold misses *)
  mutable accesses : int;
  (* The telemetry counters' increments since the last [publish]:
     feeding a run makes no call into the registry. *)
  mutable new_accesses : int;
  mutable new_misses : int;
  mutable new_steps : int;
}

(* A configuration's result: its group, and the histogram entries of the
   depths it misses at.  A configuration with [a] ways misses every
   reference found at depth [a] or deeper. *)
type slot = { cfg : Icache.config; group : int; hist : int array; from : int; upto : int }

(* [lines] is the groups' shared buffer of a block's line touches (see
   [expand]). *)
type t = { groups : group array; ordered : slot array; mutable lines : int array }

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create configs =
  let sized = List.map (fun cfg -> (cfg, Icache.sets ~caller:"Stackdist.create" cfg)) configs in
  let line_of ((c : Icache.config), _) = c.Icache.line_bytes in
  let line_sizes = Array.of_list (List.sort_uniq compare (List.map line_of sized)) in
  let group_of line_bytes =
    let mine = List.filter (fun c -> line_of c = line_bytes) sized in
    let sets = Array.of_list (List.sort_uniq compare (List.map snd mine)) in
    let assocs l =
      List.filter_map
        (fun ((c : Icache.config), n) -> if n = sets.(l) then Some c.Icache.assoc else None)
        mine
    in
    let n = Array.length sets in
    let depths = Array.init n (fun l -> List.fold_left max 1 (assocs l)) in
    let direct = Array.for_all (fun d -> d = 1) depths in
    let stride l = if depths.(l) = 1 then 1 else depths.(l) + 1 in
    let offsets = Array.make (n + 1) 0 and hists = Array.make n 0 in
    for l = 1 to n do
      offsets.(l) <- offsets.(l - 1) + (sets.(l - 1) * stride (l - 1))
    done;
    for l = 1 to n - 1 do
      hists.(l) <- hists.(l - 1) + depths.(l - 1) + 1
    done;
    let miss_at = Array.make (hists.(n - 1) + depths.(n - 1) + 1) 0 in
    for l = 0 to n - 1 do
      let assocs = assocs l in
      for p = 0 to depths.(l) do
        miss_at.(hists.(l) + p) <- List.length (List.filter (fun a -> a <= p) assocs)
      done
    done;
    {
      line_shift = log2 line_bytes;
      direct;
      mask0 = sets.(0) - 1;
      stride0 = stride 0;
      masks = Array.map (fun s -> s - 1) sets;
      depths;
      offsets = Array.sub offsets 0 n;
      hists;
      stack = Array.make offsets.(n) (-1);
      hist = Array.make (Array.length miss_at) 0;
      miss_at;
      seen = Lru.seen ();
      accesses = 0;
      new_accesses = 0;
      new_misses = 0;
      new_steps = 0;
    }
  in
  let groups = Array.map group_of line_sizes in
  let slot (((cfg : Icache.config), sets) as c) =
    let group = Option.get (Array.find_index (fun l -> l = line_of c) line_sizes) in
    let g = groups.(group) in
    let level = Option.get (Array.find_index (fun m -> m = sets - 1) g.masks) in
    let h = g.hists.(level) in
    { cfg; group; hist = g.hist; from = h + cfg.Icache.assoc; upto = h + g.depths.(level) }
  in
  { groups; ordered = Array.of_list (List.map slot sized); lines = [||] }

(* --- run feeding ------------------------------------------------------- *)

(* Each line a run touches visits the set counts in increasing order,
   moves to the front of its set's stack at each and books the depth it
   was found at.  With bit-selection mapping a set at [2^(j+1)] sets holds
   a subset of the lines congruent at [2^j], so a line that is already most
   recent at one set count is most recent at every larger one: the walk
   stops there, and no later stack changes.  [walk_steps] counts stack
   entries compared.

   The feeding loops make the first set count's most-recent test (one
   step, booked per touch) and call a walk for the rest.  A walk books its
   own steps and miss events in the group, and a line no stack holds takes
   the first-touch test; per level, it calls nothing. *)

(* The walk of a line whose first-level tag differs: a level is one tag
   per set, and the line misses each level up to the first whose tag it
   is. *)
let walk_direct g line =
  let stack = g.stack and hist = g.hist and miss_at = g.miss_at in
  let levels = Array.length g.masks and h0 = Array.unsafe_get g.hists 0 + 1 in
  Array.unsafe_set stack (line land g.mask0) line;
  Array.unsafe_set hist h0 (Array.unsafe_get hist h0 + 1);
  let misses = ref (Array.unsafe_get miss_at h0) and lv = ref 1 in
  while !lv < levels do
    let i = !lv in
    let j = Array.unsafe_get g.offsets i + (line land Array.unsafe_get g.masks i) in
    if Array.unsafe_get stack j = line then lv := levels + i
    else begin
      Array.unsafe_set stack j line;
      let h = Array.unsafe_get g.hists i + 1 in
      Array.unsafe_set hist h (Array.unsafe_get hist h + 1);
      misses := !misses + Array.unsafe_get miss_at h;
      lv := i + 1
    end
  done;
  g.new_misses <- g.new_misses + !misses;
  (* [lv] is [levels + i] when level [i] held the line. *)
  if !lv = levels then begin
    g.new_steps <- g.new_steps + levels - 1;
    ignore (Lru.first_reference g.seen line)
  end
  else g.new_steps <- g.new_steps + !lv - levels

(* The walk of a line that is not most recent at the first level. *)
let walk_stacked g line =
  let stack = g.stack and hist = g.hist and depths = g.depths in
  let levels = Array.length depths in
  let lv = ref 0 and found = ref false and steps = ref (-1) and misses = ref 0 in
  while !lv < levels do
    let i = !lv in
    let d = Array.unsafe_get depths i and set = line land Array.unsafe_get g.masks i in
    let p =
      if d = 1 then begin
        let j = Array.unsafe_get g.offsets i + set in
        if Array.unsafe_get stack j = line then 0
        else begin
          Array.unsafe_set stack j line;
          1
        end
      end
      else begin
        (* Put the line in front and move each entry above it down one.
           The sentinel stops the move at depth [d] when the stack lacks
           the line, the last entry dropped over it. *)
        let base = Array.unsafe_get g.offsets i + (set * (d + 1)) in
        let moved = ref (Array.unsafe_get stack base) and p = ref 0 in
        Array.unsafe_set stack base line;
        Array.unsafe_set stack (base + d) line;
        while !moved <> line do
          incr p;
          let next = Array.unsafe_get stack (base + !p) in
          Array.unsafe_set stack (base + !p) !moved;
          moved := next
        done;
        !p
      end
    in
    if p = 0 then begin
      found := true;
      incr steps;
      lv := levels
    end
    else begin
      if p < d then begin
        found := true;
        steps := !steps + p + 1
      end
      else steps := !steps + d;
      let h = Array.unsafe_get g.hists i + p in
      Array.unsafe_set hist h (Array.unsafe_get hist h + 1);
      misses := !misses + Array.unsafe_get g.miss_at h;
      lv := i + 1
    end
  done;
  g.new_misses <- g.new_misses + !misses;
  g.new_steps <- g.new_steps + !steps;
  (* A line in no stack may still have been referenced, long ago. *)
  if not !found then ignore (Lru.first_reference g.seen line)

let book g touches =
  g.accesses <- g.accesses + touches;
  g.new_accesses <- g.new_accesses + touches;
  g.new_steps <- g.new_steps + touches

(* Write the lines the runs [addr.(r)], [len.(r)], [r < n], touch at
   [shift] to [t.lines], in order; their count.  A run of at most eight
   lines writes eight entries and moves on by its own count, so the common
   run takes no branch on its length; [t.lines] keeps seven spare entries
   for that.  In the figs 4-7 streams 92.9% of application runs touch at
   most eight 16 B lines and 99.97% at most eight 64 B lines, one to eight
   in no predictable order: a plain loop per run, which mispredicts its
   exit, made perfbench's sweep op 18% slower. *)
let expand t shift addr len n =
  let k = ref 0 in
  for r = 0 to n - 1 do
    let l = Array.unsafe_get len r in
    if l > 0 then begin
      let a = Array.unsafe_get addr r and k0 = !k in
      let first = a lsr shift in
      let c = ((a + (l * 4) - 1) lsr shift) - first + 1 in
      if k0 + c + 7 > Array.length t.lines then begin
        let lines = Array.make (max (k0 + c + 7) (max (2 * Array.length t.lines) (8 * n))) 0 in
        Array.blit t.lines 0 lines 0 k0;
        t.lines <- lines
      end;
      let lines = t.lines in
      Array.unsafe_set lines k0 first;
      Array.unsafe_set lines (k0 + 1) (first + 1);
      Array.unsafe_set lines (k0 + 2) (first + 2);
      Array.unsafe_set lines (k0 + 3) (first + 3);
      Array.unsafe_set lines (k0 + 4) (first + 4);
      Array.unsafe_set lines (k0 + 5) (first + 5);
      Array.unsafe_set lines (k0 + 6) (first + 6);
      Array.unsafe_set lines (k0 + 7) (first + 7);
      for i = 8 to c - 1 do
        Array.unsafe_set lines (k0 + i) (first + i)
      done;
      k := k0 + c
    end
  done;
  !k

(* A block feeds each group in turn all its line touches, so the group's
   stacks stay in cache while it does.  Groups share no state, so this
   leaves every count as feeding the runs one by one does.  Expanding the
   runs first makes the touches one loop, with no exit branch per run to
   mispredict. *)
let feed_block t ~addr ~len n =
  if n < 0 || n > Array.length addr || n > Array.length len then
    invalid_arg
      (Printf.sprintf "Stackdist.feed_block: %d runs in arrays of %d and %d" n
         (Array.length addr) (Array.length len));
  for i = 0 to Array.length t.groups - 1 do
    let g = t.groups.(i) in
    let touches = expand t g.line_shift addr len n in
    let lines = t.lines and stack = g.stack and mask0 = g.mask0 in
    if g.direct then
      for k = 0 to touches - 1 do
        let line = Array.unsafe_get lines k in
        if Array.unsafe_get stack (line land mask0) <> line then walk_direct g line
      done
    else begin
      let stride0 = g.stride0 in
      for k = 0 to touches - 1 do
        let line = Array.unsafe_get lines k in
        if Array.unsafe_get stack ((line land mask0) * stride0) <> line then walk_stacked g line
      done
    end;
    book g touches
  done

let feed t (r : Run.t) =
  if r.len > 0 then
    for i = 0 to Array.length t.groups - 1 do
      let g = t.groups.(i) in
      let first = r.addr lsr g.line_shift and last = (r.addr + (r.len * 4) - 1) lsr g.line_shift in
      let stack = g.stack and mask0 = g.mask0 in
      if g.direct then
        for line = first to last do
          if Array.unsafe_get stack (line land mask0) <> line then walk_direct g line
        done
      else begin
        let stride0 = g.stride0 in
        for line = first to last do
          if Array.unsafe_get stack ((line land mask0) * stride0) <> line then walk_stacked g line
        done
      end;
      book g (last - first + 1)
    done

let publish t =
  for i = 0 to Array.length t.groups - 1 do
    let g = t.groups.(i) in
    Telemetry.add c_accesses g.new_accesses;
    if g.new_misses > 0 then Telemetry.add c_misses g.new_misses;
    if g.new_steps > 0 then Telemetry.add c_walk_steps g.new_steps;
    g.new_accesses <- 0;
    g.new_misses <- 0;
    g.new_steps <- 0
  done

let n_groups t = Array.length t.groups

let access_run t r =
  feed t r;
  publish t

let accesses t = Array.fold_left (fun acc g -> acc + g.accesses) 0 t.groups

(* --- results ----------------------------------------------------------- *)

let find t name =
  match
    Array.find_opt (fun s -> String.equal s.cfg.Icache.name name) t.ordered
  with
  | Some s -> s
  | None ->
      let available =
        Array.to_list t.ordered
        |> List.map (fun s -> s.cfg.Icache.name)
        |> String.concat ", "
      in
      invalid_arg
        (Printf.sprintf "Stackdist: no cache configuration %S (available: %s)" name
           (if available = "" then "none" else available))

let slot_misses s =
  let m = ref 0 in
  for h = s.from to s.upto do
    m := !m + s.hist.(h)
  done;
  !m

let misses t name = slot_misses (find t name)
let cold_misses t name = Lru.seen_count t.groups.((find t name).group).seen
let misses_by_config t = Array.to_list (Array.map (fun s -> (s.cfg, slot_misses s)) t.ordered)

(* --- probes ------------------------------------------------------------ *)

(* A resolved handle onto one configuration's slot, for per-run polling
   (the timeline instrumentation reads the cumulative miss count before
   and after every fed run) without a name lookup on the hot path. *)
type probe = slot

let probe t name = find t name
let probe_misses = slot_misses
let probe_line_shift (p : probe) = log2 p.cfg.Icache.line_bytes
