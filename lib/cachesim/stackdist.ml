module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry

(* Aggregated over every instance, like the icache counters: figure sweeps
   run several batteries; per-configuration numbers stay in [t]. *)
let c_accesses = Telemetry.counter "cachesim.stackdist.accesses"
let c_misses = Telemetry.counter "cachesim.stackdist.misses"
let c_walk_steps = Telemetry.counter "cachesim.stackdist.walk_steps"

(* One set count of a group.  Each set keeps its [depth] most recent
   distinct lines, newest first, where [depth] is the largest associativity
   swept at this set count: a line found at depth [p] hits exactly the
   configurations with more than [p] ways.  A line beyond the stack is
   booked at depth [depth], which every configuration here misses. *)
type level = {
  mask : int;  (* sets - 1 *)
  depth : int;
  stack : int array;  (* set * depth + i -> the set's i-th most recent line; -1 empty *)
  hist : int array;  (* depth -> references found there *)
  miss_at : int array;  (* depth -> configurations at this set count that miss there *)
}

type group = {
  line_shift : int;
  levels : level array;  (* increasing set count *)
  seen : Lru.seen;  (* lines referenced so far: its count is the cold misses *)
  mutable accesses : int;
  (* The telemetry counters' increments since the last [publish]:
     feeding a run makes no call into the registry. *)
  mutable new_accesses : int;
  mutable new_misses : int;
  mutable new_steps : int;
}

type slot = { cfg : Icache.config; group : int; level : level }
type t = { groups : group array; ordered : slot array }

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create configs =
  let sized = List.map (fun cfg -> (cfg, Icache.sets ~caller:"Stackdist.create" cfg)) configs in
  let line_of ((c : Icache.config), _) = c.Icache.line_bytes in
  let line_sizes = Array.of_list (List.sort_uniq compare (List.map line_of sized)) in
  let group_of line_bytes =
    let mine = List.filter (fun c -> line_of c = line_bytes) sized in
    let level sets =
      let assocs =
        List.filter_map
          (fun ((c : Icache.config), n) -> if n = sets then Some c.Icache.assoc else None)
          mine
      in
      let depth = List.fold_left max 1 assocs in
      {
        mask = sets - 1;
        depth;
        stack = Array.make (sets * depth) (-1);
        hist = Array.make (depth + 1) 0;
        miss_at =
          Array.init (depth + 1) (fun p -> List.length (List.filter (fun a -> a <= p) assocs));
      }
    in
    {
      line_shift = log2 line_bytes;
      levels = Array.of_list (List.map level (List.sort_uniq compare (List.map snd mine)));
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
    let level = Option.get (Array.find_opt (fun lv -> lv.mask = sets - 1) groups.(group).levels) in
    { cfg; group; level }
  in
  { groups; ordered = Array.of_list (List.map slot sized) }

(* --- run feeding ------------------------------------------------------- *)

(* Each line of the run visits the set counts in increasing order, moves
   to the front of its set's stack at each and books the depth it was
   found at.  With bit-selection mapping a set at [2^(j+1)] sets holds a
   subset of the lines congruent at [2^j], so a line that is already most
   recent at one set count is most recent at every larger one: the walk
   stops there, and no later stack changes.  [walk_steps] counts stack
   entries compared.  Per line and set count, nothing here calls out of
   this module; per line, only the first-touch test of a line no stack
   holds does. *)
let feed_group g (r : Run.t) =
  let first = r.addr lsr g.line_shift
  and last = (r.addr + (r.len * 4) - 1) lsr g.line_shift in
  let levels = g.levels in
  let n = Array.length levels in
  let steps = ref 0 and misses = ref 0 in
  for line = first to last do
    let i = ref 0 and found = ref false in
    while !i < n do
      let lv = Array.unsafe_get levels !i in
      let d = lv.depth and st = lv.stack in
      let base = (line land lv.mask) * d in
      if Array.unsafe_get st base = line then begin
        incr steps;
        found := true;
        i := n
      end
      else if d = 1 then begin
        (* A direct-mapped set count: the stack is a tag array. *)
        incr steps;
        Array.unsafe_set st base line;
        Array.unsafe_set lv.hist 1 (Array.unsafe_get lv.hist 1 + 1);
        misses := !misses + Array.unsafe_get lv.miss_at 1;
        incr i
      end
      else begin
        let p = ref 1 in
        while !p < d && Array.unsafe_get st (base + !p) <> line do
          incr p
        done;
        let p = !p in
        if p < d then begin
          found := true;
          steps := !steps + p + 1
        end
        else steps := !steps + d;
        for k = (if p < d then p else d - 1) downto 1 do
          Array.unsafe_set st (base + k) (Array.unsafe_get st (base + k - 1))
        done;
        Array.unsafe_set st base line;
        Array.unsafe_set lv.hist p (Array.unsafe_get lv.hist p + 1);
        misses := !misses + Array.unsafe_get lv.miss_at p;
        incr i
      end
    done;
    (* A line in no stack may still have been referenced, long ago. *)
    if not !found then ignore (Lru.first_reference g.seen line)
  done;
  g.accesses <- g.accesses + (last - first + 1);
  g.new_accesses <- g.new_accesses + (last - first + 1);
  g.new_misses <- g.new_misses + !misses;
  g.new_steps <- g.new_steps + !steps

let feed t (r : Run.t) =
  if r.len > 0 then
    for i = 0 to Array.length t.groups - 1 do
      feed_group t.groups.(i) r
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

(* A configuration with [a] ways misses every reference found at depth
   [a] or deeper. *)
let slot_misses s =
  let m = ref 0 in
  for p = s.cfg.Icache.assoc to s.level.depth do
    m := !m + s.level.hist.(p)
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
