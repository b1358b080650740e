module Icache = Olayout_cachesim.Icache
module Lru = Olayout_cachesim.Lru
module Run = Olayout_exec.Run
module Histogram = Olayout_metrics.Histogram
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline
module Json = Olayout_telemetry.Json

(* Aggregated over every diagnosed cache in the process, mirroring the
   cachesim.* convention: the classification totals show up in
   [report --telemetry] and the JSONL registry dump. *)
let c_compulsory = Telemetry.counter "diag.compulsory_misses"
let c_capacity = Telemetry.counter "diag.capacity_misses"
let c_conflict = Telemetry.counter "diag.conflict_misses"
let c_evictions = Telemetry.counter "diag.evictions"

type totals = {
  total : int;
  compulsory : int;
  capacity : int;
  conflict : int;
  cold : int;
}

type seg_row = {
  seg_name : string;
  seg_owner : Run.owner option;
  seg_misses : int;
  seg_compulsory : int;
  seg_capacity : int;
  seg_conflict : int;
  seg_evictions_caused : int;
  seg_evictions_suffered : int;
}

type conflict_pair = {
  cp_evictor : string;
  cp_victim : string;
  cp_count : int;
  cp_sets : int;
  cp_hot_set : int;
  cp_hot_count : int;
}

type state = {
  resolver : Resolver.t;
  shadow : Shadow.t;
  line_bytes : int;
  set_mask : int;
  (* Per-segment tallies; index [n_segments] is the unresolved bucket, so
     each array sums to its class's total. *)
  seg_misses : int array;
  seg_compulsory : int array;
  seg_capacity : int array;
  seg_conflict : int array;
  seg_caused : int array;
  seg_suffered : int array;
  set_misses : int array;
  (* (set, evictor segment, victim segment) -> replacements *)
  matrix : (int * int * int, int ref) Hashtbl.t;
}

(* Instruction-clock view of the footprint: the Shadow LRU's resident line
   count (the capacity-bounded working set) and the all-time unique-line
   count, sampled once per fed run. *)
type tl = {
  tl_ws : Timeline.series;
  tl_uniq : Timeline.series;
  mutable tl_pos : int;
}

type t = { ic : Icache.t; st : state; tl : tl option }

(* Attribute a line to the segment owning its first mapped word (line
   starts can fall in alignment padding between segments). *)
let resolve_line st addr =
  let rec go off =
    if off >= st.line_bytes then -1
    else
      match Resolver.resolve st.resolver (addr + off) with
      | -1 -> go (off + 4)
      | seg -> seg
  in
  go 0

let seg_idx st seg = if seg < 0 then Array.length st.seg_misses - 1 else seg

let create ?timeline ~resolver (cfg : Icache.config) =
  let n_sets = cfg.Icache.size_bytes / (cfg.Icache.line_bytes * cfg.Icache.assoc) in
  let n_segs = Resolver.n_segments resolver in
  let st =
    {
      resolver;
      shadow = Shadow.create ~capacity:(cfg.Icache.size_bytes / cfg.Icache.line_bytes);
      line_bytes = cfg.Icache.line_bytes;
      set_mask = n_sets - 1;
      seg_misses = Array.make (n_segs + 1) 0;
      seg_compulsory = Array.make (n_segs + 1) 0;
      seg_capacity = Array.make (n_segs + 1) 0;
      seg_conflict = Array.make (n_segs + 1) 0;
      seg_caused = Array.make (n_segs + 1) 0;
      seg_suffered = Array.make (n_segs + 1) 0;
      set_misses = Array.make n_sets 0;
      matrix = Hashtbl.create 1024;
    }
  in
  let on_evict ~evictor ~victim =
    let eseg = seg_idx st (resolve_line st evictor) in
    let vseg = seg_idx st (resolve_line st victim) in
    Telemetry.incr c_evictions;
    st.seg_caused.(eseg) <- st.seg_caused.(eseg) + 1;
    st.seg_suffered.(vseg) <- st.seg_suffered.(vseg) + 1;
    let key = ((evictor / st.line_bytes) land st.set_mask, eseg, vseg) in
    match Hashtbl.find_opt st.matrix key with
    | Some r -> incr r
    | None -> Hashtbl.add st.matrix key (ref 1)
  in
  let tl =
    match timeline with
    | Some prefix when Timeline.enabled () ->
        Some
          {
            tl_ws =
              Timeline.series ~kind:Timeline.Sample
                (Printf.sprintf "diag.%s.working_set_lines" prefix);
            tl_uniq =
              Timeline.series ~kind:Timeline.Sample
                (Printf.sprintf "diag.%s.unique_lines" prefix);
            tl_pos = 0;
          }
    | _ -> None
  in
  { ic = Icache.create ~on_evict cfg; st; tl }

let icache t = t.ic

(* Classify a demand miss on [line] before the shadow sees it, so the
   shadow describes the stream strictly up to this reference. *)
let classify st line ~compulsory =
  let seg = seg_idx st (resolve_line st (line * st.line_bytes)) in
  st.seg_misses.(seg) <- st.seg_misses.(seg) + 1;
  st.set_misses.(line land st.set_mask) <- st.set_misses.(line land st.set_mask) + 1;
  if compulsory then begin
    st.seg_compulsory.(seg) <- st.seg_compulsory.(seg) + 1;
    Telemetry.incr c_compulsory
  end
  else if Shadow.mem st.shadow line then begin
    st.seg_conflict.(seg) <- st.seg_conflict.(seg) + 1;
    Telemetry.incr c_conflict
  end
  else begin
    st.seg_capacity.(seg) <- st.seg_capacity.(seg) + 1;
    Telemetry.incr c_capacity
  end

(* Feed the wrapped cache's core (no usage, no prefetch) line by line, so
   the shadow interleaves with it in stream order; a miss is compulsory
   when the core's first-touch test found the line new. *)
let access_run t (r : Run.t) =
  if r.len > 0 then begin
    let st = t.st and c = Icache.lru t.ic in
    let owner = Lru.owner_code r.owner in
    for line = r.addr lsr c.shift to (r.addr + (r.len * 4) - 1) lsr c.shift do
      let misses = c.misses and cold = c.cold in
      ignore (Lru.access c owner line);
      if c.misses > misses then classify st line ~compulsory:(c.cold > cold);
      Shadow.touch st.shadow line
    done;
    Lru.publish c;
    match t.tl with
    | None -> ()
    | Some tl ->
        let pos = tl.tl_pos in
        Timeline.sample tl.tl_ws ~pos (Shadow.size st.shadow);
        Timeline.sample tl.tl_uniq ~pos (Icache.unique_lines t.ic);
        tl.tl_pos <- pos + r.len
  end

let sum = Array.fold_left ( + ) 0

let totals t =
  {
    total = Icache.misses t.ic;
    compulsory = Icache.cold_misses t.ic;
    capacity = sum t.st.seg_capacity;
    conflict = sum t.st.seg_conflict;
    cold = Icache.cold_misses t.ic;
  }

let truncate top l =
  match top with
  | None -> l
  | Some n ->
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      take n l

let by_segment ?top t =
  let st = t.st in
  let n = Array.length st.seg_misses in
  let rows = ref [] in
  for i = n - 1 downto 0 do
    let active =
      st.seg_misses.(i) > 0 || st.seg_caused.(i) > 0 || st.seg_suffered.(i) > 0
    in
    if active then
      rows :=
        {
          seg_name = (if i = n - 1 then "?" else Resolver.name st.resolver i);
          seg_owner = (if i = n - 1 then None else Some (Resolver.owner st.resolver i));
          seg_misses = st.seg_misses.(i);
          seg_compulsory = st.seg_compulsory.(i);
          seg_capacity = st.seg_capacity.(i);
          seg_conflict = st.seg_conflict.(i);
          seg_evictions_caused = st.seg_caused.(i);
          seg_evictions_suffered = st.seg_suffered.(i);
        }
        :: !rows
  done;
  let sorted =
    List.sort
      (fun (a : seg_row) (b : seg_row) ->
        match compare b.seg_misses a.seg_misses with
        | 0 -> compare a.seg_name b.seg_name
        | c -> c)
      !rows
  in
  truncate top sorted

let conflict_pairs ?top t =
  let st = t.st in
  (* Fold the per-set matrix into per-pair aggregates. *)
  let pairs = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (set, eseg, vseg) count ->
      let count = !count in
      match Hashtbl.find_opt pairs (eseg, vseg) with
      | Some (total, sets, hot_set, hot_count) ->
          let hot_set, hot_count =
            if count > hot_count then (set, count) else (hot_set, hot_count)
          in
          Hashtbl.replace pairs (eseg, vseg) (total + count, sets + 1, hot_set, hot_count)
      | None -> Hashtbl.add pairs (eseg, vseg) (count, 1, set, count))
    st.matrix;
  let name i =
    if i = Array.length st.seg_misses - 1 then "?" else Resolver.name st.resolver i
  in
  let rows =
    Hashtbl.fold
      (fun (eseg, vseg) (total, sets, hot_set, hot_count) acc ->
        {
          cp_evictor = name eseg;
          cp_victim = name vseg;
          cp_count = total;
          cp_sets = sets;
          cp_hot_set = hot_set;
          cp_hot_count = hot_count;
        }
        :: acc)
      pairs []
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.cp_count a.cp_count with
        | 0 -> compare (a.cp_evictor, a.cp_victim) (b.cp_evictor, b.cp_victim)
        | c -> c)
      rows
  in
  truncate top sorted

let set_pressure t =
  let h = Histogram.create () in
  Array.iter (fun m -> Histogram.add h m) t.st.set_misses;
  h

let hot_sets ?top t =
  let rows = Array.to_list (Array.mapi (fun i m -> (i, m)) t.st.set_misses) in
  let sorted =
    List.sort (fun (ia, a) (ib, b) -> match compare b a with 0 -> compare ia ib | c -> c)
      (List.filter (fun (_, m) -> m > 0) rows)
  in
  truncate top sorted

let owner_tag = function
  | Some Run.App -> Json.String "app"
  | Some Run.Kernel -> Json.String "kernel"
  | None -> Json.Null

let json ?(top = 20) t =
  let cfg = Icache.cfg t.ic in
  let tt = totals t in
  Json.Object
    [
      ( "geometry",
        Json.Object
          [
            ("name", Json.String cfg.Icache.name);
            ("size_bytes", Json.Int cfg.Icache.size_bytes);
            ("line_bytes", Json.Int cfg.Icache.line_bytes);
            ("assoc", Json.Int cfg.Icache.assoc);
            ("sets", Json.Int (t.st.set_mask + 1));
          ] );
      ( "classification",
        Json.Object
          [
            ("misses", Json.Int tt.total);
            ("compulsory", Json.Int tt.compulsory);
            ("capacity", Json.Int tt.capacity);
            ("conflict", Json.Int tt.conflict);
            ("cold_fills", Json.Int tt.cold);
            ("accesses", Json.Int (Icache.accesses t.ic));
            ("evictions", Json.Int (sum t.st.seg_caused));
          ] );
      ( "segments",
        Json.Array
          (List.map
             (fun r ->
               Json.Object
                 [
                   ("name", Json.String r.seg_name);
                   ("owner", owner_tag r.seg_owner);
                   ("misses", Json.Int r.seg_misses);
                   ("compulsory", Json.Int r.seg_compulsory);
                   ("capacity", Json.Int r.seg_capacity);
                   ("conflict", Json.Int r.seg_conflict);
                   ("evictions_caused", Json.Int r.seg_evictions_caused);
                   ("evictions_suffered", Json.Int r.seg_evictions_suffered);
                 ])
             (by_segment ~top t)) );
      ( "conflict_pairs",
        Json.Array
          (List.map
             (fun p ->
               Json.Object
                 [
                   ("evictor", Json.String p.cp_evictor);
                   ("victim", Json.String p.cp_victim);
                   ("count", Json.Int p.cp_count);
                   ("sets", Json.Int p.cp_sets);
                   ("hot_set", Json.Int p.cp_hot_set);
                   ("hot_set_count", Json.Int p.cp_hot_count);
                 ])
             (conflict_pairs ~top t)) );
      ( "set_pressure",
        Json.Object
          [
            ( "histogram",
              Json.Array
                (List.map
                   (fun (k, c) -> Json.Array [ Json.Int k; Json.Int c ])
                   (Histogram.to_sorted_list (set_pressure t))) );
            ( "hot_sets",
              Json.Array
                (List.map
                   (fun (set, m) -> Json.Array [ Json.Int set; Json.Int m ])
                   (hot_sets ~top t)) );
          ] );
    ]
