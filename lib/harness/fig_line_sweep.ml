module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Spike = Olayout_core.Spike

let cache_sizes_kb = [ 32; 64; 128; 256; 512 ]
let line_sizes = [ 16; 32; 64; 128; 256 ]
let n_lines = List.length line_sizes

(* Misses indexed [size][line] in the order of the lists above — built once
   from the battery (whose config order is size-major, line-minor), so
   table construction is O(1) per cell instead of an assoc-list scan per
   lookup. *)
type grid = int array array

type result = { base : grid; optimized : grid }

let configs =
  List.concat_map
    (fun size_kb -> List.map (fun line -> Icache.config ~size_kb ~line ~assoc:1 ()) line_sizes)
    cache_sizes_kb

let collect battery =
  let grid = Array.make_matrix (List.length cache_sizes_kb) n_lines 0 in
  List.iteri
    (fun i (_, m) -> grid.(i / n_lines).(i mod n_lines) <- m)
    (Battery.misses_by_config battery);
  grid

let index_of what xs v =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Fig_line_sweep.misses: unknown %s %d" what v)
    | x :: _ when x = v -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 xs

let misses grid ~size_kb ~line =
  grid.(index_of "cache size" cache_sizes_kb size_kb).(index_of "line size" line_sizes line)

(* The paper's headline geometry (64KB, 128B lines, direct-mapped) carries
   the figure's timeline series: per-window miss/access deltas land under
   cachesim.base.* / cachesim.opt.* when the timeline layer is enabled. *)
let headline = "64KB/128B/1-way"

let run ctx =
  let engine = Context.engine ctx in
  let b_base = Battery.create ~engine ~timeline:(headline, "base") configs
  and b_opt = Battery.create ~engine ~timeline:(headline, "opt") configs in
  Context.feed_app_batteries ctx [ (Spike.Base, b_base); (Spike.All, b_opt) ];
  { base = collect b_base; optimized = collect b_opt }

let size_row tbl size_kb cells =
  Table.add_row tbl ~id:(Printf.sprintf "%dkb" size_kb)
    (Table.Text (Printf.sprintf "%dKB" size_kb) :: cells)

let grid_table ~id ~title cell =
  let tbl =
    Table.create ~id ~title
      ~columns:
        (("cache", "cache \\ line")
        :: List.map (fun l -> (Printf.sprintf "%db" l, Printf.sprintf "%dB" l)) line_sizes)
  in
  List.iteri
    (fun si size_kb -> size_row tbl size_kb (List.init n_lines (fun li -> cell si li)))
    cache_sizes_kb;
  tbl

let tables r =
  let misses grid si li = Table.Int grid.(si).(li) in
  let fig5 =
    grid_table ~id:"fig5" ~title:"Fig 5: relative misses, optimized/baseline (direct-mapped)"
      (fun si li -> Table.pct r.optimized.(si).(li) r.base.(si).(li))
  in
  Table.add_note fig5
    "paper: ~35-45% (i.e. 55-65% reduction) at 64-128KB; gains grow with line size";
  [
    grid_table ~id:"fig4a" ~title:"Fig 4a: app i-cache misses, baseline (direct-mapped)"
      (misses r.base);
    grid_table ~id:"fig4b" ~title:"Fig 4b: app i-cache misses, optimized (direct-mapped)"
      (misses r.optimized);
    fig5;
  ]
