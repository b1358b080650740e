module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Spike = Olayout_core.Spike

type result = { rows : (int * int * int * int * int) list }

let sizes = Fig_line_sweep.cache_sizes_kb

let configs =
  List.concat_map
    (fun size_kb ->
      [ Icache.config ~size_kb ~line:128 ~assoc:1 (); Icache.config ~size_kb ~line:128 ~assoc:4 () ])
    sizes

let run ctx =
  let engine = Context.engine ctx in
  let b_base = Battery.create ~engine configs
  and b_opt = Battery.create ~engine configs in
  Context.feed_app_batteries ctx [ (Spike.Base, b_base); (Spike.All, b_opt) ];
  let find battery size_kb assoc =
    Battery.misses battery (Icache.config ~size_kb ~line:128 ~assoc ()).Icache.name
  in
  {
    rows =
      List.map
        (fun s -> (s, find b_base s 1, find b_base s 4, find b_opt s 1, find b_opt s 4))
        sizes;
  }

let tables r =
  let tbl =
    Table.create ~id:"fig6" ~title:"Fig 6: associativity impact (128-byte lines)"
      ~columns:[ ("cache", "cache"); ("base_dm", "base DM"); ("base_4way", "base 4-way");
                 ("opt_dm", "opt DM"); ("opt_4way", "opt 4-way"); ("base_dm_vs_4way", "base DM/4-way");
                 ("opt_dm_vs_base_4way", "opt DM/base 4-way") ]
  in
  (* The two ratios: what 4-way buys the baseline (paper: nothing -
     capacity dominates) vs what layout buys over even the 4-way
     baseline. *)
  List.iter
    (fun (s, b1, b4, o1, o4) ->
      Fig_line_sweep.size_row tbl s
        [ Table.Int b1; Table.Int b4; Table.Int o1; Table.Int o4; Table.ratio b1 b4; Table.ratio o1 b4 ])
    r.rows;
  Table.add_note tbl
    "paper: associativity gains are small vs layout gains at 32-128KB (capacity dominates)";
  [ tbl ]
