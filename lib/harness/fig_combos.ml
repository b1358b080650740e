module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Spike = Olayout_core.Spike

type result = {
  combos : Spike.combo list;
  rows : (int * (Spike.combo * int) list) list;
}

let sizes = Fig_line_sweep.cache_sizes_kb

let configs = List.map (fun size_kb -> Icache.config ~size_kb ~line:128 ~assoc:4 ()) sizes

let run ctx =
  let engine = Context.engine ctx in
  let batteries =
    List.map (fun combo -> (combo, Battery.create ~engine configs)) Spike.all_combos
  in
  Context.feed_app_batteries ctx batteries;
  let find b size_kb =
    Battery.misses b (Icache.config ~size_kb ~line:128 ~assoc:4 ()).Icache.name
  in
  {
    combos = Spike.all_combos;
    rows =
      List.map
        (fun s -> (s, List.map (fun (combo, b) -> (combo, find b s)) batteries))
        sizes;
  }

let combo_column combo =
  (String.map (fun c -> if c = '+' then '_' else c) (Spike.combo_name combo), Spike.combo_name combo)

let tables r =
  let tbl =
    Table.create ~id:"fig7"
      ~title:"Fig 7: i-cache misses per optimization combination (128B, 4-way)"
      ~columns:(("cache", "cache") :: List.map combo_column r.combos)
  in
  List.iter
    (fun (s, per_combo) ->
      Fig_line_sweep.size_row tbl s (List.map (fun (_, m) -> Table.Int m) per_combo))
    r.rows;
  (* Each combination against base at 64 KB: the paper's ordering claims
     (porder alone ~ base; chain is the big step; all best). *)
  (match List.assoc_opt 64 r.rows with
  | Some per_combo ->
      let base = match List.assoc_opt Spike.Base per_combo with Some m -> m | None -> 0 in
      Table.add_row tbl ~id:"vs_base_64kb"
        (Table.Text "64KB vs base" :: List.map (fun (_, m) -> Table.ratio m base) per_combo)
  | None -> ());
  Table.add_note tbl
    "paper: porder alone slightly worse than base; chain is the big step; chain+split+porder (all) best";
  [ tbl ]
