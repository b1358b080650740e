module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike

type row = {
  prefetch : int;
  base_misses : int;
  base_useful : float;
  opt_misses : int;
  opt_useful : float;
}

type result = { rows : row list }

let depths = [ 0; 1; 3 ]

let run ctx =
  let mk prefetch_next =
    Icache.create ~prefetch_next (Icache.config ~size_kb:64 ~line:64 ~assoc:2 ())
  in
  let base_caches = List.map (fun d -> (d, mk d)) depths in
  let opt_caches = List.map (fun d -> (d, mk d)) depths in
  let feed caches =
    Context.app_only (fun run -> List.iter (fun (_, c) -> Icache.access_run c run) caches)
  in
  let _ =
    Context.measure ctx
      ~renders:[ (Spike.Base, feed base_caches); (Spike.All, feed opt_caches) ]
      ()
  in
  let useful c =
    let fills = Icache.prefetch_fills c in
    if fills = 0 then 0.0 else float_of_int (Icache.prefetch_hits c) /. float_of_int fills
  in
  {
    rows =
      List.map
        (fun d ->
          let b = List.assoc d base_caches and o = List.assoc d opt_caches in
          {
            prefetch = d;
            base_misses = Icache.misses b;
            base_useful = useful b;
            opt_misses = Icache.misses o;
            opt_useful = useful o;
          })
        depths;
  }

let tables r =
  let tbl =
    Table.create ~title:"Extension: sequential prefetch (64KB/64B/2-way, app stream)"
      ~columns:[ "prefetch depth"; "base misses"; "base useful"; "opt misses"; "opt useful" ]
  in
  List.iter
    (fun row ->
      Table.add_row tbl
        [
          string_of_int row.prefetch;
          Table.fmt_int row.base_misses;
          (if row.prefetch = 0 then "-" else Table.fmt_pct row.base_useful);
          Table.fmt_int row.opt_misses;
          (if row.prefetch = 0 then "-" else Table.fmt_pct row.opt_useful);
        ])
    r.rows;
  Table.add_note tbl
    "paper (§6) suggests layout can enhance stream buffers; here the two overlap: both exploit sequentiality, so prefetch helps the baseline relatively more while the combination is best overall";
  [ tbl ]
