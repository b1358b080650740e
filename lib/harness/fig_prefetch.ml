module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike

type row = {
  prefetch : int;
  base_misses : int;
  base_useful : int * int;
  opt_misses : int;
  opt_useful : int * int;
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
  let useful c = (Icache.prefetch_hits c, Icache.prefetch_fills c) in
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
    Table.create ~id:"prefetch" ~title:"Extension: sequential prefetch (64KB/64B/2-way, app stream)"
      ~columns:[ ("depth", "prefetch depth"); ("base_misses", "base misses");
                 ("base_useful", "base useful"); ("opt_misses", "opt misses");
                 ("opt_useful", "opt useful") ]
  in
  (* Useful = prefetch hits per prefetch fill; no fills (depth 0) is no
     data. *)
  let useful (hits, fills) = Table.pct hits fills in
  List.iter
    (fun row ->
      Table.add_row tbl ~id:(string_of_int row.prefetch)
        [
          Table.Text (string_of_int row.prefetch);
          Table.Int row.base_misses;
          useful row.base_useful;
          Table.Int row.opt_misses;
          useful row.opt_useful;
        ])
    r.rows;
  Table.add_note tbl
    "paper (§6) suggests layout can enhance stream buffers; here the two overlap: both exploit sequentiality, so prefetch helps the baseline relatively more while the combination is best overall";
  [ tbl ]
