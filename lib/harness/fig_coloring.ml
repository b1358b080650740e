module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike

type result = { base : int; coloring_only : int; all : int; all_plus_coloring : int }

let cache_bytes = 64 * 1024

let run ctx =
  let profile = Context.app_profile ctx in
  (* Placement-only: whole procedures, Pettis-Hansen order, colored gaps;
     and the full pipeline's segments with colored gaps. *)
  let coloring_only = Spike.build (Spike.Colored_procs { cache_bytes }) profile in
  let all_plus_coloring = Spike.build (Spike.Colored { cache_bytes }) profile in
  let mk () = Icache.create (Icache.config ~size_kb:64 ~line:64 ~assoc:1 ()) in
  let c_base = mk () and c_color = mk () and c_all = mk () and c_both = mk () in
  let app_only c run = if run.Run.owner = Run.App then Icache.access_run c run in
  let _ =
    Context.measure_raw ctx
      ~renders:
        [
          (Context.placement ctx Spike.Base, app_only c_base);
          (coloring_only, app_only c_color);
          (Context.placement ctx Spike.All, app_only c_all);
          (all_plus_coloring, app_only c_both);
        ]
      ()
  in
  {
    base = Icache.misses c_base;
    coloring_only = Icache.misses c_color;
    all = Icache.misses c_all;
    all_plus_coloring = Icache.misses c_both;
  }

let tables r =
  let tbl =
    Table.create ~id:"coloring" ~title:"Extension: cache-line coloring (64KB direct-mapped, app stream)"
      ~columns:[ ("layout", "layout"); ("misses", "misses"); ("vs_base", "vs base") ]
  in
  let row id name m =
    Table.add_row tbl ~id [ Table.Text name; Table.Int m; Table.pct m r.base ]
  in
  row "base" "base (source order)" r.base;
  row "coloring_only" "coloring of whole procedures (placement only)" r.coloring_only;
  row "all" "chain+split+P-H (paper's all)" r.all;
  row "all_plus_coloring" "all + colored gaps" r.all_plus_coloring;
  Table.add_note tbl
    "paper §6: placement-only schemes are ineffective for large-footprint OLTP; chaining and splitting do the heavy lifting";
  [ tbl ]
