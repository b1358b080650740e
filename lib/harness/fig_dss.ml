module Dss = Olayout_oltp.Dss
module Icache = Olayout_cachesim.Icache
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run
module Profile = Olayout_profile.Profile
module Binary = Olayout_codegen.Binary
module Footprint = Olayout_metrics.Footprint
open Olayout_ir

type row = { size_kb : int; base : int; optimized : int }

type result = { footprint_kb : int; rows : row list; oltp_64k : int * int }

let sizes = [ 8; 16; 32; 64 ]

let run ctx =
  let rows = match Context.scale ctx with Context.Quick -> 5_000 | Context.Full -> 20_000 in
  let dss = Dss.create ~rows () in
  let prog = Binary.prog (Dss.binary dss) in
  (* Train on one pass, evaluate on another seed. *)
  let profile = Profile.create prog in
  let _ =
    Dss.run_queries dss ~repeat:1 ~seed:1
      ~app_sinks:[ (fun ~proc ~block ~arm -> Profile.record profile ~proc ~block ~arm) ]
      ()
  in
  let base = Spike.optimize profile Spike.Base in
  let optimized = Spike.optimize profile Spike.All in
  let mk () = List.map (fun kb -> (kb, Icache.create (Icache.config ~size_kb:kb ~line:128 ~assoc:1 ()))) sizes in
  let cb = mk () and co = mk () in
  let feed caches run = List.iter (fun (_, c) -> Icache.access_run c run) caches in
  let _ =
    Dss.run_queries dss ~repeat:2 ~seed:9
      ~renders:[ (base, feed cb); (optimized, feed co) ]
      ()
  in
  (* Executed footprint of the DSS engine. *)
  let units = ref [] in
  Prog.iter_blocks prog (fun p b ->
      units :=
        ( Block.source_instrs b * Block.bytes_per_instr,
          Profile.block_count profile ~proc:p.Proc.id ~block:b.Block.id )
        :: !units);
  let fp = Footprint.of_units !units in
  (* OLTP contrast at 64 KB from the shared context.  At Quick scale the
     transaction count equals the context default, so the streams replay
     from the trace cache; at Full scale the deliberately smaller run stays
     live. *)
  let oltp_base = Icache.create (Icache.config ~size_kb:64 ~line:128 ~assoc:1 ()) in
  let oltp_opt = Icache.create (Icache.config ~size_kb:64 ~line:128 ~assoc:1 ()) in
  let app_only c = Context.app_only (Icache.access_run c) in
  let _ =
    Context.measure ctx
      ~txns:(match Context.scale ctx with Context.Quick -> 100 | Context.Full -> 300)
      ~renders:[ (Spike.Base, app_only oltp_base); (Spike.All, app_only oltp_opt) ]
      ()
  in
  {
    footprint_kb = Footprint.executed_footprint_bytes fp / 1024;
    rows =
      List.map2
        (fun (kb, b) (_, o) -> { size_kb = kb; base = Icache.misses b; optimized = Icache.misses o })
        cb co;
    oltp_64k = (Icache.misses oltp_opt, Icache.misses oltp_base);
  }

let tables r =
  let tbl =
    Table.create ~id:"dss" ~title:"Extension: DSS workload under the same pipeline (128B lines, DM)"
      ~columns:
        [ ("cache", "cache"); ("base", "base misses"); ("optimized", "optimized"); ("ratio", "ratio") ]
  in
  List.iter
    (fun row ->
      Fig_line_sweep.size_row tbl row.size_kb
        [ Table.Int row.base; Table.Int row.optimized; Table.pct row.optimized row.base ])
    r.rows;
  let summary =
    Table.create ~id:"dss_summary" ~title:"Extension: DSS footprint and the OLTP contrast"
      ~columns:[ ("metric", "metric"); ("value", "value") ]
  in
  Table.add_row summary ~id:"footprint_kb"
    [ Table.Text "DSS executed footprint (KB)"; Table.Int r.footprint_kb ];
  Table.add_row summary ~id:"oltp_ratio_64kb"
    [ Table.Text "OLTP optimized/base misses at 64KB"; Table.pct (fst r.oltp_64k) (snd r.oltp_64k) ];
  Table.add_note summary
    "at caches that hold the DSS footprint, layout stops mattering (paper: DSS has much better i-cache behaviour)";
  [ tbl; summary ]
