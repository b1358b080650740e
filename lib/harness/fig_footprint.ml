open Olayout_ir
module Profile = Olayout_profile.Profile
module Footprint = Olayout_metrics.Footprint
module Spike = Olayout_core.Spike

type result = {
  curve : (int * float) list;
  executed_bytes : int;
  static_bytes : int;
  bytes_60 : int;
  bytes_90 : int;
  bytes_99 : int;
}

let run ctx =
  (* Record the measurement streams this figure declares (report.ml): the
     figure itself only reads the training profile, but fronting the
     recording here attributes the live walk to fig3's figure row and
     lets every later sweep figure replay from the cache. *)
  ignore (Context.traces_for ctx [ Spike.Base; Spike.All ]);
  let profile = Context.app_profile ctx in
  let prog = Profile.prog profile in
  let units = ref [] in
  Prog.iter_blocks prog (fun p b ->
      let c = Profile.block_count profile ~proc:p.Proc.id ~block:b.Block.id in
      units := (Block.source_instrs b * Block.bytes_per_instr, c) :: !units);
  let fp = Footprint.of_units !units in
  {
    curve = Footprint.curve fp ~points:24;
    executed_bytes = Footprint.executed_footprint_bytes fp;
    static_bytes = Footprint.static_bytes fp;
    bytes_60 = Footprint.bytes_for_fraction fp 0.60;
    bytes_90 = Footprint.bytes_for_fraction fp 0.90;
    bytes_99 = Footprint.bytes_for_fraction fp 0.99;
  }

let tables r =
  let curve =
    Table.create ~id:"fig3" ~title:"Fig 3: cumulative execution profile (base binary)"
      ~columns:[ ("kb", "footprint (KB)"); ("captured", "dynamic instrs captured") ]
  in
  (* Rows are numbered: a sample's size depends on the executed footprint. *)
  List.iteri
    (fun i (bytes, frac) ->
      Table.add_row curve ~id:(string_of_int i) [ Table.Int (bytes / 1024); Table.Pct frac ])
    r.curve;
  let summary =
    Table.create ~id:"fig3_summary" ~title:"Fig 3: footprint points (base binary)"
      ~columns:[ ("metric", "metric"); ("kb", "KB") ]
  in
  List.iter
    (fun (id, label, bytes) -> Table.add_row summary ~id [ Table.Text label; Table.Int (bytes / 1024) ])
    [
      ("executed", "executed footprint", r.executed_bytes);
      ("static", "static binary", r.static_bytes);
      ("p60", "footprint capturing 60%", r.bytes_60);
      ("p90", "footprint capturing 90%", r.bytes_90);
      ("p99", "footprint capturing 99%", r.bytes_99);
    ];
  Table.add_note summary
    "paper: executed footprint ~260 KB, far below the static binary; 60% at ~50 KB, 99% at ~200 KB";
  [ curve; summary ]
