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
  let tbl =
    Table.create ~title:"Fig 3: cumulative execution profile (base binary)"
      ~columns:[ "footprint (KB)"; "dynamic instrs captured" ]
  in
  List.iter
    (fun (bytes, frac) ->
      Table.add_row tbl [ string_of_int (bytes / 1024); Table.fmt_pct frac ])
    r.curve;
  Table.add_note tbl
    (Printf.sprintf "executed footprint %d KB (paper ~260 KB); static binary %d KB"
       (r.executed_bytes / 1024) (r.static_bytes / 1024));
  Table.add_note tbl
    (Printf.sprintf "60%% at %d KB, 90%% at %d KB, 99%% at %d KB (paper: 60%% ~50 KB, 99%% ~200 KB)"
       (r.bytes_60 / 1024) (r.bytes_90 / 1024) (r.bytes_99 / 1024));
  [ tbl ]
