module Hierarchy = Olayout_memsim.Hierarchy
module Itlb = Olayout_memsim.Itlb
module Spike = Olayout_core.Spike
module Telemetry = Olayout_telemetry.Telemetry

type side = {
  itlb : int;
  l2_instr : int;
  l2_data : int;
  l1i : int;
  l1d : int;
  code_pages : int;
}

type result = { base : side; optimized : side }

let run ctx =
  let hb = Hierarchy.create ~timeline:"base" Hierarchy.simos_base in
  let ho = Hierarchy.create ~timeline:"opt" Hierarchy.simos_base in
  let _ =
    Context.measure ctx
      ~renders:
        [ (Spike.Base, Hierarchy.fetch_run hb); (Spike.All, Hierarchy.fetch_run ho) ]
      ~on_data:(fun addr ->
        Hierarchy.data_access hb addr;
        Hierarchy.data_access ho addr)
      ()
  in
  let side h =
    {
      itlb = Hierarchy.itlb_misses h;
      l2_instr = Hierarchy.l2_instr_misses h;
      l2_data = Hierarchy.l2_data_misses h;
      l1i = Hierarchy.l1i_misses h;
      l1d = Hierarchy.l1d_misses h;
      code_pages = Itlb.unique_pages (Hierarchy.itlb h);
    }
  in
  let r = { base = side hb; optimized = side ho } in
  List.iter
    (fun (name, s) ->
      List.iter
        (fun (row, v) ->
          Telemetry.set_gauge
            (Telemetry.gauge (Printf.sprintf "fig.fig14.%s.%s" name row))
            (float_of_int v))
        [
          ("itlb", s.itlb);
          ("l2_instr", s.l2_instr);
          ("l2_data", s.l2_data);
          ("l1i", s.l1i);
          ("l1d", s.l1d);
          ("code_pages", s.code_pages);
        ])
    [ ("base", r.base); ("optimized", r.optimized) ];
  r

let tables r =
  let tbl =
    Table.create ~title:"Fig 14: iTLB and unified L2 (simulated 21364-like machine)"
      ~columns:[ "metric"; "base"; "optimized"; "ratio" ]
  in
  let row name b o =
    Table.add_row tbl
      [
        name;
        Table.fmt_int b;
        Table.fmt_int o;
        (if b = 0 then "-" else Table.fmt_ratio (float_of_int o /. float_of_int b));
      ]
  in
  row "iTLB misses (64-entry FA)" r.base.itlb r.optimized.itlb;
  row "L2 instruction misses" r.base.l2_instr r.optimized.l2_instr;
  row "L2 data misses" r.base.l2_data r.optimized.l2_data;
  row "L1I misses (64KB 2-way)" r.base.l1i r.optimized.l1i;
  row "L1D misses (64KB 2-way)" r.base.l1d r.optimized.l1d;
  row "code pages touched" r.base.code_pages r.optimized.code_pages;
  Table.add_note tbl
    "paper: large iTLB and L2-instruction reductions; small L2-data reduction (less interference in the shared L2)";
  [ tbl ]
