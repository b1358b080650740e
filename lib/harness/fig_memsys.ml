module Hierarchy = Olayout_memsim.Hierarchy
module Itlb = Olayout_memsim.Itlb
module Spike = Olayout_core.Spike

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
  { base = side hb; optimized = side ho }

let tables r =
  let tbl =
    Table.create ~id:"fig14" ~title:"Fig 14: iTLB and unified L2 (simulated 21364-like machine)"
      ~columns:[ ("metric", "metric"); ("base", "base"); ("optimized", "optimized"); ("ratio", "ratio") ]
  in
  let row id name b o =
    Table.add_row tbl ~id [ Table.Text name; Table.Int b; Table.Int o; Table.ratio o b ]
  in
  row "itlb" "iTLB misses (64-entry FA)" r.base.itlb r.optimized.itlb;
  row "l2_instr" "L2 instruction misses" r.base.l2_instr r.optimized.l2_instr;
  row "l2_data" "L2 data misses" r.base.l2_data r.optimized.l2_data;
  row "l1i" "L1I misses (64KB 2-way)" r.base.l1i r.optimized.l1i;
  row "l1d" "L1D misses (64KB 2-way)" r.base.l1d r.optimized.l1d;
  row "code_pages" "code pages touched" r.base.code_pages r.optimized.code_pages;
  Table.add_note tbl
    "paper: large iTLB and L2-instruction reductions; small L2-data reduction (less interference in the shared L2)";
  [ tbl ]
