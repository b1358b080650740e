module Icache = Olayout_cachesim.Icache
module Cache = Olayout_memsim.Cache
module Itlb = Olayout_memsim.Itlb
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike

type result = {
  base_lines_kb : int;
  opt_lines_kb : int;
  base_unused : int * int;
  opt_unused : int * int;
  base_l1i_8k : int;
  opt_l1i_8k : int;
  base_itlb_48 : int;
  opt_itlb_48 : int;
  base_board : int;
  opt_board : int;
}

(* Per-side instrumentation: a usage-tracked 128KB cache (footprint and
   fetched-unused, app stream) and a 21164-like hardware set (8KB L1I whose
   misses feed a 2MB direct-mapped board cache, 48-entry iTLB; combined
   stream). *)
type side = {
  usage : Icache.t;
  board : Cache.t;
  l1i : Icache.t;
  itlb : Itlb.t;
}

let mk_side () =
  let board =
    Cache.create ~name:"board-2MB" ~size_bytes:(2 * 1024 * 1024) ~line_bytes:64 ~assoc:1 ()
  in
  let l1i =
    Icache.create
      ~on_miss:(fun addr ->
        Cache.access board ~kind:Cache.Instr (Olayout_memsim.Phys.translate addr))
      (Icache.config ~name:"21164-8K" ~size_kb:8 ~line:32 ~assoc:1 ())
  in
  {
    usage = Icache.create ~track_usage:true (Icache.config ~size_kb:128 ~line:128 ~assoc:4 ());
    board;
    l1i;
    itlb = Itlb.create ~entries:48 ();
  }

let feed side run =
  if run.Run.owner = Run.App then Icache.access_run side.usage run;
  Icache.access_run side.l1i run;
  Itlb.access_run side.itlb run

let run ctx =
  let b = mk_side () and o = mk_side () in
  let _ = Context.measure ctx ~renders:[ (Spike.Base, feed b); (Spike.All, feed o) ] () in
  Icache.flush_residents b.usage;
  Icache.flush_residents o.usage;
  {
    base_lines_kb = Icache.unique_lines b.usage * 128 / 1024;
    opt_lines_kb = Icache.unique_lines o.usage * 128 / 1024;
    base_unused = Fig_usage.unused_words b.usage;
    opt_unused = Fig_usage.unused_words o.usage;
    base_l1i_8k = Icache.misses b.l1i;
    opt_l1i_8k = Icache.misses o.l1i;
    base_itlb_48 = Itlb.misses b.itlb;
    opt_itlb_48 = Itlb.misses o.itlb;
    base_board = Cache.misses b.board;
    opt_board = Cache.misses o.board;
  }

let tables r =
  let tbl =
    Table.create ~id:"intext" ~title:"In-text measurements (footprint; 21164 hardware counters)"
      ~columns:[ ("metric", "metric"); ("base", "base"); ("optimized", "optimized");
                 ("change", "change"); ("paper", "paper") ]
  in
  let counts id name b o paper =
    Table.add_row tbl ~id
      [ Table.Text name; Table.Int b; Table.Int o; Table.change o b; Table.Text paper ]
  in
  counts "footprint_kb" "footprint in 128B lines (KB)" r.base_lines_kb r.opt_lines_kb
    "500 -> 315 (-37%)";
  let unused (n, d) = Table.pct n d in
  Table.add_row tbl ~id:"unused"
    [
      Table.Text "fetched instrs never used";
      unused r.base_unused;
      unused r.opt_unused;
      Table.Text "";
      Table.Text "46% -> 21%";
    ];
  counts "l1i_8kb" "21164 L1I misses (8KB DM)" r.base_l1i_8k r.opt_l1i_8k "-28%";
  counts "itlb_48" "21164 iTLB misses (48-entry)" r.base_itlb_48 r.opt_itlb_48 "-43%";
  counts "board" "board cache misses (2MB DM)" r.base_board r.opt_board "-39%";
  [ tbl ]
