module Icache = Olayout_cachesim.Icache
module Cache = Olayout_memsim.Cache
module Itlb = Olayout_memsim.Itlb
module Run = Olayout_exec.Run

type t = {
  machine : Machine.t;
  l1i : Icache.t;
  itlb : Itlb.t;
  mutable instrs : int;
  l2_hits_of_l1_misses : int ref;
  l2_misses_of_l1_misses : int ref;
}

let create (m : Machine.t) =
  let l2 =
    Cache.create ~name:(m.name ^ "-l2") ~size_bytes:m.l2_size_bytes ~line_bytes:m.l2_line
      ~assoc:m.l2_assoc ()
  in
  let l2_hits = ref 0 and l2_misses = ref 0 in
  let l1i =
    Icache.create
      ~on_miss:(fun addr ->
        let addr = Olayout_memsim.Phys.translate addr in
        let before = Cache.misses l2 in
        Cache.access l2 ~kind:Cache.Instr addr;
        if Cache.misses l2 > before then incr l2_misses else incr l2_hits)
      m.l1i
  in
  {
    machine = m;
    l1i;
    itlb = Itlb.create ~entries:m.itlb_entries ();
    instrs = 0;
    l2_hits_of_l1_misses = l2_hits;
    l2_misses_of_l1_misses = l2_misses;
  }

let fetch_run t (run : Run.t) =
  t.instrs <- t.instrs + run.len;
  Itlb.access_run t.itlb run;
  Icache.access_run t.l1i run

let instructions t = t.instrs
let l1i_misses t = Icache.misses t.l1i
let l2_misses t = !(t.l2_misses_of_l1_misses)
let itlb_misses t = Itlb.misses t.itlb

let stall_cycles t =
  let m = t.machine in
  float_of_int (!(t.l2_hits_of_l1_misses) * m.l1_miss_cycles)
  +. float_of_int (!(t.l2_misses_of_l1_misses) * m.l2_miss_cycles)
  +. float_of_int (Itlb.misses t.itlb * m.itlb_miss_cycles)

let cycles t = (float_of_int t.instrs *. t.machine.base_cpi) +. stall_cycles t

let stall_fraction t =
  let c = cycles t in
  if c = 0.0 then 0.0 else stall_cycles t /. c
