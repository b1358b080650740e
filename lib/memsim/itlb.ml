module Lru = Olayout_cachesim.Lru
module Telemetry = Olayout_telemetry.Telemetry

let c_accesses = Telemetry.counter "memsim.itlb_accesses"
let c_misses = Telemetry.counter "memsim.itlb_misses"

type t = Lru.t

let create ~entries () =
  if entries < 1 then invalid_arg "Itlb.create: entries must be >= 1";
  Lru.create ~accesses:c_accesses ~misses:c_misses ~first_touch:true ~sets:1 ~ways:entries
    ~line_bytes:Phys.page_bytes ()

let access_run = Lru.access_run
let accesses (t : t) = t.clock
let misses (t : t) = t.misses
let unique_pages (t : t) = Lru.seen_count t.seen
