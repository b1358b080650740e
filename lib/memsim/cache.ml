module Lru = Olayout_cachesim.Lru
module Telemetry = Olayout_telemetry.Telemetry

let c_accesses = Telemetry.counter "memsim.cache_accesses"
let c_misses = Telemetry.counter "memsim.cache_misses"

type kind = Instr | Data

let kind_code = function Instr -> 0 | Data -> 1

type t = { name : string; lru : Lru.t; acc_kind : int array }

let create ?on_miss ~name ~size_bytes ~line_bytes ~assoc () =
  (* [0 land -1 = 0] would pass the power-of-two test below and then divide
     by zero computing the set count; reject non-positive sizes first. *)
  if line_bytes <= 0 then invalid_arg "Cache.create: line size must be positive";
  if size_bytes <= 0 then invalid_arg "Cache.create: cache size must be positive";
  if line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache.create: line must be a power of two";
  if assoc < 1 || size_bytes < line_bytes * assoc then
    invalid_arg "Cache.create: bad associativity";
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not a multiple of line*assoc";
  let sets = size_bytes / (line_bytes * assoc) in
  if sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    name;
    (* Nothing reads a physically indexed cache's first touches, and its
       keys scatter over the physical space: no first-touch set. *)
    lru =
      Lru.create ?on_miss ~accesses:c_accesses ~misses:c_misses ~first_touch:false ~sets
        ~ways:assoc ~line_bytes ();
    acc_kind = Array.make 2 0;
  }

let access t ~kind addr =
  let kind = kind_code kind in
  t.acc_kind.(kind) <- t.acc_kind.(kind) + 1;
  ignore (Lru.access t.lru kind (addr lsr t.lru.shift));
  Lru.publish t.lru

let name t = t.name
let accesses t = t.lru.clock
let misses t = t.lru.misses
let misses_kind t k = t.lru.miss_of.(kind_code k)
let accesses_kind t k = t.acc_kind.(kind_code k)
