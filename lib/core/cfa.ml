open Olayout_ir
module Profile = Olayout_profile.Profile
module Footprint = Olayout_metrics.Footprint

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let place profile rows ~order ~cache_bytes ~cfa_fraction =
  if not (is_power_of_two cache_bytes) then
    invalid_arg "Cfa.place: cache_bytes must be a power of two";
  if cfa_fraction <= 0.0 || cfa_fraction >= 1.0 then
    invalid_arg "Cfa.place: cfa_fraction must be in (0,1)";
  let prog = Profile.prog profile in
  let cfa_bytes = int_of_float (float_of_int cache_bytes *. cfa_fraction) in
  let segs = Placement.numbered rows in
  let heat = Array.map (Segment.heat profile) segs in
  (* Hottest segments first. *)
  let ranked = Array.copy order in
  Array.stable_sort (fun g1 g2 -> compare heat.(g2) heat.(g1)) ranked;
  (* Greedily take hot segments while they fit in the protected area. *)
  let protected_ = Array.make (Array.length segs) false in
  let rec fill k used =
    if k < Array.length ranked then begin
      let g = ranked.(k) in
      let sz = Segment.max_bytes prog segs.(g) in
      if used + sz <= cfa_bytes && heat.(g) > 0 then begin
        protected_.(g) <- true;
        fill (k + 1) (used + sz)
      end
    end
  in
  fill 0 0;
  let bytes = Array.concat (Array.to_list (Array.map (fun r -> r.Placement.seg_bytes) rows)) in
  let base = prog.Prog.base_addr in
  let offset a = (a - base) land (cache_bytes - 1) in
  let addr_of g a =
    if protected_.(g) then a
    else begin
      (* Skip addresses whose cache set falls inside the protected range;
         a segment whose encoded bytes would run past the end of the
         cache-sized period, onto the next period's protected sets, starts
         after those sets instead. *)
      let a = if offset a < cfa_bytes then a + (cfa_bytes - offset a) else a in
      if offset a + bytes.(g) > cache_bytes then a + (cache_bytes - offset a) + cfa_bytes else a
    end
  in
  Placement.of_rows ~align:4 ~addr_of prog rows ~order:ranked

let hot_bytes_needed profile ~coverage =
  let prog = Profile.prog profile in
  let units = ref [] in
  Prog.iter_blocks prog (fun p b ->
      let c = Profile.block_count profile ~proc:p.Proc.id ~block:b.Block.id in
      let bytes = (b.Block.body + 1) * Block.bytes_per_instr in
      units := (bytes, c) :: !units);
  let fp = Footprint.of_units !units in
  Footprint.bytes_for_fraction fp coverage
