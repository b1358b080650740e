module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike
module Temporal = Olayout_profile.Temporal
module Profile = Olayout_profile.Profile

type result = {
  base_64 : int;
  ph_procs_64 : int;
  temporal_procs_64 : int;
  all_ph_64 : int;
  all_temporal_64 : int;
  base_128 : int;
  ph_procs_128 : int;
  temporal_procs_128 : int;
  all_ph_128 : int;
  all_temporal_128 : int;
}

(* Record the temporal graph on the training schedule (same seed as the
   context's profile run). *)
let record_temporal ctx =
  let temporal = Temporal.create (Profile.prog (Context.app_profile ctx)) () in
  Context.training_run ctx
    ~app_sinks:[ (fun ~proc ~block ~arm -> Temporal.sink temporal ~proc ~block ~arm) ];
  temporal

let run ctx =
  let profile = Context.app_profile ctx in
  let temporal = record_temporal ctx in
  let placements =
    [
      Context.placement ctx Spike.Base;
      Spike.build (Spike.Combo Spike.Porder) profile;
      Spike.build (Spike.Temporal_procs temporal) profile;
      Context.placement ctx Spike.All;
      Spike.build (Spike.Temporal temporal) profile;
    ]
  in
  let caches =
    List.map
      (fun _ ->
        ( Icache.create (Icache.config ~size_kb:64 ~line:128 ~assoc:1 ()),
          Icache.create (Icache.config ~size_kb:128 ~line:128 ~assoc:1 ()) ))
      placements
  in
  let app_only (c64, c128) =
    Context.app_only (fun run ->
        Icache.access_run c64 run;
        Icache.access_run c128 run)
  in
  let _ =
    Context.measure_raw ctx
      ~renders:(List.map2 (fun p c -> (p, app_only c)) placements caches)
      ()
  in
  let misses = List.map (fun (c64, c128) -> (Icache.misses c64, Icache.misses c128)) caches in
  match misses with
  | [ (b64, b128); (p64, p128); (t64, t128); (a64, a128); (at64, at128) ] ->
      {
        base_64 = b64;
        ph_procs_64 = p64;
        temporal_procs_64 = t64;
        all_ph_64 = a64;
        all_temporal_64 = at64;
        base_128 = b128;
        ph_procs_128 = p128;
        temporal_procs_128 = t128;
        all_ph_128 = a128;
        all_temporal_128 = at128;
      }
  | _ -> assert false

let tables r =
  let tbl =
    Table.create ~id:"temporal"
      ~title:"Extension: temporal ordering (Gloy et al.) vs Pettis-Hansen (DM, 128B)"
      ~columns:[ ("ordering", "ordering"); ("misses_64kb", "64KB misses");
                 ("misses_128kb", "128KB misses"); ("vs_base_64kb", "vs base @64KB") ]
  in
  let row id name m64 m128 =
    Table.add_row tbl ~id [ Table.Text name; Table.Int m64; Table.Int m128; Table.pct m64 r.base_64 ]
  in
  row "base" "base (source order)" r.base_64 r.base_128;
  row "porder" "P-H, whole procedures (porder)" r.ph_procs_64 r.ph_procs_128;
  row "temporal_procs" "temporal, whole procedures" r.temporal_procs_64 r.temporal_procs_128;
  row "all" "chain+split + P-H (all)" r.all_ph_64 r.all_ph_128;
  row "all_temporal" "chain+split + temporal" r.all_temporal_64 r.all_temporal_128;
  Table.add_note tbl
    "paper §6: Gloy et al. add temporal information to placement but, like all placement-only schemes, need chaining/splitting to matter for OLTP";
  [ tbl ]
