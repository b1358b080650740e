open Olayout_ir
module Profile = Olayout_profile.Profile
module Telemetry = Olayout_telemetry.Telemetry
module Provenance = Olayout_telemetry.Provenance

let c_segments = Telemetry.counter "core.split_segments_cut"

let record_cuts (rows : Placement.rows array) =
  let total = ref 0 in
  let prov = Provenance.enabled () in
  Array.iteri
    (fun pid (r : Placement.rows) ->
      let n = Array.length r.Placement.segs in
      total := !total + n;
      if prov then
        Provenance.record ~pass:"splitting" ~subject:pid
          [
            ("segments", Provenance.Int n);
            ("blocks", Provenance.Int (Array.length r.Placement.seg_of));
          ])
    rows;
  Telemetry.add c_segments !total

let hot_cold profile pid chains =
  let p = Prog.proc (Profile.prog profile) pid in
  let chained = List.concat chains in
  let hot_block = Array.make (Proc.n_blocks p) false in
  List.iter
    (fun b -> if Profile.block_count profile ~proc:pid ~block:b > 0 then hot_block.(b) <- true)
    chained;
  (* Promote call glue: a call block and its return block share heat. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (blk : Block.t) ->
        match blk.Block.term with
        | Block.Call { ret; _ } ->
            if hot_block.(blk.id) <> hot_block.(ret) then begin
              hot_block.(blk.id) <- true;
              hot_block.(ret) <- true;
              changed := true
            end
        | _ -> ())
      p.blocks
  done;
  let hot, cold = List.partition (fun b -> hot_block.(b)) chained in
  List.filter (fun seg -> seg <> []) [ hot; cold ]
