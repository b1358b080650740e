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

let hot_cold profile pid chained ~lo ~hi =
  let p = Prog.proc (Profile.prog profile) pid in
  let hot_block = Array.make (Proc.n_blocks p) false in
  for k = lo to hi - 1 do
    let b = chained.(k) in
    if Profile.block_count profile ~proc:pid ~block:b > 0 then hot_block.(b) <- true
  done;
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
  let hot, cold =
    List.partition (fun b -> hot_block.(b)) (Array.to_list (Array.sub chained lo (hi - lo)))
  in
  let n_hot = List.length hot and n = hi - lo in
  (Array.of_list (hot @ cold), if n_hot = 0 || n_hot = n then [| 0; n |] else [| 0; n_hot; n |])
