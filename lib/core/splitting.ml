open Olayout_ir
module Profile = Olayout_profile.Profile
module Telemetry = Olayout_telemetry.Telemetry
module Provenance = Olayout_telemetry.Provenance

let c_segments = Telemetry.counter "core.split_segments_cut"

let record_cuts ~n_procs ~segments ~blocks =
  let total = ref 0 in
  let prov = Provenance.enabled () in
  for pid = 0 to n_procs - 1 do
    let n = segments pid in
    total := !total + n;
    if prov then
      Provenance.record ~pass:"splitting" ~subject:pid
        [ ("segments", Provenance.Int n); ("blocks", Provenance.Int (blocks pid)) ]
  done;
  Telemetry.add c_segments !total

let fine_grain profile =
  let prog = Profile.prog profile in
  let chains = Array.init (Prog.n_procs prog) (Chaining.chain_proc profile) in
  record_cuts ~n_procs:(Array.length chains)
    ~segments:(fun pid -> List.length chains.(pid))
    ~blocks:(fun pid -> List.fold_left (fun acc c -> acc + List.length c) 0 chains.(pid));
  List.concat
    (List.init (Array.length chains) (fun pid ->
         List.map (fun blocks -> { Segment.proc = pid; blocks }) chains.(pid)))

let hot_cold ?(threshold = 0) profile =
  let prog = Profile.prog profile in
  List.concat_map
    (fun pid ->
      let p = Prog.proc prog pid in
      let chained = List.concat (Chaining.chain_proc profile pid) in
      (* Promote call glue: a call block and its return block share heat. *)
      let hot_block = Array.make (Proc.n_blocks p) false in
      List.iter
        (fun b ->
          if Profile.block_count profile ~proc:pid ~block:b > threshold then
            hot_block.(b) <- true)
        chained;
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iter
          (fun (blk : Block.t) ->
            match blk.Block.term with
            | Block.Call { ret; _ } ->
                let both = hot_block.(blk.id) || hot_block.(ret) in
                if both && not (hot_block.(blk.id) && hot_block.(ret)) then begin
                  hot_block.(blk.id) <- both;
                  hot_block.(ret) <- both;
                  changed := true
                end
            | _ -> ())
          p.blocks
      done;
      let hot = List.filter (fun b -> hot_block.(b)) chained in
      let cold = List.filter (fun b -> not hot_block.(b)) chained in
      let mk blocks = { Segment.proc = pid; blocks } in
      let segs =
        match (hot, cold) with
        | [], cold -> [ mk cold ]
        | hot, [] -> [ mk hot ]
        | hot, cold -> [ mk hot; mk cold ]
      in
      Telemetry.add c_segments (List.length segs);
      if Provenance.enabled () then
        Provenance.record ~pass:"splitting" ~subject:pid
          [
            ("segments", Provenance.Int (List.length segs));
            ("hot_blocks", Provenance.Int (List.length hot));
            ("cold_blocks", Provenance.Int (List.length cold));
          ];
      segs)
    (List.init (Prog.n_procs prog) (fun i -> i))
