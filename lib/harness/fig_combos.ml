module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike
module Telemetry = Olayout_telemetry.Telemetry

type result = {
  combos : Spike.combo list;
  rows : (int * (Spike.combo * int) list) list;
}

let sizes = Fig_line_sweep.cache_sizes_kb

let configs = List.map (fun size_kb -> Icache.config ~size_kb ~line:128 ~assoc:4 ()) sizes

(* Each combo's stream replays from the context's trace cache, sharded
   across the pool's domains when one is given. *)
let app_only battery = Context.app_only (Battery.access_run battery)
let app_run (run : Run.t) = run.Run.owner = Run.App

let run ?pool ctx =
  let engine = Context.engine ctx in
  let batteries =
    List.map (fun combo -> (combo, Battery.create ~engine configs)) Spike.all_combos
  in
  let traces = Context.traces_for ctx Spike.all_combos in
  if List.for_all Option.is_some traces then
    List.iter
      (fun (combo, b) ->
        ignore (Context.replay_battery ctx ?pool ~keep:app_run ~combo b))
      batteries
  else
    ignore
      (Context.measure ctx
         ~renders:(List.map (fun (combo, b) -> (combo, app_only b)) batteries)
         ());
  let find b size_kb =
    Battery.misses b (Icache.config ~size_kb ~line:128 ~assoc:4 ()).Icache.name
  in
  let r =
    {
      combos = Spike.all_combos;
      rows =
        List.map
          (fun s -> (s, List.map (fun (combo, b) -> (combo, find b s)) batteries))
          sizes;
    }
  in
  (* Per-combo miss ratio vs base at 64 KB, for the fidelity scoreboard's
     ordering claims (porder alone ~ base; chain is the big step; all
     best). *)
  (match List.assoc_opt 64 r.rows with
  | Some per_combo ->
      let base = match List.assoc_opt Spike.Base per_combo with Some m -> m | None -> 0 in
      List.iter
        (fun (combo, m) ->
          if combo <> Spike.Base && base > 0 then
            Telemetry.set_gauge
              (Telemetry.gauge
                 (Printf.sprintf "fig.fig7.%s_vs_base_64k" (Spike.combo_name combo)))
              (float_of_int m /. float_of_int base))
        per_combo
  | None -> ());
  r

let tables r =
  let tbl =
    Table.create ~title:"Fig 7: i-cache misses per optimization combination (128B, 4-way)"
      ~columns:("cache" :: List.map Spike.combo_name r.combos)
  in
  List.iter
    (fun (s, per_combo) ->
      Table.add_row tbl
        (Printf.sprintf "%dKB" s
        :: List.map (fun (_, m) -> Table.fmt_int m) per_combo))
    r.rows;
  Table.add_note tbl
    "paper: porder alone slightly worse than base; chain is the big step; chain+split+porder (all) best";
  [ tbl ]
