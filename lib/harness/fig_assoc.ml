module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike
module Telemetry = Olayout_telemetry.Telemetry

type result = { rows : (int * int * int * int * int) list }

let sizes = Fig_line_sweep.cache_sizes_kb

let configs =
  List.concat_map
    (fun size_kb ->
      [ Icache.config ~size_kb ~line:128 ~assoc:1 (); Icache.config ~size_kb ~line:128 ~assoc:4 () ])
    sizes

(* The (Base, All) streams replay from the context's trace cache, sharded
   across the pool's domains when one is given. *)
let app_only battery = Context.app_only (Battery.access_run battery)
let app_run (run : Run.t) = run.Run.owner = Run.App

let run ?pool ctx =
  let engine = Context.engine ctx in
  let b_base = Battery.create ~engine configs
  and b_opt = Battery.create ~engine configs in
  (match Context.traces_for ctx [ Spike.Base; Spike.All ] with
  | [ Some _; Some _ ] ->
      ignore (Context.replay_battery ctx ?pool ~keep:app_run ~combo:Spike.Base b_base);
      ignore (Context.replay_battery ctx ?pool ~keep:app_run ~combo:Spike.All b_opt)
  | _ ->
      ignore
        (Context.measure ctx
           ~renders:[ (Spike.Base, app_only b_base); (Spike.All, app_only b_opt) ]
           ()));
  let find battery size_kb assoc =
    Battery.misses battery (Icache.config ~size_kb ~line:128 ~assoc ()).Icache.name
  in
  let r =
    {
      rows =
        List.map
          (fun s -> (s, find b_base s 1, find b_base s 4, find b_opt s 1, find b_opt s 4))
          sizes;
    }
  in
  (* Fidelity gauges at the 64 KB point: what 4-way buys the baseline
     (paper: nothing - capacity dominates) vs what layout buys over even
     the 4-way baseline.  A zero-miss denominator means "no data": omit
     the gauge (scoreboard skips) rather than publish a bogus 0. *)
  (match List.find_opt (fun (s, _, _, _, _) -> s = 64) r.rows with
  | Some (_, b1, b4, o1, _) when b4 > 0 ->
      let ratio a b = float_of_int a /. float_of_int b in
      Telemetry.set_gauge (Telemetry.gauge "fig.fig6.base_dm_vs_4way_64k") (ratio b1 b4);
      Telemetry.set_gauge (Telemetry.gauge "fig.fig6.opt_dm_vs_base_4way_64k") (ratio o1 b4)
  | Some _ | None -> ());
  r

let tables r =
  let tbl =
    Table.create ~title:"Fig 6: associativity impact (128-byte lines)"
      ~columns:[ "cache"; "base DM"; "base 4-way"; "opt DM"; "opt 4-way" ]
  in
  List.iter
    (fun (s, b1, b4, o1, o4) ->
      Table.add_row tbl
        [
          Printf.sprintf "%dKB" s;
          Table.fmt_int b1;
          Table.fmt_int b4;
          Table.fmt_int o1;
          Table.fmt_int o4;
        ])
    r.rows;
  Table.add_note tbl
    "paper: associativity gains are small vs layout gains at 32-128KB (capacity dominates)";
  [ tbl ]
