module Machine = Olayout_perf.Machine
module Timing = Olayout_perf.Timing
module Spike = Olayout_core.Spike

type result = {
  machines : Machine.t list;
  rows : (string * (Spike.combo * float) list) list;
  speedups : (string * float) list;
}

let run ctx =
  let machines = Array.of_list Machine.all in
  (* One timing model per (combo, machine); each render feeds its three
     from an array, with no closure per run. *)
  let models =
    List.map (fun combo -> (combo, Array.map Timing.create machines)) Spike.all_combos
  in
  let _ =
    Context.measure ctx
      ~renders:
        (List.map
           (fun (combo, timings) ->
             ( combo,
               fun run ->
                 for i = 0 to Array.length timings - 1 do
                   Timing.fetch_run timings.(i) run
                 done ))
           models)
      ()
  in
  let cycles combo i = Timing.cycles (List.assoc combo models).(i) in
  let per_machine f = List.mapi (fun i (m : Machine.t) -> (m.Machine.name, f i)) Machine.all in
  {
    machines = Machine.all;
    rows =
      per_machine (fun i ->
          let base = cycles Spike.Base i in
          List.map (fun combo -> (combo, 100.0 *. cycles combo i /. base)) Spike.all_combos);
    speedups = per_machine (fun i -> cycles Spike.Base i /. cycles Spike.All i);
  }

(* "21364-sim (64KB, 2-way, 1GHz)" -> "21364_sim": a row id from the
   model's name, not its geometry. *)
let machine_id name =
  let model = match String.index_opt name ' ' with Some i -> String.sub name 0 i | None -> name in
  String.map (fun c -> if c = '-' then '_' else c) model

let tables r =
  let tbl =
    Table.create ~id:"fig15" ~title:"Fig 15: relative execution time, non-idle cycles (base = 100)"
      ~columns:
        ((("machine", "machine") :: List.map Fig_combos.combo_column Spike.all_combos)
        @ [ ("speedup", "base->all speedup") ])
  in
  List.iter2
    (fun (name, per_combo) (_, speedup) ->
      Table.add_row tbl ~id:(machine_id name)
        ((Table.Text name :: List.map (fun (_, pct) -> Table.Fixed (1, pct)) per_combo)
        @ [ Table.Ratio speedup ]))
    r.rows r.speedups;
  (* The paper's headline is the speedup's consistency across three
     processor generations. *)
  (match List.map snd r.speedups with
  | [] -> ()
  | s :: rest ->
      let lo = List.fold_left min s rest and hi = List.fold_left max s rest in
      Table.add_row tbl ~id:"spread"
        ((Table.Text "speedup spread (max - min)"
         :: List.map (fun _ -> Table.Text "") Spike.all_combos)
        @ [ Table.Ratio (hi -. lo) ]));
  Table.add_note tbl "paper: ~1.33x on 21264 and 21164 hardware, 1.37x on the simulated system";
  [ tbl ]
