module Seqstat = Olayout_exec.Seqstat
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike
module Profile = Olayout_profile.Profile
module Histogram = Olayout_metrics.Histogram

type result = {
  avg_block : float;
  base_mean : float;
  opt_mean : float;
  base_hist : (int * float) list;
  opt_hist : (int * float) list;
}

let run ctx =
  let sb = Seqstat.create () and so = Seqstat.create () in
  let observe stat run = if run.Run.owner = Run.App then Seqstat.observe stat run in
  let _ =
    Context.measure ctx ~renders:[ (Spike.Base, observe sb); (Spike.All, observe so) ] ()
  in
  let profile = Context.app_profile ctx in
  let avg_block =
    float_of_int (Profile.dynamic_instrs profile)
    /. float_of_int (max 1 (Profile.total_block_events profile))
  in
  let hist stat =
    let h = Seqstat.histogram stat ~owner:Run.App in
    List.map (fun (k, c) -> (k, float_of_int c /. float_of_int (Histogram.total h)))
      (Histogram.to_sorted_list h)
  in
  {
    avg_block;
    base_mean = Seqstat.mean sb ~owner:Run.App;
    opt_mean = Seqstat.mean so ~owner:Run.App;
    base_hist = hist sb;
    opt_hist = hist so;
  }

let tables r =
  let means =
    Table.create ~id:"fig8a" ~title:"Fig 8a: average sequential run length (instructions)"
      ~columns:[ ("setup", "setup"); ("length", "average length") ]
  in
  List.iter
    (fun (id, label, v) -> Table.add_row means ~id [ Table.Text label; Table.Fixed (1, v) ])
    [
      ("block", "dynamic basic block", r.avg_block);
      ("base", "base", r.base_mean);
      ("optimized", "optimized", r.opt_mean);
    ];
  Table.add_note means "paper: block ~5-6, base 7.3, optimized >10";
  let hist =
    Table.create ~id:"fig8b" ~title:"Fig 8b: sequence-length distribution (fraction of sequences)"
      ~columns:[ ("length", "length"); ("base", "base"); ("optimized", "optimized") ]
  in
  let lookup h k = match List.assoc_opt k h with Some f -> f | None -> 0.0 in
  for len = 1 to 33 do
    Table.add_row hist ~id:(string_of_int len)
      [
        Table.Text (if len = 33 then "33+" else string_of_int len);
        Table.Pct (lookup r.base_hist len);
        Table.Pct (lookup r.opt_hist len);
      ]
  done;
  Table.add_note hist "paper: 1-instr sequences 21% -> 15%; optimized spike near 17";
  [ means; hist ]
