module Bpred = Olayout_perf.Bpred
module Placement = Olayout_core.Placement
module Spike = Olayout_core.Spike

type row = { policy : Bpred.policy; base : int * int; opt : int * int }

type result = { branches : int; taken_base : int; taken_opt : int; rows : row list }

let policies =
  [ Bpred.Static_not_taken; Bpred.Static_btfn; Bpred.Bimodal 12; Bpred.Gshare 12 ]

let run ctx =
  let base = Context.placement ctx Spike.Base in
  let opt = Context.placement ctx Spike.All in
  let mk () = List.map (fun p -> (p, Bpred.create p)) policies in
  let preds_base = mk () and preds_opt = mk () in
  let taken_base = ref 0 and taken_opt = ref 0 and branches = ref 0 in
  let feed placement preds taken_count ~proc ~block ~arm =
    match Placement.cond_branch placement ~proc ~block ~arm with
    | Some (pc, target, taken) ->
        if taken then incr taken_count;
        List.iter (fun (_, p) -> Bpred.record p ~pc ~target ~taken) preds
    | None -> ()
  in
  let _ =
    Context.measure ctx
      ~app_sinks:
        [
          (fun ~proc ~block ~arm ->
            incr branches;
            feed base preds_base taken_base ~proc ~block ~arm);
          (fun ~proc ~block ~arm -> feed opt preds_opt taken_opt ~proc ~block ~arm);
        ]
      ~renders:[]
      ()
  in
  let total_branches =
    match preds_base with (_, p) :: _ -> Bpred.branches p | [] -> 0
  in
  let counts p = (Bpred.mispredicts p, Bpred.branches p) in
  {
    branches = total_branches;
    taken_base = !taken_base;
    taken_opt = !taken_opt;
    rows =
      List.map2
        (fun (policy, pb) (_, po) -> { policy; base = counts pb; opt = counts po })
        preds_base preds_opt;
  }

let policy_id = function
  | Bpred.Static_not_taken -> "not_taken"
  | Bpred.Static_btfn -> "btfn"
  | Bpred.Bimodal bits -> Printf.sprintf "bimodal_%d" bits
  | Bpred.Gshare bits -> Printf.sprintf "gshare_%d" bits

let tables r =
  let tbl =
    Table.create ~id:"bpred" ~title:"Extension: branch prediction (application conditional branches)"
      ~columns:[ ("predictor", "predictor"); ("base", "base mispredict");
                 ("optimized", "optimized mispredict") ]
  in
  let rate (mispredicts, branches) = Table.pct mispredicts branches in
  List.iter
    (fun row ->
      Table.add_row tbl ~id:(policy_id row.policy)
        [ Table.Text (Bpred.policy_name row.policy); rate row.base; rate row.opt ])
    r.rows;
  let summary =
    Table.create ~id:"bpred_summary" ~title:"Extension: branch prediction, taken branches"
      ~columns:[ ("metric", "metric"); ("value", "value") ]
  in
  Table.add_row summary ~id:"branches" [ Table.Text "conditional branches"; Table.Int r.branches ];
  Table.add_row summary ~id:"taken_base"
    [ Table.Text "taken fraction, base"; Table.pct r.taken_base r.branches ];
  Table.add_row summary ~id:"taken_opt"
    [ Table.Text "taken fraction, optimized"; Table.pct r.taken_opt r.branches ];
  Table.add_note summary "chaining biases not-taken, paper §2";
  [ tbl; summary ]
