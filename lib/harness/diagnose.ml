module Diag = Olayout_diag.Diag
module Resolver = Olayout_diag.Resolver
module Icache = Olayout_cachesim.Icache
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Histogram = Olayout_metrics.Histogram

type preset = {
  fig : string;
  size_kb : int;
  line : int;
  assoc : int;
  combined : bool;
  what : string;
}

let presets =
  [
    {
      fig = "fig4";
      size_kb = 64;
      line = 128;
      assoc = 1;
      combined = false;
      what = "64KB/128B direct-mapped, application stream (headline sweep point)";
    };
    {
      fig = "fig6";
      size_kb = 64;
      line = 128;
      assoc = 4;
      combined = false;
      what = "64KB/128B 4-way, application stream (what associativity absorbs)";
    };
    {
      fig = "fig12";
      size_kb = 128;
      line = 128;
      assoc = 4;
      combined = true;
      what = "128KB/128B 4-way, combined app+kernel stream (interference setup)";
    };
  ]

let preset_of_figure id =
  match List.find_opt (fun p -> p.fig = id) presets with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "unknown diagnosable figure %S (valid: %s)" id
           (String.concat ", " (List.map (fun p -> p.fig) presets)))

type result = { diag : Diag.t; icache_misses_delta : int }

let c_icache_misses = Telemetry.counter "cachesim.icache_misses"

let run ?(combo = Spike.Base) ctx preset =
  Telemetry.span "diagnose" (fun () ->
      let resolver =
        Resolver.of_placements
          [
            (Run.App, Context.placement ctx combo);
            (Run.Kernel, Context.kernel_base ctx);
          ]
      in
      let d =
        Diag.create ~resolver
          (Icache.config ~size_kb:preset.size_kb ~line:preset.line ~assoc:preset.assoc ())
      in
      let emit run =
        if preset.combined || run.Run.owner = Run.App then Diag.access_run d run
      in
      let before = Telemetry.value c_icache_misses in
      let _ = Context.measure ctx ~renders:[ (combo, emit) ] () in
      { diag = d; icache_misses_delta = Telemetry.value c_icache_misses - before })

let summary_table ~combo preset d =
  let t = Diag.totals d in
  let tbl =
    Table.create ~id:"diag_classes"
      ~title:
        (Printf.sprintf "miss classification: %s, %s layout (%s)" preset.fig
           (Spike.combo_name combo) preset.what)
      ~columns:[ ("class", "class"); ("misses", "misses"); ("share", "share") ]
  in
  let row id misses share = Table.add_row tbl ~id [ Table.Text id; Table.Int misses; share ] in
  row "compulsory" t.Diag.compulsory (Table.pct t.Diag.compulsory t.Diag.total);
  row "capacity" t.Diag.capacity (Table.pct t.Diag.capacity t.Diag.total);
  row "conflict" t.Diag.conflict (Table.pct t.Diag.conflict t.Diag.total);
  row "total" t.Diag.total (Table.Pct 1.0);
  Table.add_note tbl
    (Printf.sprintf "cold fills %s; conflict = set contention a placement fix can remove"
       (Table.fmt_int t.Diag.cold));
  tbl

let owner_name = function
  | Some Run.App -> "app"
  | Some Run.Kernel -> "kernel"
  | None -> "?"

(* The segment and pair tables list measured entities: their rows are
   numbered by rank. *)
let segments_table ~top d =
  let t = Diag.totals d in
  let tbl =
    Table.create ~id:"diag_segments"
      ~title:(Printf.sprintf "top %d miss-attributed segments" top)
      ~columns:[ ("segment", "segment"); ("owner", "owner"); ("misses", "misses");
                 ("share", "share"); ("conflict", "conflict"); ("capacity", "capacity");
                 ("evicts", "evicts"); ("evicted", "evicted") ]
  in
  List.iteri
    (fun i (r : Diag.seg_row) ->
      Table.add_row tbl ~id:(string_of_int i)
        [
          Table.Text r.Diag.seg_name;
          Table.Text (owner_name r.Diag.seg_owner);
          Table.Int r.Diag.seg_misses;
          Table.pct r.Diag.seg_misses t.Diag.total;
          Table.Int r.Diag.seg_conflict;
          Table.Int r.Diag.seg_capacity;
          Table.Int r.Diag.seg_evictions_caused;
          Table.Int r.Diag.seg_evictions_suffered;
        ])
    (Diag.by_segment ~top d);
  tbl

let pairs_table ~top d =
  let tbl =
    Table.create ~id:"diag_pairs"
      ~title:(Printf.sprintf "top %d eviction conflict pairs (evictor -> victim)" top)
      ~columns:[ ("evictor", "evictor"); ("victim", "victim"); ("evictions", "evictions");
                 ("sets", "sets"); ("hot_set", "hot set"); ("in_hot_set", "in hot set") ]
  in
  List.iteri
    (fun i (p : Diag.conflict_pair) ->
      Table.add_row tbl ~id:(string_of_int i)
        [
          Table.Text p.Diag.cp_evictor;
          Table.Text p.Diag.cp_victim;
          Table.Int p.Diag.cp_count;
          Table.Int p.Diag.cp_sets;
          Table.Text (string_of_int p.Diag.cp_hot_set);
          Table.Int p.Diag.cp_hot_count;
        ])
    (Diag.conflict_pairs ~top d);
  Table.add_note tbl
    "pairs a placement fix should separate: map evictor and victim to non-colliding sets";
  tbl

let pressure_table ~top d =
  let h = Diag.set_pressure d in
  let tbl =
    Table.create ~id:"diag_pressure" ~title:"per-set miss pressure"
      ~columns:[ ("metric", "metric"); ("value", "value") ]
  in
  Table.add_row tbl ~id:"sets" [ Table.Text "sets"; Table.Int (Histogram.total h) ];
  Table.add_row tbl ~id:"mean" [ Table.Text "mean misses/set"; Table.Fixed (1, Histogram.mean h) ];
  Table.add_row tbl ~id:"max" [ Table.Text "max misses/set"; Table.Int (Histogram.max_key h) ];
  (match Diag.hot_sets ~top d with
  | [] -> ()
  | hot ->
      Table.add_row tbl ~id:"hottest"
        [
          Table.Text "hottest sets";
          Table.Text
            (String.concat ", "
               (List.map (fun (s, m) -> Printf.sprintf "%d (%s)" s (Table.fmt_int m)) hot));
        ]);
  tbl

let tables ?(top = 10) ~combo preset d =
  [
    summary_table ~combo preset d;
    segments_table ~top d;
    pairs_table ~top d;
    pressure_table ~top:5 d;
  ]

let artifact_schema = "olayout-diag/v1"

let artifact_json ~scale ~combo ~preset r =
  Json.Object
    [
      ("schema", Json.String artifact_schema);
      ("scale", Json.String scale);
      ("figure", Json.String preset.fig);
      ("what", Json.String preset.what);
      ("combo", Json.String (Spike.combo_name combo));
      ("icache_misses_counter_delta", Json.Int r.icache_misses_delta);
      ("diag", Diag.json ~top:20 r.diag);
    ]
