module Json = Olayout_telemetry.Json
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline
module Bench_artifact = Olayout_telemetry.Bench_artifact
module Observatory = Olayout_drift.Observatory
module Closedloop = Olayout_drift.Closedloop
module Spike = Olayout_core.Spike

type run = {
  ctx : Context.t;
  scale : string;
  total_seconds : float;
  report : Report.result;
}

type kind = {
  stem : string;
  schema : string;
  produce : Format.formatter -> run -> Json.t option;
}

let print_tables ppf = List.iter (Table.print ppf)

(* EXPLAIN and DIAG measure the headline geometry, like the drift and
   relayout experiments. *)
let headline () = Diagnose.preset_of_figure "fig4"

let kinds =
  [
    {
      stem = "BENCH";
      schema = Bench_artifact.schema;
      produce =
        (fun _ r ->
          Some
            (Bench_artifact.json ~scale:r.scale ~total_seconds:r.total_seconds
               ~trace_cache_bytes:(Context.trace_stats r.ctx).Context.trace_bytes
               ~figures:r.report.Report.figures));
    };
    {
      stem = "TIMELINE";
      schema = Timeline.artifact_schema;
      produce =
        (fun ppf r ->
          Timeline.pp_summary ppf ();
          Some (Timeline.to_json ~scale:r.scale));
    };
    {
      stem = "EXPLAIN";
      schema = Explain.artifact_schema;
      produce =
        (fun ppf r ->
          let x = Explain.run r.ctx (headline ()) in
          print_tables ppf (Explain.tables ~top:10 x);
          Some (Explain.artifact_json ~scale:r.scale x));
    };
    {
      stem = "DRIFT";
      schema = Observatory.artifact_schema;
      produce =
        (fun _ r ->
          Option.map (Observatory.to_json ~scale:r.scale) r.report.Report.drift);
    };
    {
      stem = "RELAYOUT";
      schema = Closedloop.artifact_schema;
      produce =
        (fun _ r ->
          Option.map (Closedloop.to_json ~scale:r.scale) r.report.Report.relayout);
    };
    {
      stem = "DIAG";
      schema = Diagnose.artifact_schema;
      produce =
        (fun ppf r ->
          let preset = headline () and combo = Spike.Base in
          let d = Diagnose.run ~combo r.ctx preset in
          print_tables ppf (Diagnose.tables ~top:10 ~combo preset d.Diagnose.diag);
          Some (Diagnose.artifact_json ~scale:r.scale ~combo ~preset d));
    };
  ]

let path ~dir ~scale ?(ext = "json") stem =
  Filename.concat dir (Printf.sprintf "%s_%s.%s" stem scale ext)

let write_all ~dir ppf r =
  List.iter
    (fun k ->
      match k.produce ppf r with
      | None ->
          Format.fprintf ppf "%s not written: its experiment was not selected@."
            k.stem
      | Some doc ->
          let p = path ~dir ~scale:r.scale k.stem in
          Json.write_file p doc;
          Format.fprintf ppf "%s artifact written to %s@." k.stem p)
    kinds
