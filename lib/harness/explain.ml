(* The explain driver: capture a layout-decision log, measure the same
   replayed stream under the base and optimized layouts, and join both
   into per-procedure scorecards (see {!Olayout_explain.Scorecard}).

   Determinism: the provenance capture re-runs the layout pipeline on the
   dispatching domain (pure, profile-driven, no execution), and the two
   diagnosis captures replay the context's cached measurement streams
   through the icache-backed Diag — independent of the battery engine and
   of any worker pool.  The artifact therefore compares byte-for-byte
   across [-j] values and sweep engines, which CI enforces with cmp. *)

module Diag = Olayout_diag.Diag
module Resolver = Olayout_diag.Resolver
module Icache = Olayout_cachesim.Icache
module Spike = Olayout_core.Spike
module Profile = Olayout_profile.Profile
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry
module Provenance = Olayout_telemetry.Provenance
module Json = Olayout_telemetry.Json
module Scorecard = Olayout_explain.Scorecard

type result = {
  ex_preset : Diagnose.preset;
  ex_combo : Spike.combo;
  ex_rows : Scorecard.row list;
  ex_events : int;  (* provenance events captured for this pipeline *)
  ex_base : Diag.t;
  ex_opt : Diag.t;
}

(* Re-run the optimization pipeline with the provenance recorder armed.
   The placement result is discarded — the cached Context placements are
   identical (same profile, same passes) and are what the scorecard reads
   addresses from; this run exists only to produce the decision log. *)
let capture_decisions ctx combo =
  Provenance.reset ();
  Provenance.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Provenance.set_enabled false)
    (fun () -> ignore (Spike.optimize (Context.app_profile ctx) combo));
  Provenance.events ()

let run ?(combo = Spike.All) ctx preset =
  if combo = Spike.Base then
    invalid_arg "Explain.run: combo must name an optimized layout, not base";
  Telemetry.span "explain" (fun () ->
      let events = capture_decisions ctx combo in
      let open Diagnose in
      let config =
        Icache.config ~size_kb:preset.size_kb ~line:preset.line ~assoc:preset.assoc
          ()
      in
      let diag_for pl =
        Diag.create
          ~resolver:
            (Resolver.of_placements
               [ (Run.App, pl); (Run.Kernel, Context.kernel_base ctx) ])
          config
      in
      let base_diag = diag_for (Context.placement ctx Spike.Base) in
      let opt_diag = diag_for (Context.placement ctx combo) in
      let emit d run =
        if preset.combined || run.Run.owner = Run.App then Diag.access_run d run
      in
      let _ =
        Context.measure ctx
          ~renders:[ (Spike.Base, emit base_diag); (combo, emit opt_diag) ]
          ()
      in
      let rows =
        Scorecard.build
          ~prog:(Profile.prog (Context.app_profile ctx))
          ~combo:(Spike.combo_name combo)
          ~base:(Context.placement ctx Spike.Base)
          ~opt:(Context.placement ctx combo)
          ~events ~base_diag ~opt_diag ()
      in
      {
        ex_preset = preset;
        ex_combo = combo;
        ex_rows = rows;
        ex_events = List.length events;
        ex_base = base_diag;
        ex_opt = opt_diag;
      })

let fmt_delta n = if n > 0 then Printf.sprintf "+%s" (Table.fmt_int n) else Table.fmt_int n

let misses_moved base opt =
  Table.Text (Printf.sprintf "%s -> %s" (Table.fmt_int base) (Table.fmt_int opt))

let summary_table r =
  let open Diagnose in
  let s = Scorecard.summarize r.ex_rows in
  let tbl =
    Table.create ~id:"explain_summary"
      ~title:
        (Printf.sprintf "layout scorecard: %s, base vs %s (%s)" r.ex_preset.fig
           (Spike.combo_name r.ex_combo) r.ex_preset.what)
      ~columns:[ ("metric", "metric"); ("value", "value") ]
  in
  let row id name cell = Table.add_row tbl ~id [ Table.Text name; cell ] in
  row "procs" "procedures scored" (Table.Int s.Scorecard.sm_procs);
  row "moved" "moved by the layout" (Table.Int s.Scorecard.sm_moved);
  row "misses" "app misses, base -> opt"
    (misses_moved s.Scorecard.sm_base_misses s.Scorecard.sm_opt_misses);
  row "improved" "procs improved" (Table.Int s.Scorecard.sm_improved);
  row "regressed" "procs regressed" (Table.Int s.Scorecard.sm_regressed);
  row "decisions" "layout decisions recorded" (Table.Int s.Scorecard.sm_decisions);
  Table.add_note tbl
    "regret = opt misses - base misses per procedure; positive rows are where \
     the layout hurt";
  tbl

(* Rows are numbered by regret rank. *)
let scorecard_table ~top r =
  let tbl =
    Table.create ~id:"explain_scorecard"
      ~title:(Printf.sprintf "top %d procedures by layout regret" top)
      ~columns:[ ("procedure", "procedure"); ("rank", "rank"); ("moved", "moved B");
                 ("misses", "misses base->opt"); ("regret", "regret"); ("partner", "top partner");
                 ("why", "why") ]
  in
  List.iteri
    (fun i (row : Scorecard.row) ->
      if i < top then
        Table.add_row tbl ~id:(string_of_int i)
          [
            Table.Text row.Scorecard.sc_name;
            (if row.Scorecard.sc_rank >= 0 then Table.Text (string_of_int row.Scorecard.sc_rank)
             else Table.No_data);
            Table.Text (fmt_delta row.Scorecard.sc_moved_bytes);
            misses_moved row.Scorecard.sc_base_misses row.Scorecard.sc_opt_misses;
            Table.Text (fmt_delta row.Scorecard.sc_regret);
            Table.Text (match row.Scorecard.sc_partner with Some p -> p | None -> "-");
            Table.Text row.Scorecard.sc_rationale;
          ])
    r.ex_rows;
  Table.add_note tbl
    "partner = hottest base-layout conflict pair touching the procedure; why = \
     the recorded pass decisions";
  tbl

let tables ?(top = 10) r = [ summary_table r; scorecard_table ~top r ]

let artifact_schema = "olayout-explain/v1"

(* All numeric content nests under "explain" so every flattened metric
   path classifies as Deterministic in Diff (head segment "explain").
   No timestamps, no argv: the document must be byte-identical across
   legs. *)
let artifact_json ~scale r =
  Json.Object
    [
      ("schema", Json.String artifact_schema);
      ("scale", Json.String scale);
      ("figure", Json.String r.ex_preset.Diagnose.fig);
      ("what", Json.String r.ex_preset.Diagnose.what);
      ("combo", Json.String (Spike.combo_name r.ex_combo));
      ("explain", Scorecard.json ~top:20 r.ex_rows);
    ]
