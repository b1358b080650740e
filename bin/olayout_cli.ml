(* olayout: the command-line front end and the one driver of the
   reproduction.  [olayout report] regenerates the paper's figures; with
   [--out DIR] it also writes every run artifact (Olayout_harness.Artifacts)
   and, with [--baseline FILE], gates the run's BENCH artifact against a
   saved one.

   The subcommands are listed once, in [subcommands] at the bottom; running
   with no arguments (or "help") prints their one-line overview.  Bad input
   (an unknown subcommand, a flag cmdliner cannot parse, an argument a
   driver rejects with Invalid_argument) prints one "olayout: <message>"
   line and exits 2; a failed gate or an unreadable artifact exits 1. *)

open Cmdliner
module Context = Olayout_harness.Context
module Report = Olayout_harness.Report
module Telemetry = Olayout_telemetry.Telemetry
module Table = Olayout_harness.Table
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Workload = Olayout_oltp.Workload
module Profile = Olayout_profile.Profile
module Binary = Olayout_codegen.Binary
module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Prog = Olayout_ir.Prog
module Proc = Olayout_ir.Proc
module Block = Olayout_ir.Block
module Json = Olayout_telemetry.Json
module Diagnose = Olayout_harness.Diagnose

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload/binary seed.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced transaction counts (fast, noisier).")

let combo_conv ?(optimized = false) () =
  Arg.enum
    (List.filter_map
       (fun c ->
         if optimized && c = Spike.Base then None else Some (Spike.combo_name c, c))
       Spike.all_combos)

let combo_arg_value =
  Arg.(
    value & opt (combo_conv ()) Spike.All
    & info [ "combo" ] ~docv:"COMBO" ~doc:"Layout combination to inspect.")

(* Integer flags with a lower bound: a value below it is a parse error,
   reported before any workload is built. *)
let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* One subcommand: its name and one-line doc feed both cmdliner and the
   overview; [man] is the longer description its --help shows. *)
type sub = { name : string; doc : string; man : string; term : int Term.t }

let sub ?(man = "") name doc term = { name; doc; man; term }

let engine_conv = Arg.enum [ ("icache", `Icache); ("stackdist", `Stackdist) ]
let scale_of quick = if quick then Context.Quick else Context.Full
let scale_name quick = if quick then "quick" else "full"

(* --- inspect --- *)

let inspect seed =
  let w = Workload.create ~seed () in
  let app = Binary.prog (Workload.app w) and kernel = Binary.prog (Workload.kernel w) in
  Format.printf "%a@.%a@." Prog.pp_summary app Prog.pp_summary kernel;
  let profile, _ = Workload.train w ~txns:300 () in
  Format.printf "@.top 15 procedures by dynamic instructions (300-txn profile):@.";
  let per_proc =
    Array.map
      (fun (p : Proc.t) ->
        let d = ref 0 in
        Array.iter
          (fun (b : Block.t) ->
            d :=
              !d
              + Profile.block_count profile ~proc:p.Proc.id ~block:b.Block.id
                * Block.source_instrs b)
          p.Proc.blocks;
        (p.Proc.name, !d))
      app.Prog.procs
  in
  Array.sort (fun (_, a) (_, b) -> compare b a) per_proc;
  let total = float_of_int (Profile.dynamic_instrs profile) in
  Array.iteri
    (fun i (name, d) ->
      if i < 15 then
        Format.printf "  %-24s %6.2f%%@." name (100.0 *. float_of_int d /. total))
    per_proc;
  0

let inspect_cmd =
  sub "inspect" "build the synthetic binaries and show their structure"
    Term.(const inspect $ seed_arg)

(* --- profile: train and save --- *)

let profile_cmd_run seed quick out =
  let txns = if quick then 200 else 2000 in
  let w = Workload.create ~seed () in
  let profile, _ = Workload.train w ~txns () in
  Profile.save_file out profile;
  Format.printf "wrote %s (%d block events, %s dynamic instructions)@." out
    (Profile.total_block_events profile)
    (Table.fmt_int (Profile.dynamic_instrs profile));
  0

let profile_cmd =
  let out_arg =
    Arg.(
      value & opt string "oltp.profile"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to save the profile.")
  in
  sub "profile" "run the training phase and save the profile to a file"
    Term.(const profile_cmd_run $ seed_arg $ quick_arg $ out_arg)

(* Load a saved profile or train a fresh one. *)
let obtain_profile w ~quick = function
  | Some path -> Profile.load_file (Binary.prog (Workload.app w)) path
  | None ->
      let txns = if quick then 200 else 2000 in
      fst (Workload.train w ~txns ())

let profile_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-file" ] ~docv:"FILE" ~doc:"Reuse a profile saved by $(b,profile).")

(* --- disasm --- *)

let disasm seed quick profile_file combo procs summary =
  let w = Workload.create ~seed () in
  (* Every name is checked against the app binary before training. *)
  let procs =
    List.map
      (fun name ->
        match Prog.find_proc (Binary.prog (Workload.app w)) name with
        | Some p -> p
        | None -> invalid_arg (Printf.sprintf "disasm: no such procedure %S" name))
      procs
  in
  let profile = obtain_profile w ~quick profile_file in
  let placement = Spike.optimize profile combo in
  if summary then Format.printf "%a@." Olayout_core.Listing.pp_summary placement;
  List.iter
    (fun (p : Proc.t) ->
      Olayout_core.Listing.pp_proc ~profile Format.std_formatter placement ~proc:p.Proc.id;
      Format.print_newline ())
    procs;
  0

let disasm_cmd =
  let procs_arg =
    Arg.(
      value & opt (list string) [ "op_buf_hit@0" ]
      & info [ "procs" ] ~docv:"NAMES" ~doc:"Procedures to list.")
  in
  let summary_arg =
    Arg.(value & flag & info [ "summary" ] ~doc:"Print the segment map first.")
  in
  sub "disasm" "list placed code with addresses and branch targets"
    Term.(
      const disasm $ seed_arg $ quick_arg $ profile_file_arg $ combo_arg_value $ procs_arg
      $ summary_arg)

(* --- optimize --- *)

let optimize seed quick profile_file =
  let w = Workload.create ~seed () in
  let profile = obtain_profile w ~quick profile_file in
  let tbl =
    Table.create ~id:"combos" ~title:"layout combinations"
      ~columns:[ ("combo", "combo"); ("text_kb", "text KB"); ("instrs", "instrs");
                 ("vs_base", "vs base instrs"); ("far_branches", "far branches") ]
  in
  let base_instrs =
    Placement.program_instrs (Spike.optimize profile Spike.Base)
  in
  List.iter
    (fun combo ->
      let pl = Spike.optimize profile combo in
      let id, name = Olayout_harness.Fig_combos.combo_column combo in
      Table.add_row tbl ~id
        [
          Table.Text name;
          Table.Int (Placement.text_bytes pl / 1024);
          Table.Int (Placement.program_instrs pl);
          Table.Text (Printf.sprintf "%+d" (Placement.program_instrs pl - base_instrs));
          Table.Int (Placement.long_branches pl ());
        ])
    Spike.all_combos;
  Format.printf "%a@." Table.print tbl;
  0

let optimize_cmd =
  sub "optimize" "profile the workload and compare layout combinations"
    Term.(const optimize $ seed_arg $ quick_arg $ profile_file_arg)

(* --- simulate --- *)

let simulate seed quick size_kb line assoc combos app_only =
  let config = Icache.config ~size_kb ~line ~assoc () in
  ignore (Icache.sets ~caller:"simulate" config);
  let txns = if quick then 150 else 1000 in
  let w = Workload.create ~seed () in
  let profile, _ = Workload.train w ~txns:(if quick then 200 else 2000) () in
  let kernel_base = Workload.base_kernel w in
  let caches = List.map (fun combo -> (combo, Icache.create config)) combos in
  let renders =
    List.map
      (fun (combo, cache) ->
        {
          Olayout_oltp.Server.app_placement = Spike.optimize profile combo;
          kernel_placement = kernel_base;
          emit =
            (fun run ->
              if (not app_only) || run.Run.owner = Run.App then
                Icache.access_run cache run);
        })
      caches
  in
  let r =
    Olayout_oltp.Server.run ~app:(Workload.app w) ~kernel:(Workload.kernel w) ~txns
      ~seed:(seed + 1000) ~renders ()
  in
  (* The simulated stream's instructions: the header's count and every
     row's mpki denominator. *)
  let instrs = if app_only then r.app_instrs else r.app_instrs + r.kernel_instrs in
  Format.printf "%d transactions, %s instructions (%s stream)@." r.committed
    (Table.fmt_int instrs)
    (if app_only then "application" else "combined");
  let tbl =
    Table.create ~id:"simulate"
      ~title:(Printf.sprintf "i-cache %dKB / %dB line / %d-way" size_kb line assoc)
      ~columns:[ ("combo", "combo"); ("misses", "misses"); ("mpki", "miss per 1k instrs");
                 ("vs_base", "vs base") ]
  in
  let base_misses =
    match caches with (_, c) :: _ -> Icache.misses c | [] -> 0
  in
  (* Rows are numbered: the combos are the user's list, repeats allowed. *)
  List.iteri
    (fun i (combo, cache) ->
      let m = Icache.misses cache in
      Table.add_row tbl ~id:(string_of_int i)
        [
          Table.Text (Spike.combo_name combo);
          Table.Int m;
          Table.Fixed (2, 1000.0 *. float_of_int m /. float_of_int instrs);
          Table.pct m base_misses;
        ])
    caches;
  Format.printf "%a@." Table.print tbl;
  0

let simulate_cmd =
  let size_arg =
    Arg.(value & opt int 64 & info [ "size-kb" ] ~docv:"KB" ~doc:"Cache size in KB.")
  in
  let line_arg =
    Arg.(value & opt int 128 & info [ "line" ] ~docv:"BYTES" ~doc:"Line size in bytes.")
  in
  let assoc_arg =
    Arg.(value & opt int 1 & info [ "assoc" ] ~docv:"WAYS" ~doc:"Associativity.")
  in
  let combos_arg =
    Arg.(
      value
      & opt (list (combo_conv ())) [ Spike.Base; Spike.All ]
      & info [ "combos" ] ~docv:"COMBOS" ~doc:"Comma-separated layout combinations.")
  in
  let app_only_arg =
    Arg.(value & flag & info [ "app-only" ] ~doc:"Filter out the kernel stream.")
  in
  sub "simulate" "run the OLTP workload through an instruction cache"
    Term.(
      const simulate $ seed_arg $ quick_arg $ size_arg $ line_arg $ assoc_arg $ combos_arg
      $ app_only_arg)

(* --- trace: dump an address trace (SimOS-style) --- *)

let trace seed quick profile_file combo out max_runs =
  let w = Workload.create ~seed () in
  let profile = obtain_profile w ~quick profile_file in
  let placement = Spike.optimize profile combo in
  let kernel = Workload.base_kernel w in
  let oc = open_out out in
  let written = ref 0 in
  Printf.fprintf oc "# olayout trace: %s layout; columns: owner addr(hex) instrs\n"
    (Spike.combo_name combo);
  let r =
    Olayout_oltp.Server.run ~app:(Workload.app w) ~kernel:(Workload.kernel w)
      ~txns:(if quick then 50 else 300) ~seed:(seed + 2000)
      ~renders:
        [
          {
            Olayout_oltp.Server.app_placement = placement;
            kernel_placement = kernel;
            emit =
              (fun run ->
                if !written < max_runs then begin
                  incr written;
                  Printf.fprintf oc "%c %x %d\n"
                    (match run.Run.owner with Run.App -> 'A' | Run.Kernel -> 'K')
                    run.Run.addr run.Run.len
                end);
          };
        ]
      ()
  in
  close_out oc;
  Format.printf "wrote %d fetch runs (of %s instructions executed) to %s@." !written
    (Table.fmt_int (r.app_instrs + r.kernel_instrs))
    out;
  0

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.txt" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let max_arg =
    Arg.(
      value & opt (at_least 0) 200_000
      & info [ "max-runs" ] ~docv:"N" ~doc:"Stop after N fetch runs.")
  in
  sub "trace" "dump the instruction-fetch trace under a layout"
    Term.(
      const trace $ seed_arg $ quick_arg $ profile_file_arg $ combo_arg_value $ out_arg
      $ max_arg)

(* --- the five single-artifact subcommands --- *)

(* diagnose, timeline, explain, drift and relayout share one shape: build a
   context at the chosen scale and seed, run one driver over a figure's
   cache geometry under a layout combination, print its console report and,
   with -o FILE, write its artifact.  [kind] carries the subcommand's own
   flags and returns the artifact document. *)
type common = {
  quick : bool;
  seed : int;
  preset : Diagnose.preset;
  combo : Spike.combo;
}

let context ?engine c = Context.create ~scale:(scale_of c.quick) ~seed:c.seed ?engine ()

let artifact_sub ~name ~doc ~man ~schema ~figure_doc ~combo ~combo_doc kind =
  let figure_arg =
    Arg.(
      value
      & opt
          (enum (List.map (fun p -> (p.Diagnose.fig, p)) Diagnose.presets))
          (Diagnose.preset_of_figure "fig4")
      & info [ "figure" ] ~docv:"ID"
          ~doc:
            (Printf.sprintf "%s (%s)." figure_doc
               (String.concat ", "
                  (List.map (fun p -> p.Diagnose.fig) Diagnose.presets))))
  in
  (* Only diagnose and timeline look at the base layout itself; the others
     explain or rebuild an optimized one. *)
  let combo_arg =
    Arg.(
      value
      & opt (combo_conv ~optimized:(combo <> Spike.Base) ()) combo
      & info [ "combo" ] ~docv:"COMBO" ~doc:combo_doc)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:(Printf.sprintf "Also write the %s artifact to $(docv)." schema))
  in
  let run quick seed preset combo produce out =
    let doc = produce { quick; seed; preset; combo } in
    Option.iter
      (fun path ->
        Json.write_file path doc;
        Format.printf "%s artifact written to %s@." name path)
      out;
    0
  in
  sub ~man name doc
    Term.(const run $ quick_arg $ seed_arg $ figure_arg $ combo_arg $ kind $ out_arg)

let top_arg ~default ~doc =
  Arg.(value & opt (at_least 1) default & info [ "top" ] ~docv:"N" ~doc)

let print_tables = List.iter (Table.print Format.std_formatter)

let diagnose_cmd =
  let telemetry_arg =
    Arg.(
      value & flag
      & info [ "telemetry" ] ~doc:"Print the telemetry summary after the report.")
  in
  let diagnose top telemetry c =
    let ctx = context c in
    let d = Diagnose.run ~combo:c.combo ctx c.preset in
    print_tables (Diagnose.tables ~top ~combo:c.combo c.preset d.Diagnose.diag);
    if telemetry then Telemetry.pp_summary Format.std_formatter ();
    Diagnose.artifact_json ~scale:(scale_name c.quick) ~combo:c.combo
      ~preset:c.preset d
  in
  artifact_sub ~name:"diagnose"
    ~doc:"classify i-cache misses and attribute them to code segments"
    ~man:
      "Runs the workload through the figure's cache with miss classification \
       (compulsory/capacity/conflict), per-segment attribution and conflict \
       matrices."
    ~schema:Diagnose.artifact_schema ~figure_doc:"Figure geometry to diagnose"
    ~combo:Spike.Base
    ~combo_doc:
      "Layout combination to diagnose (default the unoptimized base: the point \
       is to see the conflicts the optimizations remove)."
    Term.(
      const diagnose
      $ top_arg ~default:10 ~doc:"Rows per attribution table."
      $ telemetry_arg)

let timeline_cmd =
  let module Timeline = Olayout_telemetry.Timeline in
  let window_arg =
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "window" ] ~docv:"INSTRS"
          ~doc:
            "Window width in simulated instructions (default 65536 with \
             $(b,--quick), 524288 otherwise).")
  in
  let engine_arg =
    Arg.(
      value & opt engine_conv `Stackdist
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Sweep backend feeding the cachesim series; both engines produce \
             byte-identical series.")
  in
  let timeline window engine c =
    (* Enabled before the context exists: the simulators capture their
       series handles at construction. *)
    Timeline.set_enabled true;
    Timeline.set_window
      (match window with Some w -> w | None -> if c.quick then 65_536 else 524_288);
    let ctx = context ~engine c in
    Olayout_harness.Phase_timeline.run ~combo:c.combo ~engine ctx c.preset;
    Format.printf "%a" Timeline.pp_summary ();
    Timeline.to_json ~scale:(scale_name c.quick)
  in
  artifact_sub ~name:"timeline"
    ~doc:"windowed metric series over the simulated instruction clock"
    ~man:
      "Per-window cache misses, working set and transaction mix for one figure \
       geometry, printed as sparklines."
    ~schema:Timeline.artifact_schema
    ~figure_doc:"Figure geometry to trace over the instruction clock"
    ~combo:Spike.Base
    ~combo_doc:"Layout combination to trace (default the unoptimized base)."
    Term.(const timeline $ window_arg $ engine_arg)

let explain_cmd =
  let module Explain = Olayout_harness.Explain in
  let explain top c =
    let r = Explain.run ~combo:c.combo (context c) c.preset in
    print_tables (Explain.tables ~top r);
    Explain.artifact_json ~scale:(scale_name c.quick) r
  in
  artifact_sub ~name:"explain"
    ~doc:"per-procedure layout scorecards (decisions, moves, regret)"
    ~man:
      "What each optimization pass decided, where every procedure moved, and \
       what that did to its miss count (base vs optimized, ranked by layout \
       regret)."
    ~schema:Explain.artifact_schema
    ~figure_doc:"Cache geometry the scorecard measures under" ~combo:Spike.All
    ~combo_doc:"Optimized layout to explain against base (any combo except $(b,base))."
    Term.(const explain $ top_arg ~default:10 ~doc:"Scorecard rows to print.")

let drift_cmd =
  let module Drift = Olayout_harness.Drift in
  let windows_arg =
    Arg.(
      value
      & opt (at_least 2) Drift.default_phases
      & info [ "windows" ] ~docv:"N"
          ~doc:
            "Profile phases in the staleness matrix (at least 2): the \
             mix-shift schedule rotates through $(docv) slots and one layout \
             is derived per phase.")
  in
  let drift phases top c =
    let r = Drift.run ~combo:c.combo ~phases ~top (context c) c.preset in
    print_tables (Drift.tables r);
    Drift.Observatory.to_json ~scale:(scale_name c.quick) r
  in
  artifact_sub ~name:"drift"
    ~doc:"workload-drift observatory: divergence series + staleness matrix"
    ~man:
      "Runs the OLTP server under a deterministic mid-run mix shift, charts \
       per-window profile divergence as sparklines, and replays every (phase \
       layout, phase slice) pairing into a layout-staleness matrix."
    ~schema:Drift.Observatory.artifact_schema
    ~figure_doc:"Cache geometry the staleness matrix replays under" ~combo:Spike.All
    ~combo_doc:"Layout algorithm applied per phase (any combo except $(b,base))."
    Term.(
      const drift $ windows_arg
      $ top_arg ~default:Drift.default_top
          ~doc:"Hot-set size for the Jaccard and rank-churn series.")

let relayout_cmd =
  let module Relayout = Olayout_harness.Relayout in
  let cadences_arg =
    Arg.(
      value
      & opt (list (at_least 1)) Relayout.default_cadences
      & info [ "cadences" ] ~docv:"N,N,..."
          ~doc:
            "Re-layout cadences to sweep, in windows between ticks; a static \
             never-re-layout row is always included.")
  in
  let slots_arg =
    Arg.(
      value
      & opt (at_least 2) Relayout.default_slots
      & info [ "slots" ] ~docv:"N"
          ~doc:"Mix-shift schedule slots the replayed run rotates through.")
  in
  let relayout cadences slots c =
    if cadences = [] then invalid_arg "--cadences needs at least one cadence";
    let r = Relayout.run ~combo:c.combo ~cadences ~slots (context c) c.preset in
    print_tables (Relayout.tables r);
    Relayout.Closedloop.to_json ~scale:(scale_name c.quick) r
  in
  artifact_sub ~name:"relayout"
    ~doc:"closed-loop incremental re-layout: miss rate vs cadence"
    ~man:
      "Replays a drifting transaction mix under a layout rebuilt from the \
       profile delta every N windows, charting miss rate against re-layout \
       cadence (the cache persists across ticks, so re-layout disruption \
       counts) and reporting the break-even cadence and the incremental \
       engine's work savings."
    ~schema:Relayout.Closedloop.artifact_schema
    ~figure_doc:"Cache geometry the cadence sweep replays under" ~combo:Spike.All
    ~combo_doc:"Layout algorithm the loop re-runs per tick (any combo except $(b,base))."
    Term.(const relayout $ cadences_arg $ slots_arg)

(* --- compare: diff two run artifacts --- *)

(* Shared by [compare] and the driver's baseline gate: load both artifacts,
   print the diff, write the olayout-compare/v1 verdict to [out] and return
   the exit code (1 on a failed gate or an unreadable artifact). *)
let compare_and_gate ~old_path ~new_path ?tolerance ?(ignore_prefixes = [])
    ~gate ?(gate_timing = false) ~fidelity ~out () =
  let module Artifact = Olayout_regress.Artifact in
  let module Diff = Olayout_regress.Diff in
  match
    let old_art = Artifact.load_file old_path in
    let new_art = Artifact.load_file new_path in
    Diff.compare_artifacts ?tolerance ~ignore_prefixes ~old_art ~new_art ()
  with
  | exception Artifact.Load_error msg ->
      Printf.eprintf "olayout: compare: %s\n" msg;
      1
  | d ->
      Format.printf "%a" Diff.pp d;
      let fidelity = Option.map (fun f -> f d.Diff.new_art) fidelity in
      Option.iter (fun f -> Format.printf "%a" Olayout_regress.Fidelity.pp f) fidelity;
      let failures = Diff.gate_failures ~timing:gate_timing d in
      let gate_failed = gate && failures <> [] in
      Option.iter
        (fun path ->
          Json.write_file path (Diff.to_json ?fidelity ~gated:gate ~gate_failed d);
          Format.printf "compare artifact written to %s@." path)
        out;
      if gate_failed then begin
        let value = function Some v -> Printf.sprintf "%.12g" v | None -> "absent" in
        List.iter
          (fun (e : Diff.entry) ->
            Printf.eprintf "olayout: gate: %s in %s (%s -> %s)\n"
              (match e.Diff.e_status with
              | Diff.Drift -> "deterministic drift"
              | _ -> "timing drift beyond tolerance")
              e.Diff.e_path (value e.Diff.e_old) (value e.Diff.e_new))
          failures;
        Printf.eprintf "olayout: gate failed: %d metric(s) drifted from %s\n"
          (List.length failures) old_path;
        1
      end
      else 0

let compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline artifact (BENCH_*.json or DIAG_*.json).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Artifact to compare against $(i,OLD).")
  in
  let tolerance_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "tolerance" ] ~docv:"FRACTION"
          ~doc:
            "Relative tolerance for timing metrics (default 0.25 = +/-25%). \
             Deterministic metrics always require exact equality.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ] ~doc:"Exit non-zero when any deterministic metric drifted.")
  in
  let gate_timing_arg =
    Arg.(
      value & flag
      & info [ "gate-timing" ]
          ~doc:
            "With $(b,--gate), also fail on timing metrics beyond the \
             tolerance (off by default: wall-clock measures the machine as \
             much as the code).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the olayout-compare/v1 JSON artifact to $(docv).")
  in
  let fidelity_arg =
    Arg.(
      value & flag
      & info [ "fidelity" ]
          ~doc:
            "Score the new artifact against the paper's headline claims and \
             include the scoreboard in the output.")
  in
  let ignore_arg =
    Arg.(
      value & opt_all string []
      & info [ "ignore" ] ~docv:"PREFIX"
          ~doc:
            "Drop metric paths starting with $(docv) from both sides before \
             comparing (repeatable).  The cross-engine CI leg uses \
             $(b,--ignore counters.cachesim.) to gate two engines' artifacts \
             on everything except their engine-specific simulator counters.")
  in
  let compare old_path new_path tolerance gate gate_timing out fidelity
      ignore_prefixes =
    (* Fidelity scores the *new* side; only bench artifacts carry the fig.*
       gauges the claims read. *)
    compare_and_gate ~old_path ~new_path ?tolerance ~ignore_prefixes ~gate
      ~gate_timing
      ~fidelity:(if fidelity then Some Olayout_regress.Fidelity.of_artifact else None)
      ~out ()
  in
  sub "compare" "diff two run artifacts, gate on deterministic drift"
    ~man:
      "Deterministic metrics (simulation counters) gate on exact equality, \
       timing metrics on a relative tolerance."
    Term.(
      const compare $ old_arg $ new_arg $ tolerance_arg $ gate_arg
      $ gate_timing_arg $ out_arg $ fidelity_arg $ ignore_arg)

(* --- report: the driver --- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let report seed quick only trace_stats telemetry jobs engine baseline timeline_window
    out =
  let module Artifacts = Olayout_harness.Artifacts in
  let module Timeline = Olayout_telemetry.Timeline in
  let module Fidelity = Olayout_regress.Fidelity in
  let module Pool = Olayout_par.Pool in
  if out = None && baseline <> None then
    invalid_arg
      "--baseline needs --out DIR: the gate reads the BENCH artifact written there";
  if out = None && timeline_window <> None then
    invalid_arg "--timeline-window only applies with --out DIR";
  if only = Some [] then invalid_arg "--only needs at least one experiment id";
  let scale = scale_name quick in
  Option.iter mkdir_p out;
  (* The telemetry JSONL stream backs the TRACE export.  Its counter tracks
     are cumulative simulated i-cache misses (both engines) and the
     trace-cache footprint, sampled at span completion. *)
  let jsonl =
    Option.map (fun dir -> Artifacts.path ~dir ~scale ~ext:"jsonl" "TELEMETRY") out
  in
  Option.iter
    (fun path ->
      Telemetry.open_jsonl_file path;
      Telemetry.watch_counter (Telemetry.counter "cachesim.icache_misses");
      Telemetry.watch_counter (Telemetry.counter "cachesim.stackdist.misses");
      Telemetry.watch_gauge (Telemetry.gauge "context.trace_cache_bytes"))
    jsonl;
  (* Timeline instrumentation is decided before any producer is built: the
     simulators capture their series handles at construction. *)
  if out <> None then begin
    Timeline.set_enabled true;
    Timeline.set_window
      (match timeline_window with Some w -> w | None -> if quick then 65_536 else 524_288)
  end;
  Format.printf
    "olayout report: reproducing Ramirez et al., ISCA 2001 (%s scale, %s sweep engine)@."
    scale (Olayout_cachesim.Battery.engine_name engine);
  let pool =
    match jobs with
    | None | Some 1 -> None
    | Some 0 -> Some (Pool.create ())
    | Some j -> Some (Pool.create ~jobs:j ())
  in
  Option.iter
    (fun p -> Format.printf "parallel schedule: %d domains@." (Pool.jobs p))
    pool;
  let (ctx, result), total_seconds =
    Fun.protect
      ~finally:(fun () -> Option.iter Pool.shutdown pool)
      (fun () ->
        Telemetry.timed "bench.total" (fun () ->
            let ctx, setup_seconds =
              Telemetry.timed "bench.setup" (fun () ->
                  Context.create ~scale:(scale_of quick) ~seed ~engine ())
            in
            Format.printf "workload built and profiled in %.1fs@." setup_seconds;
            let selection =
              match only with None -> Report.All | Some ids -> Report.Only ids
            in
            ( ctx,
              Report.run ~selection ~trace_stats ?pool ctx Format.std_formatter )))
  in
  Format.printf "@.total: %.1fs@." total_seconds;
  (* Resource headlines: peak trace-cache residency and the schedule's
     speedup estimate (serial estimate / wall; 1.00 for a serial run). *)
  Format.printf "trace cache peak: %.1f MiB; parallel speedup: %.2fx@."
    (Telemetry.gauge_value (Telemetry.gauge "context.trace_peak_bytes") /. 1048576.0)
    (Telemetry.gauge_value (Telemetry.gauge "par.speedup"));
  (* Score the paper's claims before any artifact snapshot, so the
     fidelity.* gauges land in BENCH as gated metrics. *)
  let fidelity = Fidelity.of_registry () in
  Fidelity.publish_gauges fidelity;
  Format.printf "%a" Fidelity.pp fidelity;
  Option.iter
    (fun dir ->
      Artifacts.write_all ~dir Format.std_formatter
        { Artifacts.ctx; scale; total_seconds; report = result })
    out;
  if telemetry then Telemetry.pp_summary Format.std_formatter ();
  Telemetry.close_jsonl ();
  match out with
  | None -> 0
  | Some dir -> (
      let src = Option.get jsonl and dst = Artifacts.path ~dir ~scale "TRACE" in
      match Olayout_regress.Chrome_trace.convert ~src ~dst with
      | exception Olayout_regress.Chrome_trace.Convert_error msg ->
          Printf.eprintf "olayout: TRACE: %s\n" msg;
          1
      | () -> (
          Format.printf "TRACE written to %s (load in Perfetto)@." dst;
          (* The gate runs last, so every artifact is on disk even when it
             trips; both sides load from disk, so the fresh metrics go
             through the same writer precision as the baseline's. *)
          match baseline with
          | None -> 0
          | Some old_path ->
              compare_and_gate ~old_path ~new_path:(Artifacts.path ~dir ~scale "BENCH")
                ~gate:true ~fidelity:(Some (fun _ -> fidelity))
                ~out:(Some (Artifacts.path ~dir ~scale "COMPARE"))
                ()))

let report_cmd =
  let only_arg =
    Arg.(
      value
      & opt (some (list (enum (List.map (fun id -> (id, id)) Report.experiment_ids)))) None
      & info [ "only" ] ~docv:"IDS"
          ~doc:
            (Printf.sprintf "Experiments to run (default all): %s."
               (String.concat ", " Report.experiment_ids)))
  in
  let trace_stats_arg =
    Arg.(
      value & flag
      & info [ "trace-stats" ]
          ~doc:
            "Print per-figure trace capture/replay statistics (runs and \
             instructions replayed vs rendered from the recorded path, \
             replay throughput) and a trace-cache summary.")
  in
  let telemetry_arg =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "After the report, print the telemetry summary: span aggregates \
             (count, total and max wall seconds per span path) and the \
             counter/gauge/histogram registry.")
  in
  let jobs_conv =
    let parse = function
      | "auto" -> Ok 0
      | s -> (
          match int_of_string_opt s with
          | Some j when j >= 1 -> Ok j
          | _ ->
              Error
                (`Msg
                  (Printf.sprintf
                     "expected a positive domain count or \"auto\", got %S" s)))
    in
    Arg.conv
      ( parse,
        fun ppf j ->
          Format.pp_print_string ppf (if j = 0 then "auto" else string_of_int j) )
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run replay-only figures on $(docv) domains (\"auto\" sizes by the \
             machine).  Deterministic counters are identical to the serial \
             run; only wall-clock and the par.* metrics change.")
  in
  let engine_arg =
    Arg.(
      value & opt engine_conv `Stackdist
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Battery backend for the sweep figures (fig4/5, fig6, fig7): \
             $(b,stackdist) (default) computes every geometry's misses in \
             one stack-distance pass per line size; $(b,icache) simulates \
             one full cache per configuration.  Miss counts are identical; \
             only the cachesim.* counters and wall-clock differ.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Gate the run's BENCH artifact against $(docv) (a saved \
             olayout-bench/v1 artifact; needs $(b,--out)): print the diff, \
             write COMPARE_<scale>.json and exit 1 when a deterministic \
             metric drifted.")
  in
  let timeline_window_arg =
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "timeline-window" ] ~docv:"INSTRS"
          ~doc:
            "TIMELINE window width in simulated instructions (default 65536 \
             with $(b,--quick), 524288 otherwise; needs $(b,--out)).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write every run artifact into $(docv), as <KIND>_<scale>.json: \
             BENCH, TIMELINE, EXPLAIN, DRIFT and RELAYOUT (when their \
             experiments ran), DIAG, the Perfetto TRACE and the TELEMETRY \
             JSONL stream it is built from.  Turns on the timeline \
             instrumentation.")
  in
  sub "report" "regenerate the paper's figures (and, with --out, every artifact)"
    Term.(
      const report $ seed_arg $ quick_arg $ only_arg $ trace_stats_arg
      $ telemetry_arg $ jobs_arg $ engine_arg $ baseline_arg $ timeline_window_arg
      $ out_arg)

(* --- entry point --- *)

let subcommands =
  [
    inspect_cmd; profile_cmd; disasm_cmd; optimize_cmd; simulate_cmd; trace_cmd;
    diagnose_cmd; timeline_cmd; explain_cmd; drift_cmd; relayout_cmd; report_cmd;
    compare_cmd;
  ]

let print_overview () =
  print_endline "olayout — code layout optimizations for transaction processing workloads";
  print_newline ();
  List.iter (fun s -> Printf.printf "  %-13s %s\n" s.name s.doc) subcommands;
  Printf.printf "  %-13s %s\n" "help" "show this overview";
  print_newline ();
  print_endline "Run 'olayout SUBCOMMAND --help' for that subcommand's flags."

let usage_error msg =
  prerr_endline ("olayout: " ^ msg);
  exit 2

let () =
  let names = List.map (fun s -> s.name) subcommands in
  (* Bare "olayout" and "olayout help" print the overview; a misspelled
     subcommand names the valid set. *)
  (match Array.to_list Sys.argv with
  | _ :: ([] | "help" :: _) ->
      print_overview ();
      exit 0
  | _ :: cmd :: _ when cmd <> "" && cmd.[0] <> '-' && not (List.mem cmd names) ->
      usage_error
        (Printf.sprintf "unknown subcommand %S (valid: %s)" cmd
           (String.concat ", " names))
  | _ -> ());
  let cmds =
    List.map
      (fun s ->
        let man = if s.man = "" then [] else [ `S Manpage.s_description; `P s.man ] in
        Cmd.v (Cmd.info s.name ~doc:s.doc ~man) s.term)
      subcommands
  in
  let doc = "code layout optimizations for transaction processing workloads" in
  (* cmdliner reports a parse error as "olayout: <message>" followed by
     usage lines; keep the first line only, unwrapped. *)
  let err = Buffer.create 256 in
  let err_ppf = Format.formatter_of_buffer err in
  Format.pp_set_margin err_ppf 1_000_000;
  let group = Cmd.group (Cmd.info "olayout" ~doc) cmds in
  match Cmd.eval_value ~catch:false ~err:err_ppf group with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Error _ ->
      Format.pp_print_flush err_ppf ();
      prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents err)));
      exit 2
  | exception Invalid_argument msg -> usage_error msg
  | exception Sys_error msg ->
      prerr_endline ("olayout: " ^ msg);
      exit 1
