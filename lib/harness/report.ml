module Pool = Olayout_par.Pool
module Spike = Olayout_core.Spike
module Telemetry = Olayout_telemetry.Telemetry
module Bench_artifact = Olayout_telemetry.Bench_artifact
module Observatory = Olayout_drift.Observatory
module Closedloop = Olayout_drift.Closedloop

type selection = All | Only of string list

(* A measurement stream in the context's trace cache: app combination plus
   which of the two context-owned kernels rendered alongside it. *)
type stream = Spike.combo * [ `Base | `Optimized ]

(* Each experiment declares what it needs from the shared trace cache:

   - [e_streams]: the streams it consumes (recording them first if absent).
     Drives the parallel schedule: a figure is dispatched to the pool only
     when every declared stream was provided by an earlier figure.
     Under-declaring is a determinism bug for replay-only figures (the
     worker guard in Context turns it into an error).
   - [e_live]: the figure walks the server (an execution's first request,
     or the training run), or renders from a recorded path (observers,
     ad-hoc placements), and runs on the dispatching domain.

   [e_run] also receives the run's [products]: the drift and relayout
   experiments leave their results there for {!result}.  Both are live, so
   they only ever write it from the dispatching domain. *)
type products = {
  mutable p_drift : Observatory.t option;
  mutable p_relayout : Closedloop.t option;
}

type experiment = {
  e_id : string;
  e_desc : string;
  e_live : bool;
  e_streams : stream list;
  e_run : products -> Context.t -> Table.t list;
}

let app c = (c, `Base)
let kern c = (c, `Optimized)
let base_all = [ app Spike.Base; app Spike.All ]
let all_combos = List.map app Spike.all_combos

let experiments : experiment list =
  [
    {
      e_id = "fig3";
      e_desc = "execution profile";
      e_live = false;
      (* Fig 3 computes from the training profile, but it also records the
         (Base, All) streams up front: the measurement execution's walk and
         their rendering are attributed to its figure row, and every later
         sweep figure replays + schedules onto the pool from the start. *)
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_footprint.tables (Fig_footprint.run ctx));
    };
    {
      e_id = "fig4";
      e_desc = "cache/line sweep (figs 4-5)";
      e_live = false;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_line_sweep.tables (Fig_line_sweep.run ctx));
    };
    {
      e_id = "fig6";
      e_desc = "associativity";
      e_live = false;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_assoc.tables (Fig_assoc.run ctx));
    };
    {
      e_id = "fig7";
      e_desc = "optimization combinations";
      e_live = false;
      e_streams = all_combos;
      e_run = (fun _ ctx -> Fig_combos.tables (Fig_combos.run ctx));
    };
    {
      e_id = "fig8";
      e_desc = "sequence lengths";
      e_live = false;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_sequences.tables (Fig_sequences.run ctx));
    };
    {
      e_id = "fig9";
      e_desc = "line usage (figs 9-11)";
      e_live = false;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_usage.tables (Fig_usage.run ctx));
    };
    {
      e_id = "fig12";
      e_desc = "combined app+OS (figs 12-13)";
      e_live = false;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_combined.tables (Fig_combined.run ctx));
    };
    {
      e_id = "fig14";
      e_desc = "iTLB and L2";
      e_live = true;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_memsys.tables (Fig_memsys.run ctx));
    };
    {
      e_id = "fig15";
      e_desc = "execution time";
      e_live = false;
      e_streams = all_combos;
      e_run = (fun _ ctx -> Fig_exec_time.tables (Fig_exec_time.run ctx));
    };
    {
      e_id = "intext";
      e_desc = "in-text measurements";
      e_live = false;
      e_streams = base_all;
      e_run = (fun _ ctx -> Intext.tables (Intext.run ctx));
    };
    {
      e_id = "ablations";
      e_desc = "design ablations";
      e_live = true;
      e_streams = [ app Spike.All; kern Spike.All ];
      e_run = (fun _ ctx -> Ablations.tables (Ablations.run ctx));
    };
    {
      e_id = "prefetch";
      e_desc = "extension: stream-buffer prefetch";
      e_live = false;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_prefetch.tables (Fig_prefetch.run ctx));
    };
    {
      e_id = "joint";
      e_desc = "extension: joint app+kernel layout";
      e_live = true;
      e_streams = [ app Spike.All; kern Spike.All ];
      e_run = (fun _ ctx -> Fig_joint.tables (Fig_joint.run ctx));
    };
    {
      e_id = "bpred";
      e_desc = "extension: branch prediction";
      e_live = true;
      e_streams = [];
      e_run = (fun _ ctx -> Fig_bpred.tables (Fig_bpred.run ctx));
    };
    {
      e_id = "coloring";
      e_desc = "extension: cache-line coloring";
      e_live = true;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_coloring.tables (Fig_coloring.run ctx));
    };
    {
      e_id = "dss";
      e_desc = "extension: DSS contrast workload";
      e_live = true;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_dss.tables (Fig_dss.run ctx));
    };
    {
      e_id = "multiproc";
      e_desc = "extension: per-CPU caches";
      e_live = true;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_multiproc.tables (Fig_multiproc.run ctx));
    };
    {
      e_id = "temporal";
      e_desc = "extension: temporal ordering (Gloy et al.)";
      e_live = true;
      e_streams = base_all;
      e_run = (fun _ ctx -> Fig_temporal.tables (Fig_temporal.run ctx));
    };
    {
      e_id = "drift";
      e_desc = "extension: workload drift observatory";
      (* The first scheduled capture of a fresh context walks the server
         live; no unscheduled cached streams are consumed. *)
      e_live = true;
      e_streams = [];
      e_run =
        (fun out ctx ->
          let r = Drift.run ctx (Diagnose.preset_of_figure "fig4") in
          out.p_drift <- Some r;
          Drift.tables r);
    };
    {
      e_id = "relayout";
      e_desc = "extension: closed-loop incremental re-layout";
      (* Reads the drift experiment's memoized scheduled capture, or
         walks it live when run alone. *)
      e_live = true;
      e_streams = [];
      e_run =
        (fun out ctx ->
          let r = Relayout.run ctx (Diagnose.preset_of_figure "fig4") in
          out.p_relayout <- Some r;
          Relayout.tables r);
    };
  ]

let experiment_ids = List.map (fun e -> e.e_id) experiments

type result = {
  figures : Bench_artifact.figure list;
  drift : Observatory.t option;
  relayout : Closedloop.t option;
}

let mruns_per_s runs seconds =
  if seconds <= 0.0 then "-"
  else Printf.sprintf "%.1f Mruns/s" (float_of_int runs /. seconds /. 1e6)

(* One line per figure attributing its instruction streams to replay vs
   rendering (deltas of the context's cumulative counters). *)
let print_figure_trace_stats ppf id (s0 : Context.trace_stats)
    (s1 : Context.trace_stats) =
  let traces = s1.Context.replayed_traces - s0.Context.replayed_traces in
  let runs = s1.Context.replayed_runs - s0.Context.replayed_runs in
  let instrs = s1.Context.replayed_instrs - s0.Context.replayed_instrs in
  let seconds = s1.Context.replay_seconds -. s0.Context.replay_seconds in
  let live_runs = s1.Context.live_runs - s0.Context.live_runs in
  let execs = s1.Context.live_executions - s0.Context.live_executions in
  if traces > 0 then
    Format.fprintf ppf
      "  trace: %s served from replayed trace — %d trace(s), %s runs / %s instrs (%s); %s runs rendered from the recorded path (%d execution(s) walked)@."
      id traces (Table.fmt_int runs) (Table.fmt_int instrs)
      (mruns_per_s runs seconds) (Table.fmt_int live_runs) execs
  else
    Format.fprintf ppf
      "  trace: %s rendered from the recorded path — %s runs (%d execution(s) walked), no replay@." id
      (Table.fmt_int live_runs) execs

let trace_summary_table (s : Context.trace_stats) =
  let tbl =
    Table.create ~id:"trace_cache" ~title:"trace cache summary"
      ~columns:[ ("metric", "metric"); ("value", "value") ]
  in
  let row id name cell = Table.add_row tbl ~id [ Table.Text name; cell ] in
  row "executions" "server executions walked" (Table.Int s.Context.live_executions);
  row "live_runs" "runs rendered from paths" (Table.Int s.Context.live_runs);
  row "live_instrs" "instrs rendered from paths" (Table.Int s.Context.live_instrs);
  row "recorded" "traces recorded" (Table.Int s.Context.recorded_traces);
  row "footprint" "trace cache footprint"
    (Table.Text (Printf.sprintf "%.1f MB" (float_of_int s.Context.trace_bytes /. 1048576.0)));
  row "replayed" "traces replayed" (Table.Int s.Context.replayed_traces);
  row "replayed_runs" "runs replayed" (Table.Int s.Context.replayed_runs);
  row "replayed_instrs" "instrs replayed" (Table.Int s.Context.replayed_instrs);
  row "throughput" "replay throughput"
    (Table.Text (mruns_per_s s.Context.replayed_runs s.Context.replay_seconds));
  tbl

(* --- selection & schedule -------------------------------------------- *)

let select selection =
  match selection with
  | All -> experiments
  | Only ids ->
      (* Validate against a lookup list built once, not per requested id. *)
      let known = experiment_ids in
      let unknown = List.filter (fun id -> not (List.mem id known)) ids in
      if unknown <> [] then
        invalid_arg
          (Printf.sprintf "unknown experiment%s %s (valid ids: %s)"
             (if List.length unknown > 1 then "s" else "")
             (String.concat ", " unknown)
             (String.concat ", " known));
      List.filter (fun e -> List.mem e.e_id ids) experiments

(* A figure can go to the pool only when it neither observes the walk nor
   needs a stream no earlier figure has provided (serial figures provide
   their declared streams by recording them on first use). *)
let schedule selected =
  let provided = ref [] in
  List.map
    (fun e ->
      let parallel =
        (not e.e_live)
        && List.for_all (fun s -> List.mem s !provided) e.e_streams
      in
      List.iter
        (fun s -> if not (List.mem s !provided) then provided := s :: !provided)
        e.e_streams;
      (e, parallel))
    selected

(* --- execution -------------------------------------------------------- *)

(* Everything needed to print and account one completed figure.  Output
   is buffered per figure and emitted in list order, so the report reads
   identically at any -j. *)
type completed = {
  c_output : string;
  c_tables : Table.t list;
  c_stat : Bench_artifact.figure;
  c_trace_delta : Context.trace_stats * Context.trace_stats;
}

let zero_stats =
  {
    Context.live_executions = 0;
    live_runs = 0;
    live_instrs = 0;
    recorded_traces = 0;
    replayed_traces = 0;
    replayed_runs = 0;
    replayed_instrs = 0;
    replay_seconds = 0.0;
    trace_bytes = 0;
  }

let stats_of_snapshot snap =
  let c name = Telemetry.Isolated.snap_counter snap name in
  {
    Context.live_executions = c "context.live_executions";
    live_runs = c "context.live_runs";
    live_instrs = c "context.live_instrs";
    recorded_traces = c "context.traces_recorded";
    replayed_traces = c "context.traces_replayed";
    replayed_runs = c "context.replayed_runs";
    replayed_instrs = c "context.replayed_instrs";
    replay_seconds = Telemetry.Isolated.snap_gauge snap "context.replay_seconds";
    trace_bytes = 0;
  }

let completed e (output, tables, seconds)
    ((s0 : Context.trace_stats), (s1 : Context.trace_stats)) =
  {
    c_output = output;
    c_tables = tables;
    c_stat =
      {
        Bench_artifact.id = e.e_id;
        desc = e.e_desc;
        seconds;
        runs_live = s1.Context.live_runs - s0.Context.live_runs;
        runs_replayed = s1.Context.replayed_runs - s0.Context.replayed_runs;
        instrs_live = s1.Context.live_instrs - s0.Context.live_instrs;
        instrs_replayed = s1.Context.replayed_instrs - s0.Context.replayed_instrs;
        live_executions = s1.Context.live_executions - s0.Context.live_executions;
        traces_replayed = s1.Context.replayed_traces - s0.Context.replayed_traces;
      };
    c_trace_delta = (s0, s1);
  }

(* Render one figure's report block (header, tables, timing line) while
   running it under its span; returns the text, the tables and the
   timing. *)
let render_figure out ctx e =
  let buf = Buffer.create 4096 in
  let bppf = Format.formatter_of_buffer buf in
  Format.fprintf bppf "@.### %s — %s@." e.e_id e.e_desc;
  let tables, seconds =
    Telemetry.timed ("report." ^ e.e_id) (fun () -> e.e_run out ctx)
  in
  List.iter (fun tbl -> Table.print bppf tbl) tables;
  Format.fprintf bppf "  (%s took %.1fs)@." e.e_id seconds;
  Format.pp_print_flush bppf ();
  (Buffer.contents buf, tables, seconds)

let publish_par_gauges pool ~serial_estimate ~wall =
  (match pool with
  | Some p -> Pool.publish_stats p
  | None ->
      Telemetry.set_gauge (Telemetry.gauge "par.jobs") 1.0;
      Telemetry.set_gauge (Telemetry.gauge "par.tasks") 0.0;
      Telemetry.set_gauge (Telemetry.gauge "par.helped_tasks") 0.0;
      Telemetry.set_gauge (Telemetry.gauge "par.idle_seconds") 0.0);
  Telemetry.set_gauge
    (Telemetry.gauge "par.speedup")
    (if wall > 0.0 then serial_estimate /. wall else 1.0)

let run ?(selection = All) ?(trace_stats = false) ?pool ctx ppf =
  let t_start = Unix.gettimeofday () in
  let out = { p_drift = None; p_relayout = None } in
  (* Every numeric cell is published as its fig.* gauge, on this domain,
     in list order, whatever -j. *)
  let publish = Table.publisher () in
  let figures = ref [] in
  (* Print, publish and account one figure, awaiting it if it is a task:
     tasks are awaited in submission order (list order), so their
     snapshots merge in a deterministic order. *)
  let collect started =
    let c =
      match started with
      | `Ran c -> c
      | `Task (e, fut) ->
          let block, snap = Pool.await_snapshot fut in
          let s1 = match snap with Some snap -> stats_of_snapshot snap | None -> zero_stats in
          completed e block (zero_stats, s1)
    in
    publish c.c_tables;
    Format.pp_print_string ppf c.c_output;
    (if trace_stats then
       let s0, s1 = c.c_trace_delta in
       print_figure_trace_stats ppf c.c_stat.Bench_artifact.id s0 s1);
    figures := c.c_stat :: !figures
  in
  (* Figures started and not yet collected, in list order.  A figure the
     pool may take is submitted; any other runs here, at its list
     position, so every stream a task replays was recorded before the
     task was submitted.  A figure is collected as soon as every figure
     before it has been: a serial run prints figure by figure. *)
  let backlog = Queue.create () in
  List.iter
    (fun (e, parallel) ->
      (match pool with
      | Some p when parallel && Pool.jobs p > 1 ->
          Queue.add (`Task (e, Pool.submit p (fun () -> render_figure out ctx e))) backlog
      | _ ->
          let s0 = Context.trace_stats ctx in
          let block = render_figure out ctx e in
          Queue.add (`Ran (completed e block (s0, Context.trace_stats ctx))) backlog);
      while (match Queue.peek_opt backlog with Some (`Ran _) -> true | _ -> false) do
        collect (Queue.take backlog)
      done)
    (schedule (select selection));
  Queue.iter collect backlog;
  let figures = List.rev !figures in
  if trace_stats then Table.print ppf (trace_summary_table (Context.trace_stats ctx));
  let wall = Unix.gettimeofday () -. t_start in
  let serial_estimate =
    List.fold_left (fun acc f -> acc +. f.Bench_artifact.seconds) 0.0 figures
  in
  publish_par_gauges pool ~serial_estimate ~wall;
  { figures; drift = out.p_drift; relayout = out.p_relayout }
