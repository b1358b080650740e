module Placement = Olayout_core.Placement
module Run = Olayout_exec.Run
module Walk = Olayout_exec.Walk
module Render = Olayout_exec.Render
module Binary = Olayout_codegen.Binary
module Rng = Olayout_util.Rng
module Hooks = Olayout_db.Hooks
module Tpcb = Olayout_db.Tpcb
module Lock = Olayout_db.Lock
module Timeline = Olayout_telemetry.Timeline

type render_spec = {
  app_placement : Placement.t;
  kernel_placement : Placement.t;
  emit : Run.t -> unit;
}

type result = {
  committed : int;
  aborted : int;
  scans : int;
  app_instrs : int;
  kernel_instrs : int;
  context_switches : int;
  lock_waits : int;
  clock_ticks : int;
  db : Tpcb.t;
}

let data_base = 0x4000_0000

type _ Effect.t += Yield : unit Effect.t

(* Instruction-clock series over the measured window: app-vs-kernel phase
   (per-window instruction deltas) and the transaction mix (commits,
   aborts, lock waits, context switches).  Positions are measured
   instructions — the base latches when the warmup ends — so the series
   line up with the cachesim/memsim series fed by the same render
   stream. *)
type tl = {
  t_app : Timeline.series;
  t_kernel : Timeline.series;
  t_commits : Timeline.series;
  t_aborts : Timeline.series;
  t_waits : Timeline.series;
  t_switches : Timeline.series;
  mutable t_base : int; (* total instrs when measuring flipped on; -1 = unset *)
  mutable t_pos : int; (* position of the previous instruction flush *)
  mutable t_app_seen : int;
  mutable t_kernel_seen : int;
}

let run ~app ~kernel ~txns ?(seed = 42) ?(processes = 8) ?(warmup = 50)
    ?(tick_instrs = 200_000) ?db_config ?schedule ?(renders = [])
    ?(app_sinks = []) ?(kernel_sinks = []) ?on_data ?on_switch
    ?(timeline = false) () =
  let rng = Rng.create seed in
  let app_walk = Walk.create ~prog:(Binary.prog app) ~rng:(Rng.split rng) in
  let kernel_walk = Walk.create ~prog:(Binary.prog kernel) ~rng:(Rng.split rng) in
  (* Renders: one shared merger per spec so kernel entries break app runs. *)
  let mergers =
    List.map
      (fun spec ->
        let m, app, kernel =
          Render.stream ~app:spec.app_placement ~kernel:spec.kernel_placement spec.emit
        in
        Walk.add_sink app_walk app;
        Walk.add_sink kernel_walk kernel;
        m)
      renders
  in
  List.iter (Walk.add_sink app_walk) app_sinks;
  List.iter (Walk.add_sink kernel_walk) kernel_sinks;

  let app_dispatcher = App_model.dispatcher app in
  let measuring = ref false in
  let scheduler_running = ref false in
  let clock_ticks = ref 0 in
  let next_tick = ref tick_instrs in
  let walk_kernel_episodes eps =
    List.iter
      (fun (e : Kernel_model.episode) ->
        Walk.call kernel_walk ~hints:e.hints e.proc)
      eps
  in
  let total_instrs () = Walk.instrs_executed app_walk + Walk.instrs_executed kernel_walk in
  let tl =
    if timeline && Timeline.enabled () then
      Some
        {
          t_app = Timeline.series "oltp.app_instrs";
          t_kernel = Timeline.series "oltp.kernel_instrs";
          t_commits = Timeline.series "oltp.commits";
          t_aborts = Timeline.series "oltp.aborts";
          t_waits = Timeline.series "oltp.lock_waits";
          t_switches = Timeline.series "oltp.switches";
          t_base = -1;
          t_pos = 0;
          t_app_seen = 0;
          t_kernel_seen = 0;
        }
    else None
  in
  let tl_pos s =
    let total = total_instrs () in
    if s.t_base < 0 then begin
      s.t_base <- total;
      s.t_app_seen <- Walk.instrs_executed app_walk;
      s.t_kernel_seen <- Walk.instrs_executed kernel_walk
    end;
    total - s.t_base
  in
  (* Instruction deltas since the previous flush land in the window where
     that chunk began (the chunk is one db op's episodes — far smaller
     than a window). *)
  let tl_flush_instrs () =
    match tl with
    | Some s when !measuring ->
        let pos = tl_pos s in
        let a = Walk.instrs_executed app_walk
        and k = Walk.instrs_executed kernel_walk in
        Timeline.add s.t_app ~pos:s.t_pos (a - s.t_app_seen);
        Timeline.add s.t_kernel ~pos:s.t_pos (k - s.t_kernel_seen);
        s.t_app_seen <- a;
        s.t_kernel_seen <- k;
        s.t_pos <- pos
    | _ -> ()
  in
  let tl_event f =
    match tl with
    | Some s when !measuring ->
        let pos = tl_pos s in
        Timeline.add (f s) ~pos 1
    | _ -> ()
  in
  let maybe_tick () =
    if total_instrs () > !next_tick then begin
      incr clock_ticks;
      next_tick := total_instrs () + tick_instrs;
      walk_kernel_episodes (Kernel_model.clock_tick kernel);
      true
    end
    else false
  in
  let on_op op =
    (* A log force is a synchronous I/O wait: the committing process sleeps
       while still holding its row locks (group commit), which is exactly
       what creates TPC-B's branch-row contention between server
       processes.  The clock tick preempts whoever is running. *)
    let yield_after =
      !scheduler_running
      &&
      match op with
      | Hooks.Log_fsync _ -> true
      | Hooks.Txn_begin | Hooks.Txn_commit _ | Hooks.Txn_abort | Hooks.Buffer_hit
      | Hooks.Buffer_miss | Hooks.Disk_read _ | Hooks.Disk_write _ | Hooks.Log_append _
      | Hooks.Btree_search _ | Hooks.Btree_insert _ | Hooks.Heap_insert | Hooks.Heap_fetch
      | Hooks.Heap_update | Hooks.Lock_acquire _ | Hooks.Lock_release _
      | Hooks.Page_touch _ ->
          false
    in
    let ticked = ref false in
    if !measuring then begin
      (match (op, on_data) with
      | Hooks.Page_touch { page; off; len }, Some f ->
          (* One reference per 64-byte line of the touched span. *)
          let start = data_base + (page * Olayout_db.Page.size) + off in
          let stop = start + max 1 len - 1 in
          let line = 64 in
          let first = start / line and last = stop / line in
          for l = first to last do
            f (l * line)
          done
      | _, _ -> ());
      List.iter
        (fun (e : App_model.episode) -> Walk.call app_walk ~hints:e.hints e.proc)
        (App_model.dispatch app_dispatcher op);
      walk_kernel_episodes (Kernel_model.on_op kernel op);
      ticked := maybe_tick ();
      tl_flush_instrs ()
    end;
    if yield_after || !ticked then Effect.perform Yield
  in
  let hooks = { Hooks.on_op } in
  let db = Tpcb.setup ?config:db_config hooks in

  (* --- fiber scheduler --- *)
  let committed = ref 0 and aborted = ref 0 in
  let scans = ref 0 in
  let lock_waits = ref 0 and switches = ref 0 in
  let issued = ref 0 in
  let total = warmup + txns in
  let input_rng = Rng.split rng in
  let cfg = Tpcb.config db in
  (* Skewed variant of Tpcb.gen_input: [hot_pct]% of tellers come from the
     hot branch; account locality and the delta draw follow the stock
     generator. *)
  let gen_skewed ~hot_branch ~hot_pct =
    let teller_branch =
      if Rng.int input_rng 100 < hot_pct then hot_branch mod cfg.Tpcb.branches
      else Rng.int input_rng cfg.Tpcb.branches
    in
    let tid =
      (teller_branch * cfg.Tpcb.tellers_per_branch)
      + Rng.int input_rng cfg.Tpcb.tellers_per_branch
    in
    let bid_of_account =
      if Rng.bool input_rng 0.85 || cfg.Tpcb.branches = 1 then teller_branch
      else begin
        let other = Rng.int input_rng (cfg.Tpcb.branches - 1) in
        if other >= teller_branch then other + 1 else other
      end
    in
    let aid =
      (bid_of_account * cfg.Tpcb.accounts_per_branch)
      + Rng.int input_rng cfg.Tpcb.accounts_per_branch
    in
    let delta = Rng.int input_rng 1_999_999 - 999_999 in
    { Tpcb.aid; tid; bid = teller_branch; delta }
  in
  (* DSS-style read-only scan: probe [rows] balances of one branch through
     the B-tree/heap/buffer paths (no locks, no log, no updates).  Strided
     so successive probes touch different tree paths and heap pages. *)
  let run_scan ~rows =
    let b = Rng.int input_rng cfg.Tpcb.branches in
    let start = Rng.int input_rng cfg.Tpcb.accounts_per_branch in
    let stride = max 1 (cfg.Tpcb.accounts_per_branch / rows) in
    for k = 0 to rows - 1 do
      let slot = (start + (k * stride)) mod cfg.Tpcb.accounts_per_branch in
      ignore (Tpcb.account_balance db ((b * cfg.Tpcb.accounts_per_branch) + slot))
    done
  in
  let fiber_body () =
    let continue_ = ref true in
    while !continue_ do
      if !issued >= total then continue_ := false
      else begin
        incr issued;
        let mine = !issued in
        if mine = warmup + 1 then measuring := true;
        let measured_txn = mine > warmup in
        (* The warmup always runs the plain TPC-B mix: a schedule shapes
           the measured window only, so the buffer pool and B-trees warm
           identically with and without one. *)
        let phase =
          match schedule with
          | Some s when measured_txn -> Schedule.assign s ~txns (mine - warmup - 1)
          | _ -> Schedule.Tpcb
        in
        (match phase with
        | Schedule.Scan { rows } ->
            run_scan ~rows;
            if measured_txn then incr scans
        | Schedule.Tpcb | Schedule.Tpcb_skewed _ ->
            let input =
              match phase with
              | Schedule.Tpcb_skewed { hot_branch; hot_pct } ->
                  gen_skewed ~hot_branch ~hot_pct
              | _ -> Tpcb.gen_input db input_rng
            in
            let wait _key =
              if !measuring then begin
                incr lock_waits;
                tl_event (fun s -> s.t_waits)
              end;
              Effect.perform Yield
            in
            (match Tpcb.run db ~wait input with
            | `Committed ->
                if measured_txn then begin
                  incr committed;
                  tl_event (fun s -> s.t_commits)
                end
            | `Aborted ->
                if measured_txn then begin
                  incr aborted;
                  tl_event (fun s -> s.t_aborts)
                end));
        (* Server process blocks awaiting the next client request. *)
        Effect.perform Yield
      end
    done
  in
  let runq : (int * (unit -> unit)) Queue.t = Queue.create () in
  for pid = 0 to processes - 1 do
    Queue.add (pid, fiber_body) runq
  done;
  scheduler_running := true;
  let current = ref (-1) in
  let open Effect.Deep in
  while not (Queue.is_empty runq) do
    let pid, job = Queue.pop runq in
    if !current >= 0 && !current <> pid then begin
      if !measuring then begin
        incr switches;
        tl_event (fun s -> s.t_switches)
      end;
      (* The switch itself runs kernel scheduler code. *)
      if !measuring then walk_kernel_episodes (Kernel_model.context_switch kernel)
    end;
    if !current <> pid then (match on_switch with Some f -> f pid | None -> ());
    current := pid;
    match_with job ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    Queue.add (pid, fun () -> continue k ()) runq)
            | _ -> None);
      }
  done;
  tl_flush_instrs ();
  measuring := false;
  scheduler_running := false;
  List.iter Render.flush mergers;
  {
    committed = !committed;
    aborted = !aborted;
    scans = !scans;
    app_instrs = Walk.instrs_executed app_walk;
    kernel_instrs = Walk.instrs_executed kernel_walk;
    context_switches = !switches;
    lock_waits = !lock_waits;
    clock_ticks = !clock_ticks;
    db;
  }
