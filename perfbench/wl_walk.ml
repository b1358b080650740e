(* walk: live executions of plain TPC-B, each with a fresh measurement
   seed, rendering the Base and All layouts into trace recordings.  The
   server, the mini-DB, the walker, rendering and trace encoding do all the
   timed work: no layout pass and no cache simulation runs while the clock
   does.  An op is one execution. *)

open Common
module Context = Olayout_harness.Context
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Server = Olayout_oltp.Server
module Workload = Olayout_oltp.Workload
module Icache = Olayout_cachesim.Icache
module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run

let name = "walk"

(* Nominal seconds of one execution on the reference machine (see
   Wl_sweep.seconds_per_round). *)
let nominal_execution_s = 0.4

type prepared = { ctx : Context.t; base : Placement.t; all : Placement.t }

let setup pass =
  let ctx = context pass in
  let base = span pass "core/scratch" (fun () -> Context.placement ctx Spike.Base) in
  let all = span pass "core/scratch" (fun () -> Context.placement ctx Spike.All) in
  pass.stats.ph_segments <- pass.stats.ph_segments + List.length (Placement.segments all);
  { ctx; base; all }

let executions ~seconds =
  max 20 (int_of_float (Float.round (float_of_int seconds /. nominal_execution_s)))

(* A recording that also counts, on the emit side, what it was given. *)
type recording = { trace : Trace.t; mutable runs : int; mutable instrs : int }

let recording () = { trace = Trace.create (); runs = 0; instrs = 0 }

let emit r run =
  r.runs <- r.runs + 1;
  r.instrs <- r.instrs + run.Run.len;
  Trace.append r.trace run

type first = { base_runs : int; all_runs : int; all_misses : int; app_instrs : int }
type outcome = { misses : int; app_instrs : int; first : first option }

(* Replays a recording, returning its run and instruction totals, and the
   application misses and instructions of a headline-geometry Icache. *)
let replay_counts r =
  let cache = Icache.create (headline_config ()) in
  let runs = ref 0 and instrs = ref 0 and app = ref 0 in
  Trace.replay r.trace (fun run ->
      incr runs;
      instrs := !instrs + run.Run.len;
      if app_run run then begin
        app := !app + run.Run.len;
        Icache.access_run cache run
      end);
  (!runs, !instrs, Icache.misses cache, !app)

let timed pass prep ~seed ~seconds =
  let wl = Context.workload prep.ctx in
  let kernel_placement = Context.kernel_base prep.ctx in
  let txns = Context.measured_txns prep.ctx in
  let misses = ref 0 and app_instrs = ref 0 and first = ref None in
  for e = 0 to executions ~seconds - 1 do
    probe ~times:2 pass;
    let rb = recording () and ra = recording () in
    let i, r =
      op pass (fun () ->
          span pass "oltp/server_run" (fun () ->
              Server.run ~app:(Workload.app wl) ~kernel:(Workload.kernel wl) ~txns
                ~seed:(measurement_seed ~seed e)
                ~renders:
                  [
                    { Server.app_placement = prep.base; kernel_placement; emit = emit rb };
                    { Server.app_placement = prep.all; kernel_placement; emit = emit ra };
                  ]
                ()))
    in
    count_execution pass r;
    let s = pass.stats in
    List.iter
      (fun rc ->
        s.runs_recorded <- s.runs_recorded + Trace.length rc.trace;
        s.trace_bytes <- s.trace_bytes + Trace.memory_bytes rc.trace)
      [ rb; ra ];
    inline_verify pass (fun () ->
        let db = Olayout_db.Tpcb.check_consistency r.Server.db in
        check pass ~op:i
          ~what:
            (Printf.sprintf "execution %d: database %s" e
               (match db with Ok () -> "consistent" | Error msg -> msg))
          (db = Ok ());
        let counts name rc =
          let runs, instrs, m, app = replay_counts rc in
          check pass ~op:i
            ~what:
              (Printf.sprintf
                 "execution %d: %s trace replays %d runs / %d instructions, emitted %d / %d"
                 e name runs instrs rc.runs rc.instrs)
            (runs = rc.runs && instrs = rc.instrs);
          (runs, m, app)
        in
        let base_runs, _, _ = counts "base" rb in
        let all_runs, m, app = counts "all" ra in
        misses := !misses + m;
        app_instrs := !app_instrs + app;
        if e = 0 then first := Some { base_runs; all_runs; all_misses = m; app_instrs = app })
  done;
  { misses = !misses; app_instrs = !app_instrs; first = !first }

let verify pass expected _prep o ~seconds =
  (match o.first with
  | None -> ()
  | Some f ->
      Printf.printf "# walk first execution: base %d runs, all %d runs, %d misses, %d app instructions\n"
        f.base_runs f.all_runs f.all_misses f.app_instrs;
      let pin key v = expect_int pass expected [ "walk"; "first"; key ] ~what:("walk first execution " ^ key) v in
      pin "base_runs" f.base_runs;
      pin "all_runs" f.all_runs;
      pin "all_misses" f.all_misses;
      pin "app_instrs" f.app_instrs);
  Printf.printf "# walk %d executions: %d misses, %d app instructions\n" (executions ~seconds)
    o.misses o.app_instrs;
  (* Totals depend on the execution count, so they are pinned per --seconds. *)
  let key = string_of_int seconds in
  if pinned expected [ "walk"; "totals"; key ] <> None then begin
    expect_int pass expected [ "walk"; "totals"; key; "misses" ] ~what:"walk total misses" o.misses;
    expect_int pass expected [ "walk"; "totals"; key; "app_instrs" ]
      ~what:"walk total app instructions" o.app_instrs
  end;
  (o.misses, o.app_instrs)
