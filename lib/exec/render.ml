module Placement = Olayout_core.Placement
module Telemetry = Olayout_telemetry.Telemetry

let c_runs = Telemetry.counter "exec.runs_rendered"
let c_instrs = Telemetry.counter "exec.instrs_rendered"
let h_run_len = Telemetry.histogram "exec.run_len"

type merger = {
  emit : Run.t -> unit;
  mutable owner : Run.owner;
  mutable addr : int;  (* start of pending run; -1 when none *)
  mutable len : int;   (* pending instructions *)
  (* Emitted since the last [flush], published there. *)
  mutable runs : int;
  mutable instrs : int;
  run_len : Telemetry.tally;
}

let merger ~emit =
  { emit; owner = Run.App; addr = -1; len = 0; runs = 0; instrs = 0; run_len = Telemetry.tally () }

let emit_pending m =
  if m.addr >= 0 && m.len > 0 then begin
    m.runs <- m.runs + 1;
    m.instrs <- m.instrs + m.len;
    Telemetry.tally_observe m.run_len m.len;
    m.emit { Run.owner = m.owner; addr = m.addr; len = m.len }
  end;
  m.addr <- -1;
  m.len <- 0

let flush m =
  emit_pending m;
  Telemetry.add c_runs m.runs;
  Telemetry.add c_instrs m.instrs;
  Telemetry.publish_tally h_run_len m.run_len;
  m.runs <- 0;
  m.instrs <- 0

let feed m owner ~addr ~len =
  if len > 0 then
    if m.addr >= 0 && m.owner = owner && addr = m.addr + (m.len * 4) then
      m.len <- m.len + len
    else begin
      emit_pending m;
      m.owner <- owner;
      m.addr <- addr;
      m.len <- len
    end

type t = { placement : Placement.t; owner : Run.owner; m : merger }

let create ~placement ~owner m = { placement; owner; m }

let sink t =
  let { placement; owner; m } = t in
  fun ~proc ~block ~arm ->
    let addr = Placement.block_addr placement ~proc ~block in
    let len = Placement.exec_instrs placement ~proc ~block ~arm in
    feed m owner ~addr ~len
