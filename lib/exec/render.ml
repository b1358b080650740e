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

(* Number of significant bits: a positive run length's tally bucket
   before the clamp ([Telemetry.tally]). *)
let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1)

let emit_pending m =
  if m.addr >= 0 && m.len > 0 then begin
    m.runs <- m.runs + 1;
    m.instrs <- m.instrs + m.len;
    let counts = (m.run_len :> int array) in
    let b = bits m.len 0 and top = Array.length counts - 1 in
    let b = if b < top then b else top in
    counts.(b) <- counts.(b) + 1;
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

(* The placement's rows are fetched once per sink, so a block event reads
   arrays and calls nothing outside this module; only an indirect jump's
   third or later arm asks [Placement]. *)
let sink t =
  let { placement; owner; m } = t in
  let addrs, exec0, exec1 = Placement.fetch_rows placement in
  fun ~proc ~block ~arm ->
    let len =
      if arm = 0 then exec0.(proc).(block)
      else if arm = 1 then exec1.(proc).(block)
      else Placement.exec_instrs placement ~proc ~block ~arm
    in
    feed m owner ~addr:addrs.(proc).(block) ~len
