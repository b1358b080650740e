(* State one measured pass of a workload shares with the runner: the span
   recorder, op latencies, check outcomes, and the counts a layer reports
   that neither spans nor the program's counters carry. *)

module Spans = Perfbench.Spans
module Telemetry = Olayout_telemetry.Telemetry

let max_ops = 4096

type stats = {
  mutable executions : int;
  mutable txns : int;
  mutable aborts : int;
  mutable lock_waits : int;
  mutable oltp_instrs : int;
  mutable ph_segments : int;
  mutable runs_rendered_in_spans : int;
  mutable runs_recorded : int;
  mutable trace_bytes : int;
  mutable sim_configs : int;
  mutable sim_instrs : int;
}

type pass = {
  spans : Spans.t;
  ops : float array;
  op_failed : bool array;
  mutable n_ops : int;
  mutable checks : int;
  mutable check_failures : int;
  mutable excluded_s : float;
  probes : float array;
  mutable n_probes : int;
  stats : stats;
}

let new_stats () =
  {
    executions = 0;
    txns = 0;
    aborts = 0;
    lock_waits = 0;
    oltp_instrs = 0;
    ph_segments = 0;
    runs_rendered_in_spans = 0;
    runs_recorded = 0;
    trace_bytes = 0;
    sim_configs = 0;
    sim_instrs = 0;
  }

let new_pass spans =
  {
    spans;
    ops = Array.make max_ops 0.;
    op_failed = Array.make max_ops false;
    n_ops = 0;
    checks = 0;
    check_failures = 0;
    excluded_s = 0.;
    probes = Array.make max_ops 0.;
    n_probes = 0;
    stats = new_stats ();
  }

let now = Unix.gettimeofday
let span pass name f = Spans.span pass.spans name f

(* Time one op and return its index, the handle later checks fail it by. *)
let op pass f =
  if pass.n_ops = max_ops then failwith "perfbench: more ops than the latency buffer holds";
  let t0 = now () in
  let v = f () in
  let i = pass.n_ops in
  pass.ops.(i) <- now () -. t0;
  pass.n_ops <- i + 1;
  (i, v)

(* A check belongs to the op whose output it inspects ([~op:i]) or to the
   run as a whole (no [op]).  A failure is printed at once. *)
let check pass ?op ~what ok =
  pass.checks <- pass.checks + 1;
  if not ok then begin
    pass.check_failures <- pass.check_failures + 1;
    Option.iter (fun i -> pass.op_failed.(i) <- true) op;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

(* Checks made inside the timed phase: their time is taken out of wall_s
   and they run under a verify span. *)
let inline_verify pass f =
  let t0 = now () in
  let v = span pass "verify/inline" f in
  pass.excluded_s <- pass.excluded_s +. (now () -. t0);
  v

(* The machine-speed probe.  The 2-vCPU Intel Xeon VM the figures in
   README.md come from changes speed by tens of percent within minutes (one
   walk execution ranged 0.089-0.177 s over 200 identical repeats), far
   more than a bound can absorb, so every run also times this fixed kernel
   before each op and around each set-up, and the end-to-end times are
   scaled to the kernel's nominal speed.  The kernel has two halves, both
   on buffers outside the OCaml heap: a pseudo-random walk over 256 KB and
   an interpreter loop dispatching on pseudo-random opcodes, whose branches
   no predictor learns.  Of the kernels tried (integer loop, allocation
   loop, random walks over 256 KB, 8 MB and 64 MB, pointer chases over 1, 16
   and 32 MB, the interpreter loop, and combinations of these) the
   interpreter loop and this pair tracked the three workloads' own speed
   best, level with each other (README.md has the figures).  Probe time is
   taken out of wall_s like check time. *)
let probe_buffer = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 15)
let () = Bigarray.Array1.fill probe_buffer 1

let probe_code =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 16) in
  let x = ref 7 in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Bigarray.Array1.unsafe_set a i ((!x lsr 16) land 7)
  done;
  a

let probe_nominal_s = 0.012

(* The buffers are read once before the clock starts, so what the workload
   evicted from the caches since the last probe does not count. *)
let speed_probe () =
  let a = probe_buffer and code = probe_code in
  let mask = Bigarray.Array1.dim a - 1 in
  let acc = ref 0 in
  for i = 0 to mask do
    acc := !acc + Bigarray.Array1.unsafe_get a i
  done;
  for i = 0 to Bigarray.Array1.dim code - 1 do
    acc := !acc + Bigarray.Array1.unsafe_get code i
  done;
  let t0 = now () in
  let x = ref 12345 in
  for _ = 1 to 2_500_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land mask in
    acc := !acc + Bigarray.Array1.unsafe_get a i;
    Bigarray.Array1.unsafe_set a i (!acc land 0xff)
  done;
  let u = ref !acc and v = ref 1 in
  for round = 1 to 5 do
    for i = 0 to Bigarray.Array1.dim code - 1 do
      match Bigarray.Array1.unsafe_get code i with
      | 0 -> u := !u + !v
      | 1 -> v := !v lxor (!u lsl 1)
      | 2 -> u := !u - round
      | 3 -> v := !v + i
      | 4 -> u := !u lxor !v
      | 5 -> v := (!v lsr 1) + 7
      | 6 -> u := !u + (i land 15)
      | _ -> v := !v - !u
    done
  done;
  let d = now () -. t0 in
  Bigarray.Array1.unsafe_set a 0 ((!u + !v) land 0xff);
  d

let probe ?(times = 1) pass =
  for _ = 1 to times do
    if pass.n_probes < Array.length pass.probes then begin
      let d = span pass "probe" speed_probe in
      pass.probes.(pass.n_probes) <- d;
      pass.n_probes <- pass.n_probes + 1;
      pass.excluded_s <- pass.excluded_s +. d
    end
  done

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nominal over measured probe speed, from the probes taken since probe
   [first], raised to {!speed_exponent}: multiply a time by it to express
   it at the probe's nominal machine speed.  The workloads, whose heaps
   reach 0.2-1.6 GB, slow down more than the kernel does when the host
   interferes.  Over two sets of ten runs of each workload, the quartile
   spreads of wall_s and op_p50_ms were at most 27.3% raw, 14.8% with the
   plain ratio, 11.6% with its 1.5th power and 11.4% with its square; the
   three scaled variants averaged 8.7%, 5.6% and 6.9%. *)
let speed_exponent = 1.5

let speed_factor ?(first = 0) pass =
  let r = probe_nominal_s /. median (Array.sub pass.probes first (pass.n_probes - first)) in
  Float.pow r speed_exponent

(* The median probe milliseconds a {!speed_factor} came from. *)
let probe_ms_of_factor f = probe_nominal_s /. Float.pow f (1. /. speed_exponent) *. 1000.

(* Each set-up and the timed phase start from a compacted heap, so the
   garbage of what ran before is not collected on their clock. *)
let settle () = Gc.compact ()

let failed_ops pass =
  let n = ref 0 in
  for i = 0 to pass.n_ops - 1 do
    if pass.op_failed.(i) then incr n
  done;
  !n

let op_latencies pass = Array.sub pass.ops 0 pass.n_ops

(* Time the program measured itself inside [f] ([seconds] reads its
   cumulative figure) is recorded as a child span, named [child], of the
   benchmark's own span around [f]. *)
let span_attributing pass name ~child ~seconds f =
  let before = seconds () in
  let id = Spans.next_id pass.spans in
  let v = span pass name f in
  if Spans.is_on pass.spans then Spans.attribute pass.spans ~parent:id child (seconds () -. before);
  v

(* Seconds of the program's own telemetry spans whose path ends in [name],
   in a snapshot of the span aggregates (recorded only while telemetry is
   enabled). *)
let span_seconds stats name =
  List.fold_left
    (fun acc (s : Telemetry.span_stat) ->
      let path = s.Telemetry.span_path in
      let last =
        match String.rindex_opt path '/' with
        | Some k -> String.sub path (k + 1) (String.length path - k - 1)
        | None -> path
      in
      if last = name then acc +. s.Telemetry.span_total_s else acc)
    0. stats

let program_span_seconds name () = span_seconds (Telemetry.span_stats ()) name

(* The synthetic binaries and their training profile are the paper's
   (Context's default binary seed): the benchmark seed varies what the
   server executes, not the program being laid out.  Across binary seeds
   l1i_mpki ranged 11.2-14.7 and wall_s moved 13% between quartiles, more
   than any bound could absorb. *)
let context pass =
  span pass "profile/train" (fun () -> Olayout_harness.Context.create ~scale:Olayout_harness.Context.Quick ())

(* The server seed of the [k]th execution a run makes.  Seed 0's first
   execution uses Context's own measurement seed, 1009, so the relayout
   workload at seed 0 replays exactly the stream Relayout.run captures. *)
let measurement_seed ~seed k = 1009 + (7919 * seed) + k

let count_execution pass (r : Olayout_oltp.Server.result) =
  let s = pass.stats in
  s.executions <- s.executions + 1;
  s.txns <- s.txns + r.committed + r.aborted + r.scans;
  s.aborts <- s.aborts + r.aborted;
  s.lock_waits <- s.lock_waits + r.lock_waits;
  s.oltp_instrs <- s.oltp_instrs + r.app_instrs + r.kernel_instrs

let headline_config () = Olayout_cachesim.Icache.config ~size_kb:64 ~line:128 ~assoc:1 ()
let app_run (run : Olayout_exec.Run.t) = run.Olayout_exec.Run.owner = Olayout_exec.Run.App

(* Expected outputs for the default seed, read from the benchmark's own
   file ([None] for other seeds). *)
type expected = Olayout_telemetry.Json.t option

let pinned (expected : expected) path =
  let module Json = Olayout_telemetry.Json in
  let rec find j = function
    | [] -> Some j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> find j rest)
  in
  Option.bind expected (fun j -> find j path)

let expect_int pass expected path ~what actual =
  if expected <> None then
    match Option.bind (pinned expected path) Olayout_telemetry.Json.get_int with
    | Some v -> check pass ~what:(Printf.sprintf "%s = %d, expected %d" what actual v) (v = actual)
    | None ->
        check pass ~what:(Printf.sprintf "%s: no pinned value at %s" what (String.concat "." path))
          false

module type WORKLOAD = sig
  type prepared
  type outcome

  val name : string
  val setup : pass -> prepared
  val timed : pass -> prepared -> seed:int -> seconds:int -> outcome

  val verify : pass -> expected -> prepared -> outcome -> seconds:int -> int * int
  (** Runs the checks left after the timed phase; returns the l1i misses
      and instructions [l1i_mpki] is computed from. *)
end

