(* The benchmark runner: one serial process runs one workload.

     bench.exe --workload relayout|sweep|walk --seed N --seconds S --trace 0|1

   It runs from the root of the repository.  With --trace 0 it prints the
   end-to-end metrics; with --trace 1 it makes an untraced pass first, then
   a traced pass whose spans and counters give the per-layer metrics,
   prints a per-layer self-time table and writes it, with every span, to
   perfbench/out/.  At the default seed the deterministic outputs are
   checked against perfbench/expected.json.  Every output starts with a
   system-information header and ends with one JSON result line. *)

open Common
module Json = Olayout_telemetry.Json
module Pct = Perfbench.Pct
module Metric = Perfbench.Metric

let workloads : (string * (module WORKLOAD)) list =
  [
    ("relayout", (module Wl_relayout));
    ("sweep", (module Wl_sweep));
    ("walk", (module Wl_walk));
  ]

let default_seed = 0
let expected_file = "perfbench/expected.json"
let out_dir = "perfbench/out"

(* Set-up runs this many times per run, each from a settled heap and
   between speed probes; setup_s is the median time, scaled by the probes
   taken around all of them. *)
let setup_reps = 5
let setup_probes = 3

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload relayout|sweep|walk --seed N --seconds S --trace 0|1";
  exit 2

let parse_args argv =
  let get = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace get k v;
        go rest
    | k :: _ ->
        Printf.eprintf "bench: unexpected argument %s\n" k;
        usage ()
  in
  go (List.tl (Array.to_list argv));
  let int k ~lo ~hi =
    match Option.bind (Hashtbl.find_opt get k) int_of_string_opt with
    | Some v when v >= lo && v <= hi -> v
    | _ ->
        Printf.eprintf "bench: %s needs an integer in %d..%d\n" k lo hi;
        usage ()
  in
  let workload =
    match Hashtbl.find_opt get "--workload" with
    | Some w when List.mem_assoc w workloads -> w
    | _ ->
        prerr_endline "bench: --workload must be relayout, sweep or walk";
        usage ()
  in
  Hashtbl.iter
    (fun k _ ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ])
      then begin
        Printf.eprintf "bench: unknown option %s\n" k;
        usage ()
      end)
    get;
  (* The seed is any decimal integer, reduced by Seed.of_string. *)
  let seed =
    match Option.bind (Hashtbl.find_opt get "--seed") Perfbench.Seed.of_string with
    | Some v -> v
    | None ->
        prerr_endline "bench: --seed needs a decimal integer";
        usage ()
  in
  {
    workload;
    seed;
    seconds = int "--seconds" ~lo:1 ~hi:3600;
    trace = int "--trace" ~lo:0 ~hi:1 = 1;
  }

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* [setup_s] is already scaled; [setup_raw_s] is the median raw set-up
   time, and [wall_s] is raw seconds with [speed] the timed phase's
   {!speed_factor}. *)
type measured = {
  pass : pass;
  setup_s : float;
  setup_raw_s : float;
  wall_s : float;
  speed : float;
  peak_heap_mb : float;
  l1i : int * int;
}

(* One untraced pass: set-up [setup_reps] times, then the timed phase on
   the last set-up, then the checks left for after it.  Each set-up starts
   from a settled heap, so none collects the garbage of the one before.
   The set-ups are scaled by the probes taken around them, since the timed
   phase's probes come from later; by all thirty, not each set-up by its
   own six, because a burst of interference in six probes moved one
   set-up's factor fourfold. *)
let untraced (module W : WORKLOAD) a expected =
  Olayout_telemetry.Telemetry.set_enabled false;
  let pass = new_pass (Perfbench.Spans.create 1) in
  let prep = ref None in
  let setups =
    Array.init setup_reps (fun _ ->
        prep := None;
        settle ();
        probe ~times:setup_probes pass;
        let t0 = now () in
        prep := Some (W.setup pass);
        let d = now () -. t0 in
        probe ~times:setup_probes pass;
        d)
  in
  let setup_speed = speed_factor pass in
  Printf.printf "# %s set-up speed probe median %.2f ms, factor %.4f\n" W.name
    (probe_ms_of_factor setup_speed) setup_speed;
  let prep = Option.get !prep in
  settle ();
  pass.excluded_s <- 0.;
  let first = pass.n_probes in
  let t0 = now () in
  let o = W.timed pass prep ~seed:a.seed ~seconds:a.seconds in
  let wall_s = now () -. t0 -. pass.excluded_s in
  let peak_heap_mb = top_heap_mb () in
  let l1i = W.verify pass expected prep o ~seconds:a.seconds in
  {
    pass;
    setup_s = median setups *. setup_speed;
    setup_raw_s = median setups;
    wall_s;
    speed = speed_factor ~first pass;
    peak_heap_mb;
    l1i;
  }

let mpki (misses, instrs) =
  if instrs <= 0 then 0. else float_of_int misses *. 1000. /. float_of_int instrs

let summary_line p =
  Printf.printf "# ops %d, failed %d, checks %d, check failures %d\n" p.n_ops (failed_ops p)
    p.checks p.check_failures

let result ~passes metrics =
  let attempted = List.fold_left (fun acc p -> acc + p.n_ops) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + failed_ops p) 0 passes in
  let correct = List.for_all (fun p -> p.check_failures = 0) passes in
  print_endline (Json.to_string (Metric.result_json ~correct ~attempted ~failed metrics))

let end_to_end a m =
  let ops = op_latencies m.pass in
  let p50 =
    match Pct.percentile ops 50. with
    | Some v -> v
    | None -> failwith (Printf.sprintf "only %d ops: the median needs 20" (Array.length ops))
  in
  Printf.printf
    "# %s raw: %d ops, setup %.3f s (median of %d), wall %.3f s, op p50 %.1f ms; timed-phase \
     speed probe median %.2f ms, factor %.4f\n"
    a.workload (Array.length ops) m.setup_raw_s setup_reps m.wall_s (p50 *. 1000.)
    (probe_ms_of_factor m.speed) m.speed;
  [
    Metric.make "setup_s" "s" m.setup_s;
    Metric.make "wall_s" "s" (m.wall_s *. m.speed);
    Metric.make "peak_heap_mb" "MB" m.peak_heap_mb;
    Metric.make "op_p50_ms" "ms" (p50 *. 1000. *. m.speed);
    Metric.make "l1i_mpki" "mpki" (mpki m.l1i);
  ]

(* The pinned outputs hold for the default seed only. *)
let load_expected a =
  if a.seed <> default_seed then None
  else
    try Some (Json.parse_file expected_file)
    with Sys_error msg | Json.Parse_error msg ->
      Printf.eprintf "bench: cannot read the expected outputs: %s\n" msg;
      exit 2

let () =
  let a = parse_args Sys.argv in
  print_endline (Perfbench.Sysinfo.header ());
  Printf.printf "# perfbench workload=%s seed=%d seconds=%d trace=%d\n%!" a.workload a.seed
    a.seconds (if a.trace then 1 else 0);
  let w = List.assoc a.workload workloads in
  let expected = load_expected a in
  try
    let m = untraced w a expected in
    summary_line m.pass;
    if not a.trace then result ~passes:[ m.pass ] (end_to_end a m)
    else begin
      let t =
        Traced.run w ~seed:a.seed ~seconds:a.seconds ~out_dir
          ~untraced_wall_s:(m.wall_s *. m.speed) ~untraced_speed:m.speed
          ~untraced_ops:(op_latencies m.pass) expected
      in
      summary_line t.Traced.pass;
      result ~passes:[ m.pass; t.Traced.pass ] t.Traced.metrics
    end
  with e ->
    Printf.eprintf "bench: %s failed: %s\n" a.workload (Printexc.to_string e);
    exit 1
