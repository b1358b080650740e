(* relayout: the closed loop of Olayout_harness.Relayout.run, composed
   here from the public calls of each layer so every boundary can carry a
   span.  One scheduled execution is captured; then the static row and
   each cadence re-render the captured block path window by window into a
   one-config battery that persists across re-layout ticks.  An op is one
   tick: merging the windows since the last tick and updating the
   incremental layout, i.e. from window close to new placement ready. *)

open Common
module Context = Olayout_harness.Context
module Relayout = Olayout_harness.Relayout
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Incremental = Olayout_core.Incremental
module Profile = Olayout_profile.Profile
module Windowed = Olayout_profile.Windowed
module Schedule = Olayout_oltp.Schedule
module Server = Olayout_oltp.Server
module Battery = Olayout_cachesim.Battery
module Render = Olayout_exec.Render
module Run = Olayout_exec.Run

let name = "relayout"
let algo = Incremental.Combo Spike.All
let window = Relayout.default_window
let cadences = Relayout.default_cadences

type prepared = { ctx : Context.t; static : Placement.t }

let setup pass =
  let ctx = context pass in
  let static = span pass "core/scratch" (fun () -> Context.placement ctx Spike.All) in
  pass.stats.ph_segments <- pass.stats.ph_segments + List.length (Placement.segments static);
  { ctx; static }

(* Growable int lane of the captured event stream. *)
type lane = { mutable a : int array; mutable n : int }

let lane () = { a = Array.make (1 lsl 20) 0; n = 0 }

let push l x =
  if l.n = Array.length l.a then begin
    let b = Array.make (2 * l.n) 0 in
    Array.blit l.a 0 b 0 l.n;
    l.a <- b
  end;
  Array.unsafe_set l.a l.n x;
  l.n <- l.n + 1

type capture = {
  wp : Windowed.t;
  procs : lane;
  blocks : lane;
  arms : lane;
  starts : lane;  (* event index where each window starts, plus a sentinel *)
}

(* Window indexing follows Windowed's clock, as Relayout.run's does, so the
   event slices line up with the profile slices. *)
let capture pass ctx ~seed =
  let prog = Profile.prog (Context.app_profile ctx) in
  let c =
    {
      wp = Windowed.create ~window prog;
      procs = lane ();
      blocks = lane ();
      arms = lane ();
      starts = lane ();
    }
  in
  let pos = ref 0 in
  let sink ~proc ~block ~arm =
    let w = !pos / window in
    while c.starts.n <= w do
      push c.starts c.procs.n
    done;
    push c.procs proc;
    push c.blocks block;
    push c.arms arm;
    let len =
      Olayout_ir.Block.source_instrs
        (Olayout_ir.Proc.block (Olayout_ir.Prog.proc prog proc) block)
    in
    pos := !pos + max len 1
  in
  let wl = Context.workload ctx in
  let r =
    span pass "oltp/capture" (fun () ->
        Server.run ~app:(Olayout_oltp.Workload.app wl) ~kernel:(Olayout_oltp.Workload.kernel wl)
          ~txns:(Context.measured_txns ctx) ~seed:(measurement_seed ~seed 0)
          ~schedule:(Schedule.rotation ~slots:Relayout.default_slots)
          ~app_sinks:[ Windowed.sink c.wp; sink ]
          ())
  in
  count_execution pass r;
  let n = Windowed.windows c.wp in
  while c.starts.n < n do
    push c.starts c.procs.n
  done;
  push c.starts c.procs.n;
  c

(* A tick whose (profile, placement) pair is kept for the from-scratch
   comparison after the timed phase. *)
type sample = { s_op : int; s_cadence : int; s_profile : Profile.t; s_placement : Placement.t }

type point = { cadence : int; misses : int; instrs : int; ticks : int }

type outcome = { windows : int; static_row : point; points : point list; samples : sample list }

(* The run buffer a window renders into before the battery reads it, so
   rendering and simulation time separate without changing the stream. *)
type buffer = { mutable runs : Run.t array; mutable len : int }

let buffer = { runs = Array.make (1 lsl 16) { Run.owner = Run.App; addr = 0; len = 0 }; len = 0 }

let buffer_push (r : Run.t) =
  if buffer.len = Array.length buffer.runs then begin
    let b = Array.make (2 * buffer.len) r in
    Array.blit buffer.runs 0 b 0 buffer.len;
    buffer.runs <- b
  end;
  buffer.runs.(buffer.len) <- r;
  buffer.len <- buffer.len + 1

let replay pass prep c cadence =
  let n = Windowed.windows c.wp in
  let train = Context.app_profile prep.ctx in
  let memo =
    if cadence = 0 then None
    else begin
      let m = span pass "core/scratch" (fun () -> Incremental.create algo train) in
      pass.stats.ph_segments <-
        pass.stats.ph_segments + List.length (Placement.segments (Incremental.placement m));
      Some m
    end
  in
  let initial = match memo with Some m -> Incremental.placement m | None -> prep.static in
  let config = headline_config () in
  let battery = Battery.create ~engine:(Context.engine prep.ctx) [ config ] in
  let merger = Render.merger ~emit:buffer_push in
  let render = ref (Render.create ~placement:initial ~owner:Run.App merger) in
  let fed = ref 0 and ticks = ref 0 and samples = ref [] in
  let last_tick = if cadence = 0 then -1 else (n - 1) / cadence * cadence in
  for w = 0 to n - 1 do
    (match memo with
    | Some m when w > 0 && w mod cadence = 0 ->
        probe pass;
        let i, (p, next) =
          op pass (fun () ->
              let p =
                span pass "profile/merge" (fun () ->
                    Windowed.merged c.wp ~lo:(w - cadence) ~hi:w)
              in
              let before = Incremental.placement m in
              let next = span pass "core/update" (fun () -> Incremental.update m p) in
              if next != before then
                pass.stats.ph_segments <-
                  pass.stats.ph_segments + List.length (Placement.segments next);
              (p, next))
        in
        incr ticks;
        inline_verify pass (fun () ->
            let valid = Perfbench.Validity.placement next in
            check pass ~op:i
              ~what:
                (Printf.sprintf "cadence %d window %d: %s" cadence w
                   (match valid with Ok () -> "valid" | Error msg -> msg))
              (valid = Ok ()));
        if w = last_tick then
          samples :=
            { s_op = i; s_cadence = cadence; s_profile = p; s_placement = next } :: !samples;
        render := Render.create ~placement:next ~owner:Run.App merger
    | _ -> ());
    let sink = Render.sink !render in
    span pass "exec/render" (fun () ->
        for i = c.starts.a.(w) to c.starts.a.(w + 1) - 1 do
          sink ~proc:c.procs.a.(i) ~block:c.blocks.a.(i) ~arm:c.arms.a.(i)
        done;
        Render.flush merger);
    pass.stats.runs_rendered_in_spans <- pass.stats.runs_rendered_in_spans + buffer.len;
    span pass "cachesim/feed" (fun () ->
        for i = 0 to buffer.len - 1 do
          let r = buffer.runs.(i) in
          fed := !fed + r.Run.len;
          Battery.access_run battery r
        done);
    buffer.len <- 0
  done;
  pass.stats.sim_instrs <- pass.stats.sim_instrs + !fed;
  ( { cadence; misses = Battery.misses battery config.Olayout_cachesim.Icache.name; instrs = !fed; ticks = !ticks },
    !samples )

let timed pass prep ~seed ~seconds:_ =
  pass.stats.sim_configs <- 1;
  let c = capture pass prep.ctx ~seed in
  let static_row, _ = replay pass prep c 0 in
  let points, samples =
    List.split (List.map (fun cadence -> replay pass prep c cadence) cadences)
  in
  { windows = Windowed.windows c.wp; static_row; points; samples = List.concat samples }

let verify pass expected _prep o ~seconds:_ =
  List.iter
    (fun s ->
      check pass ~op:s.s_op
        ~what:
          (Printf.sprintf "cadence %d last tick: incremental placement differs from scratch"
             s.s_cadence)
        (Placement.equal s.s_placement (Incremental.scratch algo s.s_profile)))
    o.samples;
  expect_int pass expected [ "relayout"; "windows" ] ~what:"relayout windows" o.windows;
  List.iter
    (fun p ->
      let key = if p.cadence = 0 then "static" else Printf.sprintf "cadence_%d" p.cadence in
      Printf.printf "# relayout %s: %d misses, %d instructions, %d ticks\n" key p.misses
        p.instrs p.ticks;
      expect_int pass expected [ "relayout"; key; "misses" ] ~what:("relayout " ^ key ^ " misses")
        p.misses;
      expect_int pass expected [ "relayout"; key; "instrs" ]
        ~what:("relayout " ^ key ^ " instructions") p.instrs)
    (o.static_row :: o.points);
  ( List.fold_left (fun acc p -> acc + p.misses) 0 o.points,
    List.fold_left (fun acc p -> acc + p.instrs) 0 o.points )
