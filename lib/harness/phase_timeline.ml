(* Phase-resolved timeline measurement for one figure geometry — the CLI
   [timeline] subcommand's engine ([report --out] covers the whole
   report instead).  One measurement stream runs through the preset's
   cache while the timeline subsystem folds every producer onto the
   simulated instruction clock:

   - [cachesim.<combo>.{misses,accesses}] — demand behaviour of the
     preset's cache (battery designation, engine-agnostic);
   - [diag.<fig>.{working_set_lines,unique_lines}] — shadow-LRU working
     set sampled per fetch run;
   - [oltp.*] — transaction mix and app/kernel phase, recorded by the
     server during the context's one walk of the measurement execution
     (the first measurement of a fresh context makes it). *)

module Diag = Olayout_diag.Diag
module Resolver = Olayout_diag.Resolver
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline

let run ?(combo = Spike.Base) ?(engine = `Stackdist) ctx (preset : Diagnose.preset) =
  if not (Timeline.enabled ()) then
    invalid_arg
      "Phase_timeline.run: the timeline subsystem is disabled (call \
       Timeline.set_enabled true before building the context)";
  Telemetry.span "phase_timeline" (fun () ->
      let resolver =
        Resolver.of_placements
          [
            (Run.App, Context.placement ctx combo);
            (Run.Kernel, Context.kernel_base ctx);
          ]
      in
      let cfg =
        Icache.config ~size_kb:preset.Diagnose.size_kb ~line:preset.Diagnose.line
          ~assoc:preset.Diagnose.assoc ()
      in
      let d = Diag.create ~timeline:preset.Diagnose.fig ~resolver cfg in
      let battery =
        Battery.create ~engine
          ~timeline:(cfg.Icache.name, Spike.combo_name combo)
          [ cfg ]
      in
      let emit run =
        if preset.Diagnose.combined || run.Run.owner = Run.App then begin
          Battery.access_run battery run;
          Diag.access_run d run
        end
      in
      let (_ : Olayout_oltp.Server.result) =
        Context.measure ctx ~renders:[ (combo, emit) ] ()
      in
      ())
