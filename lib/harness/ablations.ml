module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike
module Cfa = Olayout_core.Cfa
module Timing = Olayout_perf.Timing
module Machine = Olayout_perf.Machine
module Sampler = Olayout_profile.Sampler
module Profile = Olayout_profile.Profile
module Telemetry = Olayout_telemetry.Telemetry

type result = {
  kernel_base_misses : int;
  kernel_opt_misses : int;
  kernel_base_cycles : float;
  kernel_opt_cycles : float;
  cfa_misses : int;
  all_misses_64k : int;
  hot_90_bytes : int;
  hotcold_64k : int;
  hotcold_128k : int;
  fine_64k : int;
  fine_128k : int;
  sampled_misses : int;
  exact_misses : int;
  hot_aligned_misses : int;
}

let cache_64 () = Icache.create (Icache.config ~size_kb:64 ~line:128 ~assoc:1 ())
let cache_128 () = Icache.create (Icache.config ~size_kb:128 ~line:128 ~assoc:4 ())

let app_only cache = Context.app_only (Icache.access_run cache)

(* The kernel ablation needs two *separate* runs: the kernel placement is
   shared by all renders of one execution. *)
let kernel_ablation ctx =
  let run_with kernel_placement =
    let c = Icache.create (Icache.config ~size_kb:64 ~line:128 ~assoc:4 ()) in
    let timing = Timing.create Machine.alpha_21364_sim in
    let _ =
      Context.measure ctx ~kernel_placement
        ~renders:
          [
            ( Spike.All,
              fun run ->
                Icache.access_run c run;
                Timing.fetch_run timing run );
          ]
        ()
    in
    (Icache.misses c, Timing.cycles timing)
  in
  let base_m, base_c = run_with (Context.kernel_base ctx) in
  let opt_m, opt_c = run_with (Context.kernel_optimized ctx) in
  (base_m, opt_m, base_c, opt_c)

let sampled_placement ctx =
  (* Collect a PC-sampling profile on the training schedule, like the
     paper's DCPI alternative, and drive the full pipeline with it. *)
  let sampler = Sampler.create (Profile.prog (Context.app_profile ctx)) ~period:509 in
  Context.training_run ctx
    ~app_sinks:[ (fun ~proc ~block ~arm -> Sampler.sink sampler ~proc ~block ~arm) ];
  Spike.optimize (Sampler.to_profile sampler) Spike.All

let run ctx =
  let kernel_base_misses, kernel_opt_misses, kernel_base_cycles, kernel_opt_cycles =
    kernel_ablation ctx
  in
  let profile = Context.app_profile ctx in
  let cfa_placement =
    Spike.build (Spike.Cfa { cache_bytes = 64 * 1024; cfa_fraction = 0.5 }) profile
  in
  let hotcold_placement = Spike.build Spike.Hot_cold profile in
  let sampled = sampled_placement ctx in
  let hot_aligned = Spike.build Spike.Hot_aligned profile in
  let c_cfa = cache_64 () and c_all = cache_64 () in
  let c_hc64 = cache_64 () and c_hc128 = cache_128 () in
  let c_fine128 = cache_128 () in
  let c_sampled = cache_64 () in
  let c_aligned = cache_64 () in
  let _ =
    Context.measure_raw ctx
      ~renders:
        [
          (cfa_placement, app_only c_cfa);
          ( Context.placement ctx Spike.All,
            fun run ->
              app_only c_all run;
              app_only c_fine128 run );
          ( hotcold_placement,
            fun run ->
              app_only c_hc64 run;
              app_only c_hc128 run );
          (sampled, app_only c_sampled);
          (hot_aligned, app_only c_aligned);
        ]
      ()
  in
  let r =
    {
      kernel_base_misses;
      kernel_opt_misses;
      kernel_base_cycles;
      kernel_opt_cycles;
      cfa_misses = Icache.misses c_cfa;
      all_misses_64k = Icache.misses c_all;
      hot_90_bytes = Cfa.hot_bytes_needed profile ~coverage:0.9;
      hotcold_64k = Icache.misses c_hc64;
      hotcold_128k = Icache.misses c_hc128;
      fine_64k = Icache.misses c_all;
      fine_128k = Icache.misses c_fine128;
      sampled_misses = Icache.misses c_sampled;
      exact_misses = Icache.misses c_all;
      hot_aligned_misses = Icache.misses c_aligned;
    }
  in
  (* One gauge per distinct table number: [fine_64k] and [exact_misses]
     are the [all] layout's [all_misses_64k]. *)
  List.iter
    (fun (row, v) -> Telemetry.set_gauge (Telemetry.gauge ("fig.ablations." ^ row)) v)
    [
      ("kernel_base_misses", float_of_int r.kernel_base_misses);
      ("kernel_opt_misses", float_of_int r.kernel_opt_misses);
      ("kernel_base_cycles", r.kernel_base_cycles);
      ("kernel_opt_cycles", r.kernel_opt_cycles);
      ("cfa_misses", float_of_int r.cfa_misses);
      ("all_misses_64k", float_of_int r.all_misses_64k);
      ("hot_90_bytes", float_of_int r.hot_90_bytes);
      ("hotcold_64k", float_of_int r.hotcold_64k);
      ("hotcold_128k", float_of_int r.hotcold_128k);
      ("fine_128k", float_of_int r.fine_128k);
      ("sampled_misses", float_of_int r.sampled_misses);
      ("hot_aligned_misses", float_of_int r.hot_aligned_misses);
    ];
  r

let tables r =
  let tbl =
    Table.create ~title:"Ablations (design choices)"
      ~columns:[ "experiment"; "variant"; "reference"; "outcome" ]
  in
  Table.add_row tbl
    [
      "optimize kernel layout too (64KB combined misses)";
      Table.fmt_int r.kernel_opt_misses;
      Table.fmt_int r.kernel_base_misses;
      Printf.sprintf "cycles %.2f%% better (paper: ~3.5%%)"
        (100.0 *. (1.0 -. (r.kernel_opt_cycles /. r.kernel_base_cycles)));
    ];
  Table.add_row tbl
    [
      "CFA reserved area (64KB cache, 50% reserved)";
      Table.fmt_int r.cfa_misses;
      Table.fmt_int r.all_misses_64k;
      Printf.sprintf "hot 90%% of execution needs %d KB (paper: trace footprint too big; no gain)"
        (r.hot_90_bytes / 1024);
    ];
  Table.add_row tbl
    [
      "hot/cold splitting (stock Spike), 64KB";
      Table.fmt_int r.hotcold_64k;
      Table.fmt_int r.fine_64k;
      "fine-grain splitting is the reference";
    ];
  Table.add_row tbl
    [
      "hot/cold splitting (stock Spike), 128KB";
      Table.fmt_int r.hotcold_128k;
      Table.fmt_int r.fine_128k;
      "";
    ];
  Table.add_row tbl
    [
      "sampling profile (DCPI-like, period 509), 64KB";
      Table.fmt_int r.sampled_misses;
      Table.fmt_int r.exact_misses;
      "exact Pixie-like profile is the reference";
    ];
  Table.add_row tbl
    [
      "hot segments aligned to 64B lines, 64KB";
      Table.fmt_int r.hot_aligned_misses;
      Table.fmt_int r.exact_misses;
      "alignment trades padding (capacity) for fetch efficiency";
    ];
  [ tbl ]
