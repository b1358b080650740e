module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike
module Cfa = Olayout_core.Cfa
module Timing = Olayout_perf.Timing
module Machine = Olayout_perf.Machine
module Sampler = Olayout_profile.Sampler
module Profile = Olayout_profile.Profile

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

(* The CFA ablation reserves this share of a 64 KB cache. *)
let cfa_reserved = 0.5

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
    Spike.build (Spike.Cfa { cache_bytes = 64 * 1024; cfa_fraction = cfa_reserved }) profile
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

let tables r =
  let tbl =
    Table.create ~id:"ablations" ~title:"Ablations (design choices)"
      ~columns:[ ("experiment", "experiment"); ("variant", "variant");
                 ("reference", "reference"); ("outcome", "outcome") ]
  in
  let row id name variant reference outcome =
    Table.add_row tbl ~id [ Table.Text name; variant; reference; outcome ]
  in
  row "kernel" "optimize kernel layout too (64KB combined misses)" (Table.Int r.kernel_opt_misses)
    (Table.Int r.kernel_base_misses) (Table.Text "paper: ~3.5% fewer cycles");
  row "kernel_cycles" "optimize kernel layout too (21364-sim cycles; outcome = saving)"
    (Table.Fixed (0, r.kernel_opt_cycles))
    (Table.Fixed (0, r.kernel_base_cycles))
    (Table.Pct (1.0 -. (r.kernel_opt_cycles /. r.kernel_base_cycles)));
  row "cfa" "CFA reserved area (64KB cache, 50% reserved)" (Table.Int r.cfa_misses)
    (Table.Int r.all_misses_64k) (Table.Text "paper: trace footprint too big; no gain");
  row "cfa_hot" "CFA: bytes covering 90% of execution vs bytes reserved" (Table.Int r.hot_90_bytes)
    (Table.Int (int_of_float (float_of_int (64 * 1024) *. cfa_reserved)))
    (Table.Text "");
  row "hotcold_64kb" "hot/cold splitting (stock Spike), 64KB" (Table.Int r.hotcold_64k)
    (Table.Int r.fine_64k) (Table.Text "fine-grain splitting is the reference");
  row "hotcold_128kb" "hot/cold splitting (stock Spike), 128KB" (Table.Int r.hotcold_128k)
    (Table.Int r.fine_128k) (Table.Text "");
  row "sampled" "sampling profile (DCPI-like, period 509), 64KB" (Table.Int r.sampled_misses)
    (Table.Int r.exact_misses) (Table.Text "exact Pixie-like profile is the reference");
  row "hot_aligned" "hot segments aligned to 64B lines, 64KB" (Table.Int r.hot_aligned_misses)
    (Table.Int r.exact_misses) (Table.Text "alignment trades padding (capacity) for fetch efficiency");
  [ tbl ]
