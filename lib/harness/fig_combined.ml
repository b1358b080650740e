module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike

type side = {
  combined : (int * int) list;
  app_isolated : (int * int) list;
  combined_app_misses : (int * int) list;
  combined_kernel_misses : (int * int) list;
  app_on_app : int;
  app_on_kernel : int;
  kernel_on_app : int;
  kernel_on_kernel : int;
  cold : int;
}

type result = { kernel_isolated : (int * int) list; base : side; optimized : side }

let sizes = Fig_line_sweep.cache_sizes_kb

(* One cache per size: the figure reads per-owner misses and the
   displacement matrix, which only a full [Icache] keeps. *)
let caches () =
  List.map
    (fun size_kb -> (size_kb, Icache.create (Icache.config ~size_kb ~line:128 ~assoc:4 ())))
    sizes

let access caches run = List.iter (fun (_, c) -> Icache.access_run c run) caches
let per_size caches f = List.map (fun (s, c) -> (s, f c)) caches

let run ctx =
  (* Per combo: combined-stream caches and app-isolated caches; the
     kernel-isolated stream is the same under both combos.  Replay-
     compatible: both feeds consume only the rendered run stream. *)
  let b_comb = caches () and b_app = caches () and o_comb = caches () and o_app = caches () in
  let k_iso = caches () in
  let feed comb app ~with_kernel run =
    access comb run;
    match run.Run.owner with
    | Run.App -> access app run
    | Run.Kernel -> if with_kernel then access k_iso run
  in
  let _ =
    Context.measure ctx
      ~renders:
        [
          (Spike.Base, fun run -> feed b_comb b_app ~with_kernel:true run);
          (Spike.All, fun run -> feed o_comb o_app ~with_kernel:false run);
        ]
      ()
  in
  let side comb app =
    let c128 = List.assoc 128 comb in
    {
      combined = per_size comb Icache.misses;
      app_isolated = per_size app Icache.misses;
      combined_app_misses = per_size comb (fun c -> Icache.misses_of c Run.App);
      combined_kernel_misses = per_size comb (fun c -> Icache.misses_of c Run.Kernel);
      app_on_app = Icache.displaced c128 ~miss:Run.App ~victim:Run.App;
      app_on_kernel = Icache.displaced c128 ~miss:Run.App ~victim:Run.Kernel;
      kernel_on_app = Icache.displaced c128 ~miss:Run.Kernel ~victim:Run.App;
      kernel_on_kernel = Icache.displaced c128 ~miss:Run.Kernel ~victim:Run.Kernel;
      cold = Icache.cold_misses c128;
    }
  in
  {
    kernel_isolated = per_size k_iso Icache.misses;
    base = side b_comb b_app;
    optimized = side o_comb o_app;
  }

let lookup rows s = match List.assoc_opt s rows with Some v -> v | None -> 0

(* The optimized table adds each size's combined misses against the
   baseline's: the paper's 45-60% reduction at 64-128 KB. *)
let fig12_table ~id ~title ?vs r side =
  let vs_column, vs_cell =
    match vs with
    | Some base ->
        ( [ ("all_vs_base", "all vs base") ],
          fun s -> [ Table.pct (lookup side.combined s) (lookup base.combined s) ] )
    | None -> ([], fun _ -> [])
  in
  let tbl =
    Table.create ~id ~title
      ~columns:
        ([
           ("cache", "cache");
           ("all", "all (combined)");
           ("app", "app (combined)");
           ("kernel", "kernel (combined)");
           ("app_isolated", "app (isolated)");
           ("kernel_isolated", "kernel (isolated)");
         ]
        @ vs_column)
  in
  List.iter
    (fun s ->
      Fig_line_sweep.size_row tbl s
        ([
           Table.Int (lookup side.combined s);
           Table.Int (lookup side.combined_app_misses s);
           Table.Int (lookup side.combined_kernel_misses s);
           Table.Int (lookup side.app_isolated s);
           Table.Int (lookup r.kernel_isolated s);
         ]
        @ vs_cell s))
    sizes;
  tbl

let fig13_table ~id ~title side =
  let tbl =
    Table.create ~id ~title
      ~columns:[ ("stream", "missing stream"); ("app_victim", "displaced app line");
                 ("kernel_victim", "displaced kernel line"); ("cold", "cold") ]
  in
  Table.add_row tbl ~id:"app"
    [ Table.Text "application"; Table.Int side.app_on_app; Table.Int side.app_on_kernel; Table.Text "" ];
  Table.add_row tbl ~id:"kernel"
    [ Table.Text "kernel"; Table.Int side.kernel_on_app; Table.Int side.kernel_on_kernel; Table.Text "" ];
  Table.add_row tbl ~id:"both"
    [
      Table.Text "both";
      Table.Int (side.app_on_app + side.kernel_on_app);
      Table.Int (side.app_on_kernel + side.kernel_on_kernel);
      Table.Int side.cold;
    ];
  tbl

let tables r =
  let t12a =
    fig12_table ~id:"fig12a" ~title:"Fig 12a: combined app+OS misses, baseline (128B, 4-way)" r
      r.base
  in
  let t12b =
    fig12_table ~id:"fig12b" ~title:"Fig 12b: combined app+OS misses, optimized (128B, 4-way)"
      ~vs:r.base r r.optimized
  in
  Table.add_note t12b
    "paper: combined reduction 45-60% at 64-128KB vs 55-65% isolated (kernel interference constant)";
  let t13a = fig13_table ~id:"fig13a" ~title:"Fig 13a: interference at 128KB, baseline" r.base in
  let t13b = fig13_table ~id:"fig13b" ~title:"Fig 13b: interference at 128KB, optimized" r.optimized in
  Table.add_note t13b
    "paper: app misses mostly self-interference; kernel misses mostly caused by the application";
  [ t12a; t12b; t13a; t13b ]
