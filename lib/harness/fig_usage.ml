module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Spike = Olayout_core.Spike
module Histogram = Olayout_metrics.Histogram

type histo = (int * float) list

type result = {
  base_words : histo;
  opt_words : histo;
  base_reuse : histo;
  opt_reuse : histo;
  base_life : histo;
  opt_life : histo;
  base_mean_life : float;
  opt_mean_life : float;
  base_unused : int * int;
  opt_unused : int * int;
}

let fractions h =
  let total = Histogram.total h in
  List.map
    (fun (k, c) -> (k, float_of_int c /. float_of_int (max 1 total)))
    (Histogram.to_sorted_list h)

let unused_words c =
  let fetched = Icache.instrs_fetched_into_cache c in
  (fetched - Icache.words_used_total c, fetched)

let run ctx =
  let mk () =
    Icache.create ~track_usage:true (Icache.config ~size_kb:128 ~line:128 ~assoc:4 ())
  in
  let cb = mk () and co = mk () in
  let feed cache run = if run.Run.owner = Run.App then Icache.access_run cache run in
  let _ = Context.measure ctx ~renders:[ (Spike.Base, feed cb); (Spike.All, feed co) ] () in
  Icache.flush_residents cb;
  Icache.flush_residents co;
  {
    base_words = fractions (Icache.words_used_histogram cb);
    opt_words = fractions (Icache.words_used_histogram co);
    base_reuse = fractions (Icache.word_reuse_histogram cb);
    opt_reuse = fractions (Icache.word_reuse_histogram co);
    base_life = fractions (Icache.lifetime_histogram cb);
    opt_life = fractions (Icache.lifetime_histogram co);
    base_mean_life = Icache.mean_lifetime cb;
    opt_mean_life = Icache.mean_lifetime co;
    base_unused = unused_words cb;
    opt_unused = unused_words co;
  }

let histo_table ~id ~title ~key_label ~fmt_key base opt note =
  let tbl =
    Table.create ~id ~title
      ~columns:[ ("bucket", key_label); ("base", "base"); ("optimized", "optimized") ]
  in
  let keys = List.sort_uniq compare (List.map fst base @ List.map fst opt) in
  let lookup h k = match List.assoc_opt k h with Some f -> f | None -> 0.0 in
  List.iter
    (fun k ->
      Table.add_row tbl ~id:(string_of_int k)
        [ Table.Text (fmt_key k); Table.Pct (lookup base k); Table.Pct (lookup opt k) ])
    keys;
  Table.add_note tbl note;
  tbl

let tables r =
  let summary =
    Table.create ~id:"fig9_summary" ~title:"Figs 10-11: unused words and mean line lifetime"
      ~columns:[ ("metric", "metric"); ("base", "base"); ("optimized", "optimized") ]
  in
  let unused (n, d) = Table.pct n d in
  Table.add_row summary ~id:"unused"
    [ Table.Text "fetched words never used"; unused r.base_unused; unused r.opt_unused ];
  Table.add_row summary ~id:"mean_lifetime"
    [
      Table.Text "mean line lifetime (accesses)";
      Table.Fixed (0, r.base_mean_life);
      Table.Fixed (0, r.opt_mean_life);
    ];
  [
    histo_table ~id:"fig9"
      ~title:"Fig 9: unique words used per line before replacement (128KB/128B/4w)"
      ~key_label:"words" ~fmt_key:string_of_int r.base_words r.opt_words
      "paper: optimized uses the full 32-word line in >60% of replacements";
    histo_table ~id:"fig10" ~title:"Fig 10: times a word is used before replacement"
      ~key_label:"uses" ~fmt_key:(fun k -> if k >= 15 then "15+" else string_of_int k)
      r.base_reuse r.opt_reuse
      "paper: >50% of fetched words unused in base vs ~21% optimized";
    histo_table ~id:"fig11"
      ~title:"Fig 11: cache line lifetimes (log2 cache accesses before replacement)"
      ~key_label:"log2(lifetime)" ~fmt_key:string_of_int r.base_life r.opt_life
      "paper: mean lifetime more than doubles";
    summary;
  ]
