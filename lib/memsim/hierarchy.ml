module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Timeline = Olayout_telemetry.Timeline

type config = {
  l1i : Icache.config;
  l1d_size_bytes : int;
  l1d_line : int;
  l1d_assoc : int;
  l2_size_bytes : int;
  l2_line : int;
  l2_assoc : int;
  itlb_entries : int;
}

let simos_base =
  {
    l1i = Icache.config ~name:"simos-l1i" ~size_kb:64 ~line:64 ~assoc:2 ();
    l1d_size_bytes = 64 * 1024;
    l1d_line = 64;
    l1d_assoc = 2;
    l2_size_bytes = 1536 * 1024;
    l2_line = 64;
    l2_assoc = 6;
    itlb_entries = 64;
  }

(* Instruction-clock series over the fetch path, polled around each fetched
   run (no hot-path edits inside Itlb/Icache/Cache themselves). *)
type tl = {
  tl_itlb : Timeline.series;
  tl_l1i : Timeline.series;
  tl_l2i : Timeline.series;
  mutable tl_pos : int;
}

type t = { l1i : Icache.t; l1d : Cache.t; l2 : Cache.t; itlb : Itlb.t; tl : tl option }

let create ?timeline cfg =
  let l2 =
    Cache.create ~name:"l2" ~size_bytes:cfg.l2_size_bytes ~line_bytes:cfg.l2_line
      ~assoc:cfg.l2_assoc ()
  in
  (* The unified L2 is physically indexed; L1s are virtually indexed. *)
  let l1i =
    Icache.create
      ~on_miss:(fun addr -> Cache.access l2 ~kind:Cache.Instr (Phys.translate addr))
      cfg.l1i
  in
  let l1d =
    Cache.create
      ~on_miss:(fun addr -> Cache.access l2 ~kind:Cache.Data (Phys.translate addr))
      ~name:"l1d" ~size_bytes:cfg.l1d_size_bytes ~line_bytes:cfg.l1d_line
      ~assoc:cfg.l1d_assoc ()
  in
  let itlb = Itlb.create ~entries:cfg.itlb_entries () in
  let tl =
    match timeline with
    | Some prefix when Timeline.enabled () ->
        Some
          {
            tl_itlb = Timeline.series (Printf.sprintf "memsim.%s.itlb_misses" prefix);
            tl_l1i = Timeline.series (Printf.sprintf "memsim.%s.l1i_misses" prefix);
            tl_l2i = Timeline.series (Printf.sprintf "memsim.%s.l2i_misses" prefix);
            tl_pos = 0;
          }
    | _ -> None
  in
  { l1i; l1d; l2; itlb; tl }

let fetch_run t run =
  match t.tl with
  | None ->
      Itlb.access_run t.itlb run;
      Icache.access_run t.l1i run
  | Some tl ->
      let itlb0 = Itlb.misses t.itlb
      and l1i0 = Icache.misses t.l1i
      and l2i0 = Cache.misses_kind t.l2 Cache.Instr in
      Itlb.access_run t.itlb run;
      Icache.access_run t.l1i run;
      let pos = tl.tl_pos in
      Timeline.add tl.tl_itlb ~pos (Itlb.misses t.itlb - itlb0);
      Timeline.add tl.tl_l1i ~pos (Icache.misses t.l1i - l1i0);
      Timeline.add tl.tl_l2i ~pos (Cache.misses_kind t.l2 Cache.Instr - l2i0);
      tl.tl_pos <- pos + run.Run.len

let data_access t addr = Cache.access t.l1d ~kind:Cache.Data addr

let l1i t = t.l1i
let itlb t = t.itlb
let l1d_misses t = Cache.misses t.l1d
let l2_instr_misses t = Cache.misses_kind t.l2 Cache.Instr
let l2_data_misses t = Cache.misses_kind t.l2 Cache.Data
let l2_misses t = Cache.misses t.l2
let l1i_misses t = Icache.misses t.l1i
let itlb_misses t = Itlb.misses t.itlb
