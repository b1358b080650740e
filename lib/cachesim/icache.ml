module Run = Olayout_exec.Run
module Histogram = Olayout_metrics.Histogram
module Telemetry = Olayout_telemetry.Telemetry

(* Aggregated over every icache instance in the process (figure sweeps run
   dozens); per-instance numbers stay in [t].  Booked once per run. *)
let c_accesses = Telemetry.counter "cachesim.icache_accesses"
let c_misses = Telemetry.counter "cachesim.icache_misses"

type config = { name : string; size_bytes : int; line_bytes : int; assoc : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?name ~size_kb ~line ~assoc () =
  (* Catch bad geometry where the caller wrote it, not later in [create]
     (a battery or figure may build many configs before creating any). *)
  if size_kb <= 0 then
    invalid_arg (Printf.sprintf "Icache.config: size_kb must be positive (got %d)" size_kb);
  if line <= 0 then
    invalid_arg (Printf.sprintf "Icache.config: line must be positive (got %d)" line);
  if assoc < 1 then
    invalid_arg (Printf.sprintf "Icache.config: assoc must be >= 1 (got %d)" assoc);
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%dKB/%dB/%d-way" size_kb line assoc
  in
  { name; size_bytes = size_kb * 1024; line_bytes = line; assoc }

type usage = {
  words_used : Histogram.t;
  word_reuse : Histogram.t;
  lifetime : Histogram.t;
  counts : int array array;  (* per slot, per word: uses since install *)
  installed : int array;  (* slot -> clock at fill *)
  use_mask : int array;  (* slot -> bitmask of words touched since fill *)
  mutable lifetime_sum : int;
  mutable lifetime_n : int;
  mutable used_total : int;
}

type t = {
  cfg : config;
  lru : Lru.t;
  words_per_line : int;
  usage : usage option;
  prefetch_next : int;
  prefetched : bool array;  (* slot -> filled by prefetch, not yet referenced *)
  mutable prefetch_fills : int;
  mutable prefetch_hits : int;
}

let sets ~caller cfg =
  let fail msg = invalid_arg (caller ^ ": " ^ msg) in
  if not (is_pow2 cfg.size_bytes && is_pow2 cfg.line_bytes) then
    fail "size and line must be powers of two";
  if cfg.line_bytes < 4 then fail "line must hold at least one 4-byte instruction";
  if cfg.assoc < 1 || cfg.size_bytes < cfg.line_bytes * cfg.assoc then
    fail "bad associativity";
  (* Both engines map lines to sets by bit selection. *)
  let n_sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  if n_sets * cfg.line_bytes * cfg.assoc <> cfg.size_bytes || not (is_pow2 n_sets) then
    fail
      (Printf.sprintf "%s has %d / (%d x %d) sets, not a power of two" cfg.name
         cfg.size_bytes cfg.line_bytes cfg.assoc);
  n_sets

let create ?(track_usage = false) ?on_miss ?on_evict ?(prefetch_next = 0) cfg =
  let n_sets = sets ~caller:"Icache.create" cfg in
  let words_per_line = cfg.line_bytes / 4 in
  if track_usage && words_per_line > 62 then
    invalid_arg "Icache.create: usage tracking limited to <= 248-byte lines";
  let slots = n_sets * cfg.assoc in
  {
    cfg;
    lru =
      Lru.create ?on_miss ?on_evict ~accesses:c_accesses ~misses:c_misses ~first_touch:true
        ~sets:n_sets ~ways:cfg.assoc ~line_bytes:cfg.line_bytes ();
    words_per_line;
    usage =
      (if track_usage then
         Some
           {
             words_used = Histogram.create ();
             word_reuse = Histogram.create ~cap:15 ();
             lifetime = Histogram.create ();
             counts = Array.init slots (fun _ -> Array.make words_per_line 0);
             installed = Array.make slots 0;
             use_mask = Array.make slots 0;
             lifetime_sum = 0;
             lifetime_n = 0;
             used_total = 0;
           }
       else None);
    prefetch_next;
    prefetched = Array.make slots false;
    prefetch_fills = 0;
    prefetch_hits = 0;
  }

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

(* Account a line leaving the cache (replacement or final flush). *)
let retire t u slot =
  let used = popcount u.use_mask.(slot) in
  Histogram.add u.words_used used;
  u.used_total <- u.used_total + used;
  let life = t.lru.clock - u.installed.(slot) in
  Histogram.add u.lifetime (Histogram.log2_bucket life);
  u.lifetime_sum <- u.lifetime_sum + life;
  u.lifetime_n <- u.lifetime_n + 1;
  let counts = u.counts.(slot) in
  for w = 0 to t.words_per_line - 1 do
    Histogram.add u.word_reuse counts.(w);
    counts.(w) <- 0
  done

(* The core just filled [slot], on a demand miss or a prefetch.  A line
   prefetched and never demand-referenced carries no usage signal:
   retiring it would record a words_used = 0, lifetime ~ 0 entry and skew
   the Fig 9/11 fractions. *)
let filled t slot ~as_prefetch =
  (match t.usage with
  | Some u ->
      if t.lru.evicted >= 0 && not t.prefetched.(slot) then retire t u slot;
      u.installed.(slot) <- t.lru.clock;
      u.use_mask.(slot) <- 0
  | None -> ());
  t.prefetched.(slot) <- as_prefetch

(* Touch one line of a cache that tracks usage or prefetches; [w0..w1]
   are the word indices used within it. *)
let touch t owner line w0 w1 =
  let c = t.lru in
  let misses = c.misses in
  let slot = Lru.access c owner line in
  let missed = c.misses > misses in
  if missed then filled t slot ~as_prefetch:false
  else if t.prefetched.(slot) then begin
    (* A prefetched line joins the footprint on its first demand hit;
       lines first seen as prefetch hits never miss, so never count as
       cold. *)
    t.prefetched.(slot) <- false;
    t.prefetch_hits <- t.prefetch_hits + 1;
    ignore (Lru.first_reference c.seen line)
  end;
  (match t.usage with
  | Some u ->
      let counts = u.counts.(slot) in
      for w = w0 to w1 do
        counts.(w) <- counts.(w) + 1
      done;
      u.use_mask.(slot) <- u.use_mask.(slot) lor (((1 lsl (w1 - w0 + 1)) - 1) lsl w0)
  | None -> ());
  if missed then
    (* Sequential stream-buffer prefetch of the following lines. *)
    for next = 1 to t.prefetch_next do
      let slot = Lru.prefetch c owner (line + next) in
      if slot >= 0 then begin
        filled t slot ~as_prefetch:true;
        t.prefetch_fills <- t.prefetch_fills + 1
      end
    done

let access_run t (r : Run.t) =
  match t.usage with
  | None when t.prefetch_next = 0 -> Lru.access_run t.lru r
  | _ ->
      if r.len > 0 then begin
        let shift = t.lru.shift and lw = t.words_per_line in
        let first = r.addr and last = r.addr + (r.len * 4) - 1 in
        let first_line = first lsr shift and last_line = last lsr shift in
        let owner = Lru.owner_code r.owner in
        for line = first_line to last_line do
          let w0 = if line = first_line then (first lsr 2) land (lw - 1) else 0
          and w1 = if line = last_line then (last lsr 2) land (lw - 1) else lw - 1 in
          touch t owner line w0 w1
        done;
        Lru.publish t.lru
      end

let flush_residents t =
  (match t.usage with
  | Some u ->
      (* Same exclusion as replacement: a prefetched-but-never-referenced
         line contributes no usage observation. *)
      Array.iteri
        (fun slot tag -> if tag >= 0 && not t.prefetched.(slot) then retire t u slot)
        t.lru.tags
  | None -> ());
  Array.fill t.prefetched 0 (Array.length t.prefetched) false;
  Lru.clear t.lru

let cfg t = t.cfg
let lru t = t.lru
let accesses t = t.lru.clock
let misses t = t.lru.misses
let misses_of t owner = t.lru.miss_of.(Lru.owner_code owner)
let cold_misses t = t.lru.cold

let displaced t ~miss ~victim =
  t.lru.displaced.((Lru.owner_code miss * 2) + Lru.owner_code victim)

let unique_lines t = Lru.seen_count t.lru.seen
let lines_filled t = t.lru.misses + t.prefetch_fills
let instrs_fetched_into_cache t = lines_filled t * t.words_per_line

let usage_exn t =
  match t.usage with
  | Some u -> u
  | None -> invalid_arg "Icache: usage tracking not enabled"

let words_used_histogram t = (usage_exn t).words_used
let word_reuse_histogram t = (usage_exn t).word_reuse
let lifetime_histogram t = (usage_exn t).lifetime

let mean_lifetime t =
  let u = usage_exn t in
  if u.lifetime_n = 0 then 0.0
  else float_of_int u.lifetime_sum /. float_of_int u.lifetime_n

let words_used_total t = (usage_exn t).used_total

let prefetch_fills t = t.prefetch_fills
let prefetch_hits t = t.prefetch_hits
