(* Process-wide instrumentation: hierarchical spans, a registry of
   counters/gauges/histograms, and pluggable sinks (JSONL event stream,
   console summary; the bench summary artifact lives in Bench_artifact).

   Design constraints (see telemetry.mli):
   - counters are plain mutable ints behind handles resolved once at module
     init, so hot paths (per fetch run, per cache access) pay one memory
     increment and nothing else on the serial path;
   - spans are coarse (per figure, per optimizer pass, per replay batch) and
     have a disabled path that is a direct tail call to the thunk;
   - under a Domain pool ([Shadow.parallel]), instruments written inside
     {!Isolated.capture} accumulate into a domain-local shadow registry
     (dense arrays indexed by handle id), merged into the global registry
     deterministically — in submission order, names sorted within each
     snapshot — so parallel runs reproduce serial counter values exactly. *)

let t0 = Unix.gettimeofday ()
let now_rel () = Unix.gettimeofday () -. t0

let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* --- registry -------------------------------------------------------- *)

type counter = { c_name : string; c_id : int; mutable c_value : int }
type gauge = { g_name : string; g_id : int; mutable g_value : float }

(* Buckets are powers of two: bucket 0 holds values <= 0, bucket i >= 1
   holds values in [2^(i-1), 2^i). *)
type histogram = { h_name : string; h_id : int; h_buckets : int array }

let max_buckets = 63
let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

(* Guards every registry-table access (find-or-register, snapshot, merge).
   Handle *use* (incr/add/observe) never touches the tables, so the mutex
   is only taken at registration and reporting frequency, not per event. *)
let registry_mu = Mutex.create ()

let next_counter_id = ref 0
let next_gauge_id = ref 0
let next_histogram_id = ref 0

(* --- domain-local shadow registries ---------------------------------- *)

type span_agg = { mutable a_count : int; mutable a_total : float; mutable a_max : float }

(* A shadow accumulates every instrument write made inside one pool task.
   Counters/gauges/histograms are dense arrays indexed by handle id (O(1)
   on the worker hot path, no hashing); spans aggregate by path with the
   task's own stack seeded from the dispatcher; JSONL events are buffered
   and flushed at merge so the sink stays ordered. *)
type shadow = {
  mutable sc : int array;
  mutable sg_val : float array;
  mutable sg_set : bool array;
  mutable sh : int array array;
  s_spans : (string, span_agg) Hashtbl.t;
  mutable s_stack : string list;
  mutable s_events : Json.t list; (* reversed *)
  s_tl : Timeline.shadow; (* instruction-clock series, merged alongside *)
  s_pv : Provenance.shadow; (* layout-decision events, merged alongside *)
}

let make_shadow stack =
  {
    sc = [||];
    sg_val = [||];
    sg_set = [||];
    sh = [||];
    s_spans = Hashtbl.create 16;
    s_stack = stack;
    s_events = [];
    s_tl = Timeline.make_shadow ();
    s_pv = Provenance.make_shadow ();
  }

(* The parallel flag is one ref read before the slot lookup, so the
   serial fast path is a single load. *)
let slot : shadow Shadow.slot = Shadow.slot ()
let shadow () = if !Shadow.parallel then Shadow.installed slot else None
let in_isolated () = shadow () <> None

let grow_int a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a n =
  let b = Array.make (max n (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bool a n =
  let b = Array.make (max n (2 * Array.length a)) false in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_rows a n =
  let b = Array.make (max n (2 * Array.length a)) [||] in
  Array.blit a 0 b 0 (Array.length a);
  b

let shadow_add_counter s id n =
  if id >= Array.length s.sc then s.sc <- grow_int s.sc (id + 1);
  s.sc.(id) <- s.sc.(id) + n

let shadow_gauge_slot s id =
  if id >= Array.length s.sg_val then begin
    s.sg_val <- grow_float s.sg_val (id + 1);
    s.sg_set <- grow_bool s.sg_set (id + 1)
  end

let shadow_hist_row s id =
  if id >= Array.length s.sh then s.sh <- grow_rows s.sh (id + 1);
  if Array.length s.sh.(id) = 0 then s.sh.(id) <- Array.make max_buckets 0;
  s.sh.(id)

(* --- instruments ----------------------------------------------------- *)

let counter name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_id = !next_counter_id; c_value = 0 } in
          next_counter_id := !next_counter_id + 1;
          Hashtbl.add counters_tbl name c;
          c)

let incr c =
  match shadow () with
  | None -> c.c_value <- c.c_value + 1
  | Some s -> shadow_add_counter s c.c_id 1

let add c n =
  match shadow () with
  | None -> c.c_value <- c.c_value + n
  | Some s -> shadow_add_counter s c.c_id n

let value c = c.c_value
let counter_name c = c.c_name

let gauge name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt gauges_tbl name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_id = !next_gauge_id; g_value = 0.0 } in
          next_gauge_id := !next_gauge_id + 1;
          Hashtbl.add gauges_tbl name g;
          g)

let set_gauge g v =
  match shadow () with
  | None -> g.g_value <- v
  | Some s ->
      shadow_gauge_slot s g.g_id;
      s.sg_val.(g.g_id) <- v;
      s.sg_set.(g.g_id) <- true

let add_gauge g v =
  match shadow () with
  | None -> g.g_value <- g.g_value +. v
  | Some s ->
      shadow_gauge_slot s g.g_id;
      s.sg_val.(g.g_id) <- s.sg_val.(g.g_id) +. v

let gauge_value g = g.g_value

let histogram name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt histograms_tbl name with
      | Some h -> h
      | None ->
          let h =
            { h_name = name; h_id = !next_histogram_id; h_buckets = Array.make max_buckets 0 }
          in
          next_histogram_id := !next_histogram_id + 1;
          Hashtbl.add histograms_tbl name h;
          h)

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* number of significant bits: 1 -> 1; 2,3 -> 2; 4..7 -> 3; ... *)
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    let b = bits v 0 and top = max_buckets - 1 in
    if b < top then b else top
  end

let observe h v =
  let b = bucket_of v in
  match shadow () with
  | None -> h.h_buckets.(b) <- h.h_buckets.(b) + 1
  | Some s ->
      let row = shadow_hist_row s h.h_id in
      row.(b) <- row.(b) + 1

type tally = int array

let tally () = Array.make max_buckets 0

let publish_tally h t =
  let dst = match shadow () with None -> h.h_buckets | Some s -> shadow_hist_row s h.h_id in
  Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) t;
  Array.fill t 0 max_buckets 0

let bucket_lower i = if i = 0 then 0 else 1 lsl (i - 1)

let histogram_buckets h =
  let acc = ref [] in
  for i = max_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then acc := (bucket_lower i, h.h_buckets.(i)) :: !acc
  done;
  !acc

let by_name name_of tbl =
  Mutex.protect registry_mu (fun () -> Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
  |> List.sort (fun a b -> compare (name_of a) (name_of b))

let counters () =
  by_name (fun c -> c.c_name) counters_tbl |> List.map (fun c -> (c.c_name, c.c_value))

let gauges () =
  by_name (fun g -> g.g_name) gauges_tbl |> List.map (fun g -> (g.g_name, g.g_value))

let histograms () =
  by_name (fun h -> h.h_name) histograms_tbl
  |> List.map (fun h -> (h.h_name, histogram_buckets h))

(* --- JSONL sink ------------------------------------------------------ *)

let jsonl : out_channel option ref = ref None
let jsonl_mu = Mutex.create ()

let jsonl_write j =
  match !jsonl with
  | None -> ()
  | Some oc ->
      Mutex.protect jsonl_mu (fun () ->
          Json.output oc j;
          output_char oc '\n')

(* Inside a pool task, events are buffered in the shadow and flushed (in
   order) when the snapshot is merged, so the sink sees one contiguous,
   deterministic block per task instead of interleaved domain writes. *)
let jsonl_emit j =
  if !jsonl <> None then
    match shadow () with
    | None -> jsonl_write j
    | Some s -> s.s_events <- j :: s.s_events

(* --- watched instruments --------------------------------------------- *)

(* Counters and gauges named here are sampled into the JSONL stream at
   every span completion ({"ev":"sample",...} lines), giving external
   viewers (the Chrome-trace export) a value-over-time track instead of
   only the final registry dump. *)

let watched_counters : counter list ref = ref []
let watched_gauges : gauge list ref = ref []

let watch_counter c =
  if not (List.memq c !watched_counters) then watched_counters := !watched_counters @ [ c ]

let watch_gauge g =
  if not (List.memq g !watched_gauges) then watched_gauges := !watched_gauges @ [ g ]

let emit_samples t =
  (* Samples read live global registry values; inside a pool task those are
     another domain's partial state, so sampling is main-domain-only. *)
  if !jsonl <> None && not (in_isolated ()) then begin
    List.iter
      (fun c ->
        jsonl_emit
          (Json.Object
             [
               ("ev", Json.String "sample");
               ("t_s", Json.Float t);
               ("name", Json.String c.c_name);
               ("value", Json.Int c.c_value);
             ]))
      !watched_counters;
    List.iter
      (fun g ->
        jsonl_emit
          (Json.Object
             [
               ("ev", Json.String "sample");
               ("t_s", Json.Float t);
               ("name", Json.String g.g_name);
               ("value", Json.Float g.g_value);
             ]))
      !watched_gauges
  end

(* --- spans ----------------------------------------------------------- *)

let spans_tbl : (string, span_agg) Hashtbl.t = Hashtbl.create 64
let span_stack : string list ref = ref []

let stack_get () = match shadow () with Some s -> s.s_stack | None -> !span_stack

let stack_set st =
  match shadow () with Some s -> s.s_stack <- st | None -> span_stack := st

type span_stat = {
  span_path : string;
  span_count : int;
  span_total_s : float;
  span_max_s : float;
}

let span_stats () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.fold
        (fun path a acc ->
          {
            span_path = path;
            span_count = a.a_count;
            span_total_s = a.a_total;
            span_max_s = a.a_max;
          }
          :: acc)
        spans_tbl [])
  |> List.sort (fun a b -> compare a.span_path b.span_path)

let agg_into tbl path dur =
  let a =
    match Hashtbl.find_opt tbl path with
    | Some a -> a
    | None ->
        let a = { a_count = 0; a_total = 0.0; a_max = 0.0 } in
        Hashtbl.add tbl path a;
        a
  in
  a.a_count <- a.a_count + 1;
  a.a_total <- a.a_total +. dur;
  if dur > a.a_max then a.a_max <- dur

let record_span ~path ~name ~depth ~start ~dur =
  (match shadow () with
  | None -> Mutex.protect registry_mu (fun () -> agg_into spans_tbl path dur)
  | Some s -> agg_into s.s_spans path dur);
  (* The event is built only for a sink to write. *)
  if !jsonl <> None then begin
    jsonl_emit
      (Json.Object
         [
           ("ev", Json.String "span");
           ("name", Json.String name);
           ("path", Json.String path);
           ("depth", Json.Int depth);
           ("start_s", Json.Float start);
           ("dur_s", Json.Float dur);
         ]);
    emit_samples (start +. dur)
  end

let timed name f =
  if not !enabled_flag then begin
    let t = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t)
  end
  else begin
    let st = stack_get () in
    let depth = List.length st in
    let path = match st with [] -> name | p :: _ -> p ^ "/" ^ name in
    stack_set (path :: st);
    let start = now_rel () in
    let finish () =
      (match stack_get () with _ :: rest -> stack_set rest | [] -> ());
      let dur = now_rel () -. start in
      record_span ~path ~name ~depth ~start ~dur;
      dur
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
        ignore (finish ());
        raise e
  end

let span name f = if not !enabled_flag then f () else fst (timed name f)

let add_span name dur =
  if !enabled_flag then begin
    let st = stack_get () in
    let path = match st with [] -> name | p :: _ -> p ^ "/" ^ name in
    record_span ~path ~name ~depth:(List.length st) ~start:(now_rel () -. dur) ~dur
  end

let current_span_stack () = stack_get ()

(* --- isolated capture & deterministic merge -------------------------- *)

module Isolated = struct
  type snapshot = shadow

  let capture ~inherit_spans f =
    let s = make_shadow inherit_spans in
    let v =
      Shadow.within slot s (fun () ->
          Shadow.within Timeline.slot s.s_tl (fun () ->
              Shadow.within Provenance.slot s.s_pv f))
    in
    (v, s)

  let sorted_handles name_of tbl =
    Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
    |> List.sort (fun a b -> compare (name_of a) (name_of b))

  let merge (s : snapshot) =
    Mutex.protect registry_mu (fun () ->
        List.iter
          (fun c ->
            if c.c_id < Array.length s.sc && s.sc.(c.c_id) <> 0 then
              c.c_value <- c.c_value + s.sc.(c.c_id))
          (sorted_handles (fun c -> c.c_name) counters_tbl);
        List.iter
          (fun g ->
            if g.g_id < Array.length s.sg_val then begin
              if s.sg_set.(g.g_id) then g.g_value <- s.sg_val.(g.g_id)
              else if s.sg_val.(g.g_id) <> 0.0 then
                g.g_value <- g.g_value +. s.sg_val.(g.g_id)
            end)
          (sorted_handles (fun g -> g.g_name) gauges_tbl);
        List.iter
          (fun h ->
            if h.h_id < Array.length s.sh && Array.length s.sh.(h.h_id) > 0 then
              let row = s.sh.(h.h_id) in
              for i = 0 to max_buckets - 1 do
                h.h_buckets.(i) <- h.h_buckets.(i) + row.(i)
              done)
          (sorted_handles (fun h -> h.h_name) histograms_tbl);
        Hashtbl.fold (fun path a acc -> (path, a) :: acc) s.s_spans []
        |> List.sort (fun (p, _) (q, _) -> compare p q)
        |> List.iter (fun (path, a) ->
               let g =
                 match Hashtbl.find_opt spans_tbl path with
                 | Some g -> g
                 | None ->
                     let g = { a_count = 0; a_total = 0.0; a_max = 0.0 } in
                     Hashtbl.add spans_tbl path g;
                     g
               in
               g.a_count <- g.a_count + a.a_count;
               g.a_total <- g.a_total +. a.a_total;
               if a.a_max > g.a_max then g.a_max <- a.a_max));
    Timeline.merge s.s_tl;
    Provenance.merge s.s_pv;
    List.iter jsonl_write (List.rev s.s_events);
    s.s_events <- []

  let find_counter_id name =
    Mutex.protect registry_mu (fun () ->
        Option.map (fun c -> c.c_id) (Hashtbl.find_opt counters_tbl name))

  let find_gauge_id name =
    Mutex.protect registry_mu (fun () ->
        Option.map (fun g -> g.g_id) (Hashtbl.find_opt gauges_tbl name))

  let snap_counter s name =
    match find_counter_id name with
    | Some id when id < Array.length s.sc -> s.sc.(id)
    | _ -> 0

  let snap_gauge s name =
    match find_gauge_id name with
    | Some id when id < Array.length s.sg_val -> s.sg_val.(id)
    | _ -> 0.0
end

(* --- lifecycle ------------------------------------------------------- *)

let reset () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.iter (fun _ c -> c.c_value <- 0) counters_tbl;
      Hashtbl.iter (fun _ g -> g.g_value <- 0.0) gauges_tbl;
      Hashtbl.iter (fun _ h -> Array.fill h.h_buckets 0 max_buckets 0) histograms_tbl;
      Hashtbl.reset spans_tbl);
  span_stack := []

let open_jsonl_file path =
  (match !jsonl with Some oc -> close_out oc | None -> ());
  let oc = open_out path in
  jsonl := Some oc;
  jsonl_emit
    (Json.Object
       [
         ("ev", Json.String "meta");
         ("schema", Json.String "olayout-telemetry/v1");
         ("unix_time", Json.Float (Unix.gettimeofday ()));
       ])

let close_jsonl () =
  match !jsonl with
  | None -> ()
  | Some oc ->
      (* Watched instruments normally sample at span completion only, which
         leaves their value-over-time tracks ending at the last span — emit
         one final sample so the Chrome counter tracks cover the whole
         run. *)
      emit_samples (now_rel ());
      (* Instruction-clock series, ahead of the registry dump so readers
         that stop at the first counter event still see them. *)
      List.iter jsonl_emit (Timeline.events ());
      (* Layout-decision events (the Chrome-trace export renders the
         placement ones as per-procedure address-space spans). *)
      List.iter jsonl_emit (Provenance.events_json ());
      (* Final registry dump so a JSONL stream is self-contained. *)
      List.iter
        (fun (n, v) ->
          jsonl_emit
            (Json.Object
               [ ("ev", Json.String "counter"); ("name", Json.String n); ("value", Json.Int v) ]))
        (counters ());
      List.iter
        (fun (n, v) ->
          jsonl_emit
            (Json.Object
               [ ("ev", Json.String "gauge"); ("name", Json.String n); ("value", Json.Float v) ]))
        (gauges ());
      List.iter
        (fun (n, buckets) ->
          jsonl_emit
            (Json.Object
               [
                 ("ev", Json.String "histogram");
                 ("name", Json.String n);
                 ( "buckets",
                   Json.Array
                     (List.map
                        (fun (lower, count) ->
                          Json.Object [ ("ge", Json.Int lower); ("count", Json.Int count) ])
                        buckets) );
               ]))
        (histograms ());
      List.iter
        (fun s ->
          jsonl_emit
            (Json.Object
               [
                 ("ev", Json.String "span_summary");
                 ("path", Json.String s.span_path);
                 ("count", Json.Int s.span_count);
                 ("total_s", Json.Float s.span_total_s);
                 ("max_s", Json.Float s.span_max_s);
               ]))
        (span_stats ());
      jsonl := None;
      close_out oc

(* --- console summary sink -------------------------------------------- *)

let pp_summary ppf () =
  let spans = span_stats () in
  Format.fprintf ppf "@.### telemetry summary@.";
  if spans <> [] then begin
    Format.fprintf ppf "%-52s %8s %10s %10s %10s@." "span" "count" "total s" "mean ms"
      "max ms";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-52s %8d %10.3f %10.3f %10.3f@." s.span_path s.span_count
          s.span_total_s
          (1000.0 *. s.span_total_s /. float_of_int (max 1 s.span_count))
          (1000.0 *. s.span_max_s))
      spans
  end;
  let cs = counters () in
  if cs <> [] then begin
    Format.fprintf ppf "@.%-52s %20s@." "counter" "value";
    List.iter
      (fun (n, v) ->
        if v <> 0 then Format.fprintf ppf "%-52s %20d@." n v)
      cs
  end;
  let gs = gauges () in
  if gs <> [] then begin
    Format.fprintf ppf "@.%-52s %20s@." "gauge" "value";
    List.iter (fun (n, v) -> Format.fprintf ppf "%-52s %20.6g@." n v) gs
  end;
  List.iter
    (fun (n, buckets) ->
      if buckets <> [] then begin
        Format.fprintf ppf "@.histogram %s (bucket floor: count):@.  " n;
        List.iter (fun (lower, count) -> Format.fprintf ppf "%d:%d " lower count) buckets;
        Format.fprintf ppf "@."
      end)
    (histograms ())
