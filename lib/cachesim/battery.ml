module Trace = Olayout_exec.Trace
module Run = Olayout_exec.Run
module Timeline = Olayout_telemetry.Timeline

type engine = [ `Icache | `Stackdist ]

(* Two interchangeable backends over the same configuration list: an array
   of full per-config simulators, or one grouped stack-distance simulation
   whose miss counts are byte-identical (both are exact per-set LRU; the
   cross-engine CI leg enforces the equality). *)
type backend = Caches of Icache.t array | Stack of Stackdist.t

(* Timeline designation: one configuration whose cumulative miss count is
   polled around every fed run, the delta attributed to the window holding
   the run's start position.  Per-run deltas are equal under both engines
   (exact per-set LRU each), so the resulting series is engine-agnostic. *)
type tl_probe = P_cache of Icache.t | P_stack of Stackdist.probe

type tl = {
  tl_misses : Timeline.series;
  tl_accesses : Timeline.series;
  tl_probe : tl_probe;
  tl_shift : int; (* log2 line_bytes of the designated configuration *)
  mutable tl_pos : int; (* cumulative fed instructions *)
}

type t = { engine : engine; backend : backend; tl : tl option }

let engine_name = function `Icache -> "icache" | `Stackdist -> "stackdist"

let designate backend (name, prefix) =
  let tl_misses = Timeline.series (Printf.sprintf "cachesim.%s.misses" prefix) in
  let tl_accesses = Timeline.series (Printf.sprintf "cachesim.%s.accesses" prefix) in
  match backend with
  | Caches caches -> (
      match
        Array.find_opt (fun c -> String.equal (Icache.cfg c).Icache.name name) caches
      with
      | Some c ->
          {
            tl_misses;
            tl_accesses;
            tl_probe = P_cache c;
            tl_shift = (Icache.lru c).Lru.shift;
            tl_pos = 0;
          }
      | None ->
          invalid_arg
            (Printf.sprintf "Battery.create: no cache configuration %S to designate" name))
  | Stack sd ->
      let p = Stackdist.probe sd name in
      {
        tl_misses;
        tl_accesses;
        tl_probe = P_stack p;
        tl_shift = Stackdist.probe_line_shift p;
        tl_pos = 0;
      }

let create ?(engine = `Icache) ?track_usage ?timeline configs =
  let backend =
    match engine with
    | `Icache -> Caches (Array.of_list (List.map (Icache.create ?track_usage) configs))
    | `Stackdist ->
        if track_usage = Some true then
          invalid_arg
            "Battery.create: usage tracking needs per-line state the stackdist \
             engine does not keep; use ~engine:`Icache";
        Stack (Stackdist.create configs)
  in
  let tl =
    match timeline with
    | Some d when Timeline.enabled () -> Some (designate backend d)
    | _ -> None
  in
  { engine; backend; tl }

let engine t = t.engine

let tl_misses_now tl =
  match tl.tl_probe with
  | P_cache c -> Icache.misses c
  | P_stack p -> Stackdist.probe_misses p

let tl_lines tl (run : Run.t) =
  if run.len <= 0 then 0
  else ((run.addr + (run.len * 4) - 1) lsr tl.tl_shift) - (run.addr lsr tl.tl_shift) + 1

(* Attribute the designated configuration's miss delta since [before] and
   the run's line touches to the window holding the run's start. *)
let book tl run before =
  let pos = tl.tl_pos in
  Timeline.add tl.tl_misses ~pos (tl_misses_now tl - before);
  Timeline.add tl.tl_accesses ~pos (tl_lines tl run);
  tl.tl_pos <- pos + run.Run.len

let feed_all t run =
  match t.backend with
  | Caches caches -> Array.iter (fun c -> Icache.access_run c run) caches
  | Stack sd -> Stackdist.access_run sd run

let access_run t run =
  match t.tl with
  | None -> feed_all t run
  | Some tl ->
      let before = tl_misses_now tl in
      feed_all t run;
      book tl run before

(* One pass over the trace with the backend resolved once: stackdist
   groups book their counters while fed and publish them once, at the
   end. *)
let access_trace ?(keep = fun (_ : Run.t) -> true) t trace =
  let feed =
    match t.backend with
    | Caches caches ->
        fun run ->
          for i = 0 to Array.length caches - 1 do
            Icache.access_run caches.(i) run
          done
    | Stack sd -> Stackdist.feed sd
  in
  (match t.tl with
  | None -> Trace.replay trace (fun run -> if keep run then feed run)
  | Some tl ->
      Trace.replay trace (fun run ->
          if keep run then begin
            let before = tl_misses_now tl in
            feed run;
            book tl run before
          end));
  match t.backend with Stack sd -> Stackdist.publish sd | Caches _ -> ()

let flush_residents t =
  match t.backend with
  | Caches caches -> Array.iter Icache.flush_residents caches
  | Stack _ -> ()  (* no per-line residency state to retire *)

let caches_exn t what =
  match t.backend with
  | Caches caches -> caches
  | Stack _ ->
      invalid_arg
        (Printf.sprintf
           "Battery.%s: the stackdist engine keeps no per-config caches (use \
            misses/misses_by_config, or ~engine:`Icache)"
           what)

let caches t = Array.to_list (caches_exn t "caches")

let find t name =
  let caches = caches_exn t "find" in
  match
    Array.find_opt (fun c -> String.equal (Icache.cfg c).Icache.name name) caches
  with
  | Some c -> c
  | None ->
      let available =
        Array.to_list caches
        |> List.map (fun c -> (Icache.cfg c).Icache.name)
        |> String.concat ", "
      in
      invalid_arg
        (Printf.sprintf "Battery.find: no cache configuration %S (available: %s)" name
           (if available = "" then "none" else available))

let misses t name =
  match t.backend with
  | Caches _ -> Icache.misses (find t name)
  | Stack sd -> Stackdist.misses sd name

let cold_misses t name =
  match t.backend with
  | Caches _ -> Icache.cold_misses (find t name)
  | Stack sd -> Stackdist.cold_misses sd name

let misses_by_config t =
  match t.backend with
  | Caches caches ->
      Array.to_list (Array.map (fun c -> (Icache.cfg c, Icache.misses c)) caches)
  | Stack sd -> Stackdist.misses_by_config sd
