(* Windowed time series over the simulated instruction clock.

   Unlike the wall-clock spans in Telemetry, a timeline series is keyed on
   *simulated instructions executed*, which is deterministic: the same
   seeded workload produces the same series byte-for-byte at any -j and
   under either sweep engine.  Producers attribute each delta or sample to
   the fixed-width window containing the position they pass in; positions
   are producer-local cumulative instruction counts, so a producer never
   needs a global clock.

   Parallel writes follow Telemetry's discipline through the shared
   [Shadow] flag and slot: writes inside a pool task land in per-task
   shadow rows, and [merge] folds them into the global registry under the
   registry mutex — called by [Telemetry.Isolated.merge] in
   task-submission order, which makes Sample (last-write-wins) windows
   deterministic too.

   The whole subsystem is off by default: [add]/[sample] start with a
   single flag check and producers are expected to skip their bookkeeping
   (miss-counter reads, position arithmetic) entirely while disabled. *)

type kind = Delta | Sample

let kind_name = function Delta -> "delta" | Sample -> "sample"

(* --- bare series ------------------------------------------------------ *)

(* Also usable standalone (Profile.Sampler keeps a private windowed view);
   the registry below wraps one per named series. *)
module Series = struct
  type t = {
    s_window : int;
    s_kind : kind;
    mutable s_vals : int array;
    mutable s_set : bool array; (* window was written (Sample carry-forward) *)
    mutable s_n : int; (* windows in use: highest written index + 1 *)
    mutable s_total : int; (* Delta only: sum of all added deltas *)
  }

  let create ?(kind = Delta) ~window () =
    if window < 1 then
      invalid_arg "Timeline.Series.create: window must be >= 1 instruction";
    { s_window = window; s_kind = kind; s_vals = [||]; s_set = [||]; s_n = 0; s_total = 0 }

  let ensure s w =
    if w >= Array.length s.s_vals then begin
      let cap = max (w + 1) (max 16 (2 * Array.length s.s_vals)) in
      let v = Array.make cap 0 and b = Array.make cap false in
      Array.blit s.s_vals 0 v 0 s.s_n;
      Array.blit s.s_set 0 b 0 s.s_n;
      s.s_vals <- v;
      s.s_set <- b
    end

  let bump s w = if w + 1 > s.s_n then s.s_n <- w + 1
  let index s pos = (if pos < 0 then 0 else pos) / s.s_window

  (* Zero deltas are skipped so a series' window count depends only on the
     positions where something actually happened — the cross-engine
     byte-identity of the artifact relies on this. *)
  let add s ~pos n =
    if n <> 0 then begin
      let w = index s pos in
      ensure s w;
      s.s_vals.(w) <- s.s_vals.(w) + n;
      s.s_set.(w) <- true;
      s.s_total <- s.s_total + n;
      bump s w
    end

  let sample s ~pos v =
    let w = index s pos in
    ensure s w;
    s.s_vals.(w) <- v;
    s.s_set.(w) <- true;
    bump s w

  let window s = s.s_window
  let kind s = s.s_kind
  let windows s = s.s_n
  let total s = s.s_total

  (* Delta: raw per-window sums (never-written windows are 0).  Sample:
     the last written value carries forward through unwritten windows, so
     a gauge-like series (working-set size) reads as a step function. *)
  let values s =
    match s.s_kind with
    | Delta -> Array.sub s.s_vals 0 s.s_n
    | Sample ->
        let out = Array.make s.s_n 0 in
        let last = ref 0 in
        for w = 0 to s.s_n - 1 do
          if s.s_set.(w) then last := s.s_vals.(w);
          out.(w) <- !last
        done;
        out

  let merge_into dst row =
    for w = 0 to row.s_n - 1 do
      if row.s_set.(w) then begin
        ensure dst w;
        dst.s_set.(w) <- true;
        (match dst.s_kind with
        | Delta -> dst.s_vals.(w) <- dst.s_vals.(w) + row.s_vals.(w)
        | Sample -> dst.s_vals.(w) <- row.s_vals.(w));
        bump dst w
      end
    done;
    if dst.s_kind = Delta then dst.s_total <- dst.s_total + row.s_total
end

(* --- registry --------------------------------------------------------- *)

type series = {
  ts_name : string;
  ts_id : int;
  ts_kind : kind;
  mutable ts_data : Series.t; (* replaced wholesale by set_window/reset *)
}

let mu = Mutex.create ()
let tbl : (string, series) Hashtbl.t = Hashtbl.create 32
let by_id : series option array ref = ref (Array.make 32 None)
let next_id = ref 0

let default_window = 65536
let window_ref = ref default_window
let window () = !window_ref

let enabled_ref = ref false
let set_enabled b = enabled_ref := b
let enabled () = !enabled_ref

let series ?(kind = Delta) name =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some s -> s
      | None ->
          let s =
            {
              ts_name = name;
              ts_id = !next_id;
              ts_kind = kind;
              ts_data = Series.create ~kind ~window:!window_ref ();
            }
          in
          next_id := !next_id + 1;
          Hashtbl.add tbl name s;
          if s.ts_id >= Array.length !by_id then begin
            let b = Array.make (2 * Array.length !by_id) None in
            Array.blit !by_id 0 b 0 (Array.length !by_id);
            by_id := b
          end;
          !by_id.(s.ts_id) <- Some s;
          s)

let series_name s = s.ts_name
let series_kind s = s.ts_kind

let clear_locked () =
  Hashtbl.iter
    (fun _ s -> s.ts_data <- Series.create ~kind:s.ts_kind ~window:!window_ref ())
    tbl

let set_window w =
  if w < 1 then invalid_arg "Timeline.set_window: window must be >= 1 instruction";
  Mutex.protect mu (fun () ->
      window_ref := w;
      clear_locked ())

let reset () = Mutex.protect mu (fun () -> clear_locked ())

(* --- domain-local shadows -------------------------------------------- *)

type shadow = { mutable rows : Series.t option array }

let make_shadow () = { rows = [||] }
let slot : shadow Shadow.slot = Shadow.slot ()
let active () = if !Shadow.parallel then Shadow.installed slot else None

let shadow_row sh (s : series) =
  if s.ts_id >= Array.length sh.rows then begin
    let b = Array.make (max (s.ts_id + 1) (max 8 (2 * Array.length sh.rows))) None in
    Array.blit sh.rows 0 b 0 (Array.length sh.rows);
    sh.rows <- b
  end;
  match sh.rows.(s.ts_id) with
  | Some r -> r
  | None ->
      let r =
        Series.create ~kind:s.ts_kind ~window:(Series.window s.ts_data) ()
      in
      sh.rows.(s.ts_id) <- Some r;
      r

let add s ~pos n =
  if !enabled_ref && n <> 0 then
    match active () with
    | None -> Series.add s.ts_data ~pos n
    | Some sh -> Series.add (shadow_row sh s) ~pos n

let sample s ~pos v =
  if !enabled_ref then
    match active () with
    | None -> Series.sample s.ts_data ~pos v
    | Some sh -> Series.sample (shadow_row sh s) ~pos v

let merge sh =
  Mutex.protect mu (fun () ->
      Array.iteri
        (fun id row ->
          match row with
          | None -> ()
          | Some row -> (
              match !by_id.(id) with
              | Some s -> Series.merge_into s.ts_data row
              | None -> ()))
        sh.rows);
  (* A snapshot merges at most once (Pool guarantees it); clearing makes
     an accidental re-merge a no-op instead of a double count. *)
  Array.fill sh.rows 0 (Array.length sh.rows) None

(* --- reporting -------------------------------------------------------- *)

type dump = {
  d_name : string;
  d_kind : kind;
  d_values : int array;
  d_total : int; (* Delta: sum of deltas; Sample: final value *)
}

let dump () =
  Mutex.protect mu (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])
  |> List.sort (fun a b -> compare a.ts_name b.ts_name)
  |> List.map (fun s ->
         let values = Series.values s.ts_data in
         let total =
           match s.ts_kind with
           | Delta -> Series.total s.ts_data
           | Sample ->
               if Array.length values = 0 then 0
               else values.(Array.length values - 1)
         in
         { d_name = s.ts_name; d_kind = s.ts_kind; d_values = values; d_total = total })

let json_values values =
  Json.Array (Array.to_list (Array.map (fun v -> Json.Int v) values))

let artifact_schema = "olayout-timeline/v1"

(* The document deliberately carries no timestamp or argv: two runs of the
   same seeded workload must produce byte-identical files (the CI legs
   [cmp] them across -j and across engines). *)
let to_json ~scale =
  Json.Object
    [
      ("schema", Json.String artifact_schema);
      ("scale", Json.String scale);
      ("window_instrs", Json.Int !window_ref);
      ( "series",
        Json.Array
          (List.map
             (fun d ->
               Json.Object
                 [
                   ("name", Json.String d.d_name);
                   ("kind", Json.String (kind_name d.d_kind));
                   ("windows", Json.Int (Array.length d.d_values));
                   ("total", Json.Int d.d_total);
                   ("values", json_values d.d_values);
                 ])
             (dump ())) );
    ]

let events () =
  dump ()
  |> List.filter (fun d -> Array.length d.d_values > 0)
  |> List.map (fun d ->
         Json.Object
           [
             ("ev", Json.String "timeline");
             ("name", Json.String d.d_name);
             ("kind", Json.String (kind_name d.d_kind));
             ("window_instrs", Json.Int !window_ref);
             ("values", json_values d.d_values);
           ])

(* --- console sparklines ----------------------------------------------- *)

(* Rendering lives in Olayout_util.Console (shared with the drift and
   relayout tables); this wrapper only maps the series kind to the
   resampling rule: Delta buckets sum their windows (total work in the
   bucket's span), Sample buckets take the max (peaks survive
   downsampling). *)
let spark kind values =
  Olayout_util.Console.spark
    (match kind with Delta -> `Sum | Sample -> `Max)
    values

let pp_summary ppf () =
  let ds = List.filter (fun d -> Array.length d.d_values > 0) (dump ()) in
  if ds <> [] then begin
    Format.fprintf ppf "@.### phase timeline (window = %d instrs)@." !window_ref;
    Format.fprintf ppf "%-36s %7s %12s  %s@." "series" "windows" "total" "";
    List.iter
      (fun d ->
        Format.fprintf ppf "%-36s %7d %12d  %s@." d.d_name (Array.length d.d_values)
          d.d_total
          (spark d.d_kind d.d_values))
      ds
  end
