(* The layout scorecard: join the three observability sources around one
   procedure —

   - the Provenance decision log (what each pass chose and why),
   - Placement address deltas (where the procedure moved, opt vs base),
   - Diag per-segment miss attribution (what the move cost or saved) —

   into one row per application procedure, ranked by "layout regret"
   (optimized misses minus base misses: positive means the layout decision
   correlates with *worse* locality for that procedure).

   Everything here is pure data-shuffling over deterministic inputs, so
   the JSON document is byte-identical at any -j and under either sweep
   engine — the harness writes it as the olayout-explain/v1 artifact and
   CI cmp's the legs. *)

module Placement = Olayout_core.Placement
module Diag = Olayout_diag.Diag
module Run = Olayout_exec.Run
module Provenance = Olayout_telemetry.Provenance
module Json = Olayout_telemetry.Json
open Olayout_ir

type row = {
  sc_proc : int;
  sc_name : string;
  sc_rank : int;  (* placement rank of the proc's first segment; -1 unknown *)
  sc_base_addr : int;
  sc_opt_addr : int;
  sc_moved_bytes : int;
  sc_base_misses : int;
  sc_opt_misses : int;
  sc_regret : int;
  sc_base_conflict : int;
  sc_opt_conflict : int;
  sc_partner : string option;
  sc_partner_evictions : int;
  sc_decisions : int;
  sc_rationale : string;
}

(* Diag charges misses to resolver segment names: the application
   placement is first in the resolver list (unprefixed), kernel segments
   carry a "<progname>/" prefix, and split procedures appear as
   "name#k".  Reverse the scheme: unprefixed names (suffix stripped) map
   back to application procedure ids. *)
let proc_of_seg_name prog name =
  if String.contains name '/' then None
  else
    let base =
      match String.index_opt name '#' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    Option.map (fun (p : Proc.t) -> p.Proc.id) (Prog.find_proc prog base)

(* Per-proc (misses, conflict) sums over the app-owned segment rows. *)
let attribute prog diag =
  let n = Prog.n_procs prog in
  let misses = Array.make n 0 and conflict = Array.make n 0 in
  List.iter
    (fun (r : Diag.seg_row) ->
      if r.Diag.seg_owner = Some Run.App then
        match proc_of_seg_name prog r.Diag.seg_name with
        | Some pid ->
            misses.(pid) <- misses.(pid) + r.Diag.seg_misses;
            conflict.(pid) <- conflict.(pid) + r.Diag.seg_conflict
        | None -> ())
    (Diag.by_segment diag);
  (misses, conflict)

(* The hottest conflict pair touching each proc under the base layout:
   conflict_pairs is already sorted by descending count, so the first hit
   per proc is the headline partner a layout fix should separate. *)
let partners prog diag =
  let n = Prog.n_procs prog in
  let partner = Array.make n None in
  List.iter
    (fun (p : Diag.conflict_pair) ->
      let note name other count =
        match proc_of_seg_name prog name with
        | Some pid when partner.(pid) = None -> partner.(pid) <- Some (other, count)
        | _ -> ()
      in
      note p.Diag.cp_evictor p.Diag.cp_victim p.Diag.cp_count;
      note p.Diag.cp_victim p.Diag.cp_evictor p.Diag.cp_count)
    (Diag.conflict_pairs diag);
  partner

let fmt_weight w =
  if Float.is_integer w then Printf.sprintf "%.0f" w else Printf.sprintf "%.1f" w

(* One compact clause per pass, pipeline order, from the proc's events.
   [self] is the subject procedure: merges between a procedure's own
   split segments are real decisions but say nothing about neighbors, so
   the merge clause prefers the heaviest cross-procedure partner. *)
let rationale_of prog ~self events =
  let find pass = List.filter (fun e -> e.Provenance.pv_pass = pass) events in
  let clauses = ref [] in
  let say fmt = Printf.ksprintf (fun s -> clauses := s :: !clauses) fmt in
  (match find "chaining" with
  | e :: _ ->
      (match (Provenance.int_field e "chains", Provenance.int_field e "atoms") with
      | Some c, Some a -> say "%d chains from %d atoms" c a
      | _ -> ())
  | [] -> ());
  (match find "splitting" with
  | e :: _ -> (
      match Provenance.int_field e "segments" with
      | Some s -> say "%d segments cut" s
      | None -> ())
  | [] -> ());
  List.iter
    (fun pass ->
      let all_merges =
        List.filter_map
          (fun e ->
            match
              (Provenance.int_field e "partner", Provenance.float_field e "weight")
            with
            | Some p, Some w -> Some (p, w)
            | _ -> None)
          (find pass)
      in
      let merges =
        match List.filter (fun (p, _) -> p <> self) all_merges with
        | [] -> all_merges
        | cross -> cross
      in
      match
        List.fold_left
          (fun acc (p, w) ->
            match acc with Some (_, bw) when bw >= w -> acc | _ -> Some (p, w))
          None merges
      with
      | Some (p, w) when p = self ->
          say "%s its own split segments (w %s)"
            (if pass = "temporal_order" then "temporal-merged" else "merged")
            (fmt_weight w)
      | Some (p, w) ->
          say "%s beside %s (w %s)"
            (if pass = "temporal_order" then "temporal-merged" else "merged")
            (Prog.proc prog p).Proc.name (fmt_weight w)
      | None -> ())
    [ "pettis_hansen"; "temporal_order" ];
  (match find "coloring" with
  | e :: _ -> (
      match
        (Provenance.int_field e "color", Provenance.int_field e "gap_lines")
      with
      | Some c, Some g -> say "colored line %d (gap %d)" c g
      | _ -> ())
  | [] -> ());
  (match find "placement" with
  | e :: _ -> (
      match Provenance.int_field e "rank" with
      | Some r -> say "placed rank %d" r
      | None -> ())
  | [] -> ());
  match List.rev !clauses with
  | [] -> "no recorded decision (untouched by the passes)"
  | cs -> String.concat "; " cs

let build ~prog ~combo ~base ~opt ~events ~base_diag ~opt_diag () =
  let n = Prog.n_procs prog in
  let by_proc = Array.make n [] in
  List.iter
    (fun (e : Provenance.event) ->
      let keep =
        (* Placement events from other combos (e.g. a Base capture) would
           double-label ranks; everything else is combo-agnostic. *)
        e.Provenance.pv_pass <> "placement"
        || Provenance.string_field e "combo" = Some combo
      in
      if keep && e.Provenance.pv_subject >= 0 && e.Provenance.pv_subject < n then
        by_proc.(e.Provenance.pv_subject) <-
          e :: by_proc.(e.Provenance.pv_subject))
    events;
  Array.iteri (fun i evs -> by_proc.(i) <- List.rev evs) by_proc;
  let base_misses, base_conflict = attribute prog base_diag in
  let opt_misses, opt_conflict = attribute prog opt_diag in
  let partner = partners prog base_diag in
  let rows = ref [] in
  for pid = 0 to n - 1 do
    (* Only procedures the measured stream actually touched score: a
       never-fetched procedure has no locality to regress. *)
    if base_misses.(pid) > 0 || opt_misses.(pid) > 0 then begin
      let p = Prog.proc prog pid in
      let entry_addr pl = Placement.block_addr pl ~proc:pid ~block:p.Proc.entry in
      let events = by_proc.(pid) in
      let rank =
        match
          List.find_opt (fun e -> e.Provenance.pv_pass = "placement") events
        with
        | Some e -> Option.value ~default:(-1) (Provenance.int_field e "rank")
        | None -> -1
      in
      let b = entry_addr base and o = entry_addr opt in
      rows :=
        {
          sc_proc = pid;
          sc_name = p.Proc.name;
          sc_rank = rank;
          sc_base_addr = b;
          sc_opt_addr = o;
          sc_moved_bytes = o - b;
          sc_base_misses = base_misses.(pid);
          sc_opt_misses = opt_misses.(pid);
          sc_regret = opt_misses.(pid) - base_misses.(pid);
          sc_base_conflict = base_conflict.(pid);
          sc_opt_conflict = opt_conflict.(pid);
          sc_partner = Option.map fst partner.(pid);
          sc_partner_evictions =
            (match partner.(pid) with Some (_, c) -> c | None -> 0);
          sc_decisions = List.length events;
          sc_rationale = rationale_of prog ~self:pid events;
        }
        :: !rows
    end
  done;
  (* Regret rank: worst decisions first; ties by miss volume then name so
     the order (and the artifact bytes) never depend on evaluation
     order. *)
  List.sort
    (fun r1 r2 ->
      match compare r2.sc_regret r1.sc_regret with
      | 0 -> (
          match compare r2.sc_opt_misses r1.sc_opt_misses with
          | 0 -> compare r1.sc_name r2.sc_name
          | c -> c)
      | c -> c)
    !rows

type summary = {
  sm_procs : int;
  sm_moved : int;  (* procs whose entry address changed *)
  sm_regressed : int;  (* regret > 0 *)
  sm_improved : int;  (* regret < 0 *)
  sm_base_misses : int;
  sm_opt_misses : int;
  sm_decisions : int;
}

let summarize rows =
  List.fold_left
    (fun s r ->
      {
        sm_procs = s.sm_procs + 1;
        sm_moved = (s.sm_moved + if r.sc_moved_bytes <> 0 then 1 else 0);
        sm_regressed = (s.sm_regressed + if r.sc_regret > 0 then 1 else 0);
        sm_improved = (s.sm_improved + if r.sc_regret < 0 then 1 else 0);
        sm_base_misses = s.sm_base_misses + r.sc_base_misses;
        sm_opt_misses = s.sm_opt_misses + r.sc_opt_misses;
        sm_decisions = s.sm_decisions + r.sc_decisions;
      })
    {
      sm_procs = 0;
      sm_moved = 0;
      sm_regressed = 0;
      sm_improved = 0;
      sm_base_misses = 0;
      sm_opt_misses = 0;
      sm_decisions = 0;
    }
    rows

let row_json r =
  Json.Object
    [
      ("name", Json.String r.sc_name);
      ("proc", Json.Int r.sc_proc);
      ("rank", Json.Int r.sc_rank);
      ("base_addr", Json.Int r.sc_base_addr);
      ("opt_addr", Json.Int r.sc_opt_addr);
      ("moved_bytes", Json.Int r.sc_moved_bytes);
      ("base_misses", Json.Int r.sc_base_misses);
      ("opt_misses", Json.Int r.sc_opt_misses);
      ("regret", Json.Int r.sc_regret);
      ("base_conflict", Json.Int r.sc_base_conflict);
      ("opt_conflict", Json.Int r.sc_opt_conflict);
      ( "top_partner",
        match r.sc_partner with Some p -> Json.String p | None -> Json.Null );
      ("partner_evictions", Json.Int r.sc_partner_evictions);
      ("decisions", Json.Int r.sc_decisions);
      ("rationale", Json.String r.sc_rationale);
    ]

let json ?(top = 20) rows =
  let summary = summarize rows in
  let truncated = List.filteri (fun i _ -> i < top) rows in
  Json.Object
    [
      ( "summary",
        Json.Object
          [
            ("procs", Json.Int summary.sm_procs);
            ("moved", Json.Int summary.sm_moved);
            ("regressed", Json.Int summary.sm_regressed);
            ("improved", Json.Int summary.sm_improved);
            ("base_misses", Json.Int summary.sm_base_misses);
            ("opt_misses", Json.Int summary.sm_opt_misses);
            ("decisions", Json.Int summary.sm_decisions);
          ] );
      ("procs", Json.Array (List.map row_json truncated));
    ]
