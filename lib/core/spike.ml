open Olayout_ir
module Profile = Olayout_profile.Profile
module Tgraph = Olayout_profile.Temporal
module Telemetry = Olayout_telemetry.Telemetry
module Provenance = Olayout_telemetry.Provenance

let c_optimize = Telemetry.counter "spike.optimize_calls"

type combo = Base | Porder | Chain | Chain_split | Chain_porder | All

let all_combos = [ Base; Porder; Chain; Chain_split; Chain_porder; All ]

let combo_name = function
  | Base -> "base"
  | Porder -> "porder"
  | Chain -> "chain"
  | Chain_split -> "chain+split"
  | Chain_porder -> "chain+porder"
  | All -> "all"

type algo =
  | Combo of combo
  | Temporal of Tgraph.t
  | Temporal_procs of Tgraph.t
  | Colored of { cache_bytes : int }
  | Colored_procs of { cache_bytes : int }
  | Hot_cold
  | Cfa of { cache_bytes : int; cfa_fraction : float }
  | Hot_aligned

(* A layout's three parts.  The segment stage turns each procedure into
   segments: whole, in source order; its chains concatenated; one segment
   per chain (fine-grain splitting); or hot and cold.  The order is source
   order, Pettis-Hansen over the call/branch graph, or closest-is-best over
   a temporal graph.  The placer assigns addresses: packed at an
   alignment, colored, a conflict-free area, or hot segments line-aligned. *)
type stage = Whole | Joined | Fine_grain | Hot_and_cold
type order = Source | Calls | Affinity of Tgraph.t
type placer = Packed of int | Colored_gaps of int | Reserved of int * float | Line_aligned

let recipe = function
  | Combo Base -> (Whole, Source, Packed 16)
  | Combo Porder -> (Whole, Calls, Packed 4)
  | Combo Chain -> (Joined, Source, Packed 4)
  | Combo Chain_split -> (Fine_grain, Source, Packed 4)
  | Combo Chain_porder -> (Joined, Calls, Packed 4)
  | Combo All -> (Fine_grain, Calls, Packed 4)
  | Temporal t -> (Fine_grain, Affinity t, Packed 4)
  | Temporal_procs t -> (Whole, Affinity t, Packed 4)
  | Colored { cache_bytes } -> (Fine_grain, Calls, Colored_gaps cache_bytes)
  | Colored_procs { cache_bytes } -> (Whole, Calls, Colored_gaps cache_bytes)
  | Hot_cold -> (Hot_and_cold, Calls, Packed 4)
  | Cfa { cache_bytes; cfa_fraction } -> (Fine_grain, Calls, Reserved (cache_bytes, cfa_fraction))
  | Hot_aligned -> (Fine_grain, Calls, Line_aligned)

let chained algo = match recipe algo with Whole, _, _ -> false | _ -> true
let ordered algo = match recipe algo with _, Source, _ -> false | _ -> true

(* Each pass runs inside a telemetry span, so per-figure and whole-run
   pass timings fall out of the span aggregates (the bench artifact's
   "passes" section). *)
let chaining_span f = Telemetry.span "chaining" f
let placement_span f = Telemetry.span "placement" f

(* The memo: per procedure, its segments encoded segment-relative and the
   local segments whose head block has a count (the ordering passes' hot
   singletons).  Both depend only on the procedure's own rows of the
   profile, so a rebuild redoes only the procedures it is told are dirty.
   Segment [i] of procedure [p] is numbered [base.(p) + i]
   (Placement.numbering): procedure-major, the order ties break in. *)
type memo = {
  algo : algo;
  mutable shapes : Chaining.shape array;  (* per procedure, once chained *)
  chains : Chaining.buffers;
  rows : Placement.rows array;
  hot : int list array;
  ph : Pettis_hansen.buffers;
}

let head_count profile (seg : Segment.t) =
  Profile.block_count profile ~proc:seg.Segment.proc ~block:(Segment.head seg)

(* Procedure [pid] as one segment in source order. *)
let whole prog pid =
  let n = Proc.n_blocks (Prog.proc prog pid) in
  Placement.encode prog pid ~blocks:(Array.init n Fun.id) ~starts:[| 0; n |] ~lo:0 ~hi:1

(* Which procedure owns segment [g]: the last [p] with [base.(p) <= g]. *)
let owner (base : int array) g =
  let lo = ref 0 and hi = ref (Array.length base - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if base.(mid) <= g then lo := mid else hi := mid - 1
  done;
  !lo

(* The whole-program passes over every entry: the segment order, then
   addresses.  [order_indices] reads heat only for the weighted segments
   and the hot singletons, so its cost follows the weighted subgraph. *)
let layout m profile order placer =
  let prog = Profile.prog profile in
  let rows = m.rows in
  let base = Placement.numbering rows in
  let n = base.(Array.length rows) in
  let segment g =
    let p = owner base g in
    rows.(p).Placement.segs.(g - base.(p))
  in
  let run ?pass weights =
    Pettis_hansen.order_indices m.ph ?pass ~n ~weights
      ~heat:(fun g -> float_of_int (head_count profile (segment g)))
      ~hot:(fun f -> Array.iteri (fun p segs -> List.iter (fun i -> f (base.(p) + i)) segs) m.hot)
      ~proc_of:(owner base) ()
  in
  let order =
    match order with
    | Source -> Array.init n Fun.id
    | Calls ->
        Telemetry.span "pettis_hansen" (fun () ->
            run
              (Pettis_hansen.pair_weights_of profile ~seg_of:(fun p b ->
                   base.(p) + rows.(p).Placement.seg_of.(b))))
    | Affinity temporal ->
        (* Each procedure's affinities attach to its hottest segment, the
           first on a tie. *)
        let rep p =
          let segs = rows.(p).Placement.segs in
          let best = ref 0 in
          Array.iteri
            (fun i seg -> if head_count profile seg > head_count profile segs.(!best) then best := i)
            segs;
          Some (base.(p) + !best)
        in
        Telemetry.span "temporal_order" (fun () ->
            run ~pass:"temporal_order" (Temporal_order.weights_by temporal ~rep))
  in
  match placer with
  | Packed align -> placement_span (fun () -> Placement.of_rows ~align prog rows ~order)
  | Colored_gaps cache_bytes ->
      Telemetry.span "coloring" (fun () -> Coloring.place profile rows ~order ~cache_bytes)
  | Reserved (cache_bytes, cfa_fraction) ->
      Telemetry.span "cfa" (fun () -> Cfa.place profile rows ~order ~cache_bytes ~cfa_fraction)
  | Line_aligned ->
      (* Classic hot-target alignment: a segment whose head runs more than
         about once per measured transaction starts on a 64-byte line;
         padding costs capacity and gains fetch efficiency. *)
      let threshold = max 1 (Profile.total_block_events profile / 100_000) in
      placement_span (fun () ->
          Placement.of_rows ~align:4 prog rows ~order ~addr_of:(fun g a ->
              if head_count profile (segment g) > threshold then (a + 63) land lnot 63 else a))

(* The chaining pass writes every dirty procedure's chains into the
   memo's buffers; the segment stage then encodes each procedure's
   segments from them: its chains joined into one, each chain on its own,
   or hot and cold.  A chained procedure's hot segments follow from its
   chains' head counts, which chaining reads. *)
let rebuild m profile ~dirty =
  let prog = Profile.prog profile in
  let stage, order, placer = recipe m.algo in
  if chained m.algo then
    chaining_span (fun () ->
        if Array.length m.shapes = 0 then
          m.shapes <- Array.init (Prog.n_procs prog) (Chaining.shape prog);
        Chaining.chain m.chains profile (List.map (Array.get m.shapes) dirty));
  let c = m.chains in
  (* The [k]-th dirty procedure's chains are [c.first.(k)] to
     [c.first.(k + 1) - 1]. *)
  let encode k pid =
    let lo = if chained m.algo then c.first.(k) else 0 in
    let r =
      match stage with
      | Whole -> whole prog pid
      | Joined ->
          Placement.encode prog pid ~blocks:c.order
            ~starts:[| c.starts.(lo); c.starts.(c.first.(k + 1)) |]
            ~lo:0 ~hi:1
      | Fine_grain ->
          Placement.encode prog pid ~blocks:c.order ~starts:c.starts ~lo ~hi:c.first.(k + 1)
      | Hot_and_cold ->
          let hi = c.starts.(c.first.(k + 1)) in
          let blocks, starts = Splitting.hot_cold profile pid c.order ~lo:c.starts.(lo) ~hi in
          Placement.encode prog pid ~blocks ~starts ~lo:0 ~hi:(Array.length starts - 1)
    in
    (* A joined or fine-grain segment starts with a chain's first block,
       whose count chaining read. *)
    let hot i =
      match stage with
      | Joined | Fine_grain -> c.heads.(lo + i) > 0
      | Whole | Hot_and_cold -> head_count profile r.Placement.segs.(i) > 0
    in
    let hots = ref [] in
    for i = Array.length r.Placement.segs - 1 downto 0 do
      if hot i then hots := i :: !hots
    done;
    m.rows.(pid) <- r;
    m.hot.(pid) <- !hots
  in
  let fill () = List.iteri encode dirty in
  (match stage with
  | Whole -> fill ()
  | Joined -> chaining_span fill
  | Fine_grain ->
      Telemetry.span "splitting" (fun () ->
          fill ();
          Splitting.record_cuts m.rows)
  | Hot_and_cold ->
      Telemetry.span "hot_cold" (fun () ->
          fill ();
          Splitting.record_cuts m.rows));
  layout m profile order placer

let entry m p = (m.rows.(p), m.hot.(p))

(* The from-scratch build is a rebuild of an empty memo with every
   procedure dirty: each placeholder entry is replaced before [layout]
   reads it. *)
let memoize algo profile =
  let prog = Profile.prog profile in
  let n = Prog.n_procs prog in
  let placeholder = whole prog 0 in
  let m =
    {
      algo;
      shapes = [||];
      chains = Chaining.buffers ();
      rows = Array.make n placeholder;
      hot = Array.make n [];
      ph = Pettis_hansen.buffers ();
    }
  in
  let placement = rebuild m profile ~dirty:(List.init n Fun.id) in
  (m, placement)

(* No memo outlives a from-scratch build, so nothing else keeps its
   relative rows: filling every row here lets them go at once and
   allocates the fetch words together, not one procedure at a time among
   the first render's garbage, which fragments the heap. *)
let build algo profile =
  let _, placement = memoize algo profile in
  Placement.fill placement;
  placement

(* The closing provenance event of the pipeline: where each procedure
   ended up under this combo.  [rank] is the position of the procedure's
   first segment in the final order, [addr] its entry block's address,
   [bytes] its total encoded size — the fields the explain scorecard (and
   the Chrome-trace address-space track) joins against.  The name rides
   along so downstream consumers never need the program to label spans. *)
let record_placement profile combo placement =
  let prog = Profile.prog profile in
  let n = Prog.n_procs prog in
  let rank = Array.make n (-1) in
  List.iteri
    (fun i (seg : Segment.t) ->
      if rank.(seg.Segment.proc) < 0 then rank.(seg.Segment.proc) <- i)
    (Placement.segments placement);
  let bytes = Array.make n 0 in
  Placement.iter_placed placement (fun ~proc ~block:_ ~addr:_ ~instrs ->
      bytes.(proc) <- bytes.(proc) + (instrs * Block.bytes_per_instr));
  for pid = 0 to n - 1 do
    let p = Prog.proc prog pid in
    Provenance.record ~pass:"placement" ~subject:pid
      [
        ("combo", Provenance.String (combo_name combo));
        ("name", Provenance.String p.Proc.name);
        ("rank", Provenance.Int rank.(pid));
        ( "addr",
          Provenance.Int
            (Placement.block_addr placement ~proc:pid ~block:p.Proc.entry) );
        ("bytes", Provenance.Int bytes.(pid));
      ]
  done

let optimize profile combo =
  Telemetry.incr c_optimize;
  Telemetry.span "optimize" (fun () ->
      let placement = build (Combo combo) profile in
      if Provenance.enabled () then record_placement profile combo placement;
      placement)
