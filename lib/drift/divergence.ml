open Olayout_ir
module Profile = Olayout_profile.Profile

(* Pure divergence metrics between two execution profiles of the same
   program, read through their summaries.  Every metric is scale-invariant
   (each side is normalized by its own mass first) so a 3-window slice
   compares meaningfully against a full training profile, and every result
   is an integer permille so the artifacts that carry them stay
   byte-deterministic across legs. *)

let clamp_permille v = if v < 0 then 0 else if v > 1000 then 1000 else v

(* Everything the metrics read of a profile, from one pass over its
   nonzero block counts, so a series summarizes each profile once.
   [edges] aggregates caller->callee call-site counts, inserted in
   procedure, block order (which fixes [l1_edge_permille]'s summation
   order); [ranked] lists the procedures of nonzero dynamic-instruction
   weight (source encoding) hottest first, ties toward the lower id so
   the order never depends on sort internals. *)
type summary = {
  edges : (int * int, int) Hashtbl.t;
  edge_total : int;
  ranked : (int * int) list;
}

let summarize p =
  let prog = Profile.prog p in
  let weights = Array.make (Prog.n_procs prog) 0 in
  let edges = Hashtbl.create 64 and edge_total = ref 0 in
  Profile.iter_nonzero_blocks p (fun ~proc ~block n ->
      if n > 0 then begin
        let b = Proc.block (Prog.proc prog proc) block in
        weights.(proc) <- weights.(proc) + (n * max 1 (Block.source_instrs b));
        match b.Block.term with
        | Block.Call { callee; _ } ->
            let key = (proc, callee) in
            Hashtbl.replace edges key (n + Option.value ~default:0 (Hashtbl.find_opt edges key));
            edge_total := !edge_total + n
        | _ -> ()
      end);
  let ranked = ref [] in
  Array.iteri (fun id weight -> if weight > 0 then ranked := (id, weight) :: !ranked) weights;
  {
    edges;
    edge_total = !edge_total;
    ranked =
      List.sort
        (fun (ida, wa) (idb, wb) -> if wa <> wb then compare wb wa else compare ida idb)
        !ranked;
  }

(* L1 distance between the two normalized edge-weight vectors, halved into
   [0, 1000] permille (0 = identical distributions, 1000 = disjoint). *)
let l1_edge_permille a b =
  let ea = a.edges and eb = b.edges in
  let ta = a.edge_total and tb = b.edge_total in
  if ta = 0 && tb = 0 then 0
  else if ta = 0 || tb = 0 then 1000
  else begin
    let fa = float_of_int ta and fb = float_of_int tb in
    let sum = ref 0.0 in
    Hashtbl.iter
      (fun key ca ->
        let cb = Option.value ~default:0 (Hashtbl.find_opt eb key) in
        sum := !sum +. abs_float ((float_of_int ca /. fa) -. (float_of_int cb /. fb)))
      ea;
    Hashtbl.iter
      (fun key cb ->
        if not (Hashtbl.mem ea key) then sum := !sum +. (float_of_int cb /. fb))
      eb;
    clamp_permille (int_of_float ((500.0 *. !sum) +. 0.5))
  end

let top_k ~k s = List.filteri (fun i _ -> i < k) s.ranked

(* Jaccard similarity of the two top-[k] hot sets, in permille (1000 =
   identical hot sets). *)
let hotset_jaccard_permille ~k a b =
  if k < 1 then invalid_arg "Divergence.hotset_jaccard_permille: k must be >= 1";
  let sa = List.map fst (top_k ~k a) and sb = List.map fst (top_k ~k b) in
  if sa = [] && sb = [] then 1000
  else begin
    let inter = List.length (List.filter (fun p -> List.mem p sb) sa) in
    let union = List.length sa + List.length sb - inter in
    clamp_permille (inter * 1000 / union)
  end

(* Weight-normalized rank churn over the union of the two top-[k] sets:
   each procedure contributes its displacement |rank_a - rank_b| (absent =
   rank [k]) scaled by its average normalized weight; the total is
   normalized by the maximum displacement [k].  0 = same ranking, 1000 =
   the hot sets completely swapped. *)
let rank_churn_permille ~k a b =
  if k < 1 then invalid_arg "Divergence.rank_churn_permille: k must be >= 1";
  let ra = top_k ~k a and rb = top_k ~k b in
  if ra = [] && rb = [] then 0
  else begin
    let ta = List.fold_left (fun acc (_, w) -> acc + w) 0 ra
    and tb = List.fold_left (fun acc (_, w) -> acc + w) 0 rb in
    let rank ranked p =
      let rec go i = function
        | [] -> k
        | (q, _) :: rest -> if q = p then i else go (i + 1) rest
      in
      go 0 ranked
    in
    let weight ranked total p =
      if total = 0 then 0.0
      else
        match List.assoc_opt p ranked with
        | Some w -> float_of_int w /. float_of_int total
        | None -> 0.0
    in
    let union =
      List.sort_uniq compare (List.map fst ra @ List.map fst rb)
    in
    let num = ref 0.0 and den = ref 0.0 in
    List.iter
      (fun p ->
        let w = 0.5 *. (weight ra ta p +. weight rb tb p) in
        let d = abs (rank ra p - rank rb p) in
        num := !num +. (w *. float_of_int d);
        den := !den +. w)
      union;
    if !den <= 0.0 then 0
    else
      clamp_permille
        (int_of_float ((1000.0 *. !num /. (!den *. float_of_int k)) +. 0.5))
  end
