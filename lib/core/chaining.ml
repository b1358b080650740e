open Olayout_ir
module Profile = Olayout_profile.Profile
module Telemetry = Olayout_telemetry.Telemetry
module Provenance = Olayout_telemetry.Provenance

let c_chains = Telemetry.counter "core.chains_formed"
let c_edges_linked = Telemetry.counter "core.chain_edges_linked"

(* What chaining needs from the program alone.  Atoms — maximal runs of
   blocks glued by Call terminators — are contiguous block ranges: atom [a]
   is blocks [start.(a)] to [start.(a + 1) - 1], and [atom_of.(b)] is block
   b's atom.  Atom heads are exactly the blocks that are not the return
   continuation of the textually previous block.  The candidate edges run
   from an atom's tail terminator to another atom's head, sorted by
   (source atom, destination atom); edge [i] leaves block [e_block.(i)]
   through arm [e_arm.(i)].  Call arms are intra-atom and excluded by
   construction (a Call block is never an atom tail, since its ret glue
   follows it in the atom). *)
type shape = {
  pid : int;
  start : int array;
  atom_of : int array;
  entry_atom : int;
  e_block : int array;
  e_arm : int array;
  e_dst : int array;
}

let shape prog pid =
  let p = Prog.proc prog pid in
  let n = Proc.n_blocks p in
  let glued_to_prev = Array.make n false in
  Array.iter
    (fun (b : Block.t) ->
      match b.Block.term with
      | Block.Call { ret; _ } -> glued_to_prev.(ret) <- true
      | _ -> ())
    p.blocks;
  let start = Array.make (n + 1) n and atom_of = Array.make n (-1) in
  let count = ref 0 in
  for b = 0 to n - 1 do
    if not (b > 0 && glued_to_prev.(b)) then begin
      start.(!count) <- b;
      incr count
    end;
    atom_of.(b) <- !count - 1
  done;
  let start = Array.sub start 0 (!count + 1) in
  let cap = Array.fold_left (fun acc b -> acc + Block.arm_count b) 0 p.blocks in
  let e_block = Array.make cap 0 and e_arm = Array.make cap 0 and e_dst = Array.make cap 0 in
  let n_edges = ref 0 in
  for a = 0 to !count - 1 do
    let tail = start.(a + 1) - 1 in
    let b = Proc.block p tail in
    let first = !n_edges in
    for arm = 0 to Block.arm_count b - 1 do
      match Block.arm_target b arm with
      | Some d when d = start.(atom_of.(d)) && atom_of.(d) <> a ->
          (* Insert among this tail's edges by destination, after equal
             ones. *)
          let dst = atom_of.(d) in
          let j = ref !n_edges in
          while !j > first && e_dst.(!j - 1) > dst do
            e_dst.(!j) <- e_dst.(!j - 1);
            e_arm.(!j) <- e_arm.(!j - 1);
            decr j
          done;
          e_block.(!n_edges) <- tail;
          e_arm.(!j) <- arm;
          e_dst.(!j) <- dst;
          incr n_edges
      | Some _ | None -> ()
    done
  done;
  let sub a = Array.sub a 0 !n_edges in
  {
    pid;
    start;
    atom_of;
    entry_atom = atom_of.(p.entry);
    e_block = sub e_block;
    e_arm = sub e_arm;
    e_dst = sub e_dst;
  }

(* Union-find for cycle prevention while linking chains. *)
let rec find parent x = if parent.(x) = x then x else find parent parent.(x)

let chain s profile =
  let { pid; start; atom_of; entry_atom; e_block; e_arm; e_dst } = s in
  let n_atoms = Array.length start - 1 in
  let n_edges = Array.length e_block in
  let w =
    Array.init n_edges (fun i ->
        Profile.arm_count profile ~proc:pid ~block:e_block.(i) ~arm:e_arm.(i))
  in
  let succ = Array.make n_atoms (-1) and pred = Array.make n_atoms (-1) in
  let parent = Array.init n_atoms Fun.id in
  let linked = ref 0 and top_weight = ref 0 in
  let try_link i =
    let src = atom_of.(e_block.(i)) and dst = e_dst.(i) in
    if succ.(src) = -1 && pred.(dst) = -1 && find parent src <> find parent dst then begin
      succ.(src) <- dst;
      pred.(dst) <- src;
      parent.(find parent src) <- find parent dst;
      Telemetry.incr c_edges_linked;
      incr linked;
      if w.(i) > !top_weight then top_weight := w.(i)
    end
  in
  (* Heaviest first; ties broken by source then destination atom.  The
     shape lists the edges in (source, destination) order, so a stable
     sort of the weighted edges by weight alone gives that order, and the
     unweighted ones follow as listed. *)
  let weighted = Array.make (Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 w) 0 in
  let k = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        weighted.(!k) <- i;
        incr k
      end)
    w;
  Array.stable_sort (fun i j -> compare w.(j) w.(i)) weighted;
  Array.iter try_link weighted;
  for i = 0 to n_edges - 1 do
    if w.(i) <= 0 then try_link i
  done;
  (* Chains are named by their first atom.  The entry chain leads; the
     rest follow by their first block's count, hottest first, ties in atom
     order. *)
  let entry_head =
    let a = ref entry_atom in
    while pred.(!a) <> -1 do
      a := pred.(!a)
    done;
    !a
  in
  let n_chains = ref 0 and rest = ref [] in
  for a = n_atoms - 1 downto 0 do
    if pred.(a) = -1 then begin
      incr n_chains;
      if a <> entry_head then
        rest := (Profile.block_count profile ~proc:pid ~block:start.(a), a) :: !rest
    end
  done;
  Telemetry.add c_chains !n_chains;
  if Provenance.enabled () then
    Provenance.record ~pass:"chaining" ~subject:pid
      [
        ("atoms", Provenance.Int n_atoms);
        ("chains", Provenance.Int !n_chains);
        ("edges_linked", Provenance.Int !linked);
        ("top_edge_weight", Provenance.Float (float_of_int !top_weight));
      ];
  let rest = List.stable_sort (fun (c1, _) (c2, _) -> compare (c2 : int) c1) !rest in
  (* A chain's blocks, walking its atoms from the last one back. *)
  let blocks head =
    let rec last a = if succ.(a) = -1 then a else last succ.(a) in
    let acc = ref [] and a = ref (last head) in
    while !a <> -1 do
      for b = start.(!a + 1) - 1 downto start.(!a) do
        acc := b :: !acc
      done;
      a := pred.(!a)
    done;
    !acc
  in
  blocks entry_head :: List.map (fun (_, a) -> blocks a) rest
