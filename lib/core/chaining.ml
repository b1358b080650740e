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

type scratch = {
  mutable w : int array;  (* edge -> its weight *)
  mutable weighted : int array;  (* the weighted edges, heaviest first *)
  mutable succ : int array;  (* atom -> the next atom in its chain *)
  mutable pred : int array;  (* atom -> the previous atom in its chain *)
  mutable parent : int array;  (* atom -> union-find parent *)
  mutable rest : int array;  (* the other chains' first atoms, hottest first *)
}

type buffers = {
  mutable order : int array;
  mutable starts : int array;
  mutable heads : int array;
  mutable first : int array;
  scratch : scratch;
}

let buffers () =
  let e = [||] in
  {
    order = e;
    starts = e;
    heads = e;
    first = e;
    scratch = { w = e; weighted = e; succ = e; pred = e; parent = e; rest = e };
  }

(* An array of at least [n] slots: [a] itself, or a fresh one of the
   exact size (contents not kept). *)
let room a n = if Array.length a >= n then a else Array.make n 0

(* Union-find for cycle prevention while linking chains. *)
let rec find parent x = if parent.(x) = x then x else find parent parent.(x)

(* Procedure [s.pid]'s chains, appended to [b] as chain [c0] on, its
   blocks from position [b.starts.(c0)]; returns the chain count.  The
   scratch arrays hold this procedure's atoms and edges. *)
let chain_one b x s profile c0 =
  let { pid; start; atom_of; entry_atom; e_block; e_arm; e_dst } = s in
  let n_atoms = Array.length start - 1 in
  let n_edges = Array.length e_block in
  let w = x.w and weighted = x.weighted in
  let succ = x.succ and pred = x.pred and parent = x.parent in
  for i = 0 to n_edges - 1 do
    w.(i) <- Profile.arm_count profile ~proc:pid ~block:e_block.(i) ~arm:e_arm.(i)
  done;
  for a = 0 to n_atoms - 1 do
    succ.(a) <- -1;
    pred.(a) <- -1;
    parent.(a) <- a
  done;
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
     shape lists the edges in (source, destination) order, so inserting
     each weighted edge after the ones at least as heavy gives that
     order, and the unweighted ones follow as listed.  Insertion sorts in
     place; the workloads' largest procedure has 374 blocks. *)
  let n_weighted = ref 0 in
  for i = 0 to n_edges - 1 do
    let c = w.(i) in
    if c > 0 then begin
      let j = ref !n_weighted in
      while !j > 0 && w.(weighted.(!j - 1)) < c do
        weighted.(!j) <- weighted.(!j - 1);
        decr j
      done;
      weighted.(!j) <- i;
      incr n_weighted
    end
  done;
  for k = 0 to !n_weighted - 1 do
    try_link weighted.(k)
  done;
  for i = 0 to n_edges - 1 do
    if w.(i) <= 0 then try_link i
  done;
  (* Chains are named by their first atom.  The entry chain leads; the
     rest follow by their first block's count, hottest first, ties in atom
     order: each is inserted after the ones at least as hot. *)
  let entry_head =
    let a = ref entry_atom in
    while pred.(!a) <> -1 do
      a := pred.(!a)
    done;
    !a
  in
  let heads = b.heads and rest = x.rest in
  heads.(c0) <- Profile.block_count profile ~proc:pid ~block:start.(entry_head);
  let n_rest = ref 0 in
  for a = 0 to n_atoms - 1 do
    if pred.(a) = -1 && a <> entry_head then begin
      let c = Profile.block_count profile ~proc:pid ~block:start.(a) in
      let j = ref !n_rest in
      while !j > 0 && heads.(c0 + !j) < c do
        heads.(c0 + !j + 1) <- heads.(c0 + !j);
        rest.(!j) <- rest.(!j - 1);
        decr j
      done;
      heads.(c0 + !j + 1) <- c;
      rest.(!j) <- a;
      incr n_rest
    end
  done;
  let n_chains = !n_rest + 1 in
  Telemetry.add c_chains n_chains;
  if Provenance.enabled () then
    Provenance.record ~pass:"chaining" ~subject:pid
      [
        ("atoms", Provenance.Int n_atoms);
        ("chains", Provenance.Int n_chains);
        ("edges_linked", Provenance.Int !linked);
        ("top_edge_weight", Provenance.Float (float_of_int !top_weight));
      ];
  (* Each chain's blocks, walking its atoms from its first. *)
  let order = b.order and starts = b.starts in
  let pos = ref starts.(c0) in
  for c = c0 to c0 + n_chains - 1 do
    starts.(c) <- !pos;
    let a = ref (if c = c0 then entry_head else rest.(c - c0 - 1)) in
    while !a <> -1 do
      for blk = start.(!a) to start.(!a + 1) - 1 do
        order.(!pos) <- blk;
        incr pos
      done;
      a := succ.(!a)
    done
  done;
  starts.(c0 + n_chains) <- !pos;
  n_chains

(* Every buffer is sized before the first procedure is chained: for all
   of them at once in the output, for the largest in the scratch. *)
let chain b profile shapes =
  let blocks = ref 0 and atoms = ref 0 and max_atoms = ref 0 and max_edges = ref 0 in
  List.iter
    (fun s ->
      let n = Array.length s.start - 1 in
      blocks := !blocks + Array.length s.atom_of;
      atoms := !atoms + n;
      max_atoms := max !max_atoms n;
      max_edges := max !max_edges (Array.length s.e_block))
    shapes;
  b.order <- room b.order !blocks;
  b.starts <- room b.starts (!atoms + 1);
  b.heads <- room b.heads !atoms;
  b.first <- room b.first (List.length shapes + 1);
  let x = b.scratch in
  x.w <- room x.w !max_edges;
  x.weighted <- room x.weighted !max_edges;
  x.succ <- room x.succ !max_atoms;
  x.pred <- room x.pred !max_atoms;
  x.parent <- room x.parent !max_atoms;
  x.rest <- room x.rest !max_atoms;
  b.starts.(0) <- 0;
  b.first.(0) <- 0;
  List.iteri
    (fun k s -> b.first.(k + 1) <- b.first.(k) + chain_one b x s profile b.first.(k))
    shapes
