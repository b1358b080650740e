(* The list-based basic-block chaining, kept as the test oracle for
   Olayout_core.Chaining: atoms are block lists, the candidate edges come
   from Profile.proc_flow_edges and are sorted as (weight, source atom,
   destination atom) triples, and chains are lists of atoms.  The
   production pass must return the same chains, link the same number of
   edges and form the same number of chains. *)

open Olayout_ir
module Profile = Olayout_profile.Profile

let build_atoms (p : Proc.t) =
  let n = Proc.n_blocks p in
  let glued_to_prev = Array.make n false in
  Array.iter
    (fun (b : Block.t) ->
      match b.Block.term with
      | Block.Call { ret; _ } -> glued_to_prev.(ret) <- true
      | _ -> ())
    p.blocks;
  let atoms = ref [] and atom_of = Array.make n (-1) in
  let count = ref 0 in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let blocks = ref [ start ] in
    atom_of.(start) <- !count;
    incr i;
    while !i < n && glued_to_prev.(!i) do
      blocks := !i :: !blocks;
      atom_of.(!i) <- !count;
      incr i
    done;
    atoms := List.rev !blocks :: !atoms;
    incr count
  done;
  (Array.of_list (List.rev !atoms), atom_of)

let rec find parent x = if parent.(x) = x then x else find parent parent.(x)

(* The chains of procedure [pid], with the number of edges linked. *)
let chain_proc profile pid =
  let prog = Profile.prog profile in
  let p = Prog.proc prog pid in
  let atoms, atom_of = build_atoms p in
  let n_atoms = Array.length atoms in
  let atom_tail a = List.nth atoms.(a) (List.length atoms.(a) - 1) in
  let edges =
    Profile.proc_flow_edges profile pid
    |> List.filter_map (fun (e : Profile.flow_edge) ->
           let src_atom = atom_of.(e.src) and dst_atom = atom_of.(e.dst) in
           if e.src <> atom_tail src_atom then None
           else if e.dst <> List.hd atoms.(dst_atom) then None
           else if src_atom = dst_atom then None
           else Some (e.weight, src_atom, dst_atom))
  in
  let edges =
    List.stable_sort
      (fun (w1, s1, d1) (w2, s2, d2) ->
        match compare w2 w1 with 0 -> compare (s1, d1) (s2, d2) | c -> c)
      edges
  in
  let succ = Array.make n_atoms (-1) and pred = Array.make n_atoms (-1) in
  let parent = Array.init n_atoms (fun i -> i) in
  let linked = ref 0 in
  List.iter
    (fun (_, s, d) ->
      if succ.(s) = -1 && pred.(d) = -1 && find parent s <> find parent d then begin
        succ.(s) <- d;
        pred.(d) <- s;
        parent.(find parent s) <- find parent d;
        incr linked
      end)
    edges;
  let chains = ref [] in
  for a = 0 to n_atoms - 1 do
    if pred.(a) = -1 then begin
      let rec walk a acc = if a = -1 then List.rev acc else walk succ.(a) (a :: acc) in
      chains := walk a [] :: !chains
    end
  done;
  let chains = List.rev !chains in
  let first_block chain = List.hd atoms.(List.hd chain) in
  let count chain = Profile.block_count profile ~proc:pid ~block:(first_block chain) in
  let entry_atom = atom_of.(p.entry) in
  let entry_chain, rest = List.partition (fun c -> List.mem entry_atom c) chains in
  let rest = List.stable_sort (fun c1 c2 -> compare (count c2) (count c1)) rest in
  (List.map (fun chain -> List.concat_map (fun a -> atoms.(a)) chain) (entry_chain @ rest), !linked)
