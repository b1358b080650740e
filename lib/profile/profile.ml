open Olayout_ir

(* Counts live in two flat arrays read through per-program offset tables:
   procedure [p]'s blocks are [blocks.(block_off.(p)) ..
   blocks.(block_off.(p + 1) - 1)], and flat block [g]'s arms are
   [arms.(arm_off.(g)) .. arms.(arm_off.(g + 1) - 1)].  Profiles of one
   program share one shape, so merging is two array sums. *)
type shape = { block_off : int array; arm_off : int array }
type t = { prog : Prog.t; shape : shape; blocks : int array; arms : int array }

let compute_shape prog =
  let n = Prog.n_procs prog in
  let block_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun pid (p : Proc.t) -> block_off.(pid + 1) <- block_off.(pid) + Proc.n_blocks p)
    prog.Prog.procs;
  let arm_off = Array.make (block_off.(n) + 1) 0 in
  let g = ref 0 in
  Prog.iter_blocks prog (fun _ b ->
      arm_off.(!g + 1) <- arm_off.(!g) + Block.arm_count b;
      incr g);
  { block_off; arm_off }

(* The shape of the program profiled last: a windowed capture folds one
   profile per window range of the same program. *)
let last_shape : (Prog.t * shape) option Atomic.t = Atomic.make None

let shape_of prog =
  match Atomic.get last_shape with
  | Some (p, s) when p == prog -> s
  | _ ->
      let s = compute_shape prog in
      Atomic.set last_shape (Some (prog, s));
      s

let create prog =
  let shape = shape_of prog in
  let n_blocks = Array.length shape.arm_off - 1 in
  { prog; shape; blocks = Array.make n_blocks 0; arms = Array.make shape.arm_off.(n_blocks) 0 }

let prog t = t.prog

(* Checked flat indices: a block past its procedure's row or an arm past
   its block's arms is an error, not the neighbour's count. *)
let block_index fn t ~proc ~block =
  let off = t.shape.block_off in
  if proc < 0 || proc >= Array.length off - 1 then
    invalid_arg (Printf.sprintf "Profile.%s: procedure %d out of range" fn proc);
  let g = off.(proc) + block in
  if block < 0 || g >= off.(proc + 1) then
    invalid_arg (Printf.sprintf "Profile.%s: block %d out of range in procedure %d" fn block proc);
  g

let arm_index fn t g ~arm =
  let off = t.shape.arm_off in
  let i = off.(g) + arm in
  if arm < 0 || i >= off.(g + 1) then
    invalid_arg (Printf.sprintf "Profile.%s: arm %d out of range" fn arm);
  i

let record t ~proc ~block ~arm =
  let g = block_index "record" t ~proc ~block in
  let i = arm_index "record" t g ~arm in
  t.blocks.(g) <- t.blocks.(g) + 1;
  t.arms.(i) <- t.arms.(i) + 1

let record_block t ~proc ~block ~count =
  let g = block_index "record_block" t ~proc ~block in
  t.blocks.(g) <- t.blocks.(g) + count

let block_count t ~proc ~block = t.blocks.(block_index "block_count" t ~proc ~block)

let arm_count t ~proc ~block ~arm =
  t.arms.(arm_index "arm_count" t (block_index "arm_count" t ~proc ~block) ~arm)

(* Unchecked views for the whole-program loops below, which only visit
   blocks and arms the program has. *)
let flat t pid bid = t.shape.block_off.(pid) + bid
let count t pid bid = t.blocks.(flat t pid bid)
let arm_slot t pid bid arm = t.shape.arm_off.(flat t pid bid) + arm

let iter_nonzero_arms t f =
  let { block_off; arm_off } = t.shape in
  let arms = t.arms in
  (* One pass over the flat arm counts; the block and procedure cursors
     only move forward, and only when a count is found. *)
  let g = ref 0 and proc = ref 0 in
  for i = 0 to Array.length arms - 1 do
    let c = arms.(i) in
    if c <> 0 then begin
      while arm_off.(!g + 1) <= i do
        incr g
      done;
      while block_off.(!proc + 1) <= !g do
        incr proc
      done;
      f ~proc:!proc ~block:(!g - block_off.(!proc)) ~arm:(i - arm_off.(!g)) c
    end
  done

let iter_nonzero_blocks t f =
  let off = t.shape.block_off and blocks = t.blocks in
  let proc = ref 0 in
  for g = 0 to Array.length blocks - 1 do
    let c = blocks.(g) in
    if c <> 0 then begin
      while off.(!proc + 1) <= g do
        incr proc
      done;
      f ~proc:!proc ~block:(g - off.(!proc)) c
    end
  done

let proc_entry_count t p = count t p (Prog.proc t.prog p).Proc.entry

let dynamic_instrs t =
  let total = ref 0 in
  Prog.iter_blocks t.prog (fun p b ->
      total := !total + (count t p.Proc.id b.Block.id * Block.source_instrs b));
  !total

type flow_edge = { src : Block.id; arm : int; dst : Block.id; weight : float }

let proc_flow_edges t pid =
  let p = Prog.proc t.prog pid in
  let edges = ref [] in
  Array.iter
    (fun (b : Block.t) ->
      let n = Block.arm_count b in
      for arm = 0 to n - 1 do
        match Block.arm_target b arm with
        | None -> ()
        | Some dst ->
            let weight = float_of_int t.arms.(arm_slot t pid b.id arm) in
            edges := { src = b.id; arm; dst; weight } :: !edges
      done)
    p.blocks;
  List.rev !edges

let estimate_arms t =
  let t' = { t with blocks = Array.copy t.blocks; arms = Array.make (Array.length t.arms) 0 } in
  Prog.iter_blocks t.prog (fun p b ->
      let pid = p.Proc.id and bid = b.Block.id in
      let c = count t pid bid in
      let slot arm = arm_slot t pid bid arm in
      let n = Block.arm_count b in
      if n = 1 then t'.arms.(slot 0) <- c
      else begin
        (* Apportion in proportion to successor block counts; fall back to a
           uniform split when all successors are cold. *)
        let succ_counts =
          Array.init n (fun arm ->
              match Block.arm_target b arm with Some d -> count t pid d | None -> 0)
        in
        let total = Array.fold_left ( + ) 0 succ_counts in
        if total = 0 then Array.iteri (fun arm _ -> t'.arms.(slot arm) <- c / n) succ_counts
        else begin
          let assigned = ref 0 in
          for arm = 0 to n - 1 do
            let share = c * succ_counts.(arm) / total in
            t'.arms.(slot arm) <- share;
            assigned := !assigned + share
          done;
          (* Give rounding leftovers to the heaviest arm. *)
          let best = ref 0 in
          for arm = 1 to n - 1 do
            if succ_counts.(arm) > succ_counts.(!best) then best := arm
          done;
          t'.arms.(slot !best) <- t'.arms.(slot !best) + (c - !assigned)
        end
      end);
  t'

let scale a factor =
  let f x = int_of_float (float_of_int x *. factor) in
  { a with blocks = Array.map f a.blocks; arms = Array.map f a.arms }

(* Programs are compared by shape — procedures, blocks per procedure, arms
   per block — not by name: every generated binary has the same name. *)
let same_shape a b =
  a.shape == b.shape || a.prog == b.prog
  || (a.shape.block_off = b.shape.block_off && a.shape.arm_off = b.shape.arm_off)

let merge a b =
  if not (same_shape a b) then invalid_arg "Profile.merge: different programs";
  { a with blocks = Array.map2 ( + ) a.blocks b.blocks; arms = Array.map2 ( + ) a.arms b.arms }

(* Two slice comparisons over the flat rows, no allocation: Delta.diff
   runs this for every procedure on every re-layout tick. *)
let proc_equal a b pid =
  let ab0 = a.shape.block_off.(pid) and ab1 = a.shape.block_off.(pid + 1) in
  let bb0 = b.shape.block_off.(pid) and bb1 = b.shape.block_off.(pid + 1) in
  let aa0 = a.shape.arm_off.(ab0) and aa1 = a.shape.arm_off.(ab1) in
  let ba0 = b.shape.arm_off.(bb0) and ba1 = b.shape.arm_off.(bb1) in
  let slice_equal (x : int array) x0 (y : int array) y0 len =
    let i = ref 0 in
    while !i < len && x.(x0 + !i) = y.(y0 + !i) do
      incr i
    done;
    !i = len
  in
  ab1 - ab0 = bb1 - bb0
  && aa1 - aa0 = ba1 - ba0
  && slice_equal a.blocks ab0 b.blocks bb0 (ab1 - ab0)
  && slice_equal a.arms aa0 b.arms ba0 (aa1 - aa0)

let total_block_events t = Array.fold_left ( + ) 0 t.blocks

(* --- persistence --- *)

let magic = "olayout-profile v1"

let output oc t =
  Printf.fprintf oc "%s\n" magic;
  Printf.fprintf oc "program %s %d\n" t.prog.Prog.name (Prog.n_procs t.prog);
  Array.iteri
    (fun pid (p : Proc.t) ->
      Printf.fprintf oc "proc %d %d\n" pid (Proc.n_blocks p);
      for bid = 0 to Proc.n_blocks p - 1 do
        Printf.fprintf oc "%d" (count t pid bid);
        for arm = 0 to Block.arm_count (Proc.block p bid) - 1 do
          Printf.fprintf oc " %d" t.arms.(arm_slot t pid bid arm)
        done;
        Printf.fprintf oc "\n"
      done)
    t.prog.Prog.procs

let input prog ic =
  let fail fmt = Printf.ksprintf failwith fmt in
  let line () = try Stdlib.input_line ic with End_of_file -> fail "Profile.input: truncated" in
  if line () <> magic then fail "Profile.input: bad magic";
  (match String.split_on_char ' ' (line ()) with
  | [ "program"; name; n ] ->
      if name <> prog.Prog.name then
        fail "Profile.input: profile is for program %s, not %s" name prog.Prog.name;
      if int_of_string n <> Prog.n_procs prog then fail "Profile.input: procedure count mismatch"
  | _ -> fail "Profile.input: bad program header");
  let t = create prog in
  for pid = 0 to Prog.n_procs prog - 1 do
    let p = Prog.proc prog pid in
    (match String.split_on_char ' ' (line ()) with
    | [ "proc"; p'; n ] ->
        if int_of_string p' <> pid then fail "Profile.input: procedure order";
        if int_of_string n <> Proc.n_blocks p then
          fail "Profile.input: block count mismatch in proc %d" pid
    | _ -> fail "Profile.input: bad proc header");
    for bid = 0 to Proc.n_blocks p - 1 do
      match List.map int_of_string (String.split_on_char ' ' (line ())) with
      | count :: arms when List.length arms = Block.arm_count (Proc.block p bid) ->
          t.blocks.(flat t pid bid) <- count;
          List.iteri (fun arm a -> t.arms.(arm_slot t pid bid arm) <- a) arms
      | _ -> fail "Profile.input: bad block line (proc %d block %d)" pid bid
    done
  done;
  t

let save_file path t =
  let oc = open_out path in
  match output oc t with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

let load_file prog path =
  let ic = open_in path in
  match input prog ic with
  | t ->
      close_in ic;
      t
  | exception e ->
      close_in_noerr ic;
      raise e
