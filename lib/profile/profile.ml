open Olayout_ir

(* Counts live in one row pair per procedure: [blocks.(p)] holds procedure
   [p]'s block counts and [arms.(p)] its arm counts, block [b]'s arms at
   [arm_base.(p).(b) .. arm_base.(p).(b + 1) - 1].  A procedure nothing has
   counted yet shares the shape's read-only zero rows, and its first write
   copies both rows together ([own]), so the only rows two profiles ever
   share are zero rows: a profile allocates the procedures it counted, and
   a fold over a window range costs what the range touched.  Profiles of
   one program share one shape. *)
type shape = {
  arm_base : int array array;
  zero_blocks : int array array;
  zero_arms : int array array;
}

type t = { prog : Prog.t; shape : shape; blocks : int array array; arms : int array array }

let compute_shape prog =
  let arm_base =
    Array.map
      (fun (p : Proc.t) ->
        let base = Array.make (Proc.n_blocks p + 1) 0 in
        Array.iteri (fun b blk -> base.(b + 1) <- base.(b) + Block.arm_count blk) p.blocks;
        base)
      prog.Prog.procs
  in
  (* One zero row per row length: every training run builds a shape of
     its own (the memo below holds one program, and a run profiles the
     application and the kernel), and its profiles keep it. *)
  let zeros = Hashtbl.create 64 in
  let zero n =
    match Hashtbl.find_opt zeros n with
    | Some row -> row
    | None ->
        let row = Array.make n 0 in
        Hashtbl.add zeros n row;
        row
  in
  {
    arm_base;
    zero_blocks = Array.map (fun base -> zero (Array.length base - 1)) arm_base;
    zero_arms = Array.map (fun base -> zero base.(Array.length base - 1)) arm_base;
  }

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
  { prog; shape; blocks = Array.copy shape.zero_blocks; arms = Array.copy shape.zero_arms }

let prog t = t.prog

(* Does procedure [p] still share the zero rows?  Its block row tells for
   both, since [own] replaces the two together. *)
let[@inline] shared t p = t.blocks.(p) == t.shape.zero_blocks.(p)

(* Procedure [p]'s block row [row], made its own on first write: a zero
   row is replaced, together with the arm row, by fresh zeroed copies. *)
let[@inline] own t p row =
  if row != t.shape.zero_blocks.(p) then row
  else begin
    let row = Array.make (Array.length row) 0 in
    t.blocks.(p) <- row;
    t.arms.(p) <- Array.make (Array.length t.arms.(p)) 0;
    row
  end

(* Checked indices: a block past its procedure's row or an arm past its
   block's arms is an error, not the neighbour's count.  The messages are
   built out of line, so a check is a compare. *)
let bad fn fmt = Printf.ksprintf (fun msg -> invalid_arg ("Profile." ^ fn ^ ": " ^ msg)) fmt

let[@inline] block_row fn t ~proc ~block =
  if proc < 0 || proc >= Array.length t.blocks then bad fn "procedure %d out of range" proc;
  let row = t.blocks.(proc) in
  if block < 0 || block >= Array.length row then
    bad fn "block %d out of range in procedure %d" block proc;
  row

(* The index of [arm] in the arm row of a checked [proc] and [block]. *)
let[@inline] arm_index fn t ~proc ~block ~arm =
  let base = t.shape.arm_base.(proc) in
  let i = base.(block) + arm in
  if arm < 0 || i >= base.(block + 1) then bad fn "arm %d out of range" arm;
  i

let record t ~proc ~block ~arm =
  let row = block_row "record" t ~proc ~block in
  let i = arm_index "record" t ~proc ~block ~arm in
  let row = own t proc row in
  row.(block) <- row.(block) + 1;
  let arms = t.arms.(proc) in
  arms.(i) <- arms.(i) + 1

let record_block t ~proc ~block ~count =
  let row = own t proc (block_row "record_block" t ~proc ~block) in
  row.(block) <- row.(block) + count

let block_count t ~proc ~block = (block_row "block_count" t ~proc ~block).(block)

let arm_count t ~proc ~block ~arm =
  ignore (block_row "arm_count" t ~proc ~block);
  t.arms.(proc).(arm_index "arm_count" t ~proc ~block ~arm)

(* Unchecked view for the whole-program loops below, which only visit
   blocks the program has. *)
let count t pid bid = t.blocks.(pid).(bid)

let iter_nonzero_arms t f =
  Array.iteri
    (fun proc arms ->
      if not (shared t proc) then begin
        let base = t.shape.arm_base.(proc) in
        (* The block cursor only moves forward, and only when a count is
           found. *)
        let block = ref 0 in
        for i = 0 to Array.length arms - 1 do
          let c = arms.(i) in
          if c <> 0 then begin
            while base.(!block + 1) <= i do
              incr block
            done;
            f ~proc ~block:!block ~arm:(i - base.(!block)) c
          end
        done
      end)
    t.arms

let iter_nonzero_blocks t f =
  Array.iteri
    (fun proc row ->
      if not (shared t proc) then
        Array.iteri (fun block c -> if c <> 0 then f ~proc ~block c) row)
    t.blocks

let proc_entry_count t p = count t p (Prog.proc t.prog p).Proc.entry

let dynamic_instrs t =
  let total = ref 0 in
  iter_nonzero_blocks t (fun ~proc ~block c ->
      total := !total + (c * Block.source_instrs (Proc.block (Prog.proc t.prog proc) block)));
  !total

type flow_edge = { src : Block.id; arm : int; dst : Block.id; weight : float }

let proc_flow_edges t pid =
  let p = Prog.proc t.prog pid in
  let arms = t.arms.(pid) and base = t.shape.arm_base.(pid) in
  let edges = ref [] in
  Array.iter
    (fun (b : Block.t) ->
      let n = Block.arm_count b in
      for arm = 0 to n - 1 do
        match Block.arm_target b arm with
        | None -> ()
        | Some dst ->
            let weight = float_of_int arms.(base.(b.id) + arm) in
            edges := { src = b.id; arm; dst; weight } :: !edges
      done)
    p.blocks;
  List.rev !edges

(* A profile of [t]'s shape with rows [f p] for each procedure [p] that
   [counted] selects, and [t]'s rows, which must be its shared zero rows,
   for the others.  [f] returns fresh rows: a result never aliases a row
   it can write. *)
let map_rows t ~counted f =
  let blocks = Array.copy t.blocks and arms = Array.copy t.arms in
  for p = 0 to Array.length blocks - 1 do
    if counted p then begin
      let b, a = f p in
      blocks.(p) <- b;
      arms.(p) <- a
    end
  done;
  { t with blocks; arms }

let estimate_arms t =
  map_rows t ~counted:(fun p -> not (shared t p)) (fun pid ->
      let p = Prog.proc t.prog pid and base = t.shape.arm_base.(pid) in
      let arms = Array.make (Array.length t.arms.(pid)) 0 in
      Array.iter
        (fun (b : Block.t) ->
          let bid = b.id in
          let c = count t pid bid in
          let slot arm = base.(bid) + arm in
          let n = Block.arm_count b in
          if n = 1 then arms.(slot 0) <- c
          else begin
            (* Apportion in proportion to successor block counts; fall back
               to a uniform split when all successors are cold. *)
            let succ_counts =
              Array.init n (fun arm ->
                  match Block.arm_target b arm with Some d -> count t pid d | None -> 0)
            in
            let total = Array.fold_left ( + ) 0 succ_counts in
            if total = 0 then Array.iteri (fun arm _ -> arms.(slot arm) <- c / n) succ_counts
            else begin
              let assigned = ref 0 in
              for arm = 0 to n - 1 do
                let share = c * succ_counts.(arm) / total in
                arms.(slot arm) <- share;
                assigned := !assigned + share
              done;
              (* Give rounding leftovers to the heaviest arm. *)
              let best = ref 0 in
              for arm = 1 to n - 1 do
                if succ_counts.(arm) > succ_counts.(!best) then best := arm
              done;
              arms.(slot !best) <- arms.(slot !best) + (c - !assigned)
            end
          end)
        p.blocks;
      (Array.copy t.blocks.(pid), arms))

let scale a factor =
  let f x = int_of_float (float_of_int x *. factor) in
  map_rows a ~counted:(fun p -> not (shared a p)) (fun p ->
      (Array.map f a.blocks.(p), Array.map f a.arms.(p)))

(* Programs are compared by shape — procedures, blocks per procedure, arms
   per block — not by name: every generated binary has the same name. *)
let same_shape a b = a.shape == b.shape || a.prog == b.prog || a.shape.arm_base = b.shape.arm_base

let merge a b =
  if not (same_shape a b) then invalid_arg "Profile.merge: different programs";
  map_rows a ~counted:(fun p -> not (shared a p && shared b p)) (fun p ->
      (Array.map2 ( + ) a.blocks.(p) b.blocks.(p), Array.map2 ( + ) a.arms.(p) b.arms.(p)))

let rows_equal (x : int array) (y : int array) =
  let n = Array.length x in
  n = Array.length y
  &&
  let i = ref 0 in
  while !i < n && x.(!i) = y.(!i) do
    incr i
  done;
  !i = n

(* Delta.diff runs this for every procedure on every re-layout tick: two
   procedures that share the zero rows are equal without a read, and
   other rows compare without allocating. *)
let proc_equal a b pid =
  (shared a pid && shared b pid)
  || (rows_equal a.blocks.(pid) b.blocks.(pid) && rows_equal a.arms.(pid) b.arms.(pid))

let total_block_events t =
  let total = ref 0 in
  iter_nonzero_blocks t (fun ~proc:_ ~block:_ c -> total := !total + c);
  !total

(* --- persistence --- *)

let magic = "olayout-profile v1"

let output oc t =
  Printf.fprintf oc "%s\n" magic;
  Printf.fprintf oc "program %s %d\n" t.prog.Prog.name (Prog.n_procs t.prog);
  Array.iteri
    (fun pid (p : Proc.t) ->
      Printf.fprintf oc "proc %d %d\n" pid (Proc.n_blocks p);
      let base = t.shape.arm_base.(pid) in
      for bid = 0 to Proc.n_blocks p - 1 do
        Printf.fprintf oc "%d" (count t pid bid);
        for i = base.(bid) to base.(bid + 1) - 1 do
          Printf.fprintf oc " %d" t.arms.(pid).(i)
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
          (* A procedure with no counts keeps sharing the zero rows. *)
          if count <> 0 || List.exists (( <> ) 0) arms then begin
            (own t pid t.blocks.(pid)).(bid) <- count;
            List.iteri (fun arm a -> t.arms.(pid).(t.shape.arm_base.(pid).(bid) + arm) <- a) arms
          end
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
