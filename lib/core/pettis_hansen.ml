open Olayout_ir
module Profile = Olayout_profile.Profile
module Telemetry = Olayout_telemetry.Telemetry
module Provenance = Olayout_telemetry.Provenance

let c_edges_merged = Telemetry.counter "core.ph_edges_merged"

(* --- array-based max-heap of (weight, a, b), lazily deleted: an entry
   lives in three parallel arrays, so a push allocates nothing and a swap
   writes no pointer --- *)
module Heap = struct
  type t = {
    mutable w : float array;
    mutable a : int array;
    mutable b : int array;
    mutable len : int;
  }

  let create () = { w = Array.make 64 0.0; a = Array.make 64 0; b = Array.make 64 0; len = 0 }

  let swap h i j =
    let w = h.w.(i) and a = h.a.(i) and b = h.b.(i) in
    h.w.(i) <- h.w.(j);
    h.a.(i) <- h.a.(j);
    h.b.(i) <- h.b.(j);
    h.w.(j) <- w;
    h.a.(j) <- a;
    h.b.(j) <- b

  let grow h =
    let cap = 2 * h.len in
    let w = Array.make cap 0.0 and a = Array.make cap 0 and b = Array.make cap 0 in
    Array.blit h.w 0 w 0 h.len;
    Array.blit h.a 0 a 0 h.len;
    Array.blit h.b 0 b 0 h.len;
    h.w <- w;
    h.a <- a;
    h.b <- b

  (* Inlined, so the weight reaches the array unboxed. *)
  let[@inline] push h w a b =
    if h.len = Array.length h.w then grow h;
    h.w.(h.len) <- w;
    h.a.(h.len) <- a;
    h.b.(h.len) <- b;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.w.((!i - 1) / 2) < h.w.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Drops the top entry, which the caller has read at index 0. *)
  let pop h =
    h.len <- h.len - 1;
    h.w.(0) <- h.w.(h.len);
    h.a.(0) <- h.a.(h.len);
    h.b.(0) <- h.b.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let biggest = ref !i in
      if l < h.len && h.w.(l) > h.w.(!biggest) then biggest := l;
      if r < h.len && h.w.(r) > h.w.(!biggest) then biggest := r;
      if !biggest = !i then continue := false
      else begin
        swap h !i !biggest;
        i := !biggest
      end
    done
end

(* The pair and adjacency tables.  [Hashtbl.Make] with [Hashtbl.hash]
   gives each key the generic table's bucket, growth and iteration order,
   which decide every weight tie, and compares keys without the
   polymorphic [compare]. *)
module Pairs = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash = Hashtbl.hash
end)

module Adj = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = Hashtbl.hash
end)

(* The undirected pair weights from the profile, by segment index
   ([seg_of proc block]).  Only arms with nonzero counts can weigh
   anything, so the scan visits those alone; it logs each crossing as a
   (low, high, count) triple, then sorts the log by pair and sums each
   pair's run.  Counts are integers, so the sums are exact in any order. *)
let pair_weights_of profile ~seg_of =
  let prog = Profile.prog profile in
  let cap = ref 1024 and len = ref 0 in
  let lo = ref (Array.make !cap 0) and hi = ref (Array.make !cap 0) in
  let cnt = ref (Array.make !cap 0) in
  let grow a = Array.append !a (Array.make !cap 0) in
  let bump a b c =
    if a <> b && c > 0 then begin
      if !len = !cap then begin
        lo := grow lo;
        hi := grow hi;
        cnt := grow cnt;
        cap := 2 * !cap
      end;
      !lo.(!len) <- (if a < b then a else b);
      !hi.(!len) <- (if a < b then b else a);
      !cnt.(!len) <- c;
      incr len
    end
  in
  Profile.iter_nonzero_arms profile (fun ~proc ~block ~arm count ->
      let b = Proc.block (Prog.proc prog proc) block in
      let src = seg_of proc block in
      match b.Block.term with
      | Block.Call { callee; _ } ->
          (* Call edges: call-site block to callee entry segment (the
             return glue stays within a segment). *)
          bump src (seg_of callee (Prog.proc prog callee).Proc.entry) count
      | _ -> (
          (* Intra-procedure branches that cross segments. *)
          match Block.arm_target b arm with
          | Some dst -> bump src (seg_of proc dst) count
          | None -> ()));
  let lo = !lo and hi = !hi and cnt = !cnt in
  let idx = Array.init !len Fun.id in
  Array.stable_sort
    (fun i j -> match compare lo.(i) lo.(j) with 0 -> compare hi.(i) hi.(j) | c -> c)
    idx;
  let pairs = ref [] and k = ref (!len - 1) in
  while !k >= 0 do
    let i = idx.(!k) and sum = ref 0 in
    while !k >= 0 && lo.(idx.(!k)) = lo.(i) && hi.(idx.(!k)) = hi.(i) do
      sum := !sum + cnt.(idx.(!k));
      decr k
    done;
    pairs := ((lo.(i), hi.(i)), float_of_int !sum) :: !pairs
  done;
  !pairs

(* Union-find root, compressing the path it walks. *)
let rec find parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let r = find parent p in
    parent.(x) <- r;
    r
  end

(* The per-segment state of one run, kept between runs at its resting
   values: [head.(i) = tail.(i) = parent.(i) = i], no links, zero group
   heat and the shared empty adjacency [none], with the heap empty.  A
   run writes only the segments that carry weight (and the hot
   singletons' heat), and puts exactly those back, so it costs what the
   weighted subgraph costs. *)
type buffers = {
  mutable cap : int;
  mutable head : int array;
  mutable tail : int array;
  mutable link0 : int array;
  mutable link1 : int array;
  mutable parent : int array;
  mutable group_heat : float array;
  mutable adj : float Adj.t array;
  none : float Adj.t;
  heap : Heap.t;
}

let buffers () =
  let none = Adj.create 1 in
  {
    cap = 0;
    head = [||];
    tail = [||];
    link0 = [||];
    link1 = [||];
    parent = [||];
    group_heat = [||];
    adj = [||];
    none;
    heap = Heap.create ();
  }

let reserve bf n =
  if n > bf.cap then begin
    let cap = max n (2 * bf.cap) in
    bf.head <- Array.init cap Fun.id;
    bf.tail <- Array.init cap Fun.id;
    bf.link0 <- Array.make cap (-1);
    bf.link1 <- Array.make cap (-1);
    bf.parent <- Array.init cap Fun.id;
    bf.group_heat <- Array.make cap 0.0;
    bf.adj <- Array.make cap bf.none;
    bf.cap <- cap
  end

let order_indices bf ?(pass = "pettis_hansen") ~n ~weights ~heat ~hot ~proc_of () =
  reserve bf n;
  let { head; tail; link0; link1; parent; group_heat; adj; none; heap; cap = _ } = bf in
  (* Decision provenance is checked once per invocation; the merge loop
     pays nothing while the subsystem is disabled. *)
  let prov = Provenance.enabled () in
  let merge_step = ref 0 in
  let wtbl : float ref Pairs.t = Pairs.create (List.length weights * 2) in
  List.iter
    (fun ((a, b), w) ->
      if a <> b && w > 0.0 then begin
        if a < 0 || b < 0 || a >= n || b >= n then
          invalid_arg "Pettis_hansen: pair weight on a segment out of range";
        let key = if a < b then (a, b) else (b, a) in
        match Pairs.find_opt wtbl key with
        | Some r -> r := !r +. w
        | None -> Pairs.add wtbl key (ref w)
      end)
    weights;
  let weights = wtbl in
  let original_w a b =
    let key = if a < b then (a, b) else (b, a) in
    match Pairs.find_opt weights key with Some r -> !r | None -> 0.0
  in
  (* Segments written by this run, to be put back at rest. *)
  let touched = ref [] in
  (* Per-representative adjacency (merged weights).  A segment's table is
     created when it first gets an edge; until then it reads as the shared
     empty [none], which is never written.  Ties between equal weights go
     to the earlier heap push, and pushes follow these tables' iteration
     order, so their creation size and insertion sequence are part of the
     output. *)
  let adj_of x =
    if adj.(x) == none then begin
      adj.(x) <- Adj.create 4;
      touched := x :: !touched
    end;
    adj.(x)
  in
  (* Each group is a path of segments.  The representative's [head] and
     [tail] name its ends; [link0]/[link1] hold each segment's neighbours
     in no particular order (-1: none).  Reversing a group swaps its ends,
     and joining two groups links one end of each: both O(1). *)
  let link x y = if link0.(x) < 0 then link0.(x) <- y else link1.(x) <- y in
  (* Visit a group's members from end [first] to the other end. *)
  let iter_path first f =
    let prev = ref (-1) and cur = ref first in
    while !cur >= 0 do
      let c = !cur in
      f c;
      cur := if link0.(c) <> !prev then link0.(c) else link1.(c);
      prev := c
    done
  in
  let current_weight a b =
    match Adj.find_opt adj.(a) b with Some w -> w | None -> 0.0
  in
  let merge_loop () =
    while heap.Heap.len > 0 do
      let w = heap.Heap.w.(0) and a = heap.Heap.a.(0) and b = heap.Heap.b.(0) in
      Heap.pop heap;
      let ra = find parent a and rb = find parent b in
      if ra <> rb && w > 0.0 && a = ra && b = rb && current_weight ra rb = w then begin
        (* Choose orientation: of the four end pairings, keep the one whose
           touching endpoint segments have the heaviest original weight;
           the first listed wins a tie.  Each pairing links end [x] of one
           group to end [y] of the other and names the merged ends. *)
        let ha = head.(ra) and ta = tail.(ra) and hb = head.(rb) and tb = tail.(rb) in
        let best = ref (ta, hb, ha, tb) (* ra then rb *) in
        let best_w = ref (original_w ta hb) in
        let consider ((x, y, _, _) as pairing) =
          let w' = original_w x y in
          if w' > !best_w then begin
            best := pairing;
            best_w := w'
          end
        in
        consider (ta, tb, ha, hb) (* ra then reversed rb *);
        consider (ha, hb, ta, tb) (* reversed ra then rb *);
        consider (tb, ha, hb, ta) (* rb then ra *);
        let x, y, h, t = !best in
        Telemetry.incr c_edges_merged;
        if prov then begin
          (* One event per merge, charged to the group being absorbed:
             "this procedure was pulled next to that one by an edge of
             this weight, at this point in the greedy order". *)
          incr merge_step;
          Provenance.record ~pass ~subject:(proc_of rb)
            [
              ("partner", Provenance.Int (proc_of ra));
              ("weight", Provenance.Float w);
              ("step", Provenance.Int !merge_step);
            ]
        end;
        (* rb joins ra. *)
        parent.(rb) <- ra;
        link x y;
        link y x;
        head.(ra) <- h;
        tail.(ra) <- t;
        Adj.remove adj.(ra) rb;
        Adj.remove adj.(rb) ra;
        Adj.iter
          (fun other w' ->
            let other = find parent other in
            if other <> ra then begin
              let updated = current_weight ra other +. w' in
              Adj.replace (adj_of ra) other updated;
              Adj.replace (adj_of other) ra updated;
              Adj.remove adj.(other) rb;
              if ra < other then Heap.push heap updated ra other
              else Heap.push heap updated other ra
            end)
          adj.(rb);
        adj.(rb) <- none
      end
    done
  in
  let run () =
    Pairs.iter
      (fun (a, b) r ->
        Adj.replace (adj_of a) b !r;
        Adj.replace (adj_of b) a !r;
        Heap.push heap !r a b)
      weights;
    merge_loop ();
    (* Emission: groups by heat descending, ties to the smaller
       representative.  A group's representative is its smallest member
       (the lower index always absorbs the higher) and its heat is its
       hottest member's.  Heats are non-negative, so the groups with heat
       above zero come first, sorted, and every other group follows in
       ascending representative order: the order a full sort would give,
       with only the hot groups sorted. *)
    let weighted = !touched in
    List.iter
      (fun s ->
        let r = find parent s in
        let h = heat s in
        if h > group_heat.(r) then group_heat.(r) <- h)
      weighted;
    let hot_groups = ref (List.filter (fun s -> parent.(s) = s && group_heat.(s) > 0.0) weighted) in
    (* A weighted segment is either absorbed (its parent is another) or a
       representative holding its adjacency table; the rest are
       singletons. *)
    hot (fun s ->
        if adj.(s) == none && parent.(s) = s && group_heat.(s) = 0.0 then begin
          let h = heat s in
          if h > 0.0 then begin
            group_heat.(s) <- h;
            touched := s :: !touched;
            hot_groups := s :: !hot_groups
          end
        end);
    let hot_groups = Array.of_list !hot_groups in
    Array.sort
      (fun r1 r2 ->
        match Float.compare group_heat.(r2) group_heat.(r1) with 0 -> compare r1 r2 | c -> c)
      hot_groups;
    let order = Array.make n 0 and k = ref 0 in
    let emit_group r =
      iter_path head.(r) (fun c ->
          order.(!k) <- c;
          incr k)
    in
    Array.iter emit_group hot_groups;
    for r = 0 to n - 1 do
      if parent.(r) = r && group_heat.(r) = 0.0 then
        if link0.(r) < 0 (* a singleton *) then begin
          order.(!k) <- r;
          incr k
        end
        else emit_group r
    done;
    if prov then
      Array.iteri
        (fun rank s -> Provenance.record ~pass ~subject:(proc_of s) [ ("rank", Provenance.Int rank) ])
        order;
    order
  in
  Fun.protect run ~finally:(fun () ->
      heap.Heap.len <- 0;
      List.iter
        (fun s ->
          head.(s) <- s;
          tail.(s) <- s;
          link0.(s) <- -1;
          link1.(s) <- -1;
          parent.(s) <- s;
          group_heat.(s) <- 0.0;
          adj.(s) <- none)
        !touched)
