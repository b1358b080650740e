(* Spans live in preallocated parallel arrays: recording one costs two
   clock reads, two GC-counter reads and a few array writes, and nothing
   is written out until the run ends. *)

type t = {
  base : float;
  mutable on : bool;
  name : string array;
  parent : int array;
  t0 : float array;
  t1 : float array;
  a0 : float array;
  a1 : float array;
  mutable n : int;
  mutable cur : int;
  mutable dropped : int;
}

let create capacity =
  let f () = Array.make capacity 0. in
  {
    base = Unix.gettimeofday ();
    on = false;
    name = Array.make capacity "";
    parent = Array.make capacity (-1);
    t0 = f ();
    t1 = f ();
    a0 = f ();
    a1 = f ();
    n = 0;
    cur = -1;
    dropped = 0;
  }

let set_on t b = t.on <- b
let is_on t = t.on
let dropped t = t.dropped

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let enter t name =
  if t.n = Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- t.cur;
    t.a0.(i) <- allocated_words ();
    t.t0.(i) <- Unix.gettimeofday ();
    t.cur <- i;
    i
  end

let leave t i =
  if i >= 0 then begin
    t.t1.(i) <- Unix.gettimeofday ();
    t.a1.(i) <- allocated_words ();
    t.cur <- t.parent.(i)
  end

let span t name f =
  if not t.on then f ()
  else begin
    let i = enter t name in
    match f () with
    | v ->
        leave t i;
        v
    | exception e ->
        leave t i;
        raise e
  end

let attribute t ~parent name seconds =
  if t.on && parent >= 0 && parent < t.n && seconds > 0. && t.n < Array.length t.name
  then begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.t1.(i) <- t.t1.(parent);
    t.t0.(i) <- t.t1.(parent) -. seconds;
    t.a0.(i) <- 0.;
    t.a1.(i) <- 0.
  end

let next_id t = t.n

let layer name =
  match String.index_opt name '/' with Some k -> String.sub name 0 k | None -> name

type self = {
  s_root : string;
  s_name : string;
  s_seconds : float;
  s_words : float;
  s_count : int;
}

let self_times t =
  let n = t.n in
  let child_s = Array.make n 0. and child_w = Array.make n 0. in
  let root = Array.make n "" in
  for i = 0 to n - 1 do
    let p = t.parent.(i) in
    root.(i) <- (if p >= 0 then root.(p) else t.name.(i));
    if p >= 0 then begin
      child_s.(p) <- child_s.(p) +. (t.t1.(i) -. t.t0.(i));
      child_w.(p) <- child_w.(p) +. (t.a1.(i) -. t.a0.(i))
    end
  done;
  let acc = Hashtbl.create 16 and order = ref [] in
  for i = 0 to n - 1 do
    let key = (root.(i), t.name.(i)) in
    let s, w, c =
      match Hashtbl.find_opt acc key with
      | Some v -> v
      | None ->
          order := key :: !order;
          (0., 0., 0)
    in
    Hashtbl.replace acc key
      ( s +. (t.t1.(i) -. t.t0.(i) -. child_s.(i)),
        w +. (t.a1.(i) -. t.a0.(i) -. child_w.(i)),
        c + 1 )
  done;
  List.rev_map
    (fun ((r, name) as key) ->
      let s, w, c = Hashtbl.find acc key in
      { s_root = r; s_name = name; s_seconds = s; s_words = w; s_count = c })
    !order

let to_json t =
  let module Json = Olayout_telemetry.Json in
  Json.Array
    (List.init t.n (fun i ->
         Json.Object
           [
             ("id", Json.Int i);
             ("name", Json.String t.name.(i));
             ("parent", Json.Int t.parent.(i));
             ("start_s", Json.Float (t.t0.(i) -. t.base));
             ("end_s", Json.Float (t.t1.(i) -. t.base));
             ("alloc_words_start", Json.Float t.a0.(i));
             ("alloc_words_end", Json.Float t.a1.(i));
           ]))
