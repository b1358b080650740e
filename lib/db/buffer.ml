type frame = {
  mutable page_no : int;  (* -1 = empty *)
  mutable contents : Page.t;
  mutable shared : bool;  (* contents also belong to another pool or the disk *)
  mutable pins : int;
  mutable dirty : bool;
  mutable last_use : int;
}

type t = {
  disk : Disk.t;
  hooks : Hooks.t;
  before_page_write : unit -> unit;
  frames : frame array;
  table : (int, int) Hashtbl.t;  (* page_no -> frame index *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(before_page_write = fun () -> ()) disk hooks ~frames =
  if frames < 1 then invalid_arg "Buffer.create: need at least one frame";
  (* Empty frames share one page: a miss replaces a frame's contents before
     anything reads or writes them. *)
  let empty = Page.create () in
  {
    disk;
    hooks;
    before_page_write;
    frames =
      Array.init frames (fun _ ->
          { page_no = -1; contents = empty; shared = true; pins = 0; dirty = false; last_use = 0 });
    table = Hashtbl.create (2 * frames);
    clock = 0;
    hits = 0;
    misses = 0;
  }

let evict t idx =
  let f = t.frames.(idx) in
  if f.page_no >= 0 then begin
    if f.dirty then begin
      t.before_page_write ();
      Disk.write t.disk f.page_no f.contents
    end;
    Hashtbl.remove t.table f.page_no;
    f.page_no <- -1;
    f.dirty <- false
  end

let find_victim t =
  let best = ref (-1) in
  Array.iteri
    (fun i f ->
      if f.pins = 0 then
        match !best with
        | -1 -> best := i
        | b when f.last_use < t.frames.(b).last_use -> best := i
        | _ -> ())
    t.frames;
  match !best with
  | -1 -> failwith "Buffer.pin: all frames pinned"
  | i -> i

let pin t page_no =
  t.clock <- t.clock + 1;
  t.hooks.Hooks.on_op (Hooks.Page_touch { page = page_no; off = 0; len = 64 });
  match Hashtbl.find_opt t.table page_no with
  | Some idx ->
      let f = t.frames.(idx) in
      t.hits <- t.hits + 1;
      t.hooks.Hooks.on_op Hooks.Buffer_hit;
      f.pins <- f.pins + 1;
      f.last_use <- t.clock;
      (* Copy on first pin: whoever else holds the contents never sees
         this pool's writes. *)
      if f.shared then begin
        f.contents <- Page.copy f.contents;
        f.shared <- false
      end;
      f.contents
  | None ->
      t.misses <- t.misses + 1;
      t.hooks.Hooks.on_op Hooks.Buffer_miss;
      let idx = find_victim t in
      evict t idx;
      let f = t.frames.(idx) in
      f.contents <- Disk.read t.disk page_no;
      f.shared <- false;
      f.page_no <- page_no;
      f.pins <- 1;
      f.dirty <- false;
      f.last_use <- t.clock;
      Hashtbl.replace t.table page_no idx;
      f.contents

let frame_of t page_no what =
  match Hashtbl.find_opt t.table page_no with
  | Some idx -> t.frames.(idx)
  | None -> invalid_arg (Printf.sprintf "Buffer.%s: page %d not resident" what page_no)

let unpin t page_no =
  let f = frame_of t page_no "unpin" in
  if f.pins <= 0 then invalid_arg "Buffer.unpin: not pinned";
  f.pins <- f.pins - 1

let mark_dirty t page_no = (frame_of t page_no "mark_dirty").dirty <- true

let with_page t page_no ?(dirty = false) f =
  let p = pin t page_no in
  match f p with
  | v ->
      if dirty then mark_dirty t page_no;
      unpin t page_no;
      v
  | exception e ->
      unpin t page_no;
      raise e

let flush_all t =
  Array.iter
    (fun f ->
      if f.page_no >= 0 && f.dirty then begin
        t.before_page_write ();
        Disk.write t.disk f.page_no f.contents;
        f.dirty <- false
      end)
    t.frames

let freeze t =
  if Array.exists (fun f -> f.pins > 0) t.frames then
    invalid_arg "Buffer.freeze: a frame is pinned";
  flush_all t;
  Array.iter
    (fun f ->
      if f.page_no >= 0 then
        Option.iter (fun img -> f.contents <- img) (Disk.stored t.disk f.page_no);
      f.shared <- true)
    t.frames

let clone t ?(before_page_write = fun () -> ()) disk hooks =
  (* A pin unshares its frame, so every frame still shared means no frame
     has been pinned, or written, since [freeze]. *)
  if not (Array.for_all (fun f -> f.shared) t.frames) then
    invalid_arg "Buffer.clone: pool not frozen";
  {
    disk;
    hooks;
    before_page_write;
    frames = Array.map (fun f -> { f with shared = true }) t.frames;
    table = Hashtbl.copy t.table;
    clock = t.clock;
    hits = t.hits;
    misses = t.misses;
  }

let hits t = t.hits
let misses t = t.misses
let resident t = Hashtbl.length t.table
