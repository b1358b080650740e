type t = {
  (* Units sorted by descending execution count. *)
  sizes : int array;
  counts : int array;
  cum_bytes : int array;    (* cumulative size of units executed >= once *)
  cum_dyn : float array;    (* cumulative fraction of dynamic execution *)
  static_bytes : int;
  executed_bytes : int;
  total_dynamic : int;
}

let of_units units =
  let arr = Array.of_list units in
  Array.sort (fun (_, c1) (_, c2) -> compare c2 c1) arr;
  let n = Array.length arr in
  let sizes = Array.map fst arr and counts = Array.map snd arr in
  let static_bytes = Array.fold_left ( + ) 0 sizes in
  let total_dynamic = Array.fold_left ( + ) 0 counts in
  let executed_bytes = ref 0 in
  let cum_bytes = Array.make n 0 and cum_dyn = Array.make n 0.0 in
  let bytes = ref 0 and dyn = ref 0.0 in
  let totf = if total_dynamic = 0 then 1.0 else float_of_int total_dynamic in
  for i = 0 to n - 1 do
    if counts.(i) > 0 then begin
      bytes := !bytes + sizes.(i);
      executed_bytes := !executed_bytes + sizes.(i)
    end;
    dyn := !dyn +. (float_of_int counts.(i) /. totf);
    cum_bytes.(i) <- !bytes;
    cum_dyn.(i) <- !dyn
  done;
  {
    sizes;
    counts;
    cum_bytes;
    cum_dyn;
    static_bytes;
    executed_bytes = !executed_bytes;
    total_dynamic;
  }

let executed_footprint_bytes t = t.executed_bytes
let static_bytes t = t.static_bytes
let total_dynamic t = t.total_dynamic

let bytes_for_fraction t f =
  let n = Array.length t.cum_dyn in
  let rec go i =
    if i >= n then t.executed_bytes
    else if t.cum_dyn.(i) >= f then t.cum_bytes.(i)
    else go (i + 1)
  in
  go 0

let captured_at t bytes =
  let n = Array.length t.cum_bytes in
  let rec go i best =
    if i >= n then best
    else if t.cum_bytes.(i) <= bytes then go (i + 1) t.cum_dyn.(i)
    else best
  in
  go 0 0.0

let curve t ~points =
  let maxb = t.executed_bytes and points = max 1 points in
  (* Sample i covers i/points of the executed footprint; below [points]
     bytes neighbouring samples round to one size and only the first
     stays. *)
  let rec go i prev acc =
    if i > points then List.rev acc
    else
      let b = i * maxb / points in
      if b = prev then go (i + 1) prev acc else go (i + 1) b ((b, captured_at t b) :: acc)
  in
  go 0 (-1) []
