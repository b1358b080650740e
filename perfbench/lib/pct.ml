(* Percentiles over op latencies, refusing any percentile with fewer than
   ten samples beyond it: with fewer, one slow op decides the figure. *)

let min_beyond = 10
let candidates = [ 50.; 75.; 90.; 95.; 99.; 99.9 ]

(* Nearest rank: the [p]th percentile of [n] sorted samples is the sample
   at 1-based rank [ceil (p n / 100)]. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.)))
let beyond ~n p = n - rank ~n p

let at sorted p =
  let n = Array.length sorted in
  if n = 0 || beyond ~n p < min_beyond then None else Some sorted.(rank ~n p - 1)

let sorted samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

let percentile samples p = at (sorted samples) p

let tail samples =
  let s = sorted samples in
  List.fold_left
    (fun acc p -> match at s p with Some v -> Some (p, v) | None -> acc)
    None candidates
