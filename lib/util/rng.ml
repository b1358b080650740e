(* The state lives unboxed in 8 bytes: a mutable [int64] field would box
   every new state, one allocation per draw on the walker's per-block
   path. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function.  Inlined, so callers that consume the result
   unboxed ([float], [bool], [int]) allocate nothing. *)
let[@inline] next_raw t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next_raw t

let split t = of_state (next_raw t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo bias is negligible for the bounds used here (all << 2^62). *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_raw t) 1) (Int64.of_int bound))

let[@inline] float t =
  (* 53 high bits to a double in [0,1). *)
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let bool t p = float t < p

let geometric t p =
  let p = if p < 1e-9 then 1e-9 else if p > 1.0 then 1.0 else p in
  if p >= 1.0 then 0
  else
    let u = float t in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.of_int 0 +. floor (log u /. log (1.0 -. p)))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let weighted_index t arr =
  let n = Array.length arr in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. snd arr.(i)
  done;
  if !total <= 0.0 then invalid_arg "Rng.pick_weighted: non-positive total weight";
  let x = float t *. !total in
  (* The first index whose running weight exceeds [x]; the last one takes
     whatever rounding leaves over. *)
  let i = ref 0 and acc = ref (snd arr.(0)) in
  while !i < n - 1 && not (x < !acc) do
    incr i;
    acc := !acc +. snd arr.(!i)
  done;
  !i

let pick_weighted t arr = fst arr.(weighted_index t arr)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
