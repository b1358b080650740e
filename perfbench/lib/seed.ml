let modulus = 1_000_000_007

let of_string s =
  let n = String.length s in
  let neg = n > 0 && s.[0] = '-' in
  let start = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  if start = n then None
  else begin
    let acc = ref 0 and ok = ref true in
    for i = start to n - 1 do
      match s.[i] with
      | '0' .. '9' as c -> acc := ((!acc * 10) + Char.code c - Char.code '0') mod modulus
      | _ -> ok := false
    done;
    if not !ok then None else Some (if neg then (modulus - !acc) mod modulus else !acc)
  end
