(* Shared console glyph rendering: Unicode sparklines.  One implementation
   serves the timeline summary and the drift and relayout tables, so the
   renderings stay visually consistent and the resampling rules live in
   one place. *)

let spark_glyphs =
  [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let spark_width = 60

let spark ?(width = spark_width) mode values =
  let n = Array.length values in
  if n = 0 || width < 1 then ""
  else begin
    let buckets = min n width in
    let acc = Array.make buckets 0 in
    for i = 0 to n - 1 do
      let b = i * buckets / n in
      match mode with
      | `Sum -> acc.(b) <- acc.(b) + values.(i)
      | `Max -> acc.(b) <- max acc.(b) values.(i)
    done;
    let vmax = Array.fold_left max 0 acc in
    let buf = Buffer.create (buckets * 3) in
    Array.iter
      (fun v ->
        let level =
          if vmax <= 0 then 0 else v * (Array.length spark_glyphs - 1) / vmax
        in
        Buffer.add_string buf spark_glyphs.(level))
      acc;
    Buffer.contents buf
  end
