module Profile = Olayout_profile.Profile
module Provenance = Olayout_telemetry.Provenance

let line_bytes = 64
let max_gap_lines = 16

let place profile rows ~order ~cache_bytes =
  if cache_bytes <= 0 || cache_bytes land (cache_bytes - 1) <> 0 then
    invalid_arg "Coloring.place: cache_bytes must be a power of two";
  let prog = Profile.prog profile in
  let segs = Placement.numbered rows in
  let n_colors = cache_bytes / line_bytes in
  let heat_of_color = Array.make n_colors 0.0 in
  let base = prog.Olayout_ir.Prog.base_addr in
  let color_of addr = (addr - base) / line_bytes mod n_colors in
  (* Score of placing [bytes] at [addr]: total heat already on the covered
     colors. *)
  let span_score addr bytes =
    let first = color_of addr in
    let lines = max 1 ((bytes + line_bytes - 1) / line_bytes) in
    let score = ref 0.0 in
    for i = 0 to min lines n_colors - 1 do
      score := !score +. heat_of_color.((first + i) mod n_colors)
    done;
    !score
  in
  let claim addr bytes heat_per_line =
    let first = color_of addr in
    let lines = max 1 ((bytes + line_bytes - 1) / line_bytes) in
    for i = 0 to min lines n_colors - 1 do
      heat_of_color.((first + i) mod n_colors) <-
        heat_of_color.((first + i) mod n_colors) +. heat_per_line
    done
  in
  let prov = Provenance.enabled () in
  let addr_of g cursor =
    let seg = segs.(g) in
    let heat = float_of_int (Segment.heat profile seg) in
    let bytes = Segment.max_bytes prog seg in
    if heat = 0.0 then cursor
    else begin
      (* Try gaps of 0..max_gap_lines lines; pick the least-contended. *)
      let best = ref cursor and best_score = ref infinity in
      for gap = 0 to max_gap_lines do
        let addr = cursor + (gap * line_bytes) in
        let score = span_score addr bytes in
        if score < !best_score then begin
          best_score := score;
          best := addr
        end
      done;
      let lines = max 1 ((bytes + line_bytes - 1) / line_bytes) in
      claim !best bytes (heat /. float_of_int lines);
      if prov then
        Provenance.record ~pass:"coloring" ~subject:seg.Segment.proc
          [
            ("color", Provenance.Int (color_of !best));
            ("gap_lines", Provenance.Int ((!best - cursor) / line_bytes));
            ("contention", Provenance.Float !best_score);
            ("heat", Provenance.Float heat);
            ("bytes", Provenance.Int bytes);
          ];
      !best
    end
  in
  Placement.of_rows ~align:4 ~addr_of prog rows ~order
