module Temporal = Olayout_profile.Temporal

let weights_by temporal ~rep =
  List.filter_map
    (fun ((pa, pb), w) ->
      match (rep pa, rep pb) with Some i, Some j -> Some ((i, j), w) | _, _ -> None)
    (Temporal.pairs temporal)

let pair_weights temporal ~heat segments =
  let seg_arr = Array.of_list segments in
  (* The graph is procedure-granular (as in Gloy et al.); when splitting has
     produced several segments per procedure, the procedure's affinities
     attach to its hottest segment — expanding to all segment pairs would
     both dilute the weights and blow the merge graph up quadratically. *)
  let representative = Hashtbl.create 64 in
  Array.iteri
    (fun i (seg : Segment.t) ->
      match Hashtbl.find_opt representative seg.proc with
      | Some j when heat seg_arr.(j) >= heat seg_arr.(i) -> ()
      | Some _ | None -> Hashtbl.replace representative seg.proc i)
    seg_arr;
  weights_by temporal ~rep:(Hashtbl.find_opt representative)

let order temporal ~heat segments =
  let seg_arr = Array.of_list segments in
  Pettis_hansen.order_weighted ~pass:"temporal_order"
    ~weights:(pair_weights temporal ~heat segments)
    ~heat:(fun i -> heat seg_arr.(i))
    segments
