module Temporal = Olayout_profile.Temporal

let weights_by temporal ~rep =
  List.filter_map
    (fun ((pa, pb), w) ->
      match (rep pa, rep pb) with Some i, Some j -> Some ((i, j), w) | _, _ -> None)
    (Temporal.pairs temporal)
