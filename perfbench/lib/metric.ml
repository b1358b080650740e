module Json = Olayout_telemetry.Json

type t = { name : string; unit_ : string; value : float }

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_with ~max ~extra s =
  let n = String.length s in
  n >= 1 && n <= max
  && String.for_all (fun c -> is_alnum c || String.contains extra c) s

let valid_name s =
  valid_with ~max:64 ~extra:"_.-" s && is_alnum s.[0]

let valid_unit s = valid_with ~max:16 ~extra:"_/%.-" s

let make name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.make: bad metric name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Metric.make: bad unit " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Metric.make: %s is not finite" name);
  { name; unit_; value }

let to_json metrics =
  Json.Object
    (List.map
       (fun m -> (m.name, Json.Object [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       metrics)

let result_json ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.name then
        invalid_arg ("Metric.result_json: duplicate metric " ^ m.name);
      Hashtbl.add seen m.name ())
    metrics;
  Json.Object
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", to_json metrics);
    ]
