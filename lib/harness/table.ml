module Telemetry = Olayout_telemetry.Telemetry

type cell =
  | Int of int
  | Ratio of float
  | Pct of float
  | Change of float
  | Fixed of int * float
  | Text of string
  | No_data
  | Mark of cell * string

let divide n d cell = if d = 0 then No_data else cell (float_of_int n /. float_of_int d)
let ratio n d = divide n d (fun f -> Ratio f)
let pct n d = divide n d (fun f -> Pct f)
let change n d = divide n d (fun f -> Change (f -. 1.0))

type t = {
  id : string;
  title : string;
  columns : (string * string) list;
  mutable rev_rows : (string * cell list) list;
  mutable rev_notes : string list;
}

let check_id what id ~taken =
  let ok c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' in
  if id = "" || not (String.for_all ok id) then
    invalid_arg (Printf.sprintf "Table: %s id %S is not [a-z0-9_]+" what id);
  if taken then invalid_arg (Printf.sprintf "Table: repeated %s id %S" what id)

let create ~id ~title ~columns =
  check_id "table" id ~taken:false;
  ignore
    (List.fold_left
       (fun seen (c, _) ->
         check_id "column" c ~taken:(List.mem c seen);
         c :: seen)
       [] columns);
  { id; title; columns; rev_rows = []; rev_notes = [] }

let add_row t ~id cells =
  check_id "row" id ~taken:(List.mem_assoc id t.rev_rows);
  if List.length cells <> List.length t.columns then
    invalid_arg (Printf.sprintf "Table %s: row %S has the wrong arity" t.id id);
  t.rev_rows <- (id, cells) :: t.rev_rows

let add_note t note = t.rev_notes <- note :: t.rev_notes

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Stdlib.Buffer.create (len + 4) in
  if n < 0 then Stdlib.Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Stdlib.Buffer.add_char buf ',';
      Stdlib.Buffer.add_char buf c)
    s;
  Stdlib.Buffer.contents buf

let rec render = function
  | Int n -> fmt_int n
  | Ratio f -> Printf.sprintf "%.2f" f
  | Pct f -> Printf.sprintf "%.1f%%" (100.0 *. f)
  | Change f -> Printf.sprintf "%+.0f%%" (100.0 *. f)
  | Fixed (decimals, v) -> Printf.sprintf "%.*f" decimals v
  | Text s -> s
  | No_data -> "-"
  | Mark (c, mark) -> render c ^ mark

let print ppf t =
  let rows = List.rev_map (fun (_, cells) -> List.map render cells) t.rev_rows in
  let headings = List.map snd t.columns in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) (String.length h) rows)
      headings
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line row = String.concat "  " (List.map2 pad row widths) in
  Format.fprintf ppf "@.== %s ==@." t.title;
  Format.fprintf ppf "%s@." (line headings);
  Format.fprintf ppf "%s@." (String.make (String.length (line headings)) '-');
  List.iter (fun row -> Format.fprintf ppf "%s@." (line row)) rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) (List.rev t.rev_notes)

let gauges t =
  let rec value = function
    | Int n -> Some (float_of_int n)
    | Ratio f | Pct f | Change f | Fixed (_, f) -> Some f
    | Text _ | No_data -> None
    | Mark (c, _) -> value c
  in
  List.concat_map
    (fun (row, cells) ->
      List.concat
        (List.map2
           (fun (col, _) cell ->
             Option.to_list
               (Option.map (fun v -> (String.concat "." [ "fig"; t.id; row; col ], v)) (value cell)))
           t.columns cells))
    (List.rev t.rev_rows)

let publisher () =
  let published = Hashtbl.create 1024 in
  List.iter (fun t ->
      List.iter
        (fun (key, v) ->
          if Hashtbl.mem published key then invalid_arg ("Table: two cells publish " ^ key);
          Hashtbl.add published key ();
          Telemetry.set_gauge (Telemetry.gauge key) v)
        (gauges t))
