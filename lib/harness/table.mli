(** Aligned-text tables of typed cells: a figure's table is its data.

    A table, each of its rows and each of its columns carry an id written
    in code ([[a-z0-9_]+], checked here).  Every numeric cell is published
    as the gauge [fig.<table>.<row>.<col>], so a key names the same
    quantity at every scale and retitling a table moves no gauge. *)

type cell =
  | Int of int  (** thousands-separated: [1,234,567] *)
  | Ratio of float  (** two decimals: [0.42] *)
  | Pct of float  (** a fraction shown as a percent to one decimal: [0.423] is [42.3%] *)
  | Change of float
      (** a relative change shown as a signed whole percent: [-0.372] is [-37%] *)
  | Fixed of int * float  (** [Fixed (d, v)]: [v] to [d] decimals *)
  | Text of string  (** printed as given; never published *)
  | No_data  (** [-]; never published *)
  | Mark of cell * string
      (** the cell followed by a marker (e.g. ["*"]); published as the cell *)

val ratio : int -> int -> cell
val pct : int -> int -> cell
val change : int -> int -> cell
(** [ratio n d], [pct n d] and [change n d] are [Ratio (n / d)],
    [Pct (n / d)] and [Change (n / d - 1)]; each is [No_data] when
    [d = 0]. *)

type t

val create : id:string -> title:string -> columns:(string * string) list -> t
(** [columns] are (id, heading) pairs.
    @raise Invalid_argument on a malformed or repeated id. *)

val add_row : t -> id:string -> cell list -> unit
(** @raise Invalid_argument on a malformed or repeated row id, or a row
    whose length differs from the columns'. *)

val add_note : t -> string -> unit
(** Notes print under the table: prose and the paper's values, never a
    measured number. *)

val print : Format.formatter -> t -> unit

val render : cell -> string
(** The text a cell prints. *)

val gauges : t -> (string * float) list
(** [(fig.<table>.<row>.<col>, value)] for every numeric cell, row by row:
    [Int], [Ratio], [Pct], [Change] and [Fixed] cells, and the cell under
    a [Mark]. *)

val publisher : unit -> t list -> unit
(** [publisher ()] returns a function that sets each table's {!gauges}.
    It remembers every key it has published.
    @raise Invalid_argument when a key was already published, whether
    by an earlier call or earlier in the same list. *)

val fmt_int : int -> string
(** Thousands-separated, as [Int] prints. *)
