(** Tables: a heap file plus an optional B+tree index on one key field, with
    transactional insert/update through the WAL and undo machinery. *)

type t

val create :
  Env.t -> id:int -> name:string -> schema:Record.schema -> indexed:bool -> key_field:int -> t
(** [indexed] builds a B+tree on field [key_field]. *)

val clone : t -> Env.t -> t
(** The same table (heap, index, row count) in [env], a clone of its
    environment ({!Env.clone}). *)

val id : t -> int
val name : t -> string
val schema : t -> Record.schema

val insert : t -> Env.t -> Txn.t -> int64 array -> Heap.rid
(** Transactional insert: heap write, index maintenance, WAL record, undo
    action.  @raise Invalid_argument on duplicate key in the index. *)

val insert_raw : t -> int64 array -> Heap.rid
(** Non-transactional bulk load (setup phase; no WAL, no locks). *)

val lookup : t -> int64 -> (Heap.rid * int64 array) option
(** Index point lookup.  @raise Invalid_argument when the table has no
    index. *)

val fetch : t -> Heap.rid -> int64 array option

val iter_key_range : t -> lo:int64 -> hi:int64 -> (Heap.rid -> int64 array -> unit) -> unit
(** Index range scan over [lo <= key <= hi], ascending (DSS queries).
    @raise Invalid_argument when the table has no index. *)

val update : t -> Env.t -> Txn.t -> Heap.rid -> int64 array -> unit
(** Transactional whole-row update (same width); WAL + undo.
    @raise Invalid_argument when the rid is dangling. *)

val iter : t -> (Heap.rid -> int64 array -> unit) -> unit
val n_rows : t -> int
val index_height : t -> int option
val heap_pages : t -> int list
