(** Figure 7: contribution of each optimization combination (base, porder,
    chain, chain+split, chain+porder, all) to application i-cache misses at
    128-byte lines / 4-way, across cache sizes.

    Paper: porder alone slightly *hurts*; chaining gives the largest
    absolute gain; splitting or ordering alone add little on top of
    chaining; ordering after fine-grain splitting adds a further
    substantial reduction. *)

type result = {
  combos : Olayout_core.Spike.combo list;
  rows : (int * (Olayout_core.Spike.combo * int) list) list;
      (** per cache size KB, misses per combo *)
}

val run : Context.t -> result

val combo_column : Olayout_core.Spike.combo -> string * string
(** A combination's (column id, heading): its name, with ['+'] written
    ['_'] in the id. *)

val tables : result -> Table.t list
