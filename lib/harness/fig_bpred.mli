(** Extension experiment: branch prediction.

    Chaining explicitly "biases conditional branches to be not taken"
    (paper §2); reducing branch mispredicts is the other classic payoff of
    layout optimization in the literature the paper builds on (§6).  This
    experiment runs every executed conditional branch of the application
    stream through four predictors under the baseline and optimized
    layouts. *)

type row = {
  policy : Olayout_perf.Bpred.policy;
  base : int * int;  (** (mispredicts, branches), baseline layout *)
  opt : int * int;
}

type result = {
  branches : int;  (** conditional branches executed *)
  taken_base : int;  (** of them taken under the baseline layout *)
  taken_opt : int;
  rows : row list;
}

val run : Context.t -> result
val tables : result -> Table.t list
