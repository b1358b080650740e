(** The [--seed] argument. *)

val modulus : int
(** 1_000_000_007. *)

val of_string : string -> int option
(** A decimal integer of any length, with an optional sign, reduced into
    [0 .. modulus - 1]: seeds below {!modulus} are kept as they are, a
    larger or negative one is taken modulo {!modulus}.  [None] when the
    string is not a decimal integer. *)
