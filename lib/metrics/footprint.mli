(** Cumulative execution profiles (the paper's Figure 3).

    Given the execution count of each code unit (we use one unit per static
    instruction, each carrying its basic block's count), the profile sorts
    units from most- to least-frequently executed and reports the cumulative
    fraction of all dynamic instructions captured by a given static
    footprint. *)

type t

val of_units : (int * int) list -> t
(** [of_units units] builds a profile from [(size_bytes, exec_count)] pairs.
    Units with a zero count contribute to the static size but not to the
    executed footprint. *)

val executed_footprint_bytes : t -> int
(** Static bytes of all units executed at least once (the paper's ~260 KB). *)

val static_bytes : t -> int
(** Static bytes of all units, executed or not. *)

val total_dynamic : t -> int
(** Total dynamic execution count across units. *)

val bytes_for_fraction : t -> float -> int
(** [bytes_for_fraction t f] is the smallest footprint (in bytes, hottest
    units first) capturing at least fraction [f] of dynamic execution. *)

val captured_at : t -> int -> float
(** [captured_at t bytes] is the fraction of dynamic instructions captured by
    the hottest [bytes] of code. *)

val curve : t -> points:int -> (int * float) list
(** [curve t ~points] samples the cumulative profile at evenly spaced
    footprint sizes, for plotting Figure 3: [i * executed / points] bytes
    for [i] from 0 to [points].  The sizes strictly increase from 0 to the
    executed footprint, so there are [min points executed + 1] samples
    ([points] below 1 counts as 1). *)
