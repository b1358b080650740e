(** The system-information header every benchmark output starts with. *)

val fields : unit -> (string * string) list
(** CPU model, [nproc] (the cores OCaml reports), OCaml version,
    [OCAMLRUNPARAM] and the word size in bytes. *)

val header : unit -> string
(** {!fields} as ["# system <key> <value>"] lines. *)
