let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some k when String.trim (String.sub line 0 k) = "model name" ->
                String.trim (String.sub line (k + 1) (String.length line - k - 1))
            | _ -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let fields () =
  [
    ("cpu", cpu_model ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("OCAMLRUNPARAM", Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"(unset)");
    ("word_bytes", string_of_int (Sys.word_size / 8));
  ]

let header () =
  String.concat "\n"
    (List.map (fun (k, v) -> Printf.sprintf "# system %-13s %s" k v) (fields ()))
