(* The CLI checked on the built binary.  The bad-input contract: each
   input below exits 2 with exactly one "olayout: <message>" line on
   stderr, and is rejected before any workload is built (nothing reaches
   stdout).  And [simulate]'s arithmetic: its mpki column divides by the
   instruction count its header prints. *)

let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/olayout_cli.exe"

let lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let usage_error args () =
  let out = Filename.temp_file "olayout_cli" ".out" in
  let err = Filename.temp_file "olayout_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
      Alcotest.(check int) "exit status" 2 code;
      Alcotest.(check (list string)) "nothing on stdout" [] (lines out);
      match lines err with
      | [ line ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%S starts with \"olayout: \"" line)
            true
            (String.starts_with ~prefix:"olayout: " line)
      | ls -> Alcotest.failf "expected one stderr line, got %d" (List.length ls))

let case name args = Alcotest.test_case name `Quick (usage_error args)

(* [simulate --quick] prints "<n> transactions, <instrs> instructions
   (<stream> stream)" and then one row per combination: name, misses,
   misses per 1k instructions, share of base. *)
let simulate_mpki () =
  let number s = int_of_string (String.concat "" (String.split_on_char ',' s)) in
  List.iter
    (fun (stream, flags) ->
      let out = Filename.temp_file "olayout_cli" ".out" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let code =
            Sys.command
              (Filename.quote_command exe ([ "simulate"; "--quick" ] @ flags) ~stdout:out)
          in
          Alcotest.(check int) (stream ^ ": exit status") 0 code;
          match lines out with
          | header :: rest ->
              let instrs, printed =
                Scanf.sscanf header "%_d transactions, %s instructions (%s@)"
                  (fun n s -> (number n, s))
              in
              Alcotest.(check string) "stream named" (stream ^ " stream") printed;
              let rows =
                List.filter_map
                  (fun l ->
                    match String.split_on_char ' ' l |> List.filter (( <> ) "") with
                    | [ ("base" | "all"); misses; mpki; _ ] -> Some (number misses, mpki)
                    | _ -> None)
                  rest
              in
              Alcotest.(check int) (stream ^ ": base and all rows") 2 (List.length rows);
              List.iter
                (fun (misses, mpki) ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: %d misses over %d instructions" stream misses instrs)
                    (Printf.sprintf "%.2f" (1000.0 *. float_of_int misses /. float_of_int instrs))
                    mpki)
                rows
          | [] -> Alcotest.fail "simulate printed nothing"))
    [ ("combined", []); ("application", [ "--app-only" ]) ]

let suite =
  ( "cli",
    [
      case "unknown subcommand" [ "nope" ];
      case "report --engine foo" [ "report"; "--engine"; "foo" ];
      case "report --only nope" [ "report"; "--only"; "nope" ];
      case "report --only= (no ids)" [ "report"; "--quick"; "--only=" ];
      case "diagnose --figure nope" [ "diagnose"; "--figure"; "nope" ];
      case "simulate --line 48" [ "simulate"; "--line"; "48" ];
      case "simulate --assoc 3" [ "simulate"; "--assoc"; "3" ];
      case "--baseline without --out"
        [ "report"; "--quick"; "--baseline"; "bench/baselines/quick.json" ];
      case "trace --max-runs=-1" [ "trace"; "--quick"; "--max-runs=-1" ];
      case "disasm --procs nope" [ "disasm"; "--quick"; "--procs"; "nope" ];
      Alcotest.test_case "simulate mpki = misses per header instruction" `Quick
        simulate_mpki;
    ] )
