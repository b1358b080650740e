(* The CLI's bad-input contract, checked on the built binary: each input
   below exits 2 with exactly one "olayout: <message>" line on stderr, and
   is rejected before any workload is built (nothing reaches stdout). *)

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
    ] )
