(* Unit tests for the benchmark's own helpers. *)

open Olayout_ir
module Pct = Perfbench.Pct
module Metric = Perfbench.Metric
module Validity = Perfbench.Validity
module Seed = Perfbench.Seed
module Json = Olayout_telemetry.Json

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_tail () =
  let tail n = Option.map fst (Pct.tail (samples n)) in
  Alcotest.(check (option (float 0.))) "19 samples: none" None (tail 19);
  Alcotest.(check (option (float 0.))) "20 samples: p50" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "99 samples: p75" (Some 75.) (tail 99);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "263 samples: p95" (Some 95.) (tail 263);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (tail 1000);
  List.iter
    (fun n ->
      match Pct.tail (samples n) with
      | Some (p, _) ->
          Alcotest.(check bool) "ten beyond" true (Pct.beyond ~n p >= Pct.min_beyond)
      | None -> ())
    [ 20; 37; 100; 263; 5000 ]

let test_percentile () =
  Alcotest.(check (option (float 0.))) "p90 refused under 100 ops" None
    (Pct.percentile (samples 99) 90.);
  Alcotest.(check (option (float 0.))) "p90 of 1..100" (Some 90.)
    (Pct.percentile (samples 100) 90.);
  Alcotest.(check (option (float 0.))) "median of 1..20" (Some 10.)
    (Pct.percentile (samples 20) 50.);
  Alcotest.(check (option (float 0.))) "median refused under 20 ops" None
    (Pct.percentile (samples 19) 50.)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "setup_s"; "op_p50_ms"; "core.pettis_hansen_us_per_segment"; "gc.alloc-gb"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S rejected" n) false (Metric.valid_name n))
    [ ""; "has space"; "a/b"; "quote\""; "caf\xc3\xa9"; "_lead"; ".lead"; String.make 65 'x' ];
  Alcotest.(check bool) "unit Minstr/s" true (Metric.valid_unit "Minstr/s");
  Alcotest.(check bool) "unit with space" false (Metric.valid_unit "m s");
  Alcotest.check_raises "make refuses a bad name"
    (Invalid_argument "Metric.make: bad metric name a b") (fun () ->
      ignore (Metric.make "a b" "s" 1.))

let test_seed () =
  let seed = Alcotest.(check (option int)) in
  seed "0" (Some 0) (Seed.of_string "0");
  seed "small seeds kept" (Some 1234567) (Seed.of_string "1234567");
  seed "plus sign" (Some 7) (Seed.of_string "+7");
  seed "63-bit seed reduced" (Some (4611686018427387903 mod Seed.modulus))
    (Seed.of_string "4611686018427387903");
  seed "beyond 64 bits" (Some 3) (Seed.of_string "100000000700000000000000000003");
  seed "negative" (Some (Seed.modulus - 5)) (Seed.of_string "-5");
  List.iter (fun s -> seed (Printf.sprintf "%S refused" s) None (Seed.of_string s)) [ ""; "-"; "1e3"; "0x10"; " 1" ]

(* Two procedures of two blocks each. *)
let prog =
  let block id body term = { Block.id; body; term } in
  let proc id =
    {
      Proc.id;
      name = Printf.sprintf "p%d" id;
      entry = 0;
      blocks = [| block 0 3 (Block.Fall 1); block 1 2 Block.Ret |];
    }
  in
  { Prog.name = "tiny"; base_addr = 0x1000; procs = [| proc 0; proc 1 |] }

let placed blocks f = List.iter (fun (proc, block, addr, instrs) -> f ~proc ~block ~addr ~instrs) blocks

let test_validity () =
  let ok = Alcotest.(check bool) in
  ok "source-order placement" true
    (Validity.placement (Olayout_core.Placement.original prog) = Ok ());
  ok "hand-built valid" true
    (Validity.check prog (placed [ (0, 0, 0x1000, 3); (0, 1, 0x100c, 3); (1, 0, 0x1018, 3); (1, 1, 0x1024, 3) ])
    = Ok ());
  ok "overlap rejected" true
    (Result.is_error
       (Validity.check prog
          (placed [ (0, 0, 0x1000, 3); (0, 1, 0x1008, 3); (1, 0, 0x1018, 3); (1, 1, 0x1024, 3) ])));
  ok "missing block rejected" true
    (Result.is_error
       (Validity.check prog (placed [ (0, 0, 0x1000, 3); (0, 1, 0x100c, 3); (1, 0, 0x1018, 3) ])));
  ok "duplicate block rejected" true
    (Result.is_error
       (Validity.check prog
          (placed [ (0, 0, 0x1000, 3); (0, 1, 0x100c, 3); (0, 1, 0x1018, 3); (1, 0, 0x1024, 3); (1, 1, 0x1030, 3) ])))

let test_result_json () =
  let metrics =
    [ Metric.make "setup_s" "s" 0.8127; Metric.make "wall_s" "s" 12.5; Metric.make "ops.count" "count" 263. ]
  in
  let line = Json.to_string (Metric.result_json ~correct:true ~attempted:263 ~failed:0 metrics) in
  let j = Json.parse line in
  Alcotest.(check (option bool)) "correct" (Some true)
    (match Json.member "correct" j with Some (Json.Bool b) -> Some b | _ -> None);
  Alcotest.(check (option int)) "attempted" (Some 263) (Option.bind (Json.member "attempted" j) Json.get_int);
  Alcotest.(check (option int)) "failed" (Some 0) (Option.bind (Json.member "failed" j) Json.get_int);
  let m = Option.get (Json.member "metrics" j) in
  Alcotest.(check (option (float 1e-12))) "setup_s value" (Some 0.8127)
    (Option.bind (Json.member "setup_s" m) (fun v -> Option.bind (Json.member "value" v) Json.get_float));
  Alcotest.(check (option string)) "unit" (Some "count")
    (Option.bind (Json.member "ops.count" m) (fun v -> Option.bind (Json.member "unit" v) Json.get_string));
  Alcotest.check_raises "duplicate names refused"
    (Invalid_argument "Metric.result_json: duplicate metric wall_s") (fun () ->
      ignore
        (Metric.result_json ~correct:true ~attempted:1 ~failed:0
           [ Metric.make "wall_s" "s" 1.; Metric.make "wall_s" "s" 2. ]))

let () =
  Alcotest.run "perfbench"
    [
      ("pct", [ Alcotest.test_case "tail" `Quick test_tail; Alcotest.test_case "percentile" `Quick test_percentile ]);
      ("metric", [ Alcotest.test_case "names" `Quick test_names; Alcotest.test_case "result json" `Quick test_result_json ]);
      ("validity", [ Alcotest.test_case "placements" `Quick test_validity ]);
      ("seed", [ Alcotest.test_case "any integer" `Quick test_seed ]);
    ]
