(* Tests for Olayout_metrics: histograms and cumulative footprints. *)

module Histogram = Olayout_metrics.Histogram
module Footprint = Olayout_metrics.Footprint

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty total" 0 (Histogram.total h);
  Alcotest.(check int) "empty max_key" (-1) (Histogram.max_key h);
  Histogram.add h 3;
  Histogram.add h 3;
  Histogram.add_many h 7 4;
  Alcotest.(check int) "count 3" 2 (Histogram.count h 3);
  Alcotest.(check int) "count 7" 4 (Histogram.count h 7);
  Alcotest.(check int) "count absent" 0 (Histogram.count h 5);
  Alcotest.(check int) "total" 6 (Histogram.total h);
  Alcotest.(check int) "max_key" 7 (Histogram.max_key h);
  Alcotest.(check (float 1e-9)) "fraction" (2.0 /. 6.0) (Histogram.fraction h 3);
  Alcotest.(check (float 1e-9)) "mean" ((6.0 +. 28.0) /. 6.0) (Histogram.mean h)

let test_histogram_cap () =
  let h = Histogram.create ~cap:15 () in
  Histogram.add h 20;
  Histogram.add h 100;
  Histogram.add h 15;
  Histogram.add h 3;
  Alcotest.(check int) "capped bucket" 3 (Histogram.count h 15);
  Alcotest.(check int) "count via over-cap key" 3 (Histogram.count h 99);
  Alcotest.(check int) "below cap untouched" 1 (Histogram.count h 3)

let test_histogram_sorted_merge_clear () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1;
  Histogram.add a 5;
  Histogram.add b 5;
  Histogram.add b 2;
  Histogram.merge a b;
  Alcotest.(check (list (pair int int))) "sorted list" [ (1, 1); (2, 1); (5, 2) ]
    (Histogram.to_sorted_list a);
  Histogram.clear a;
  Alcotest.(check int) "cleared" 0 (Histogram.total a)

let test_log2_bucket () =
  List.iter
    (fun (n, expect) ->
      Alcotest.(check int) (Printf.sprintf "log2 %d" n) expect (Histogram.log2_bucket n))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (1023, 9); (1024, 10) ]

let test_footprint_example () =
  (* hottest first after sorting: (200B, 90), (100B, 10), (50B, 0) *)
  let fp = Footprint.of_units [ (100, 10); (50, 0); (200, 90) ] in
  Alcotest.(check int) "executed" 300 (Footprint.executed_footprint_bytes fp);
  Alcotest.(check int) "static" 350 (Footprint.static_bytes fp);
  Alcotest.(check int) "dynamic" 100 (Footprint.total_dynamic fp);
  Alcotest.(check int) "90% needs hottest unit" 200 (Footprint.bytes_for_fraction fp 0.9);
  Alcotest.(check int) "100% needs both executed" 300 (Footprint.bytes_for_fraction fp 1.0);
  Alcotest.(check (float 1e-9)) "captured at 200" 0.9 (Footprint.captured_at fp 200);
  Alcotest.(check (float 1e-9)) "captured at 199" 0.0 (Footprint.captured_at fp 199);
  Alcotest.(check (float 1e-9)) "captured at all" 1.0 (Footprint.captured_at fp 300)

let test_footprint_curve_monotonic () =
  let fp =
    Footprint.of_units (List.init 100 (fun i -> (4 * (1 + (i mod 7)), i * 3)))
  in
  let curve = Footprint.curve fp ~points:20 in
  let rec mono = function
    | (b1, f1) :: ((b2, f2) :: _ as rest) -> b1 <= b2 && f1 <= f2 +. 1e-9 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "curve monotone" true (mono curve);
  let _, last = List.nth curve (List.length curve - 1) in
  Alcotest.(check (float 1e-6)) "curve ends at 1" 1.0 last;
  (* points + 1 strictly increasing sizes ending at the executed footprint,
     also when the last step lands on it exactly (two 2,400-byte units). *)
  let rec strict = function
    | (b1, _) :: ((b2, _) :: _ as rest) -> b1 < b2 && strict rest
    | _ -> true
  in
  List.iter
    (fun (fp, points) ->
      let curve = Footprint.curve fp ~points in
      let executed = Footprint.executed_footprint_bytes fp in
      Alcotest.(check int) "points + 1 samples" (points + 1) (List.length curve);
      Alcotest.(check bool) "sizes strictly increase" true (strict curve);
      Alcotest.(check int) "ends at the executed footprint" executed
        (fst (List.nth curve points)))
    [ (fp, 20); (Footprint.of_units [ (2400, 5); (2400, 1) ], 24) ];
  let tiny = Footprint.of_units [ (3, 1) ] in
  Alcotest.(check (list int)) "under points bytes: one sample per byte" [ 0; 1; 2; 3 ]
    (List.map fst (Footprint.curve tiny ~points:24))

let qcheck_footprint_consistent =
  QCheck.Test.make ~name:"footprint: captured_at inverts bytes_for_fraction" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (pair (int_range 1 64) (int_range 0 1000)))
    (fun units ->
      QCheck.assume (units <> []);
      QCheck.assume (List.exists (fun (_, c) -> c > 0) units);
      let fp = Footprint.of_units units in
      List.for_all
        (fun f ->
          let bytes = Footprint.bytes_for_fraction fp f in
          Footprint.captured_at fp bytes >= f -. 1e-9)
        [ 0.1; 0.5; 0.9; 0.99 ])

let suite =
  ( "metrics",
    [
      Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
      Alcotest.test_case "histogram cap" `Quick test_histogram_cap;
      Alcotest.test_case "histogram sorted/merge/clear" `Quick test_histogram_sorted_merge_clear;
      Alcotest.test_case "log2 bucket" `Quick test_log2_bucket;
      Alcotest.test_case "footprint example" `Quick test_footprint_example;
      Alcotest.test_case "footprint curve" `Quick test_footprint_curve_monotonic;
      QCheck_alcotest.to_alcotest qcheck_footprint_consistent;
    ] )
