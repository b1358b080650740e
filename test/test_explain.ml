(* Tests for the explain subsystem: the Provenance recorder (disabled
   fast path, record order, reset, field coercions, shadow isolation and
   submission-order merge), the scorecard join (addresses from the real
   placements, regret arithmetic, regret-descending order), the
   olayout-explain/v1 artifact (schema, deterministic classification, no
   timestamp), run-to-run byte identity, and the Chrome-trace address
   space rendering of placement events.

   The provenance log is process-global like the telemetry registry:
   every test that arms the recorder disarms it (and clears the log) on
   the way out, so the other suites keep the zero-overhead path. *)

module Provenance = Olayout_telemetry.Provenance
module Telemetry = Olayout_telemetry.Telemetry
module Shadow = Olayout_telemetry.Shadow
module Json = Olayout_telemetry.Json
module Context = Olayout_harness.Context
module Diagnose = Olayout_harness.Diagnose
module Explain = Olayout_harness.Explain
module Scorecard = Olayout_explain.Scorecard
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Profile = Olayout_profile.Profile
module Prog = Olayout_ir.Prog
module Proc = Olayout_ir.Proc
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff
module Chrome_trace = Olayout_regress.Chrome_trace

let with_provenance f =
  Provenance.reset ();
  Provenance.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Provenance.set_enabled false;
      Provenance.reset ())
    f

(* --- recorder ---------------------------------------------------------- *)

let test_disabled_fast_path () =
  Provenance.reset ();
  Alcotest.(check bool) "disabled by default" false (Provenance.enabled ());
  Provenance.record ~pass:"chaining" ~subject:0 [ ("atoms", Provenance.Int 3) ];
  Alcotest.(check int) "disabled record drops" 0
    (List.length (Provenance.events ()))

let test_record_order_and_fields () =
  with_provenance (fun () ->
      Provenance.record ~pass:"coloring" ~subject:2
        [ ("color", Provenance.Int 7); ("contention", Provenance.Float 1.5) ];
      Provenance.record ~pass:"placement" ~subject:1
        [ ("combo", Provenance.String "all"); ("rank", Provenance.Int 0) ];
      match Provenance.events () with
      | [ e1; e2 ] ->
          Alcotest.(check string) "record order" "coloring" e1.Provenance.pv_pass;
          Alcotest.(check int) "subject" 2 e1.Provenance.pv_subject;
          Alcotest.(check (option int)) "int field" (Some 7)
            (Provenance.int_field e1 "color");
          Alcotest.(check (option (float 0.0))) "int coerces to float" (Some 7.0)
            (Provenance.float_field e1 "color");
          Alcotest.(check (option string)) "string field" (Some "all")
            (Provenance.string_field e2 "combo");
          Alcotest.(check (option int)) "missing field" None
            (Provenance.int_field e2 "absent");
          Provenance.reset ();
          Alcotest.(check int) "reset clears" 0
            (List.length (Provenance.events ()))
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_shadow_merge () =
  with_provenance (fun () ->
      Provenance.record ~pass:"chaining" ~subject:0 [ ("atoms", Provenance.Int 1) ];
      Shadow.set_parallel true;
      Fun.protect
        ~finally:(fun () -> Shadow.set_parallel false)
        (fun () ->
          let sh_a = Provenance.make_shadow () in
          let sh_b = Provenance.make_shadow () in
          Shadow.within Provenance.slot sh_a (fun () ->
              Provenance.record ~pass:"chaining" ~subject:1
                [ ("atoms", Provenance.Int 2) ]);
          Shadow.within Provenance.slot sh_b (fun () ->
              Provenance.record ~pass:"chaining" ~subject:2
                [ ("atoms", Provenance.Int 3) ]);
          Alcotest.(check int) "shadowed events not yet global" 1
            (List.length (Provenance.events ()));
          (* Submission order, regardless of which recorded first. *)
          Provenance.merge sh_b;
          Provenance.merge sh_a;
          Alcotest.(check (list int)) "merge in submission order" [ 0; 2; 1 ]
            (List.map
               (fun e -> e.Provenance.pv_subject)
               (Provenance.events ()));
          (* A merged shadow is cleared: merging again adds nothing. *)
          Provenance.merge sh_b;
          Alcotest.(check int) "merge clears the shadow" 3
            (List.length (Provenance.events ()))))

(* --- scorecard join over a real context -------------------------------- *)

(* One shared Quick context (and its explain result) for the joined
   tests: building it runs the profiling phase once. *)
let ctx = lazy (Context.create ~scale:Context.Quick ())

let result =
  lazy
    (Explain.run (Lazy.force ctx) (Diagnose.preset_of_figure "fig4"))

let test_scorecard_rows () =
  let r = Lazy.force result in
  let ctx = Lazy.force ctx in
  Alcotest.(check bool) "rows exist" true (r.Explain.ex_rows <> []);
  Alcotest.(check bool) "decisions were recorded" true (r.Explain.ex_events > 0);
  let prog = Profile.prog (Context.app_profile ctx) in
  let base = Context.placement ctx Spike.Base in
  let opt = Context.placement ctx Spike.All in
  List.iter
    (fun (row : Scorecard.row) ->
      let p = Prog.proc prog row.Scorecard.sc_proc in
      Alcotest.(check string) "name matches proc id" p.Proc.name
        row.Scorecard.sc_name;
      Alcotest.(check int) "base addr from base placement"
        (Placement.block_addr base ~proc:row.Scorecard.sc_proc
           ~block:p.Proc.entry)
        row.Scorecard.sc_base_addr;
      Alcotest.(check int) "opt addr from opt placement"
        (Placement.block_addr opt ~proc:row.Scorecard.sc_proc
           ~block:p.Proc.entry)
        row.Scorecard.sc_opt_addr;
      Alcotest.(check int) "moved = opt - base"
        (row.Scorecard.sc_opt_addr - row.Scorecard.sc_base_addr)
        row.Scorecard.sc_moved_bytes;
      Alcotest.(check int) "regret = opt - base misses"
        (row.Scorecard.sc_opt_misses - row.Scorecard.sc_base_misses)
        row.Scorecard.sc_regret;
      Alcotest.(check bool) "rationale is never empty" true
        (row.Scorecard.sc_rationale <> ""))
    r.Explain.ex_rows;
  (* Regret rank: descending. *)
  let regrets = List.map (fun r -> r.Scorecard.sc_regret) r.Explain.ex_rows in
  Alcotest.(check (list int))
    "rows sorted by descending regret"
    (List.sort (fun a b -> compare b a) regrets)
    regrets;
  let s = Scorecard.summarize r.Explain.ex_rows in
  Alcotest.(check int) "summary row count" (List.length r.Explain.ex_rows)
    s.Scorecard.sm_procs;
  Alcotest.(check bool) "the layout moved something" true
    (s.Scorecard.sm_moved > 0)

let test_run_leaves_recorder_off () =
  ignore (Lazy.force result);
  Alcotest.(check bool) "recorder disarmed after run" false
    (Provenance.enabled ());
  Alcotest.(check bool) "base combo rejected" true
    (match Explain.run ~combo:Spike.Base (Lazy.force ctx)
             (Diagnose.preset_of_figure "fig4")
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- artifact ---------------------------------------------------------- *)

let test_artifact () =
  let r = Lazy.force result in
  let path = Filename.temp_file "olayout_explain" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.write_file path (Explain.artifact_json ~scale:"quick" r);
      let art = Artifact.load_file path in
      Alcotest.(check string) "schema" "olayout-explain/v1" art.Artifact.schema;
      Alcotest.(check string) "scale" "quick" art.Artifact.scale;
      Alcotest.(check bool) "summary metrics flatten" true
        (Artifact.metric art "explain.summary.procs" <> None);
      (* Every metric path must gate deterministically across legs. *)
      Alcotest.(check bool) "artifact has metrics" true (art.Artifact.metrics <> []);
      List.iter
        (fun (p, _) ->
          Alcotest.(check bool)
            (p ^ " classified deterministic") true
            (Diff.classify p = Diff.Deterministic))
        art.Artifact.metrics);
  (* Byte identity rests on the document carrying no wall-clock state. *)
  let fields =
    match Explain.artifact_json ~scale:"quick" r with
    | Json.Object fs -> List.map fst fs
    | _ -> []
  in
  Alcotest.(check bool) "no generated_unix_time" false
    (List.mem "generated_unix_time" fields);
  Alcotest.(check bool) "no argv" false (List.mem "argv" fields)

let test_repeatable_bytes () =
  (* Two captures over the same context must produce the same document —
     the within-process analogue of CI's cross-leg cmp. *)
  let ctx = Lazy.force ctx in
  let doc () =
    Json.to_string
      (Explain.artifact_json ~scale:"quick"
         (Explain.run ctx (Diagnose.preset_of_figure "fig4")))
  in
  Alcotest.(check string) "byte-identical re-run" (doc ()) (doc ())

(* --- chrome trace rendering ------------------------------------------- *)

let test_chrome_trace_placements () =
  let events =
    with_provenance (fun () ->
        ignore
          (Spike.optimize
             (Context.app_profile (Lazy.force ctx))
             Spike.All);
        Provenance.events_json ())
  in
  Alcotest.(check bool) "placement events emitted" true (events <> []);
  let doc = Chrome_trace.of_events events in
  let trace_events =
    match Json.member "traceEvents" doc with
    | Some (Json.Array evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let pid3 =
    List.filter (fun e -> Json.member "pid" e = Some (Json.Int 3)) trace_events
  in
  let spans =
    List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) pid3
  in
  let n_procs =
    Prog.n_procs (Profile.prog (Context.app_profile (Lazy.force ctx)))
  in
  Alcotest.(check int) "one address-space span per procedure" n_procs
    (List.length spans);
  Alcotest.(check bool) "address-space process is named" true
    (List.exists
       (fun e ->
         Json.member "name" e = Some (Json.String "process_name")
         && Json.member "ph" e = Some (Json.String "M"))
       pid3)

let suite =
  ( "explain",
    [
      Alcotest.test_case "disabled fast path" `Quick test_disabled_fast_path;
      Alcotest.test_case "record order + fields + reset" `Quick
        test_record_order_and_fields;
      Alcotest.test_case "shadow isolation + submission-order merge" `Quick
        test_shadow_merge;
      Alcotest.test_case "scorecard join" `Slow test_scorecard_rows;
      Alcotest.test_case "recorder disarmed; base rejected" `Slow
        test_run_leaves_recorder_off;
      Alcotest.test_case "artifact shape + classification" `Slow test_artifact;
      Alcotest.test_case "byte-identical re-run" `Slow test_repeatable_bytes;
      Alcotest.test_case "chrome-trace address space" `Slow
        test_chrome_trace_placements;
    ] )
