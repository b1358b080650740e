(* Shared test helpers: small hand-built programs and generators. *)

open Olayout_ir
module Rng = Olayout_util.Rng
module Gen = Olayout_codegen.Gen
module Binary = Olayout_codegen.Binary
module Shape = Olayout_codegen.Shape

let block id body term = { Block.id; body; term }

(* A single procedure program from a block list. *)
let prog_of_blocks ?(base_addr = 0x1000) name blocks =
  {
    Prog.name;
    base_addr;
    procs = [| { Proc.id = 0; name = "main"; entry = 0; blocks = Array.of_list blocks } |];
  }

(* A straight-line procedure: n blocks falling through, last returns. *)
let straight_prog n =
  let blocks =
    List.init n (fun i ->
        if i = n - 1 then block i 4 Block.Ret else block i 4 (Block.Fall (i + 1)))
  in
  prog_of_blocks "straight" blocks

(* A diamond: b0 cond -> b1 (taken, p) / b2 (fall); both to b3; b3 ret.
   Source order: b0 cond(taken=b2? no—see below) ...
   We emit the standard lowering: cond taken=else(b2), fall=then(b1);
   b1 jumps to b3; b2 falls to b3. *)
let diamond_prog p_taken =
  prog_of_blocks "diamond"
    [
      block 0 3 (Block.Cond { taken = 2; fall = 1; p_taken });
      block 1 5 (Block.Jump 3);
      block 2 7 (Block.Fall 3);
      block 3 2 Block.Ret;
    ]

(* A loop: b0 falls to header b1; header cond exits to b3 (taken) or falls
   to body b2; body jumps back to header. *)
let loop_prog p_exit =
  prog_of_blocks "loop"
    [
      block 0 2 (Block.Fall 1);
      block 1 2 (Block.Cond { taken = 3; fall = 2; p_taken = p_exit });
      block 2 6 (Block.Jump 1);
      block 3 1 Block.Ret;
    ]

(* Caller/callee pair: proc 0 calls proc 1 twice. *)
let call_prog () =
  {
    Prog.name = "calls";
    base_addr = 0x1000;
    procs =
      [|
        {
          Proc.id = 0;
          name = "caller";
          entry = 0;
          blocks =
            [|
              block 0 2 (Block.Call { callee = 1; ret = 1 });
              block 1 3 (Block.Call { callee = 1; ret = 2 });
              block 2 1 Block.Ret;
            |];
        };
        {
          Proc.id = 1;
          name = "callee";
          entry = 0;
          blocks = [| block 0 5 Block.Ret |];
        };
      |];
  }

(* Random structured programs via the code synthesizer (always valid). *)
let random_program seed =
  let rng = Rng.create seed in
  let n_procs = 3 + Rng.int rng 6 in
  let defs =
    List.init n_procs (fun i ->
        let body_rng = Rng.split rng in
        {
          Binary.name = Printf.sprintf "p%d" i;
          mk_body =
            (fun pid_of ->
              (* call only lower-numbered procs: acyclic *)
              let calls =
                if i = 0 then []
                else
                  List.init (Rng.int body_rng 3) (fun _ ->
                      pid_of (Printf.sprintf "p%d" (Rng.int body_rng i)))
              in
              Gen.random_body body_rng ~target_instrs:(30 + Rng.int body_rng 200)
                ~calls ());
        })
  in
  Binary.build ~name:(Printf.sprintf "random%d" seed) ~base_addr:0x4000 defs

(* A uniform profile for a program: every block counted [c] times, arms
   split evenly (arm 0 gets the remainder). *)
let uniform_profile prog c =
  let profile = Olayout_profile.Profile.create prog in
  Prog.iter_blocks prog (fun p b ->
      let arms = Block.arm_count b in
      for _ = 1 to c do
        for arm = 0 to arms - 1 do
          if arm = 0 then
            Olayout_profile.Profile.record profile ~proc:p.Proc.id ~block:b.Block.id ~arm
        done
      done);
  profile

(* --- JSON reading for artifact-validating tests ---

   The parser itself was promoted into Olayout_telemetry.Json (the
   regression tooling needed it in production); the float-only view type
   below keeps the older suites' pattern matches readable. *)

module Json = Olayout_telemetry.Json

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Json_error of string

let rec json_of_t = function
  | Json.Null -> Jnull
  | Json.Bool b -> Jbool b
  | Json.Int i -> Jnum (float_of_int i)
  | Json.Float f -> Jnum f
  | Json.String s -> Jstr s
  | Json.Array items -> Jarr (List.map json_of_t items)
  | Json.Object fields -> Jobj (List.map (fun (k, v) -> (k, json_of_t v)) fields)

let parse_json s =
  match Json.parse s with
  | v -> json_of_t v
  | exception Json.Parse_error msg -> raise (Json_error msg)

let jmem key = function Jobj members -> List.assoc_opt key members | _ -> None

(* Profile a program by actually walking it. *)
let walked_profile ?(calls = 50) ?(seed = 5) built_or_prog =
  let prog = built_or_prog in
  let profile = Olayout_profile.Profile.create prog in
  let walk = Olayout_exec.Walk.create ~prog ~rng:(Rng.create seed) in
  Olayout_exec.Walk.add_sink walk (fun ~proc ~block ~arm ->
      Olayout_profile.Profile.record profile ~proc ~block ~arm);
  for _ = 1 to calls do
    for p = 0 to Prog.n_procs prog - 1 do
      Olayout_exec.Walk.call walk p
    done
  done;
  profile

(* Procedure [pid]'s rows from its segments, in order: the list form
   flattened into the encoder. *)
let encode_segments prog pid (segs : Olayout_core.Segment.t list) =
  let starts = Array.make (List.length segs + 1) 0 in
  List.iteri
    (fun i (s : Olayout_core.Segment.t) -> starts.(i + 1) <- starts.(i) + List.length s.blocks)
    segs;
  let blocks = List.concat_map (fun (s : Olayout_core.Segment.t) -> s.blocks) segs in
  Olayout_core.Placement.encode prog pid ~blocks:(Array.of_list blocks) ~starts ~lo:0
    ~hi:(List.length segs)
