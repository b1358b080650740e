(* Layout-decision provenance: a structured log of what each optimizer
   pass decided and why (which edge drove a Pettis-Hansen merge, where a
   procedure was split, which color a segment landed on, the final
   placement rank and address of every procedure).

   Counters answer "how much"; the timeline answers "when"; this log
   answers "why is this procedure placed here".  Events are keyed by the
   subject procedure id so the explain layer can join them with the
   per-segment miss attribution of lib/diag.

   Parallel writes follow Telemetry's discipline through the shared
   [Shadow] flag and slot: events recorded inside a pool task buffer in a
   per-task shadow, and [merge] appends them to the global log in
   task-submission order — called by [Telemetry.Isolated.merge] — so the
   event order (and hence the explain artifact) is byte-identical at any
   -j.

   The whole subsystem is off by default: [record] starts with a single
   flag check, and instrumented passes are expected to guard their own
   field computation behind [enabled ()] so the disabled path costs one
   ref read per pass, not per decision. *)

type value = Int of int | Float of float | String of string

type event = {
  pv_pass : string;
  pv_subject : int;
  pv_fields : (string * value) list;
}

let enabled_ref = ref false
let set_enabled b = enabled_ref := b
let enabled () = !enabled_ref

(* --- global log ------------------------------------------------------- *)

let mu = Mutex.create ()
let events_rev : event list ref = ref []

let reset () = Mutex.protect mu (fun () -> events_rev := [])

let events () = Mutex.protect mu (fun () -> List.rev !events_rev)

(* --- domain-local shadows -------------------------------------------- *)

type shadow = { mutable sh_rev : event list }

let make_shadow () = { sh_rev = [] }
let slot : shadow Shadow.slot = Shadow.slot ()
let active () = if !Shadow.parallel then Shadow.installed slot else None

let record ~pass ~subject fields =
  if !enabled_ref then begin
    let ev = { pv_pass = pass; pv_subject = subject; pv_fields = fields } in
    match active () with
    | None -> Mutex.protect mu (fun () -> events_rev := ev :: !events_rev)
    | Some sh -> sh.sh_rev <- ev :: sh.sh_rev
  end

(* Both lists are newest-first, so prepending the shadow's reversed buffer
   keeps the merged log in global-then-shadow chronological order.
   Clearing makes an accidental re-merge a no-op. *)
let merge sh =
  Mutex.protect mu (fun () -> events_rev := sh.sh_rev @ !events_rev);
  sh.sh_rev <- []

(* --- field access ------------------------------------------------------ *)

let field ev name = List.assoc_opt name ev.pv_fields

let int_field ev name =
  match field ev name with Some (Int i) -> Some i | _ -> None

let float_field ev name =
  match field ev name with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let string_field ev name =
  match field ev name with Some (String s) -> Some s | _ -> None

(* --- JSONL events ------------------------------------------------------ *)

let value_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | String s -> Json.String s

let event_json ev =
  Json.Object
    [
      ("ev", Json.String "provenance");
      ("pass", Json.String ev.pv_pass);
      ("subject", Json.Int ev.pv_subject);
      ( "fields",
        Json.Object (List.map (fun (k, v) -> (k, value_json v)) ev.pv_fields) );
    ]

let events_json () = List.map event_json (events ())
