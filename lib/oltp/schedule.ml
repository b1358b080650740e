(* Deterministic mid-run workload mix-shift: a schedule partitions the
   measured transactions into equal slots and assigns each slot a phase.
   The rotation interleaves the plain TPC-B mix with a DSS-style read-only
   scan and a key-skewed TPC-B variant, which is what makes profile drift
   *real* in the drift observatory rather than sampling noise — the three
   phases exercise visibly different procedure mixes (update/log/lock
   paths vs search/fetch paths vs a hot-branch lock pattern). *)

type phase =
  | Tpcb
  | Tpcb_skewed of { hot_branch : int; hot_pct : int }
  | Scan of { rows : int }

type t = { slots : phase array }

let phase_name = function
  | Tpcb -> "tpcb"
  | Tpcb_skewed _ -> "tpcb_skewed"
  | Scan _ -> "scan"

let scan_rows_default = 24

let create slots =
  if slots = [] then invalid_arg "Schedule.create: at least one slot";
  List.iter
    (function
      | Tpcb_skewed { hot_pct; _ } when hot_pct < 0 || hot_pct > 100 ->
          invalid_arg "Schedule.create: hot_pct must be within 0..100"
      | Scan { rows } when rows < 1 ->
          invalid_arg "Schedule.create: scan rows must be >= 1"
      | _ -> ())
    slots;
  { slots = Array.of_list slots }

(* The default drift workload: rotate tpcb -> scan -> skewed, moving the
   hot branch on every skewed slot so even two skewed slots differ. *)
let rotation ~slots =
  if slots < 1 then invalid_arg "Schedule.rotation: slots must be >= 1";
  create
    (List.init slots (fun s ->
         match s mod 3 with
         | 0 -> Tpcb
         | 1 -> Scan { rows = scan_rows_default }
         | _ -> Tpcb_skewed { hot_branch = s / 3; hot_pct = 80 }))

let slots t = Array.length t.slots
let slot_phase t s = t.slots.(s mod Array.length t.slots)

(* Measured transaction [i] of [txns] lands in the slot covering its
   equal-share span (slot boundaries by transaction index, so every slot
   gets within one transaction of the same load). *)
let assign t ~txns i =
  if txns < 1 then invalid_arg "Schedule.assign: txns must be >= 1";
  let i = if i < 0 then 0 else if i >= txns then txns - 1 else i in
  slot_phase t (i * Array.length t.slots / txns)

let slot_names t = Array.map phase_name t.slots

(* Canonical identity string.  Two schedules with equal signatures assign
   every measured transaction identically, so the signature is a sound
   memo key component (Context keys scheduled captures by it). *)
let signature t =
  String.concat "+"
    (Array.to_list
       (Array.map
          (function
            | Tpcb -> "tpcb"
            | Tpcb_skewed { hot_branch; hot_pct } ->
                Printf.sprintf "skew%d:%d" hot_branch hot_pct
            | Scan { rows } -> Printf.sprintf "scan%d" rows)
          t.slots))
