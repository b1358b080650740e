(** The set-associative LRU core under {!Icache}, [memsim]'s [Cache] and
    [Itlb]: [sets * ways] slots, set-major, over keys (byte address
    [lsr shift]: lines or pages) mapped to sets by bit selection.  A slot
    holds a tag (its key, -1 while empty), a stamp (the clock at its last
    touch) and an owner code (0 or 1, of the access that filled it).

    One victim rule: the first empty way in way order, else the oldest
    stamp, the lowest way on a tie.  In a core created with
    [~first_touch:true], a miss marks its key in a first-touch set
    ({!seen}); a first marking is a cold miss.  On a miss, [on_miss]
    fires before the victim is chosen, then [on_evict] if it held a line.
    The per-key loop ({!access_run}) calls nothing out of this module but
    the hooks, and books telemetry once per run.  Layers read the record;
    only this module writes it. *)

type seen
(** A paged bit set over non-negative keys, with a count; a page is
    allocated when one of its keys is first marked (kernel text sits at
    0x8000_0000, so a flat set would span the address space). *)

val seen : unit -> seen

val first_reference : seen -> int -> bool
(** Marks the key seen; true iff it was not before. *)

val seen_count : seen -> int

type t = private {
  ways : int;
  set_mask : int;
  shift : int;
  tags : int array;
  stamps : int array;
  owners : int array;
  seen : seen;
  first_touch : bool;  (** misses mark [seen] and count [cold] *)
  on_miss : (int -> unit) option;
  on_evict : (evictor:int -> victim:int -> unit) option;
  c_accesses : Olayout_telemetry.Telemetry.counter;
  c_misses : Olayout_telemetry.Telemetry.counter;
  mutable clock : int;  (** accesses *)
  mutable misses : int;
  mutable cold : int;
  miss_of : int array;  (** owner -> misses *)
  displaced : int array;  (** [miss owner * 2 + victim owner] -> replacements *)
  mutable evicted : int;  (** the key the last fill replaced; -1 if none *)
  mutable mru_slot : int;  (** the slot last accessed, checked first *)
  mutable booked_accesses : int;  (** [clock] at the last {!publish} *)
  mutable booked_misses : int;
}

val create :
  ?on_miss:(int -> unit) ->
  ?on_evict:(evictor:int -> victim:int -> unit) ->
  accesses:Olayout_telemetry.Telemetry.counter ->
  misses:Olayout_telemetry.Telemetry.counter ->
  first_touch:bool ->
  sets:int ->
  ways:int ->
  line_bytes:int ->
  unit ->
  t
(** An empty cache booking into the two counters.  [first_touch] asks
    for the first-touch set; a core whose owner never reads [seen] or
    [cold] passes [false], and its set stays empty.  The caller validates
    the geometry: [sets] and [line_bytes] powers of two, [ways >= 1]. *)

val owner_code : Olayout_exec.Run.owner -> int
(** [App] 0, [Kernel] 1. *)

val access : t -> int -> int -> int
(** [access t owner key] references [key] and returns its slot.  Books no
    telemetry. *)

val access_run : t -> Olayout_exec.Run.t -> unit
(** {!access} each key the run's 4-byte instructions touch, then
    {!publish}.  A run with [len <= 0] touches nothing. *)

val prefetch : t -> int -> int -> int
(** [prefetch t owner key] fills [key] unless resident, stamped with the
    current clock, without counting a miss or a displacement or marking
    it seen; [on_evict] fires as on a miss.  Returns the slot filled, or
    -1 when resident. *)

val clear : t -> unit
(** Empty every way; the stamps stay. *)

val publish : t -> unit
(** Add the accesses and misses since the last publish to the counters. *)
