module Telemetry = Olayout_telemetry.Telemetry
module Shadow = Olayout_telemetry.Shadow

(* A task is fully packaged at submission: running it executes the user
   thunk under an isolated telemetry shadow and stores the outcome in its
   future.  [t_batch] groups the tasks of one [map] so the dispatcher only
   steals work belonging to the map it is waiting on (stealing an unrelated
   long-running figure task would serialize the map behind it); [await]
   passes [help_any] and may steal anything. *)
type task = { t_batch : int; t_run : unit -> unit }

type t = {
  p_jobs : int;
  mu : Mutex.t;
  work : Condition.t; (* signalled on enqueue and on close *)
  settled : Condition.t; (* broadcast whenever any task completes *)
  mutable q : task list; (* FIFO; tiny (figures + shards), so a list is fine *)
  mutable closed : bool;
  mutable next_batch : int;
  mutable executed : int;
  mutable helped : int;
  mutable idle : float;
  mutable domains : unit Domain.t list;
}

type 'a outcome =
  | Pending
  | Inline of 'a (* ran synchronously on the calling domain; no snapshot *)
  | Done of 'a * Telemetry.Isolated.snapshot
  | Failed of exn * Printexc.raw_backtrace * Telemetry.Isolated.snapshot

type 'a future = { f_pool : t; f_batch : int; mutable f_state : 'a outcome }

let in_task_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)
let in_task () = !(Domain.DLS.get in_task_key)
let jobs p = p.p_jobs

(* --- execution ------------------------------------------------------- *)

let run_task p t =
  let flag = Domain.DLS.get in_task_key in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) t.t_run;
  Mutex.protect p.mu (fun () ->
      p.executed <- p.executed + 1;
      Condition.broadcast p.settled)

let worker p =
  let rec loop () =
    let next =
      Mutex.protect p.mu (fun () ->
          let t_wait = Unix.gettimeofday () in
          while p.q = [] && not p.closed do
            Condition.wait p.work p.mu
          done;
          p.idle <- p.idle +. (Unix.gettimeofday () -. t_wait);
          match p.q with
          | [] -> None
          | t :: rest ->
              p.q <- rest;
              Some t)
    in
    match next with
    | None -> ()
    | Some t ->
        run_task p t;
        loop ()
  in
  loop ()

let create ?jobs () =
  let j =
    match jobs with
    | Some j -> max 1 j
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let p =
    {
      p_jobs = j;
      mu = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      q = [];
      closed = false;
      next_batch = 0;
      executed = 0;
      helped = 0;
      idle = 0.0;
      domains = [];
    }
  in
  if j > 1 then begin
    (* Parallel mode is on before any worker exists, so workers always see
       it; it stays on until after the last worker has joined. *)
    Shadow.set_parallel true;
    p.domains <- List.init (j - 1) (fun _ -> Domain.spawn (fun () -> worker p))
  end;
  p

let shutdown p =
  if p.p_jobs > 1 then begin
    Mutex.protect p.mu (fun () ->
        p.closed <- true;
        Condition.broadcast p.work);
    List.iter Domain.join p.domains;
    p.domains <- [];
    Shadow.set_parallel false
  end

(* --- submission ------------------------------------------------------ *)

(* Remove the first queued task satisfying [pred]; preserves FIFO order of
   the rest. *)
let take_matching p pred =
  let rec go acc = function
    | [] -> None
    | t :: rest when pred t ->
        p.q <- List.rev_append acc rest;
        Some t
    | t :: rest -> go (t :: acc) rest
  in
  go [] p.q

let submit_in p batch f =
  let fut = { f_pool = p; f_batch = batch; f_state = Pending } in
  let stack = Telemetry.current_span_stack () in
  let run () =
    let result, snap =
      Telemetry.Isolated.capture ~inherit_spans:stack (fun () ->
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    fut.f_state <-
      (match result with Ok v -> Done (v, snap) | Error (e, bt) -> Failed (e, bt, snap))
  in
  Mutex.protect p.mu (fun () ->
      p.q <- p.q @ [ { t_batch = batch; t_run = run } ];
      Condition.signal p.work);
  fut

let fresh_batch p =
  Mutex.protect p.mu (fun () ->
      let b = p.next_batch in
      p.next_batch <- b + 1;
      b)

let submit p f =
  if p.p_jobs = 1 || in_task () then { f_pool = p; f_batch = -1; f_state = Inline (f ()) }
  else submit_in p (fresh_batch p) f

(* Wait until [fut] leaves Pending, running queued tasks that satisfy
   [help] while the queue has any (otherwise blocking on [settled]). *)
let wait_settled help fut =
  let p = fut.f_pool in
  let rec loop () =
    let action =
      Mutex.protect p.mu (fun () ->
          match fut.f_state with
          | Pending -> (
              match take_matching p help with
              | Some t ->
                  p.helped <- p.helped + 1;
                  `Run t
              | None ->
                  Condition.wait p.settled p.mu;
                  `Again)
          | _ -> `Settled)
    in
    match action with
    | `Settled -> ()
    | `Again -> loop ()
    | `Run t ->
        run_task p t;
        loop ()
  in
  loop ()

let collect fut =
  match fut.f_state with
  | Inline v -> v
  | Pending -> assert false
  | Done (v, snap) ->
      Telemetry.Isolated.merge snap;
      fut.f_state <- Inline v;
      v
  | Failed (e, bt, _snap) ->
      (* A failed task's partial telemetry is discarded rather than merged:
         better to under-count than to merge a truncated shadow. *)
      Printexc.raise_with_backtrace e bt

let await fut =
  (match fut.f_state with
  | Inline _ -> ()
  | _ -> wait_settled (fun _ -> true) fut);
  collect fut

let await_snapshot fut =
  (match fut.f_state with
  | Inline _ -> ()
  | _ -> wait_settled (fun _ -> true) fut);
  match fut.f_state with
  | Inline v -> (v, None)
  | Pending -> assert false
  | Done (v, snap) ->
      Telemetry.Isolated.merge snap;
      fut.f_state <- Inline v;
      (v, Some snap)
  | Failed (e, bt, _snap) -> Printexc.raise_with_backtrace e bt

let map p f xs =
  if p.p_jobs = 1 || in_task () then List.map f xs
  else begin
    let batch = fresh_batch p in
    let futs = List.map (fun x -> submit_in p batch (fun () -> f x)) xs in
    List.iter (wait_settled (fun t -> t.t_batch = batch)) futs;
    (* All settled: merge successes in submission order, then surface the
       first failure (if any) with its original backtrace. *)
    let first_error = ref None in
    let results =
      List.map
        (fun fut ->
          match fut.f_state with
          | Done (v, snap) ->
              Telemetry.Isolated.merge snap;
              Some v
          | Failed (e, bt, _snap) ->
              if !first_error = None then first_error := Some (e, bt);
              None
          | Inline _ | Pending -> assert false)
        futs
    in
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> List.map Option.get results
  end

(* --- stats ----------------------------------------------------------- *)

type stats = { st_jobs : int; st_tasks : int; st_helped : int; st_idle_s : float }

let stats p =
  Mutex.protect p.mu (fun () ->
      { st_jobs = p.p_jobs; st_tasks = p.executed; st_helped = p.helped; st_idle_s = p.idle })

let publish_stats p =
  let s = stats p in
  Telemetry.set_gauge (Telemetry.gauge "par.jobs") (float_of_int s.st_jobs);
  Telemetry.set_gauge (Telemetry.gauge "par.tasks") (float_of_int s.st_tasks);
  Telemetry.set_gauge (Telemetry.gauge "par.helped_tasks") (float_of_int s.st_helped);
  Telemetry.set_gauge (Telemetry.gauge "par.idle_seconds") s.st_idle_s
