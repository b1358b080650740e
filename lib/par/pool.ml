module Telemetry = Olayout_telemetry.Telemetry
module Shadow = Olayout_telemetry.Shadow

(* A task is fully packaged at submission: running it executes the user
   thunk under an isolated telemetry shadow and stores the outcome in its
   future. *)
type task = unit -> unit

type t = {
  p_jobs : int;
  mu : Mutex.t;
  work : Condition.t; (* signalled on enqueue and on close *)
  settled : Condition.t; (* broadcast whenever any task completes *)
  mutable q : task list; (* FIFO; tiny (one task per figure), so a list is fine *)
  mutable closed : bool;
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

type 'a future = { f_pool : t; mutable f_state : 'a outcome }

let jobs p = p.p_jobs

(* --- execution ------------------------------------------------------- *)

let run_task p (t : task) =
  t ();
  Mutex.protect p.mu (fun () ->
      p.executed <- p.executed + 1;
      Condition.broadcast p.settled)

(* The next queued task, if any; call with [p.mu] held. *)
let take p =
  match p.q with
  | [] -> None
  | t :: rest ->
      p.q <- rest;
      Some t

let worker p =
  let rec loop () =
    let next =
      Mutex.protect p.mu (fun () ->
          let t_wait = Unix.gettimeofday () in
          while p.q = [] && not p.closed do
            Condition.wait p.work p.mu
          done;
          p.idle <- p.idle +. (Unix.gettimeofday () -. t_wait);
          take p)
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

let submit p f =
  if Telemetry.in_isolated () then
    invalid_arg "Pool.submit: tasks are submitted from the dispatching domain only";
  if p.p_jobs = 1 then { f_pool = p; f_state = Inline (f ()) }
  else begin
    let fut = { f_pool = p; f_state = Pending } in
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
        p.q <- p.q @ [ run ];
        Condition.signal p.work);
    fut
  end

(* Wait until [fut] leaves Pending, running queued tasks while the queue
   has any (otherwise blocking on [settled]). *)
let wait_settled fut =
  let p = fut.f_pool in
  let rec loop () =
    let action =
      Mutex.protect p.mu (fun () ->
          match fut.f_state with
          | Pending -> (
              match take p with
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

let await_snapshot fut =
  wait_settled fut;
  match fut.f_state with
  | Inline v -> (v, None)
  | Pending -> assert false
  | Done (v, snap) ->
      Telemetry.Isolated.merge snap;
      fut.f_state <- Inline v;
      (v, Some snap)
  | Failed (e, bt, _snap) ->
      (* A failed task's partial telemetry is discarded rather than merged:
         better to under-count than to merge a truncated shadow. *)
      Printexc.raise_with_backtrace e bt

let await fut = fst (await_snapshot fut)

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
