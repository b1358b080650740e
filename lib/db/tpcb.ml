module Rng = Olayout_util.Rng

type config = {
  branches : int;
  tellers_per_branch : int;
  accounts_per_branch : int;
  buffer_frames : int;
}

let default_config =
  { branches = 40; tellers_per_branch = 10; accounts_per_branch = 2000; buffer_frames = 2048 }

(* Schemas: id, branch, balance (+ filler up to TPC-B row sizes). *)
let account_schema = { Record.name = "account"; fields = 3; pad = 76 } (* 100 B *)
let teller_schema = { Record.name = "teller"; fields = 3; pad = 76 }
let branch_schema = { Record.name = "branch"; fields = 2; pad = 84 }
let history_schema = { Record.name = "history"; fields = 5; pad = 10 } (* 50 B *)

(* Lock spaces (table ids double as lock spaces). *)
let account_table = 0
let teller_table = 1
let branch_table = 2
let history_table = 3

type t = {
  env : Env.t;
  cfg : config;
  accounts : Table.t;
  tellers : Table.t;
  branches : Table.t;
  history : Table.t;
  mutable timestamp : int;
}

let env t = t.env
let config t = t.cfg

let load ?(config = default_config) hooks =
  let env = Env.create ~frames:config.buffer_frames hooks in
  let mk id name schema indexed =
    Table.create env ~id ~name ~schema ~indexed ~key_field:0
  in
  let t =
    {
      env;
      cfg = config;
      accounts = mk account_table "account" account_schema true;
      tellers = mk teller_table "teller" teller_schema true;
      branches = mk branch_table "branch" branch_schema true;
      history = mk history_table "history" history_schema false;
      timestamp = 0;
    }
  in
  for b = 0 to config.branches - 1 do
    ignore (Table.insert_raw t.branches [| Int64.of_int b; 0L |]);
    for i = 0 to config.tellers_per_branch - 1 do
      let tid = (b * config.tellers_per_branch) + i in
      ignore (Table.insert_raw t.tellers [| Int64.of_int tid; Int64.of_int b; 0L |])
    done;
    for i = 0 to config.accounts_per_branch - 1 do
      let aid = (b * config.accounts_per_branch) + i in
      ignore (Table.insert_raw t.accounts [| Int64.of_int aid; Int64.of_int b; 0L |])
    done
  done;
  Buffer.flush_all env.Env.buffer;
  t

(* The bulk-loaded database of each config, loaded once with null hooks and
   frozen: its frames hold the disk's own page images, so it costs one copy
   of the pages.  Nothing writes it afterwards — every {!setup} clones it,
   and a clone copies a page the first time it pins it — so it lives as
   long as the process and is shared by every domain. *)
let images : (config, t) Hashtbl.t = Hashtbl.create 4
let images_mu = Mutex.create ()

let image config =
  Mutex.protect images_mu (fun () ->
      match Hashtbl.find_opt images config with
      | Some img -> img
      | None ->
          let img = load ~config Hooks.null in
          Buffer.freeze img.env.Env.buffer;
          Hashtbl.add images config img;
          img)

let setup ?(config = default_config) hooks =
  let img = image config in
  let env = Env.clone img.env hooks in
  {
    env;
    cfg = config;
    accounts = Table.clone img.accounts env;
    tellers = Table.clone img.tellers env;
    branches = Table.clone img.branches env;
    history = Table.clone img.history env;
    timestamp = img.timestamp;
  }

type input = { aid : int; tid : int; bid : int; delta : int }

let gen_input t rng =
  let cfg = t.cfg in
  let tid = Rng.int rng (cfg.branches * cfg.tellers_per_branch) in
  let teller_branch = tid / cfg.tellers_per_branch in
  (* TPC-B: 85% of accounts are local to the teller's branch. *)
  let bid_of_account =
    if Rng.bool rng 0.85 || cfg.branches = 1 then teller_branch
    else begin
      let other = Rng.int rng (cfg.branches - 1) in
      if other >= teller_branch then other + 1 else other
    end
  in
  let aid = (bid_of_account * cfg.accounts_per_branch) + Rng.int rng cfg.accounts_per_branch in
  let delta = Rng.int rng 1_999_999 - 999_999 in
  (* bid is the *account's* branch: TPC-B updates the branch of the account's
     teller; we follow the standard's use of the teller's branch for the
     branch update and record the account's branch in history. *)
  { aid; tid; bid = teller_branch; delta }

let lock_x t ~wait txn key =
  let k = key in
  let rec go () =
    match Lock.acquire t.env.Env.locks ~txn:txn.Txn.id k Lock.Exclusive with
    | `Granted -> ()
    | `Wait ->
        wait k;
        go ()
  in
  go ()

let add_balance table env txn rid row field delta =
  let row = Array.copy row in
  row.(field) <- Int64.add row.(field) delta;
  Table.update table env txn rid row

let run t ~wait input =
  let envr = t.env in
  let txn = Txn.begin_ envr.Env.txns in
  let delta = Int64.of_int input.delta in
  match
    (* Fixed lock order: account, teller, branch — deadlock-free. *)
    lock_x t ~wait txn { Lock.space = account_table; item = input.aid };
    let arid, arow =
      match Table.lookup t.accounts (Int64.of_int input.aid) with
      | Some v -> v
      | None -> failwith "tpcb: missing account"
    in
    add_balance t.accounts envr txn arid arow 2 delta;
    lock_x t ~wait txn { Lock.space = teller_table; item = input.tid };
    let trid, trow =
      match Table.lookup t.tellers (Int64.of_int input.tid) with
      | Some v -> v
      | None -> failwith "tpcb: missing teller"
    in
    add_balance t.tellers envr txn trid trow 2 delta;
    lock_x t ~wait txn { Lock.space = branch_table; item = input.bid };
    let brid, brow =
      match Table.lookup t.branches (Int64.of_int input.bid) with
      | Some v -> v
      | None -> failwith "tpcb: missing branch"
    in
    add_balance t.branches envr txn brid brow 1 delta;
    t.timestamp <- t.timestamp + 1;
    ignore
      (Table.insert t.history envr txn
         [|
           Int64.of_int input.aid;
           Int64.of_int input.tid;
           Int64.of_int input.bid;
           delta;
           Int64.of_int t.timestamp;
         |])
  with
  | () ->
      Txn.commit envr.Env.txns txn;
      `Committed
  | exception e ->
      Txn.abort envr.Env.txns txn;
      (match e with Failure _ -> `Aborted | _ -> raise e)

let balance_of table key field =
  match Table.lookup table (Int64.of_int key) with
  | Some (_, row) -> row.(field)
  | None -> invalid_arg "tpcb: unknown id"

let account_balance t aid = balance_of t.accounts aid 2
let teller_balance t tid = balance_of t.tellers tid 2
let branch_balance t bid = balance_of t.branches bid 1
let history_rows t = Table.n_rows t.history

let check_consistency t =
  let n = t.cfg.branches in
  let acct_sum = Array.make n 0L and teller_sum = Array.make n 0L in
  let hist_sum = Array.make n 0L and branch_bal = Array.make n 0L in
  Table.iter t.accounts (fun _ row ->
      let b = Int64.to_int row.(1) in
      acct_sum.(b) <- Int64.add acct_sum.(b) row.(2));
  Table.iter t.tellers (fun _ row ->
      let b = Int64.to_int row.(1) in
      teller_sum.(b) <- Int64.add teller_sum.(b) row.(2));
  Table.iter t.history (fun _ row ->
      let b = Int64.to_int row.(2) in
      hist_sum.(b) <- Int64.add hist_sum.(b) row.(3));
  Table.iter t.branches (fun _ row ->
      branch_bal.(Int64.to_int row.(0)) <- row.(1));
  let rec check b =
    if b >= n then Ok ()
    else if branch_bal.(b) <> teller_sum.(b) then
      Error (Printf.sprintf "branch %d: balance %Ld <> teller sum %Ld" b branch_bal.(b) teller_sum.(b))
    else if branch_bal.(b) <> hist_sum.(b) then
      Error (Printf.sprintf "branch %d: balance %Ld <> history sum %Ld" b branch_bal.(b) hist_sum.(b))
    else check (b + 1)
  in
  (* Account deltas sum per *account's* branch equals history sum grouped by
     account branch only when all transactions are local; the branch row is
     updated per teller branch, so compare tellers and history (both keyed by
     teller branch) against the branch balance, and the global account sum
     against the global branch sum. *)
  let total arr = Array.fold_left Int64.add 0L arr in
  if total acct_sum <> total branch_bal then
    Error
      (Printf.sprintf "global: account sum %Ld <> branch sum %Ld" (total acct_sum)
         (total branch_bal))
  else check 0

let data_pages t =
  List.concat
    [
      Table.heap_pages t.accounts;
      Table.heap_pages t.tellers;
      Table.heap_pages t.branches;
      Table.heap_pages t.history;
    ]
