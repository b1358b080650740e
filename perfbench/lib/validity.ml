open Olayout_ir

let check prog iter =
  let seen = Array.map (fun p -> Array.make (Proc.n_blocks p) false) prog.Prog.procs in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let prev_end = ref min_int in
  iter (fun ~proc ~block ~addr ~instrs ->
      if proc < 0 || proc >= Array.length seen || block < 0
         || block >= Array.length seen.(proc)
      then fail (Printf.sprintf "block %d.%d is not in the program" proc block)
      else if seen.(proc).(block) then
        fail (Printf.sprintf "block %d.%d placed twice" proc block)
      else begin
        seen.(proc).(block) <- true;
        if addr < !prev_end then
          fail (Printf.sprintf "block %d.%d at 0x%x overlaps the previous block" proc
                  block addr);
        prev_end := addr + (instrs * Block.bytes_per_instr)
      end);
  (match !error with
  | Some _ -> ()
  | None ->
      Array.iteri
        (fun proc blocks ->
          Array.iteri
            (fun block placed ->
              if not placed then fail (Printf.sprintf "block %d.%d not placed" proc block))
            blocks)
        seen);
  match !error with None -> Ok () | Some msg -> Error msg

let placement p =
  let module P = Olayout_core.Placement in
  check (P.prog p) (P.iter_placed p)
