let m_injected = Fsdata_obs.Metrics.counter "serve.faults.injected"

exception Worker_killed

type fault = Error of Unix.error | Kill | Delay of float

type t = {
  lock : Mutex.t;
  mutable max_read : int;
  mutable max_write : int;
  mutable read_faults : fault list;
  mutable write_faults : fault list;
  mutable injected : int;
}

let create () =
  {
    lock = Mutex.create ();
    max_read = max_int;
    max_write = max_int;
    read_faults = [];
    write_faults = [];
    injected = 0;
  }

let set_max_read t n =
  Mutex.protect t.lock (fun () -> t.max_read <- (if n < 1 then max_int else n))

let set_max_write t n =
  Mutex.protect t.lock (fun () -> t.max_write <- (if n < 1 then max_int else n))

let inject_read t faults =
  Mutex.protect t.lock (fun () -> t.read_faults <- t.read_faults @ faults)

let inject_write t faults =
  Mutex.protect t.lock (fun () -> t.write_faults <- t.write_faults @ faults)

let injected t = Mutex.protect t.lock (fun () -> t.injected)

(* Pop the next queued fault, if any, and account for it. *)
let next_fault t pick set =
  Mutex.protect t.lock (fun () ->
      match pick t with
      | [] -> None
      | f :: rest ->
          set t rest;
          t.injected <- t.injected + 1;
          Fsdata_obs.Metrics.incr m_injected;
          Some f)

let rec fire t fault op =
  match fault with
  | None -> op ()
  | Some (Error e) -> raise (Unix.Unix_error (e, "fault_net", ""))
  | Some Kill -> raise Worker_killed
  | Some (Delay s) ->
      Unix.sleepf s;
      fire t None op

let read t fd buf pos len =
  match t with
  | None -> Unix.read fd buf pos len
  | Some t ->
      let fault =
        next_fault t
          (fun t -> t.read_faults)
          (fun t rest -> t.read_faults <- rest)
      in
      fire t fault (fun () ->
          Unix.read fd buf pos (Stdlib.min len (Mutex.protect t.lock (fun () -> t.max_read))))

let write_substring t fd s pos len =
  match t with
  | None -> Unix.write_substring fd s pos len
  | Some t ->
      let fault =
        next_fault t
          (fun t -> t.write_faults)
          (fun t rest -> t.write_faults <- rest)
      in
      fire t fault (fun () ->
          Unix.write_substring fd s pos
            (Stdlib.min len (Mutex.protect t.lock (fun () -> t.max_write))))

let write_all t fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then
      match write_substring t fd s pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0
