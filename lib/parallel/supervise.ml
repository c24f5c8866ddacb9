type policy = {
  deadline_s : float option;
  retries : int;
  backoff_s : float;
  max_backoff_s : float;
  chaos : (unit -> bool) option;
}

let default =
  {
    deadline_s = None;
    retries = 0;
    backoff_s = 0.01;
    max_backoff_s = 1.0;
    chaos = None;
  }

type failure =
  | Timed_out of { attempts : int; deadline_s : float }
  | Quarantined of { attempts : int; last : Pool.fault }

exception Deadline_exceeded of { elapsed_s : float; deadline_s : float }
exception Injected of string

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { elapsed_s; deadline_s } ->
        Some
          (Printf.sprintf "task deadline exceeded (%.3fs elapsed, %.3fs budget)"
             elapsed_s deadline_s)
    | Injected site -> Some (Printf.sprintf "injected transient fault (%s)" site)
    | _ -> None)

let pp_failure ppf = function
  | Timed_out { attempts; deadline_s } ->
      Fmt.pf ppf "timed out after %.3fs deadline (attempt %d)" deadline_s
        attempts
  | Quarantined { attempts; last } ->
      Fmt.pf ppf "quarantined after %d attempt(s): %s" attempts
        (Printexc.to_string last.Pool.exn)

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation token                                      *)

type token = {
  started : float;
  deadline : float;  (* absolute; infinity = no deadline *)
  mutable polls : int;
}

let no_token = { started = 0.; deadline = infinity; polls = 0 }

let current : token ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref no_token)

(* Sample the clock only every 32nd poll: hot enumeration loops may
   poll millions of times, and a deadline late by 31 polls is still a
   deadline. *)
let poll_stride = 32

let poll () =
  let cur = Domain.DLS.get current in
  let tok = !cur in
  if tok != no_token then begin
    tok.polls <- tok.polls + 1;
    if tok.polls land (poll_stride - 1) = 0 then begin
      let now = Unix.gettimeofday () in
      if now > tok.deadline then
        raise
          (Deadline_exceeded
             {
               elapsed_s = now -. tok.started;
               deadline_s = tok.deadline -. tok.started;
             })
    end
  end

let with_deadline deadline_s f =
  match deadline_s with
  | None -> f ()
  | Some budget ->
      let cur = Domain.DLS.get current in
      let outer = !cur in
      let now = Unix.gettimeofday () in
      cur := { started = now; deadline = now +. budget; polls = 0 };
      Fun.protect ~finally:(fun () -> cur := outer) f

(* ------------------------------------------------------------------ *)
(* Retry / quarantine driver                                           *)

(* Reached from pool workers: handles, not lazies (see
   [Obs.Metrics.once]). *)
let m_retry = Obs.Metrics.once (fun () -> Obs.Metrics.counter "task.retry")
let m_timeout = Obs.Metrics.once (fun () -> Obs.Metrics.counter "task.timeout")
let m_quarantined = Obs.Metrics.once (fun () -> Obs.Metrics.counter "task.quarantined")

let run_indexed policy ~index f =
  let rec attempt k =
    let outcome =
      try
        (match policy.chaos with
        | Some fire when fire () -> raise (Injected "pool-task")
        | _ -> ());
        Ok (with_deadline policy.deadline_s f)
      with
      | Deadline_exceeded _ -> Error `Timeout
      | exn ->
          let backtrace =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
          in
          Error (`Fault { Pool.index; exn; backtrace })
    in
    match outcome with
    | Ok y -> Ok y
    | Error `Timeout ->
        (* Deterministic work times out again; don't burn retries. *)
        Obs.Metrics.incr (m_timeout ());
        Error
          (Timed_out
             {
               attempts = k;
               deadline_s = Option.value ~default:0. policy.deadline_s;
             })
    | Error (`Fault fault) ->
        if k <= policy.retries then begin
          Obs.Metrics.incr (m_retry ());
          let delay =
            Float.min policy.max_backoff_s
              (policy.backoff_s *. Float.pow 2. (float_of_int (k - 1)))
          in
          if delay > 0. then Unix.sleepf delay;
          attempt (k + 1)
        end
        else begin
          Obs.Metrics.incr (m_quarantined ());
          Error (Quarantined { attempts = k; last = fault })
        end
  in
  attempt 1

let run policy f = run_indexed policy ~index:(-1) f

let map ?pool policy f xs =
  let tasks = List.mapi (fun i x -> (i, x)) xs in
  Pool.map_list ?pool
    (fun (i, x) -> run_indexed policy ~index:i (fun () -> f x))
    tasks
