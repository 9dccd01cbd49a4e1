type failure = { exn : string; attempts : int }

exception Cancelled of string

module Cancel = struct
  (* A token is one atomic cell: [None] = live, [Some reason] = cancelled.
     The deadline is immutable, so [check] is one atomic read plus (when a
     deadline is set) one clock read — cheap enough for inner loops. *)
  type t = {
    reason : string option Atomic.t;
    deadline : float option;  (** absolute, in [clock]'s timebase *)
    cl : unit -> float;
  }

  let make ?deadline_s ?(clock = Unix.gettimeofday) () =
    {
      reason = Atomic.make None;
      deadline = Option.map (fun d -> clock () +. d) deadline_s;
      cl = clock;
    }

  let cancel ?(reason = "cancelled") t =
    (* First cancellation wins; later ones keep the original reason. *)
    ignore (Atomic.compare_and_set t.reason None (Some reason))

  let status t =
    match Atomic.get t.reason with
    | Some _ as s -> s
    | None -> (
      match t.deadline with
      | Some d when t.cl () > d ->
        (* Latch the expiry so [status]/[check] stay consistent even if the
           clock were to step backwards afterwards. *)
        cancel ~reason:"deadline exceeded" t;
        Atomic.get t.reason
      | _ -> None)

  let cancelled t = status t <> None

  let check t =
    match status t with None -> () | Some reason -> raise (Cancelled reason)
end

type 'a outcome =
  | Done of 'a
  | Timed_out of { attempts : int; elapsed_s : float }
  | Quarantined of failure

type policy = { max_attempts : int; timeout_s : float option; clock : unit -> float }

let default_policy = { max_attempts = 3; timeout_s = None; clock = Unix.gettimeofday }

(* Attempt / classify / retry to a terminal outcome. Never lets the task's
   exception escape. *)
let attempt ?(policy = default_policy) f =
  if policy.max_attempts < 1 then invalid_arg "Supervise.attempt: max_attempts < 1";
  let rec go attempt =
    let t0 = policy.clock () in
    match f () with
    | v -> (
      let elapsed = policy.clock () -. t0 in
      match policy.timeout_s with
      | Some budget when elapsed > budget ->
        (* Post-hoc classification: the attempt did complete, but charging
           its result would hide that the job blew its budget. Deterministic
           reruns would blow it again, so timeouts are not retried. *)
        Timed_out { attempts = attempt; elapsed_s = elapsed }
      | _ -> Done v)
    | exception Cancelled _ ->
      (* Cooperative deadline/cancellation: the task noticed its budget was
         gone ({!Cancel.check}) and stopped consuming the domain. Same
         classification as the post-hoc budget overrun, and like it the
         attempt is not retried — a rerun would expire the same way. *)
      Timed_out { attempts = attempt; elapsed_s = policy.clock () -. t0 }
    | exception e ->
      if attempt < policy.max_attempts then go (attempt + 1)
      else Quarantined { exn = Printexc.to_string e; attempts = attempt }
  in
  go 1
