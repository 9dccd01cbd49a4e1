module Ratio = Ermes_tmg.Ratio
module Recurrence = Ermes_tmg.Recurrence
module Obs = Ermes_obs.Obs

let log_src = Logs.Src.create "ermes.sim" ~doc:"discrete-event simulator"

module Log = (val Logs.src_log log_src)

type direction = Waiting_get | Waiting_put

type blocked = {
  process : System.process;
  channel : System.channel;
  direction : direction;
}

type deadlock = { at_cycle : int; blocked : blocked list }

type timeout = { budget : int; monitor_iterations : int }

type outcome =
  | Completed
  | Deadlocked of deadlock
  | Timed_out of timeout

(* Utilization profile, collected on every run (the accounting is a handful
   of integer writes per event — cheap enough to keep unconditionally, and
   deterministic for a given system). Blocked time is attributed through the
   channel's unique endpoint: [waiting_get] on c can only be its consumer,
   [waiting_put] its producer. *)
type profile = {
  blocked_on_get : int array;
      (* per process: cycles spent stalled in a get, summed over channels *)
  blocked_on_put : int array;  (* per process: cycles stalled in a put *)
  mean_occupancy : float array;
      (* per channel: time-average buffered items; 0 for rendezvous *)
  peak_occupancy : int array;  (* per channel: max buffered items *)
}

type run = {
  cycles : int;
  iterations : int array;
  completions : int list array;
  outcome : outcome;
  profile : profile;
}

type hooks = {
  stalls : (System.channel * int * int) list;
  stuck : System.process list;
}

let no_hooks = { stalls = []; stuck = [] }

let default_max_cycles ~max_iterations sys =
  let total =
    List.fold_left (fun acc p -> acc + System.latency sys p) 0 (System.processes sys)
    + List.fold_left
        (fun acc c -> acc + System.channel_latency sys c + 1)
        0 (System.channels sys)
  in
  let np = System.process_count sys in
  (* A multi-rate system interleaves up to max q(p) firings of a process per
     common period; scale the budget accordingly. Unit-rate systems have
     q = 1 everywhere and keep the historical budget bit-identically. *)
  let qmax =
    match System.repetition_vector sys with
    | Ok q -> Array.fold_left max 1 q
    | Error _ -> 1
  in
  (max_iterations + np + 8) * (total + np + 1) * qmax

type stmt = Sget of System.channel | Scompute | Sput of System.channel

type event =
  | Compute_done of System.process
  | Transfer_done of System.channel  (* rendezvous/handshake completion *)
  | Ack_done of System.channel  (* handshake: consumer released the data *)
  | Enqueue_done of System.channel  (* buffered: items landed in the buffer *)
  | Dequeue_done of System.channel  (* buffered: items handed to the consumer *)

let event_code = function
  | Compute_done p -> 5 * p
  | Transfer_done c -> (5 * c) + 1
  | Ack_done c -> (5 * c) + 2
  | Enqueue_done c -> (5 * c) + 3
  | Dequeue_done c -> (5 * c) + 4

(* One simulation. With [recur], the state is offered to a
   {!Ermes_tmg.Recurrence} table after every event that completes a monitor
   iteration, and the first repeated state ends the run with its period. *)
let simulate ~caller ~recur ?monitor ~max_iterations ?max_cycles ~hooks sys =
  List.iter
    (fun c -> Obs.incr ~by:0 ("sim." ^ c))
    [
      "runs"; "cycles"; "completions"; "deadlocks"; "timeouts"; "recurrences";
      "blocked_on_get_cycles"; "blocked_on_put_cycles";
    ];
  let np = System.process_count sys and nc = System.channel_count sys in
  match
    match monitor with
    | Some p -> Ok p
    | None -> (
      match System.sinks sys with
      | s :: _ -> Ok s
      | [] -> Error (caller ^ ": system has no sink to monitor"))
  with
  | Error _ as e -> e
  | Ok monitor ->
    let max_cycles =
      match max_cycles with
      | Some b -> b
      | None -> default_max_cycles ~max_iterations sys
    in
    let program =
      Array.init np (fun p ->
          let gets = List.map (fun c -> Sget c) (System.get_order sys p) in
          let puts = List.map (fun c -> Sput c) (System.put_order sys p) in
          let stmts =
            match System.phase sys p with
            | System.Gets_first -> gets @ (Scompute :: puts)
            | System.Puts_first -> puts @ (Scompute :: gets)
          in
          Array.of_list stmts)
    in
    let pc = Array.make np 0 in
    let waiting_get = Array.make nc false in
    let waiting_put = Array.make nc false in
    let transfer_active = Array.make nc false in
    (* Wait accounting: when each channel's endpoint declared readiness
       (-1 = not waiting), and the per-process blocked-cycle totals. *)
    let get_since = Array.make nc (-1) in
    let put_since = Array.make nc (-1) in
    let blocked_on_get = Array.make np 0 in
    let blocked_on_put = Array.make np 0 in
    (* Occupancy accounting: time-integral of buffered items per channel. *)
    let occ_integral = Array.make nc 0 in
    let occ_since = Array.make nc 0 in
    let peak_occupancy = Array.make nc 0 in
    (* FIFO channels: free slots, buffered items, and whether the enqueue or
       dequeue port is mid-transfer. Rendezvous channels leave these unused. *)
    let credits = Array.make nc 0 in
    let items = Array.make nc 0 in
    let enq_busy = Array.make nc false in
    let deq_busy = Array.make nc false in
    (* Per-channel transfer counter, for the stall hook, and the index of
       each channel's last stalled transfer: until every channel has passed
       its own, the future depends on the counters, so no state is
       compared. *)
    let transfers = Array.make nc 0 in
    let last_stall = Array.make nc (-1) in
    List.iter (fun (c, k, _) -> last_stall.(c) <- max last_stall.(c) k) hooks.stalls;
    let stalls_ahead =
      ref (Array.fold_left (fun n k -> if k >= 0 then n + 1 else n) 0 last_stall)
    in
    let stuck = Array.make np false in
    List.iter (fun p -> stuck.(p) <- true) hooks.stuck;
    List.iter
      (fun c ->
        match System.channel_kind sys c with
        | System.Fifo depth | System.Multi_rate { depth; _ } -> credits.(c) <- depth
        | System.Rendezvous | System.Handshake _ -> ())
      (System.channels sys);
    let iterations = Array.make np 0 in
    let completions = Array.make np [] in
    let events = Heap.create () in
    let now = ref 0 in
    let finished = ref false in
    let transfer_latency c =
      let k = transfers.(c) in
      transfers.(c) <- k + 1;
      if k > last_stall.(c) then System.channel_latency sys c
      else begin
        if k = last_stall.(c) then decr stalls_ahead;
        let extra =
          List.fold_left
            (fun acc (c', k', cycles) -> if c' = c && k' = k then acc + cycles else acc)
            0 hooks.stalls
        in
        System.channel_latency sys c + max 0 extra
      end
    in
    let begin_get c =
      waiting_get.(c) <- true;
      get_since.(c) <- !now
    in
    let end_get c =
      waiting_get.(c) <- false;
      let p = System.channel_dst sys c in
      blocked_on_get.(p) <- blocked_on_get.(p) + (!now - get_since.(c));
      get_since.(c) <- -1
    in
    let begin_put c =
      waiting_put.(c) <- true;
      put_since.(c) <- !now
    in
    let end_put c =
      waiting_put.(c) <- false;
      let p = System.channel_src sys c in
      blocked_on_put.(p) <- blocked_on_put.(p) + (!now - put_since.(c));
      put_since.(c) <- -1
    in
    let set_items c v =
      occ_integral.(c) <- occ_integral.(c) + (items.(c) * (!now - occ_since.(c)));
      occ_since.(c) <- !now;
      items.(c) <- v;
      if v > peak_occupancy.(c) then peak_occupancy.(c) <- v
    in
    (* Entering a statement either arms a timer (compute), or declares
       readiness on a channel and attempts a transfer. Zero-latency
       computations fall through immediately; every process has at least one
       channel statement, so the mutual recursion terminates. *)
    let rec enter p =
      match program.(p).(pc.(p)) with
      | Scompute ->
        let l = System.latency sys p in
        if l = 0 then advance p else Heap.push events (!now + l) (Compute_done p)
      | Sget c ->
        begin_get c;
        try_match c
      | Sput c ->
        begin_put c;
        try_match c
    and try_match c =
      match System.channel_kind sys c with
      | System.Rendezvous | System.Handshake _ ->
        (* [transfer_active] covers both the transfer itself and, for a
           handshake, the consumer's hold time before the ack. *)
        if waiting_get.(c) && waiting_put.(c) && not transfer_active.(c) then begin
          end_get c;
          end_put c;
          transfer_active.(c) <- true;
          Heap.push events (!now + transfer_latency c) (Transfer_done c)
        end
      | System.Fifo _ | System.Multi_rate _ ->
        let produce, consume = System.channel_rates sys c in
        (* Enqueue: the producer needs [produce] free slots; the transfer
           into the buffer takes the channel latency. *)
        if waiting_put.(c) && credits.(c) >= produce && not enq_busy.(c) then begin
          end_put c;
          credits.(c) <- credits.(c) - produce;
          enq_busy.(c) <- true;
          Heap.push events (!now + transfer_latency c) (Enqueue_done c)
        end;
        (* Dequeue: the consumer needs [consume] buffered items; the local
           read takes the get-side latency (shared with the TMG's dequeue
           transition through {!System.get_side_latency}). *)
        if waiting_get.(c) && items.(c) >= consume && not deq_busy.(c) then begin
          end_get c;
          set_items c (items.(c) - consume);
          deq_busy.(c) <- true;
          Heap.push events (!now + System.get_side_latency sys c) (Dequeue_done c)
        end
    and advance p =
      pc.(p) <- (pc.(p) + 1) mod Array.length program.(p);
      if pc.(p) = 0 then begin
        iterations.(p) <- iterations.(p) + 1;
        completions.(p) <- !now :: completions.(p);
        if p = monitor && iterations.(p) >= max_iterations then finished := true
      end;
      enter p
    in
    for p = 0 to np - 1 do
      if not stuck.(p) then enter p
    done;
    (* The whole state, times relative to now: every pc; per channel its
       flags, credits and items; the pending events in heap order. The
       accounting arrays and the transfer counters (once no stall is ahead)
       do not steer the future and stay out. *)
    let state () =
      let a = Array.make (np + (3 * nc) + (2 * Heap.size events)) 0 in
      Array.blit pc 0 a 0 np;
      for c = 0 to nc - 1 do
        let b = np + (3 * c) in
        let bit f v = if f.(c) then v else 0 in
        a.(b) <-
          bit waiting_get 1 + bit waiting_put 2 + bit transfer_active 4 + bit enq_busy 8
          + bit deq_busy 16;
        a.(b + 1) <- credits.(c);
        a.(b + 2) <- items.(c)
      done;
      let i = ref (np + (3 * nc)) in
      Heap.iter
        (fun t ev ->
          a.(!i) <- t - !now;
          a.(!i + 1) <- event_code ev;
          i := !i + 2)
        events;
      a
    in
    let seen = Recurrence.create () in
    let period = ref None in
    let outcome = ref None in
    while !finished = false && !outcome = None && !period = None do
      match Heap.pop_min events with
      | None ->
        (* No pending event: every (unstuck) process is stalled at an I/O
           statement and no transfer can complete — deadlock. *)
        let blocked =
          List.filter_map
            (fun p ->
              if stuck.(p) then None
              else
                match program.(p).(pc.(p)) with
                | Sget c -> Some { process = p; channel = c; direction = Waiting_get }
                | Sput c -> Some { process = p; channel = c; direction = Waiting_put }
                | Scompute -> None)
            (System.processes sys)
        in
        outcome := Some (Deadlocked { at_cycle = !now; blocked })
      | Some (t, ev) ->
        if t > max_cycles then
          (* Watchdog: the budget is exhausted before the monitor finished. *)
          outcome :=
            Some
              (Timed_out
                 { budget = max_cycles; monitor_iterations = iterations.(monitor) })
        else begin
          now := t;
          let before = iterations.(monitor) in
          (match ev with
          | Compute_done p -> advance p
          | Transfer_done c ->
            (* A handshake with a positive hold keeps the channel busy until
               the consumer acks; with hold = 0 the event flow is exactly the
               rendezvous one. Both endpoints move past their put/get; the
               consumer first is an arbitrary but fixed tie-break (no
               semantic effect: both advance at the same instant). *)
            (match System.channel_kind sys c with
             | System.Handshake { hold } when hold > 0 ->
               Heap.push events (!now + hold) (Ack_done c)
             | _ -> transfer_active.(c) <- false);
            advance (System.channel_dst sys c);
            advance (System.channel_src sys c)
          | Ack_done c ->
            transfer_active.(c) <- false;
            try_match c
          | Enqueue_done c ->
            let produce, _ = System.channel_rates sys c in
            enq_busy.(c) <- false;
            set_items c (items.(c) + produce);
            advance (System.channel_src sys c);
            try_match c
          | Dequeue_done c ->
            let _, consume = System.channel_rates sys c in
            deq_busy.(c) <- false;
            credits.(c) <- credits.(c) + consume;
            advance (System.channel_dst sys c);
            try_match c);
          if recur && iterations.(monitor) > before && !stalls_ahead = 0 then
            period :=
              Recurrence.observe seen (state ()) ~iteration:iterations.(monitor) ~time:!now
        end
    done;
    (* Close the books at the final clock: processes still waiting (the
       norm under deadlock) and the occupancy integrals both accrue to
       [now]. *)
    for c = 0 to nc - 1 do
      if get_since.(c) >= 0 then begin
        let p = System.channel_dst sys c in
        blocked_on_get.(p) <- blocked_on_get.(p) + (!now - get_since.(c))
      end;
      if put_since.(c) >= 0 then begin
        let p = System.channel_src sys c in
        blocked_on_put.(p) <- blocked_on_put.(p) + (!now - put_since.(c))
      end;
      occ_integral.(c) <- occ_integral.(c) + (items.(c) * (!now - occ_since.(c)))
    done;
    let profile =
      {
        blocked_on_get;
        blocked_on_put;
        mean_occupancy =
          Array.map
            (fun i -> if !now = 0 then 0. else float_of_int i /. float_of_int !now)
            occ_integral;
        peak_occupancy;
      }
    in
    let outcome = match !outcome with None -> Completed | Some o -> o in
    Obs.incr "sim.runs";
    Obs.incr ~by:!now "sim.cycles";
    if !period <> None then Obs.incr "sim.recurrences";
    Obs.incr
      (match outcome with
      | Completed -> "sim.completions"
      | Deadlocked _ -> "sim.deadlocks"
      | Timed_out _ -> "sim.timeouts");
    Obs.incr ~by:(Array.fold_left ( + ) 0 blocked_on_get) "sim.blocked_on_get_cycles";
    Obs.incr ~by:(Array.fold_left ( + ) 0 blocked_on_put) "sim.blocked_on_put_cycles";
    Log.debug (fun m ->
        m "run: %s at cycle %d (%d monitor iterations)"
          (match outcome with
          | Completed -> "completed"
          | Deadlocked _ -> "deadlocked"
          | Timed_out _ -> "timed out")
          !now iterations.(monitor));
    Ok
      ( { cycles = !now; iterations; completions = Array.map List.rev completions; outcome; profile },
        !period )

let run ?monitor ?(max_iterations = 64) ?max_cycles ?(hooks = no_hooks) sys =
  simulate ~caller:"Sim.run" ~recur:false ?monitor ~max_iterations ?max_cycles ~hooks sys
  |> Result.map fst

type measurement =
  | Period of Ratio.t
  | No_period
  | Deadlock of deadlock
  | Timeout of timeout

let steady_cycle_time ?(rounds = 64) ?monitor ?max_cycles ?(hooks = no_hooks) sys =
  simulate ~caller:"Sim.steady_cycle_time" ~recur:true ?monitor ~max_iterations:rounds
    ?max_cycles ~hooks sys
  |> Result.map (function
       | _, Some p -> Period p
       | { outcome = Deadlocked d; _ }, None -> Deadlock d
       | { outcome = Timed_out t; _ }, None -> Timeout t
       | { outcome = Completed; _ }, None -> No_period)

let pp_deadlock sys ppf d =
  Format.fprintf ppf "@[<v>deadlock at cycle %d:@," d.at_cycle;
  List.iter
    (fun b ->
      Format.fprintf ppf "  %s blocked on %s of %s@,"
        (System.process_name sys b.process)
        (match b.direction with Waiting_get -> "get" | Waiting_put -> "put")
        (System.channel_name sys b.channel))
    d.blocked;
  Format.fprintf ppf "@]"

let pp_timeout ppf t =
  Format.fprintf ppf
    "watchdog timeout: cycle budget %d exhausted after %d monitor iterations"
    t.budget t.monitor_iterations

let pp_profile sys ppf r =
  let cycles = max r.cycles 1 in
  let pct n = 100. *. float_of_int n /. float_of_int cycles in
  Format.fprintf ppf "@[<v>utilization over %d cycles:@," r.cycles;
  Format.fprintf ppf "  %-16s %10s %12s %12s@," "process" "iterations" "get-blocked" "put-blocked";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-16s %10d %11.1f%% %11.1f%%@,"
        (System.process_name sys p)
        r.iterations.(p)
        (pct r.profile.blocked_on_get.(p))
        (pct r.profile.blocked_on_put.(p)))
    (System.processes sys);
  let fifos =
    List.filter
      (fun c ->
        match System.channel_kind sys c with
        | System.Fifo _ | System.Multi_rate _ -> true
        | System.Rendezvous | System.Handshake _ -> false)
      (System.channels sys)
  in
  if fifos <> [] then begin
    Format.fprintf ppf "  %-16s %10s %12s %12s@," "channel" "depth" "mean-occ" "peak-occ";
    List.iter
      (fun c ->
        let depth =
          match System.channel_kind sys c with
          | System.Fifo d | System.Multi_rate { depth = d; _ } -> d
          | System.Rendezvous | System.Handshake _ -> 0
        in
        Format.fprintf ppf "  %-16s %10d %12.2f %12d@,"
          (System.channel_name sys c) depth
          r.profile.mean_occupancy.(c)
          r.profile.peak_occupancy.(c))
      fifos
  end;
  Format.fprintf ppf "@]"
