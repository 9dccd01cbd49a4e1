module System = Ermes_slm.System
module Sim = Ermes_slm.Sim
module Recurrence = Ermes_tmg.Recurrence
module Obs = Ermes_obs.Obs
module B = Ir.Builder

type t = {
  design : Ir.design;
  state_of : Ir.signal array;
  iterations_of : Ir.signal array;
  fire_of : Ir.signal array;
}

let bits_for n =
  let rec go acc v = if v = 0 then max 1 acc else go (acc + 1) (v lsr 1) in
  go 0 n

let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') name

let c0 w = Ir.Const (0, w)
let c1 w = Ir.Const (1, w)

type stmt = Sget of System.channel | Scompute | Sput of System.channel

let program sys p =
  let gets = List.map (fun c -> Sget c) (System.get_order sys p) in
  let puts = List.map (fun c -> Sput c) (System.put_order sys p) in
  (* Zero-latency computations take no state: the FSM skips them, exactly as
     the simulator advances through them instantaneously. *)
  let compute = if System.latency sys p > 0 then [ Scompute ] else [] in
  match System.phase sys p with
  | System.Gets_first -> gets @ compute @ puts
  | System.Puts_first -> puts @ compute @ gets

let build sys =
  (match System.validate sys with
   | Ok () -> ()
   | Error e -> invalid_arg ("Soc_rtl.build: " ^ e));
  let limit = 1 lsl 30 in
  List.iter
    (fun p ->
      if System.latency sys p >= limit then
        invalid_arg
          (Printf.sprintf
             "Soc_rtl.build: process %S has latency %d, beyond the 2^30 limit of the RTL counters"
             (System.process_name sys p) (System.latency sys p)))
    (System.processes sys);
  List.iter
    (fun c ->
      (* Name the channel and its kind: a rejected design must be
         diagnosable from the message alone. *)
      let reject what v =
        invalid_arg
          (Printf.sprintf
             "Soc_rtl.build: channel %S (%s) has %s %d, beyond the 2^30 limit of the RTL counters"
             (System.channel_name sys c)
             (System.string_of_kind (System.channel_kind sys c))
             what v)
      in
      if System.channel_latency sys c >= limit then
        reject "latency" (System.channel_latency sys c);
      match System.channel_kind sys c with
      | System.Rendezvous -> ()
      | System.Fifo depth -> if depth >= limit then reject "depth" depth
      | System.Multi_rate { depth; _ } -> if depth >= limit then reject "depth" depth
      | System.Handshake { hold } -> if hold >= limit then reject "hold" hold)
    (System.channels sys);
  Obs.incr "rtl.builds";
  let b = B.create ~name:(sanitize (System.name sys) ^ "_ctrl") in
  let np = System.process_count sys and nc = System.channel_count sys in
  (* Per-process FSM state registers (created first so channel logic can
     reference them through the req/ack wires defined below). *)
  let programs = Array.init np (fun p -> Array.of_list (program sys p)) in
  let state_w = Array.init np (fun p -> bits_for (max 1 (Array.length programs.(p) - 1))) in
  let state_of =
    Array.init np (fun p ->
        B.reg b ~name:(Printf.sprintf "st_%s" (sanitize (System.process_name sys p)))
          ~width:state_w.(p) ~reset:0)
  in
  (* req/ack wires: the producer requests while its FSM sits in the [put]
     state of the channel; the consumer acknowledges from its [get] state. *)
  let stmt_index p stmt =
    let found = ref (-1) in
    Array.iteri (fun i s -> if s = stmt then found := i) programs.(p);
    assert (!found >= 0);
    !found
  in
  let req_of =
    Array.init nc (fun c ->
        let p = System.channel_src sys c in
        B.wire b ~name:(Printf.sprintf "req_%s" (sanitize (System.channel_name sys c))) ~width:1
          (Ir.Eq (Ir.Sig state_of.(p), Ir.Const (stmt_index p (Sput c), state_w.(p)))))
  in
  let ack_of =
    Array.init nc (fun c ->
        let p = System.channel_dst sys c in
        B.wire b ~name:(Printf.sprintf "ack_%s" (sanitize (System.channel_name sys c))) ~width:1
          (Ir.Eq (Ir.Sig state_of.(p), Ir.Const (stmt_index p (Sget c), state_w.(p)))))
  in
  (* Channel logic. [entry_fire] releases the producer, [exit_fire] the
     consumer; for rendezvous they are the same pulse. *)
  let entry_fire = Array.make nc (Ir.Const (0, 1)) in
  let exit_fire = Array.make nc (Ir.Const (0, 1)) in
  let fire_of = Array.make nc (-1) in
  let transfer_logic ~tag ~request ~latency =
    (* A start in cycle t pulses the returned fire wire in cycle t+L-1, so
       the requester's FSM steps at the t+L-1 -> t+L edge: L busy cycles. *)
    if latency = 1 then B.wire b ~name:(tag ^ "_fire") ~width:1 request
    else begin
      let w = bits_for (latency - 1) in
      let busy = B.reg b ~name:(tag ^ "_busy") ~width:1 ~reset:0 in
      let cnt = B.reg b ~name:(tag ^ "_cnt") ~width:w ~reset:0 in
      let fire =
        B.wire b ~name:(tag ^ "_fire") ~width:1
          (Ir.And (Ir.Sig busy, Ir.Eq (Ir.Sig cnt, c0 w)))
      in
      let start =
        B.wire b ~name:(tag ^ "_start") ~width:1 (Ir.And (request, Ir.Not (Ir.Sig busy)))
      in
      B.drive b busy (Ir.Mux (Ir.Sig start, c1 1, Ir.Mux (Ir.Sig fire, c0 1, Ir.Sig busy)));
      B.drive b cnt
        (Ir.Mux
           ( Ir.Sig start,
             Ir.Const (latency - 2, w),
             Ir.Mux
               ( Ir.And (Ir.Sig busy, Ir.Not (Ir.Eq (Ir.Sig cnt, c0 w))),
                 Ir.Sub (Ir.Sig cnt, c1 w),
                 Ir.Sig cnt ) ));
      fire
    end
  in
  (* Rendezvous and valid/ready handshake share one lowering: the transfer
     starts when both FSMs wait on the channel, both advance when it fires.
     A positive [hold] adds a down-counter that keeps the channel occupied
     for [hold] cycles after the fire — the consumer holding data before
     acking, as the simulator's [Ack_done] event does — gating the next
     request. [hold = 0] is exactly the rendezvous lowering, so the
     Handshake{0} degeneracy is bit-identical IR by construction. *)
  let rendezvous_logic c tag latency ~hold =
    let request = Ir.And (Ir.Sig req_of.(c), Ir.Sig ack_of.(c)) in
    let fire =
      if hold = 0 then transfer_logic ~tag ~request ~latency
      else begin
        let hw = bits_for hold in
        let hcnt = B.reg b ~name:(tag ^ "_hold") ~width:hw ~reset:0 in
        let ready = Ir.Eq (Ir.Sig hcnt, c0 hw) in
        let fire = transfer_logic ~tag ~request:(Ir.And (request, ready)) ~latency in
        (* Loaded at the fire edge, so the channel is held for cycles
           t+L .. t+L+hold-1 and the next transfer can start at t+L+hold —
           the simulator's Ack_done instant. *)
        B.drive b hcnt
          (Ir.Mux
             ( Ir.Sig fire,
               Ir.Const (hold, hw),
               Ir.Mux (ready, Ir.Sig hcnt, Ir.Sub (Ir.Sig hcnt, c1 hw)) ));
        fire
      end
    in
    entry_fire.(c) <- Ir.Sig fire;
    exit_fire.(c) <- Ir.Sig fire;
    fire_of.(c) <- fire
  in
  (* Buffered channels (FIFO and multi-rate): weighted enqueue/dequeue ports
     over item and credit counters. The enqueue occupies the channel for its
     latency; the dequeue side runs at {!System.get_side_latency} (one cycle
     for buffered reads). At produce = consume = 1 every expression below
     degenerates to the historical FIFO lowering, so Multi_rate{1,1,d} emits
     bit-identical IR to Fifo d — the pinned degeneracy. *)
  let buffered_logic c tag latency ~produce ~consume ~depth =
    let w = bits_for depth in
    let credits = B.reg b ~name:(tag ^ "_credits") ~width:w ~reset:depth in
    let items = B.reg b ~name:(tag ^ "_items") ~width:w ~reset:0 in
    (* counter >= k; at k = 1 this is the historical [counter <> 0] test. *)
    let at_least counter k =
      if k = 1 then Ir.Not (Ir.Eq (Ir.Sig counter, c0 w))
      else Ir.Not (Ir.Lt (Ir.Sig counter, Ir.Const (k, w)))
    in
    let enq_req =
      B.wire b ~name:(tag ^ "_enq_req") ~width:1
        (Ir.And (Ir.Sig req_of.(c), at_least credits produce))
    in
    let enq_fire = transfer_logic ~tag:(tag ^ "_enq") ~request:(Ir.Sig enq_req) ~latency in
    (* Credits: consumed at enqueue completion, returned at dequeue
       completion. Consuming at completion rather than start is safe
       because the enqueue unit stays busy for the whole transfer — no
       second enqueue can slip in — and preserves the invariant
       credits + items = depth at every cycle. *)
    let deq_fire =
      transfer_logic ~tag:(tag ^ "_deq")
        ~request:(Ir.And (Ir.Sig ack_of.(c), at_least items consume))
        ~latency:(System.get_side_latency sys c)
    in
    let add cond k v = Ir.Mux (cond, Ir.Add (v, Ir.Const (k, w)), v) in
    let sub cond k v = Ir.Mux (cond, Ir.Sub (v, Ir.Const (k, w)), v) in
    B.drive b credits
      (add (Ir.Sig deq_fire) consume (sub (Ir.Sig enq_fire) produce (Ir.Sig credits)));
    B.drive b items
      (add (Ir.Sig enq_fire) produce (sub (Ir.Sig deq_fire) consume (Ir.Sig items)));
    entry_fire.(c) <- Ir.Sig enq_fire;
    exit_fire.(c) <- Ir.Sig deq_fire;
    fire_of.(c) <- deq_fire
  in
  List.iter
    (fun c ->
      let tag = "ch_" ^ sanitize (System.channel_name sys c) in
      let latency = System.channel_latency sys c in
      match System.channel_kind sys c with
      | System.Rendezvous -> rendezvous_logic c tag latency ~hold:0
      | System.Handshake { hold } -> rendezvous_logic c tag latency ~hold
      | System.Fifo depth -> buffered_logic c tag latency ~produce:1 ~consume:1 ~depth
      | System.Multi_rate { produce; consume; depth } ->
        buffered_logic c tag latency ~produce ~consume ~depth)
    (System.channels sys);
  (* Process FSMs: advance conditions per statement, next-state logic,
     computation counters, iteration counters. *)
  let iterations_of = Array.make np (-1) in
  List.iter
    (fun p ->
      let prog = programs.(p) in
      let k = Array.length prog in
      let w = state_w.(p) in
      let state = state_of.(p) in
      let latency = System.latency sys p in
      (* Computation counter (present only when a compute state exists). *)
      let compute_idx = ref (-1) in
      Array.iteri (fun i s -> if s = Scompute then compute_idx := i) prog;
      let cw = bits_for (max 1 (latency - 1)) in
      let cnt =
        if !compute_idx >= 0 then
          Some
            (B.reg b
               ~name:(Printf.sprintf "cnt_%s" (sanitize (System.process_name sys p)))
               ~width:cw
               ~reset:(if !compute_idx = 0 then latency - 1 else 0))
        else None
      in
      let advance i =
        match prog.(i) with
        | Sget c -> exit_fire.(c)
        | Sput c -> entry_fire.(c)
        | Scompute -> (
          match cnt with
          | Some cnt -> Ir.Eq (Ir.Sig cnt, c0 cw)
          | None -> assert false)
      in
      (* next_state = if state = i && advance_i then (i+1 mod k) else state *)
      let next =
        let rec fold i acc =
          if i < 0 then acc
          else
            fold (i - 1)
              (Ir.Mux
                 ( Ir.And (Ir.Eq (Ir.Sig state, Ir.Const (i, w)), advance i),
                   Ir.Const ((i + 1) mod k, w),
                   acc ))
        in
        fold (k - 1) (Ir.Sig state)
      in
      let next_w =
        B.wire b ~name:(Printf.sprintf "nx_%s" (sanitize (System.process_name sys p))) ~width:w
          next
      in
      B.drive b state (Ir.Sig next_w);
      (match (cnt, !compute_idx) with
       | Some cnt, ci ->
         let in_compute = Ir.Eq (Ir.Sig state, Ir.Const (ci, w)) in
         let entering =
           Ir.And (Ir.Eq (Ir.Sig next_w, Ir.Const (ci, w)), Ir.Not in_compute)
         in
         B.drive b cnt
           (Ir.Mux
              ( entering,
                Ir.Const (latency - 1, cw),
                Ir.Mux
                  ( Ir.And (in_compute, Ir.Not (Ir.Eq (Ir.Sig cnt, c0 cw))),
                    Ir.Sub (Ir.Sig cnt, c1 cw),
                    Ir.Sig cnt ) ))
       | None, _ -> ());
      (* Iteration counter: wraps when the last statement completes. *)
      let iter =
        B.reg b ~name:(Printf.sprintf "it_%s" (sanitize (System.process_name sys p)))
          ~width:30 ~reset:0
      in
      let wrap = Ir.And (Ir.Eq (Ir.Sig state, Ir.Const (k - 1, w)), advance (k - 1)) in
      B.drive b iter (Ir.Mux (wrap, Ir.Add (Ir.Sig iter, c1 30), Ir.Sig iter));
      B.output b iter;
      iterations_of.(p) <- iter)
    (System.processes sys);
  Array.iter (fun s -> B.output b s) state_of;
  { design = B.finish b; state_of; iterations_of; fire_of }

type measurement =
  | Rtl_period of Ermes_tmg.Ratio.t
  | Rtl_no_period
  | Rtl_exhausted of { cycles : int; iterations : int }

let cosim ?(rounds = 48) ?max_cycles ?monitor sys =
  Obs.incr "rtl.cosim.runs";
  Obs.incr ~by:0 "rtl.cosim.recurrences";
  let rtl = build sys in
  let ip = Interp.create rtl.design in
  let monitor =
    match monitor with
    | Some p -> p
    | None -> (
      match System.sinks sys with
      | [] -> invalid_arg "Soc_rtl.cosim: system has no sink to monitor"
      | s :: _ -> s)
  in
  let max_cycles =
    match max_cycles with
    | Some m -> m
    | None -> Sim.default_max_cycles ~max_iterations:rounds sys
  in
  let iter = rtl.iterations_of.(monitor) in
  (* The design is closed, so its registers are its whole state; the
     free-running iteration counters only count, and stay out. *)
  let counters = Array.to_list rtl.iterations_of in
  let state_regs =
    Array.to_seqi rtl.design.Ir.signals
    |> Seq.filter_map (fun (s, info) ->
           match info.Ir.kind with
           | Ir.Reg _ when not (List.mem s counters) -> Some s
           | Ir.Reg _ | Ir.Input | Ir.Wire _ -> None)
    |> Array.of_seq
  in
  let seen_states = Recurrence.create () in
  let period = ref None in
  let seen = ref 0 in
  let cycles = ref 0 in
  let stuck = ref false in
  while (not !stuck) && !period = None && !seen < rounds && !cycles < max_cycles do
    Interp.step ip;
    incr cycles;
    let v = Interp.peek ip iter in
    if v > !seen then begin
      (* At most one completion per cycle by construction. *)
      seen := v;
      period :=
        Recurrence.observe seen_states
          (Array.map (Interp.peek ip) state_regs)
          ~iteration:v ~time:!cycles
    end
    else if Interp.settled ip then
      (* The design is closed (no inputs): a step that commits no register
         change is a fixed point of the next-state function, so the
         deadlock is permanent — no need to burn the rest of the budget. *)
      stuck := true
  done;
  Obs.incr ~by:!cycles "rtl.interp.cycles";
  match !period with
  | Some p ->
    Obs.incr "rtl.cosim.recurrences";
    Rtl_period p
  | None ->
    if !seen < rounds then Rtl_exhausted { cycles = !cycles; iterations = !seen }
    else Rtl_no_period

let measured_cycle_time ?(rounds = 48) ?(max_cycles = 200_000) sys =
  match cosim ~rounds ~max_cycles sys with
  | Rtl_period p -> Some p
  | Rtl_no_period | Rtl_exhausted _ -> None
