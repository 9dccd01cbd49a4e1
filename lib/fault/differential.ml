module System = Ermes_slm.System
module Sim = Ermes_slm.Sim
module To_tmg = Ermes_slm.To_tmg
module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio
module Liveness = Ermes_tmg.Liveness
module Csr = Ermes_tmg.Csr
module Token_game = Ermes_tmg.Token_game
module Firing = Ermes_tmg.Firing
module Verify = Ermes_verify.Verify
module Soc_rtl = Ermes_rtl.Soc_rtl

type verdict = Live of Ratio.t | Dead

type report = {
  verdict : verdict option;
  mismatches : string list;
}

let agreed r = r.mismatches = []

let rs = Ratio.to_string

(* The certificate checker is its own oracle: every verdict must come with
   a proof object the independent O(E) checker accepts. [fresh] is a freeze
   of its own, never a solver's input or internal state. *)
let check_certificate add fresh name cert =
  match Verify.check_csr fresh cert with
  | Ok () -> ()
  | Error v ->
    Printf.ksprintf add "verify: %s certificate rejected [%s]: %s" name
      v.Verify.obligation v.Verify.detail

(* Karp solves the cycle-mean problem, i.e. the unit-token cycle-ratio
   problem; cross-check it against Howard on a copy of the marking where
   every place holds exactly one token, then restore. *)
let check_karp add tmg =
  let saved = List.map (fun p -> (p, Tmg.tokens tmg p)) (Tmg.places tmg) in
  List.iter (fun (p, _) -> Tmg.set_tokens tmg p 1) saved;
  let karp = Csr.karp_unit_certified (Csr.of_tmg tmg) in
  let fresh = Csr.of_tmg tmg in
  check_certificate add fresh "karp" (Verify.of_certified fresh karp);
  let add fmt = Printf.ksprintf add fmt in
  (match (Csr.cycle_time tmg, karp) with
  | Ok h, Ok (k, _, _) ->
    if not (Ratio.equal h.Csr.cycle_time k) then
      add "karp: unit-token cycle mean %s, howard says %s" (rs k)
        (rs h.Csr.cycle_time)
  | Error Csr.No_cycle, Error _ -> ()
  | Error (Csr.Deadlock _), _ -> add "howard: deadlock on a unit-token net"
  | Ok h, Error _ ->
    add "karp: no cycle where howard found cycle time %s" (rs h.Csr.cycle_time)
  | Error Csr.No_cycle, Ok (k, _, _) ->
    add "karp: cycle mean %s where howard found no cycle" (rs k));
  List.iter (fun (p, t) -> Tmg.set_tokens tmg p t) saved

let check_token_game add tmg verdict =
  let g = Token_game.start tmg in
  match verdict with
  | Dead ->
    if Token_game.run_round g then
      add "token game: completed a full round on a net the analyses deadlock"
  | Live _ ->
    if not (Token_game.run_round g) then add "token game: stuck on a live net"
    else if not (Token_game.at_initial_marking g) then
      add "token game: marking not restored after a full round"

let check_firing add tmg rounds v =
  let add fmt = Printf.ksprintf add fmt in
  match v with
  | Dead -> ()
  | Live ct -> (
    let measure r = Firing.measured_cycle_time tmg ~rounds:r in
    match (match measure rounds with None -> measure (rounds * 4) | p -> p) with
    | Some m ->
      if not (Ratio.equal m ct) then
        add "firing: max-plus schedule settles at %s, howard says %s" (rs m) (rs ct)
    | None -> add "firing: no periodic steady state within %d rounds" (rounds * 4))

(* The simulator's verdict is local to its monitor: on a partially
   deadlocked system a sink that does not depend on the dead cycle keeps
   iterating, legitimately. A deadlock verdict from the analyses is global,
   so compare against *every* sink: the system is only cleared if some sink
   observes the deadlock (directly, or as a watchdog timeout when unrelated
   activity keeps the event queue busy). Every process of a valid system
   lies on a source-to-sink path, so a dead cycle always starves or blocks
   at least one sink. *)
(* The simulator's (and the RTL interpreter's) period is per monitor
   iteration; the TMG cycle time is per firing of each unfolded transition
   instance. The default monitor (the first sink) completes q(monitor)
   iterations per TMG period, so the two agree up to that factor — exactly 1
   on unit-rate systems. *)
let monitor_repetition faulted =
  match System.repetition_vector faulted with
  | Error _ -> 1
  | Ok q -> ( match System.sinks faulted with s :: _ -> q.(s) | [] -> 1)

let check_sim add faulted scenario rounds verdict =
  let add fmt = Printf.ksprintf add fmt in
  let hooks = Fault.hooks scenario in
  let budget r = Sim.default_max_cycles ~max_iterations:r faulted + Fault.stall_budget scenario in
  let sim ?monitor r =
    Sim.steady_cycle_time ?monitor ~rounds:r ~max_cycles:(budget r) ~hooks faulted
  in
  let qmon = monitor_repetition faulted in
  match verdict with
  | Live ct -> (
    let rec check r escalate =
      match sim r with
      | Error e -> add "sim: %s" e
      | Ok (Sim.Period p) ->
        if not (Ratio.equal (Ratio.mul p (Ratio.of_int qmon)) ct) then
          add "sim: steady period %s (x%d unfolding = %s), howard says %s" (rs p)
            qmon
            (rs (Ratio.mul p (Ratio.of_int qmon)))
            (rs ct)
      | Ok (Sim.Deadlock d) ->
        add "sim: deadlock at cycle %d on a system the analyses call live" d.Sim.at_cycle
      | Ok (Sim.Timeout t) ->
        add "sim: watchdog timeout (budget %d, %d monitor iterations) on a live system"
          t.Sim.budget t.Sim.monitor_iterations
      | Ok Sim.No_period ->
        if escalate then check (r * 4) false
        else add "sim: no steady period within %d monitored iterations" r
    in
    check rounds true)
  | Dead -> (
    let sinks = System.sinks faulted in
    let observed =
      List.exists
        (fun s ->
          match sim ~monitor:s rounds with
          | Ok (Sim.Deadlock _ | Sim.Timeout _) -> true
          | Ok (Sim.Period _ | Sim.No_period) | Error _ -> false)
        sinks
    in
    if not observed then
      match sinks with
      | [] -> add "sim: deadlocked system has no sink to monitor"
      | _ ->
        add "sim: every sink completed %d iterations on a system the analyses deadlock"
          rounds)

(* The ninth oracle: generate the RTL control skeleton of the same faulted
   design and interpret it cycle by cycle. Structural faults are baked into
   [faulted], so the RTL sees them; [Channel_stall] is transient and cannot
   change the steady state the RTL is compared on. [Token_removal] has no
   RTL counterpart — it edits the TMG marking and starves the simulator
   through hooks, but every generated FSM still starts with its token — so
   the RTL oracle sits out those scenarios. Horizon exhaustion (including
   the interpreter's register-level fixed point) is the RTL's deadlock
   verdict, cross-checked against the analyses exactly as the simulator's
   [Deadlocked]/[Timed_out] outcomes are. *)
let check_rtl add faulted scenario rounds verdict =
  let add fmt = Printf.ksprintf add fmt in
  if Fault.stuck_processes scenario <> [] then ()
  else begin
    let budget r = Sim.default_max_cycles ~max_iterations:r faulted in
    let cosim ?monitor r =
      Soc_rtl.cosim ?monitor ~rounds:r ~max_cycles:(budget r) faulted
    in
    let qmon = monitor_repetition faulted in
    match verdict with
    | Live ct -> (
      (* A third of the simulator's horizon settles almost every live case;
         escalate once before declaring the period missing, as the
         simulator check does. *)
      let rec check r escalate =
        match cosim r with
        | Soc_rtl.Rtl_period p ->
          if not (Ratio.equal (Ratio.mul p (Ratio.of_int qmon)) ct) then
            add "rtl: steady period %s (x%d unfolding = %s), howard says %s" (rs p) qmon
              (rs (Ratio.mul p (Ratio.of_int qmon)))
              (rs ct)
        | Soc_rtl.Rtl_exhausted { cycles; iterations } ->
          add "rtl: stalled after %d monitor iterations (%d cycles) on a system the \
               analyses call live"
            iterations cycles
        | Soc_rtl.Rtl_no_period ->
          if escalate then check (r * 4) false
          else add "rtl: no steady period within %d monitored iterations" r
        | exception Invalid_argument m -> add "rtl: build rejected a valid system: %s" m
      in
      check (max 12 (rounds / 3)) true)
    | Dead -> (
      (* As for the simulator: a deadlock verdict is global, a monitor is
         local — the system is cleared if some sink observes the stall. *)
      let sinks = System.sinks faulted in
      let observed =
        List.exists
          (fun s ->
            match cosim ~monitor:s rounds with
            | Soc_rtl.Rtl_exhausted _ -> true
            | Soc_rtl.Rtl_period _ | Soc_rtl.Rtl_no_period -> false
            | exception Invalid_argument _ -> false)
          sinks
      in
      if not observed then
        match sinks with
        | [] -> add "rtl: deadlocked system has no sink to monitor"
        | _ ->
          add "rtl: every sink completed %d iterations on a system the analyses deadlock"
            rounds)
  end

let run_case ?(rounds = 96) ?(rtl = true) sys scenario =
  let mismatches = ref [] in
  let record s = mismatches := s :: !mismatches in
  let add fmt = Printf.ksprintf record fmt in
  let faulted = Fault.apply sys scenario in
  match System.validate faulted with
  | Error e ->
    {
      verdict = None;
      mismatches = [ "fault application broke well-formedness: " ^ e ];
    }
  | Ok () ->
    let m = To_tmg.build faulted in
    Fault.remove_tokens m scenario;
    let tmg = m.To_tmg.tmg in
    let dead_per_liveness = Liveness.find_dead_cycle tmg <> None in
    let howard_raw = Csr.cycle_time tmg in
    let verdict =
      match howard_raw with
      | Ok h -> Some (Live h.Csr.cycle_time)
      | Error (Csr.Deadlock _) -> Some Dead
      | Error Csr.No_cycle ->
        add "howard: no cycle in the TMG of a valid system";
        None
    in
    let lawler = Csr.lawler_certified (Csr.of_tmg tmg) in
    let fresh = Csr.of_tmg tmg in
    check_certificate record fresh "howard" (Verify.of_howard_csr fresh howard_raw);
    check_certificate record fresh "lawler" (Verify.of_certified fresh lawler);
    check_certificate record fresh "liveness" (Verify.of_liveness tmg);
    (match (verdict, dead_per_liveness) with
    | Some Dead, false -> add "liveness: howard reports deadlock, commoner finds no token-free cycle"
    | Some (Live ct), true ->
      add "liveness: commoner finds a token-free cycle, howard reports cycle time %s" (rs ct)
    | _ -> ());
    (match (lawler, verdict) with
    | Ok (ct, _, _), Some (Live h) ->
      if not (Ratio.equal ct h) then add "lawler: %s, howard says %s" (rs ct) (rs h)
    | Ok (ct, _, _), Some Dead ->
      add "lawler: cycle time %s on a system howard deadlocks" (rs ct)
    | Error (Csr.Deadlock _), Some (Live ct) ->
      add "lawler: deadlock on a system howard times at %s" (rs ct)
    | Error (Csr.Deadlock _), Some Dead -> ()
    | Error Csr.No_cycle, Some _ -> add "lawler: no cycle where howard found one"
    | _, None -> ());
    check_karp record tmg;
    (match verdict with
    | Some v ->
      check_token_game record tmg v;
      (* Firing raises on non-live nets; skip it when the liveness oracles
         already disagree (the mismatch is recorded above). *)
      if (v = Dead) = dead_per_liveness then check_firing record tmg rounds v;
      check_sim record faulted scenario rounds v;
      if rtl then check_rtl record faulted scenario rounds v
    | None -> ());
    { verdict; mismatches = List.rev !mismatches }
