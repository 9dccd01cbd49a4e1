(* The paper's motivating example (Fig. 2-4), end to end:

   1. the system and its 36 possible order combinations;
   2. the deadlock of §2, found analytically (token-free cycle) and
      confirmed by cycle-accurate simulation;
   3. the suboptimal deadlock-free order (CT 20, throughput 0.05);
   4. the labeling algorithm's weights and timestamps (Fig. 4(b));
   5. the optimal order (CT 12 — 40% better), again cross-checked in
      simulation;
   6. the per-process RTL control FSM of Fig. 2(b).

   Run with: dune exec examples/motivating.exe *)

module System = Ermes_slm.System
module Motivating = Ermes_support.Motivating
module Sim = Ermes_slm.Sim
module Fsm = Ermes_support.Fsm
module Perf = Ermes_core.Perf
module Order = Ermes_core.Order
module Oracle = Ermes_core.Oracle
module Ratio = Ermes_tmg.Ratio

let hr title = Format.printf "@.== %s ==@." title

let orders sys pname =
  let p = Option.get (System.find_process sys pname) in
  Printf.sprintf "%s: gets(%s) puts(%s)" pname
    (String.concat "," (List.map (System.channel_name sys) (System.get_order sys p)))
    (String.concat "," (List.map (System.channel_name sys) (System.put_order sys p)))

let () =
  hr "the system (Fig. 2a)";
  let sys = Motivating.system () in
  Format.printf "%a@." System.pp sys;
  Format.printf "order combinations: %.0f (paper: 36)@." (System.order_combinations sys);

  hr "the deadlock of §2";
  let dead = Motivating.deadlocking () in
  Format.printf "%s@." (orders dead "P6");
  (match Perf.analyze dead with
   | Error f -> Format.printf "analysis: %a@." (Perf.pp_failure dead) f
   | Ok _ -> assert false);
  (match Sim.steady_cycle_time dead with
   | Ok (Sim.Deadlock d) -> Format.printf "simulation agrees: %a@." (Sim.pp_deadlock dead) d
   | Ok _ | Error _ -> assert false);

  hr "the suboptimal order of §2";
  let sub = Motivating.suboptimal () in
  Format.printf "%s; %s@." (orders sub "P2") (orders sub "P6");
  (match Perf.analyze sub with
   | Ok a ->
     Format.printf "cycle time %a, throughput %a (paper: 20 and 0.05)@." Ratio.pp
       a.Perf.cycle_time Ratio.pp (Perf.throughput a)
   | Error _ -> assert false);

  hr "running Algorithm 1 (labels of Fig. 4b)";
  let work = Motivating.suboptimal () in
  let lb = Order.apply work in
  Format.printf "channel   head(w,ts)   tail(w,ts)@.";
  List.iter
    (fun name ->
      let c = Option.get (System.find_channel work name) in
      Format.printf "  %s       (%2d,%d)      (%2d,%d)@." name
        lb.Order.head_weight.(c) lb.Order.head_timestamp.(c)
        lb.Order.tail_weight.(c) lb.Order.tail_timestamp.(c))
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ];
  Format.printf "%s; %s@." (orders work "P2") (orders work "P6");
  (match Perf.analyze work with
   | Ok a ->
     Format.printf "optimized cycle time %a (paper: 12, i.e. 40%% better)@." Ratio.pp
       a.Perf.cycle_time
   | Error _ -> assert false);
  (match Sim.steady_cycle_time work with
   | Ok (Sim.Period m) -> Format.printf "simulation confirms: %a@." Ratio.pp m
   | _ -> assert false);

  hr "exhaustive check (all 36 orders)";
  (match Oracle.search (Motivating.system ()) with
   | Some res ->
     Format.printf
       "best over %d combinations: %a; %d combinations deadlock@."
       res.Oracle.evaluated Ratio.pp res.Oracle.best_cycle_time res.Oracle.deadlocked
   | None -> assert false);

  hr "the RTL control FSM of P2 (Fig. 2b)";
  let sys = Motivating.system () in
  let p2 = Option.get (System.find_process sys "P2") in
  Format.printf "%a@." (Fsm.pp sys) (Fsm.of_process sys p2)
