module System = Ermes_slm.System
module To_tmg = Ermes_slm.To_tmg
module Fsm = Ermes_support.Fsm
module Sim = Ermes_slm.Sim
module Soc_format = Ermes_slm.Soc_format
module Motivating = Ermes_support.Motivating
module Heap = Ermes_slm.Heap
module Tmg = Ermes_tmg.Tmg
module Csr = Ermes_tmg.Csr
module Liveness = Ermes_tmg.Liveness
module Ratio = Ermes_tmg.Ratio

let r = Helpers.ratio

let pipeline2 () =
  (* src -> A -> B -> snk, latencies 2/3, channels 1 each. *)
  let sys = System.create ~name:"p2" () in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let a = System.add_simple_process sys ~latency:2 ~area:0.1 "A" in
  let b = System.add_simple_process sys ~latency:3 ~area:0.2 "B" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  ignore (System.add_channel sys ~name:"x" ~src ~dst:a ~latency:1);
  ignore (System.add_channel sys ~name:"y" ~src:a ~dst:b ~latency:1);
  ignore (System.add_channel sys ~name:"z" ~src:b ~dst:snk ~latency:1);
  sys

(* ---- system model --------------------------------------------------------- *)

let test_system_basics () =
  let sys = pipeline2 () in
  Alcotest.(check int) "processes" 4 (System.process_count sys);
  Alcotest.(check int) "channels" 3 (System.channel_count sys);
  Alcotest.(check (list int)) "sources" [ 0 ] (System.sources sys);
  Alcotest.(check (list int)) "sinks" [ 3 ] (System.sinks sys);
  let a = Option.get (System.find_process sys "A") in
  Alcotest.(check int) "latency" 2 (System.latency sys a);
  Alcotest.(check (float 1e-9)) "area" 0.1 (System.area sys a);
  Alcotest.(check (float 1e-9)) "total area" 0.3 (System.total_area sys);
  Alcotest.(check (float 1e-9)) "order combos" 1. (System.order_combinations sys);
  match System.validate sys with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_system_impl_selection () =
  let sys = System.create () in
  let p =
    System.add_process sys
      ~impls:
        [
          { System.tag = "fast"; latency = 2; area = 1.0 };
          { System.tag = "slow"; latency = 9; area = 0.2 };
        ]
      "p"
  in
  Alcotest.(check int) "initial selection" 0 (System.selected sys p);
  Alcotest.(check int) "initial latency" 2 (System.latency sys p);
  System.select sys p 1;
  Alcotest.(check int) "switched latency" 9 (System.latency sys p);
  Alcotest.(check (float 1e-9)) "switched area" 0.2 (System.area sys p);
  Alcotest.check_raises "bad index" (Invalid_argument "System.select: p has no implementation 7")
    (fun () -> System.select sys p 7)

let test_system_order_validation () =
  let sys = Motivating.system () in
  let p2 = Option.get (System.find_process sys "P2") in
  let b = Option.get (System.find_channel sys "b") in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "System.set_put_order: not a permutation of the process's channels")
    (fun () -> System.set_put_order sys p2 [ b ])

let test_system_duplicate_names () =
  let sys = System.create () in
  ignore (System.add_simple_process sys ~latency:1 ~area:0. "p");
  Alcotest.check_raises "duplicate process"
    (Invalid_argument "System.add_process: duplicate process \"p\"") (fun () ->
      ignore (System.add_simple_process sys ~latency:1 ~area:0. "p"))

let test_system_validate_failures () =
  let sys = System.create () in
  (match System.validate sys with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "empty system accepted");
  let a = System.add_simple_process sys ~latency:1 ~area:0. "a" in
  let b = System.add_simple_process sys ~latency:1 ~area:0. "b" in
  ignore (System.add_channel sys ~name:"x" ~src:a ~dst:b ~latency:1);
  ignore (System.add_channel sys ~name:"y" ~src:b ~dst:a ~latency:1);
  (* Pure 2-cycle: no source, no sink. *)
  match System.validate sys with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "sourceless cycle accepted"

let test_system_copy_independent () =
  let sys = Motivating.system () in
  let copy = System.copy sys in
  let p2 = Option.get (System.find_process sys "P2") in
  let order = System.put_order sys p2 in
  System.set_put_order sys p2 (List.rev order);
  Alcotest.(check bool) "copy keeps original order" true
    (System.put_order copy p2 = order)

(* ---- motivating example: the paper's oracle ------------------------------ *)

let analyze sys =
  let m = To_tmg.build sys in
  Csr.cycle_time m.To_tmg.tmg

let test_motivating_reference_results () =
  Alcotest.(check (float 0.)) "36 order combinations" 36.
    (System.order_combinations (Motivating.system ()));
  (match analyze (Motivating.suboptimal ()) with
   | Ok res -> Helpers.check_ratio "suboptimal CT = 20" (r 20 1) res.Csr.cycle_time
   | Error _ -> Alcotest.fail "suboptimal deadlocked");
  (match analyze (Motivating.optimal ()) with
   | Ok res -> Helpers.check_ratio "optimal CT = 12" (r 12 1) res.Csr.cycle_time
   | Error _ -> Alcotest.fail "optimal deadlocked");
  match analyze (Motivating.deadlocking ()) with
  | Error (Csr.Deadlock _) -> ()
  | _ -> Alcotest.fail "deadlocking order not detected"

let test_motivating_deadlock_cycle_matches_paper () =
  (* §2: P2 blocked on d, P6 on g, P5 on f. *)
  let sys = Motivating.deadlocking () in
  let m = To_tmg.build sys in
  match Liveness.find_dead_cycle m.To_tmg.tmg with
  | None -> Alcotest.fail "no dead cycle"
  | Some dc ->
    let names = List.map (Tmg.transition_name m.To_tmg.tmg) dc.Liveness.dead_transitions in
    List.iter
      (fun ch ->
        Alcotest.(check bool) (ch ^ " on dead cycle") true (List.mem ch names))
      [ "d"; "f"; "g" ]

let test_motivating_throughput () =
  (* Paper: suboptimal throughput 0.05 = 1/20. *)
  match analyze (Motivating.suboptimal ()) with
  | Ok res -> Helpers.check_ratio "throughput 1/20" (r 1 20) (Csr.throughput res)
  | Error _ -> Alcotest.fail "deadlock"

(* ---- TMG construction ------------------------------------------------------ *)

let test_to_tmg_shape () =
  let sys = Motivating.system () in
  let m = To_tmg.build sys in
  let tmg = m.To_tmg.tmg in
  (* One transition per channel + one per process. *)
  Alcotest.(check int) "transitions" (8 + 7) (Tmg.transition_count tmg);
  (* One place per statement: each channel contributes a put-place and a
     get-place, each process one compute place: 2*8 + 7. *)
  Alcotest.(check int) "places" ((2 * 8) + 7) (Tmg.place_count tmg);
  (* One token per process. *)
  Alcotest.(check int) "tokens" 7 (Tmg.total_tokens tmg);
  (* Channel transition delays = channel latencies. *)
  List.iter
    (fun c ->
      Alcotest.(check int)
        (System.channel_name sys c ^ " delay")
        (System.channel_latency sys c)
        (Tmg.delay tmg m.To_tmg.channel_entry.(c).(0)))
    (System.channels sys);
  (* Compute transition delays = process latencies. *)
  List.iter
    (fun p ->
      Alcotest.(check int)
        (System.process_name sys p ^ " delay")
        (System.latency sys p)
        (Tmg.delay tmg m.To_tmg.compute_transition.(p).(0)))
    (System.processes sys)

let test_to_tmg_marked_graph_invariant () =
  (* Every place has exactly one producer and one consumer by construction;
     additionally each process chain is a simple cycle: the compute
     transition has exactly one in and one out place. *)
  let sys = Motivating.system () in
  let m = To_tmg.build sys in
  List.iter
    (fun p ->
      let t = m.To_tmg.compute_transition.(p).(0) in
      Alcotest.(check int) "one in" 1 (List.length (Tmg.in_places m.To_tmg.tmg t));
      Alcotest.(check int) "one out" 1 (List.length (Tmg.out_places m.To_tmg.tmg t)))
    (System.processes sys)

let test_to_tmg_owner_mapping () =
  let sys = Motivating.system () in
  let m = To_tmg.build sys in
  List.iter
    (fun c ->
      match To_tmg.transition_owner m m.To_tmg.channel_entry.(c).(0) with
      | To_tmg.Channel c' -> Alcotest.(check int) "channel owner" c c'
      | To_tmg.Process _ -> Alcotest.fail "misclassified channel")
    (System.channels sys);
  List.iter
    (fun p ->
      match To_tmg.transition_owner m m.To_tmg.compute_transition.(p).(0) with
      | To_tmg.Process p' -> Alcotest.(check int) "process owner" p p'
      | To_tmg.Channel _ -> Alcotest.fail "misclassified process")
    (System.processes sys)

(* The net of a mesh SoC is held in flat arrays: at most 30 words per
   transition, labels and names included. *)
let test_to_tmg_words_per_transition () =
  let sys = Ermes_synth.Generate.mesh_system ~seed:1 ~rows:40 ~cols:40 () in
  let tmg = (To_tmg.build sys).To_tmg.tmg in
  let words = Obj.reachable_words (Obj.repr tmg) in
  let per = float_of_int words /. float_of_int (Tmg.transition_count tmg) in
  if per > 30. then Alcotest.failf "%.1f words per transition" per

let test_puts_first_breaks_two_cycle () =
  (* A pure producer/consumer feedback pair deadlocks with Gets_first but is
     live when the register side is Puts_first. *)
  let build phase =
    let sys = System.create () in
    let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
    let a = System.add_simple_process sys ~latency:1 ~area:0. "a" in
    let b = System.add_simple_process sys ~phase ~latency:1 ~area:0. "b" in
    let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
    ignore (System.add_channel sys ~name:"i" ~src ~dst:a ~latency:1);
    ignore (System.add_channel sys ~name:"f" ~src:a ~dst:b ~latency:1);
    ignore (System.add_channel sys ~name:"g" ~src:b ~dst:a ~latency:1);
    ignore (System.add_channel sys ~name:"o" ~src:a ~dst:snk ~latency:1);
    sys
  in
  (match analyze (build System.Gets_first) with
   | Error (Csr.Deadlock _) -> ()
   | _ -> Alcotest.fail "gets-first feedback pair should deadlock");
  match analyze (build System.Puts_first) with
  | Ok _ -> ()
  | _ -> Alcotest.fail "puts-first register should break the deadlock"

(* ---- FSM ------------------------------------------------------------------- *)

let test_fsm_shape () =
  let sys = Motivating.system () in
  let p2 = Option.get (System.find_process sys "P2") in
  let fsm = Fsm.of_process sys p2 in
  (* Reset + 1 get + 5 compute + 3 puts. *)
  Alcotest.(check int) "state count" 10 (Array.length fsm.Fsm.states);
  Alcotest.(check int) "io states" 4 (Fsm.io_state_count fsm);
  Alcotest.(check int) "compute states" 5 (Fsm.compute_state_count fsm);
  Alcotest.(check bool) "reset first" true (fsm.Fsm.states.(0) = Fsm.Reset);
  (* Body order: get a, computes, puts b d f (Listing 1). *)
  let a = Option.get (System.find_channel sys "a") in
  let b = Option.get (System.find_channel sys "b") in
  Alcotest.(check bool) "get first" true (fsm.Fsm.states.(1) = Fsm.Get a);
  Alcotest.(check bool) "first put" true (fsm.Fsm.states.(7) = Fsm.Put b)

let test_fsm_dot () =
  let sys = pipeline2 () in
  let fsm = Fsm.of_process sys (Option.get (System.find_process sys "A")) in
  let dot = Fsm.to_dot sys fsm in
  Alcotest.(check bool) "wait self-loop rendered" true
    (Astring_contains.contains dot "label=\"wait\"")

(* ---- simulator --------------------------------------------------------------- *)

let test_sim_pipeline_rate () =
  (* Pipeline steady state: slowest stage (B: get 1 + compute 3 + put 1)... the
     analytic CT is what matters; check sim = analysis. *)
  let sys = pipeline2 () in
  match (Sim.steady_cycle_time sys, analyze sys) with
  | Ok (Sim.Period measured), Ok res ->
    Helpers.check_ratio "sim = analysis" res.Csr.cycle_time measured
  | _ -> Alcotest.fail "simulation or analysis failed"

let test_sim_motivating () =
  List.iter
    (fun (name, sysf, expected) ->
      match Sim.steady_cycle_time ~rounds:80 (sysf ()) with
      | Ok (Sim.Period measured) -> Helpers.check_ratio name (r expected 1) measured
      | _ -> Alcotest.fail (name ^ ": no steady state"))
    [
      ("suboptimal", Motivating.suboptimal, 20);
      ("optimal", Motivating.optimal, 12);
      ("listing 1", Motivating.system, 12);
    ]

let test_sim_deadlock_detection () =
  match Sim.steady_cycle_time (Motivating.deadlocking ()) with
  | Ok (Sim.Deadlock d) ->
    Alcotest.(check bool) "some processes blocked" true (d.Sim.blocked <> []);
    (* The paper's §2 story: P2 blocked putting on d. *)
    let sys = Motivating.deadlocking () in
    let p2 = Option.get (System.find_process sys "P2") in
    let d_ch = Option.get (System.find_channel sys "d") in
    Alcotest.(check bool) "P2 blocked on put d" true
      (List.exists
         (fun b -> b.Sim.process = p2 && b.Sim.channel = d_ch && b.Sim.direction = Sim.Waiting_put)
         d.Sim.blocked)
  | _ -> Alcotest.fail "deadlock missed"

let test_sim_deadlock_rendering () =
  let sys = Motivating.deadlocking () in
  match Sim.steady_cycle_time sys with
  | Ok (Sim.Deadlock d) ->
    Alcotest.(check string) "one line a blocked process, none after the last"
      "deadlock at cycle 14:\n  Psrc blocked on put of a\n  P2 blocked on put of d\n\
      \  P3 blocked on get of b\n  P4 blocked on put of e\n  P5 blocked on get of f\n\
      \  P6 blocked on get of g\n  Psnk blocked on get of h"
      (Format.asprintf "%a" (Sim.pp_deadlock sys) d)
  | _ -> Alcotest.fail "deadlock missed"

let test_sim_iteration_counts () =
  let sys = pipeline2 () in
  let snk = Option.get (System.find_process sys "snk") in
  let run =
    match Sim.run ~monitor:snk ~max_iterations:10 sys with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "sink iterations" 10 run.Sim.iterations.(snk);
  Alcotest.(check bool) "upstream at least as many" true
    (run.Sim.iterations.(0) >= run.Sim.iterations.(snk));
  Alcotest.(check int) "completion list length" 10
    (List.length run.Sim.completions.(snk))

let prop_sim_matches_analysis =
  Helpers.qtest ~count:60 "simulated steady state equals analytic cycle time"
    Helpers.dag_system_gen (fun sys ->
      match (analyze sys, Sim.steady_cycle_time ~rounds:96 sys) with
      | Ok res, Ok (Sim.Period measured) -> Ratio.equal res.Csr.cycle_time measured
      | Error (Csr.Deadlock _), Ok (Sim.Deadlock _) -> true
      | _ -> false)

let prop_sim_matches_analysis_with_feedback =
  Helpers.qtest ~count:40 "simulation = analysis on feedback systems"
    Helpers.feedback_system_gen (fun sys ->
      (* A budget, not a window: slow feedback designs take up to ~1,500
         iterations before their whole state recurs. *)
      match (analyze sys, Sim.steady_cycle_time ~rounds:4096 sys) with
      | Ok res, Ok (Sim.Period measured) -> Ratio.equal res.Csr.cycle_time measured
      | Error (Csr.Deadlock _), Ok (Sim.Deadlock _) -> true
      | _ -> false)

let prop_deadlock_agreement =
  (* Analysis says deadlock <=> simulation says deadlock, under randomly
     permuted statement orders. *)
  let gen = QCheck2.Gen.(pair Helpers.dag_system_gen (list_repeat 12 (int_range 0 1000))) in
  Helpers.qtest ~count:120 "analytic deadlock iff simulated deadlock" gen
    (fun (sys, draws) ->
      Helpers.permute_orders sys draws;
      match (analyze sys, Sim.steady_cycle_time ~rounds:16 sys) with
      | Ok _, Ok (Sim.Period _ | Sim.No_period) -> true
      | Error (Csr.Deadlock _), Ok (Sim.Deadlock _) -> true
      | _ -> false)

let test_sim_max_cycles_cap () =
  (* A capped run stops with an explicit watchdog timeout, distinct from a
     deadlock verdict. *)
  let sys = pipeline2 () in
  match Sim.run ~max_iterations:1_000_000 ~max_cycles:20 sys with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (match r.Sim.outcome with
     | Sim.Timed_out t -> Alcotest.(check int) "budget recorded" 20 t.Sim.budget
     | Sim.Completed | Sim.Deadlocked _ -> Alcotest.fail "expected a watchdog timeout");
    Alcotest.(check bool) "stopped promptly" true (r.Sim.cycles <= 40)

let test_sim_monitor_choice () =
  (* Monitoring an upstream process counts its iterations, not the sink's. *)
  let sys = pipeline2 () in
  let a = Option.get (System.find_process sys "A") in
  match Sim.run ~monitor:a ~max_iterations:5 sys with
  | Ok r -> Alcotest.(check int) "A reached 5" 5 r.Sim.iterations.(a)
  | Error e -> Alcotest.fail e

let test_fsm_puts_first_order () =
  let sys = System.create () in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let reg = System.add_simple_process sys ~phase:System.Puts_first ~latency:2 ~area:0. "reg" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  ignore (System.add_channel sys ~name:"i" ~src ~dst:reg ~latency:1);
  ignore (System.add_channel sys ~name:"o" ~src:reg ~dst:snk ~latency:1);
  let fsm = Fsm.of_process sys reg in
  (* Reset, put o, compute x2, get i. *)
  (match fsm.Fsm.states.(1) with
   | Fsm.Put _ -> ()
   | _ -> Alcotest.fail "puts-first FSM must put first");
  match fsm.Fsm.states.(Array.length fsm.Fsm.states - 1) with
  | Fsm.Get _ -> ()
  | _ -> Alcotest.fail "puts-first FSM must get last"

let test_to_dot_annotations () =
  let sys = pipeline2 () in
  System.set_channel_kind sys 0 (System.Fifo 3);
  let dot = System.to_dot sys in
  Alcotest.(check bool) "fifo annotated" true (Astring_contains.contains dot "fifo 3");
  Alcotest.(check bool) "latency annotated" true (Astring_contains.contains dot "L=2")

(* ---- FIFO channels ---------------------------------------------------------- *)

let all_fifo depth sys =
  List.iter (fun c -> System.set_channel_kind sys c (System.Fifo depth)) (System.channels sys);
  sys

let test_fifo_validation () =
  let sys = pipeline2 () in
  Alcotest.check_raises "depth 0" (Invalid_argument "System.set_channel_kind: FIFO depth must be >= 1")
    (fun () -> System.set_channel_kind sys 0 (System.Fifo 0));
  System.set_channel_kind sys 0 (System.Fifo 3);
  Alcotest.(check bool) "kind stored" true (System.channel_kind sys 0 = System.Fifo 3);
  Alcotest.(check int) "get side is 1 cycle" 1 (System.get_side_latency sys 0);
  Alcotest.(check int) "put side is the latency" (System.channel_latency sys 0)
    (System.put_side_latency sys 0)

let test_fifo_tmg_shape () =
  (* A FIFO channel becomes an enqueue/dequeue pair with data and credit
     places; the credit place carries the depth in tokens. *)
  let sys = all_fifo 3 (pipeline2 ()) in
  let m = To_tmg.build sys in
  let tmg = m.To_tmg.tmg in
  (* 3 channels x 2 transitions + 4 compute. *)
  Alcotest.(check int) "transitions" 10 (Tmg.transition_count tmg);
  (* Chain places (2*3 + 4) + data/credit (2 per channel). *)
  Alcotest.(check int) "places" (10 + 6) (Tmg.place_count tmg);
  (* Chain tokens (4) + credit tokens (3 per channel). *)
  Alcotest.(check int) "tokens" (4 + 9) (Tmg.total_tokens tmg);
  List.iter
    (fun c ->
      Alcotest.(check bool) "entry <> exit" true
        (m.To_tmg.channel_entry.(c).(0) <> m.To_tmg.channel_exit.(c).(0));
      Alcotest.(check int) "dequeue delay 1" 1 (Tmg.delay tmg m.To_tmg.channel_exit.(c).(0)))
    (System.channels sys)

let test_fifo_decouples_suboptimal_order () =
  (* The motivating example's suboptimal order costs CT 20 under rendezvous;
     single-slot FIFOs absorb the cross-coupling entirely. *)
  let base = Motivating.suboptimal () in
  let base_ct = match analyze base with Ok r -> r.Csr.cycle_time | Error _ -> assert false in
  Helpers.check_ratio "rendezvous" (r 20 1) base_ct;
  let sys = all_fifo 1 (Motivating.suboptimal ()) in
  match analyze sys with
  | Ok res ->
    Alcotest.(check bool) "FIFO strictly faster" true Ratio.(res.Csr.cycle_time < base_ct)
  | Error _ -> Alcotest.fail "deadlock"

let test_fifo_resolves_protocol_deadlock () =
  (* The deadlock of §2 is a cyclic rendezvous wait, not a data-dependence
     cycle, so buffering resolves it. *)
  let sys = all_fifo 1 (Motivating.deadlocking ()) in
  match (analyze sys, Sim.steady_cycle_time ~rounds:64 sys) with
  | Ok a, Ok (Sim.Period m) -> Helpers.check_ratio "analysis = sim" a.Csr.cycle_time m
  | _ -> Alcotest.fail "FIFO should make the protocol deadlock live"

let test_fifo_cannot_fix_data_dependence_cycle () =
  (* Two gets-first processes feeding each other: each must read before it
     writes, so no amount of buffering helps. *)
  let sys = System.create () in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let a = System.add_simple_process sys ~latency:1 ~area:0. "a" in
  let b = System.add_simple_process sys ~latency:1 ~area:0. "b" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  ignore (System.add_channel sys ~name:"i" ~src ~dst:a ~latency:1);
  ignore (System.add_channel sys ~name:"f" ~src:a ~dst:b ~latency:1);
  ignore (System.add_channel sys ~name:"g" ~src:b ~dst:a ~latency:1);
  ignore (System.add_channel sys ~name:"o" ~src:b ~dst:snk ~latency:1);
  ignore (all_fifo 16 sys);
  (match analyze sys with
   | Error (Csr.Deadlock _) -> ()
   | _ -> Alcotest.fail "data-dependence cycle must deadlock despite FIFOs");
  match Sim.steady_cycle_time ~rounds:8 sys with
  | Ok (Sim.Deadlock _) -> ()
  | _ -> Alcotest.fail "simulation must deadlock too"

let test_fifo_soc_roundtrip () =
  let sys = pipeline2 () in
  System.set_channel_kind sys 1 (System.Fifo 5);
  match Soc_format.parse (Soc_format.print sys) with
  | Ok sys' ->
    Alcotest.(check bool) "fifo preserved" true (System.channel_kind sys' 1 = System.Fifo 5);
    Alcotest.(check bool) "others rendezvous" true (System.channel_kind sys' 0 = System.Rendezvous)
  | Error e -> Alcotest.fail e

let prop_fifo_depth_monotone =
  (* Deeper buffers never hurt throughput (token count only grows). *)
  Helpers.qtest ~count:60 "FIFO depth is monotone in throughput" Helpers.dag_system_gen
    (fun sys ->
      let ct depth =
        let s = all_fifo depth (System.copy sys) in
        match analyze s with Ok res -> Some res.Csr.cycle_time | Error _ -> None
      in
      match (ct 1, ct 2, ct 8) with
      | Some a, Some b, Some c -> Ratio.(b <= a) && Ratio.(c <= b)
      | _ -> false)

let prop_fifo_sim_matches_analysis =
  Helpers.qtest ~count:40 "FIFO systems: simulation = analysis"
    QCheck2.Gen.(pair Helpers.dag_system_gen (int_range 1 4))
    (fun (sys, depth) ->
      let sys = all_fifo depth sys in
      (* Buffers fill slowly behind the bottleneck; the state recurs only
         once they are full, within ~400 iterations. *)
      match (analyze sys, Sim.steady_cycle_time ~rounds:1024 sys) with
      | Ok res, Ok (Sim.Period m) -> Ratio.equal res.Csr.cycle_time m
      | _ -> false)

let prop_fifo_mixed_kinds_consistent =
  (* Random mixture of all four channel kinds (multi-rate at unit weights,
     so the repetition vector stays all-ones and sim period = TMG CT). *)
  Helpers.qtest ~count:40 "mixed channel kinds: simulation = analysis"
    QCheck2.Gen.(
      pair Helpers.dag_system_gen (list_repeat 24 (pair (int_range 0 5) (int_range 1 4))))
    (fun (sys, draws) ->
      let draws = Array.of_list draws in
      List.iteri
        (fun i c ->
          match draws.(i mod Array.length draws) with
          | 0, _ -> ()
          | (1 | 2 | 3), d -> System.set_channel_kind sys c (System.Fifo d)
          | 4, d -> System.set_channel_kind sys c (System.Handshake { hold = d - 1 })
          | _, d ->
            System.set_channel_kind sys c
              (System.Multi_rate { produce = 1; consume = 1; depth = d }))
        (System.channels sys);
      match (analyze sys, Sim.steady_cycle_time ~rounds:1024 sys) with
      | Ok res, Ok (Sim.Period m) -> Ratio.equal res.Csr.cycle_time m
      | Error (Csr.Deadlock _), Ok (Sim.Deadlock _) -> true
      | _ -> false)

(* ---- multi-rate and handshake channels -------------------------------------- *)

module Verify = Ermes_verify.Verify

let mr_pipeline () =
  (* src --(rate 2/3 fifo 6)--> dec --(fifo 2)--> snk; repetition vector
     (3, 2, 2): src puts 2 items per iteration, dec gets 3 per iteration. *)
  let sys = System.create ~name:"mr" () in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let dec = System.add_simple_process sys ~latency:2 ~area:0. "dec" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  let a = System.add_channel sys ~name:"a" ~src ~dst:dec ~latency:1 in
  let b = System.add_channel sys ~name:"b" ~src:dec ~dst:snk ~latency:1 in
  System.set_channel_kind sys a (System.Multi_rate { produce = 2; consume = 3; depth = 6 });
  System.set_channel_kind sys b (System.Fifo 2);
  sys

let hs_pipeline hold =
  (* src --(latency 3, handshake)--> mid --> snk. *)
  let sys = System.create ~name:"hs" () in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let mid = System.add_simple_process sys ~latency:2 ~area:0. "mid" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  let a = System.add_channel sys ~name:"a" ~src ~dst:mid ~latency:3 in
  ignore (System.add_channel sys ~name:"b" ~src:mid ~dst:snk ~latency:1);
  System.set_channel_kind sys a (System.Handshake { hold });
  sys

let test_kind_validation () =
  Alcotest.(check bool) "negative hold rejected" true
    (Result.is_error (System.validate_kind (System.Handshake { hold = -1 })));
  Alcotest.(check bool) "zero produce rejected" true
    (Result.is_error
       (System.validate_kind (System.Multi_rate { produce = 0; consume = 1; depth = 1 })));
  Alcotest.(check bool) "depth below max rate rejected" true
    (Result.is_error
       (System.validate_kind (System.Multi_rate { produce = 2; consume = 3; depth = 2 })));
  Alcotest.(check bool) "rate over the cap rejected" true
    (Result.is_error
       (System.validate_kind
          (System.Multi_rate { produce = System.max_rate + 1; consume = 1; depth = 2000 })));
  Alcotest.(check (result unit string)) "valid multi-rate" (Ok ())
    (System.validate_kind (System.Multi_rate { produce = 2; consume = 3; depth = 6 }));
  Alcotest.(check (result unit string)) "valid handshake" (Ok ())
    (System.validate_kind (System.Handshake { hold = 0 }));
  let sys = pipeline2 () in
  Alcotest.check_raises "set_channel_kind routes through validate_kind"
    (Invalid_argument
       "System.set_channel_kind: multi-rate depth must be >= max(produce, consume) = 3, \
        got 1")
    (fun () ->
      System.set_channel_kind sys 0 (System.Multi_rate { produce = 2; consume = 3; depth = 1 }))

let test_repetition_vector () =
  (match System.repetition_vector (mr_pipeline ()) with
   | Ok q -> Alcotest.(check (array int)) "q = (3, 2, 2)" [| 3; 2; 2 |] q
   | Error e -> Alcotest.fail e);
  (match System.repetition_vector (pipeline2 ()) with
   | Ok q -> Alcotest.(check (array int)) "unit system is all-ones" [| 1; 1; 1; 1 |] q
   | Error e -> Alcotest.fail e);
  (* A reconvergent pair of paths with conflicting products has no common
     period: q(snk) = 2 q(src) through m, q(snk) = q(src) directly. *)
  let sys = System.create ~name:"bad" () in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let m = System.add_simple_process sys ~latency:1 ~area:0. "m" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  let a = System.add_channel sys ~name:"a" ~src ~dst:m ~latency:1 in
  ignore (System.add_channel sys ~name:"b" ~src:m ~dst:snk ~latency:1);
  ignore (System.add_channel sys ~name:"c" ~src ~dst:snk ~latency:1);
  System.set_channel_kind sys a (System.Multi_rate { produce = 2; consume = 1; depth = 2 });
  (match System.repetition_vector sys with
   | Error e ->
     Alcotest.(check bool) "error names the channel" true
       (Astring_contains.contains e "no common period")
   | Ok _ -> Alcotest.fail "inconsistent rates accepted");
  match System.validate sys with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validate must reject inconsistent rates"

let test_multirate_ct () =
  let sys = mr_pipeline () in
  (* dec fires twice per TMG period, each iteration costing deq 1 + compute 2
     + enq 1 = 4 cycles: CT 8. The simulator's period is per monitor (snk)
     iteration, and snk completes q(snk) = 2 iterations per TMG period. *)
  (match analyze sys with
   | Ok res -> Helpers.check_ratio "CT = 8" (r 8 1) res.Csr.cycle_time
   | Error _ -> Alcotest.fail "deadlock");
  match Sim.steady_cycle_time ~rounds:96 sys with
  | Ok (Sim.Period m) -> Helpers.check_ratio "sim period = CT / q(snk) = 4" (r 4 1) m
  | _ -> Alcotest.fail "no steady period"

let test_multirate_underdepth_deadlocks_consistently () =
  (* depth 3 >= max(2, 3) passes validation but is below produce + consume -
     gcd = 4: the gadget has a token-free cycle and the simulator blocks. *)
  let sys = mr_pipeline () in
  System.set_channel_kind sys 0 (System.Multi_rate { produce = 2; consume = 3; depth = 3 });
  (match analyze sys with
   | Error (Csr.Deadlock _) -> ()
   | _ -> Alcotest.fail "TMG analysis must deadlock");
  match Sim.steady_cycle_time ~rounds:16 sys with
  | Ok (Sim.Deadlock _) -> ()
  | _ -> Alcotest.fail "simulation must deadlock"

let test_handshake_ct () =
  (* A short hold hides under the consumer chain (get 3 + compute 2 + put 1 =
     6); a long hold gates the next transfer through the ack loop: transfer 3
     + hold 10 = 13. *)
  List.iter
    (fun (hold, expect) ->
      let sys = hs_pipeline hold in
      (match analyze sys with
       | Ok res ->
         Helpers.check_ratio (Printf.sprintf "hold %d: CT" hold) (r expect 1)
           res.Csr.cycle_time
       | Error _ -> Alcotest.fail "deadlock");
      match Sim.steady_cycle_time ~rounds:64 sys with
      | Ok (Sim.Period m) ->
        Helpers.check_ratio (Printf.sprintf "hold %d: sim" hold) (r expect 1) m
      | _ -> Alcotest.fail "no steady period")
    [ (2, 6); (10, 13) ]

let certificate_checks sys =
  let m = To_tmg.build sys in
  let tmg = m.To_tmg.tmg in
  let fresh = Csr.of_tmg tmg in
  Verify.check_csr fresh (Verify.of_howard_csr fresh (Csr.cycle_time tmg))

let test_unit_multirate_is_fifo () =
  (* Multi_rate {1, 1, d} must produce the bit-identical TMG a Fifo d does —
     same names, delays, tokens, wiring — so every downstream analysis and
     certificate is unchanged, not merely numerically equal. *)
  let mk kind =
    let sys = pipeline2 () in
    List.iter (fun c -> System.set_channel_kind sys c kind) (System.channels sys);
    sys
  in
  let fifo = mk (System.Fifo 3) in
  let mr = mk (System.Multi_rate { produce = 1; consume = 1; depth = 3 }) in
  let dump sys = Format.asprintf "%a" Tmg.pp (To_tmg.build sys).To_tmg.tmg in
  Alcotest.(check string) "bit-identical TMG" (dump fifo) (dump mr);
  Alcotest.(check (result unit string)) "fifo certificate" (Ok ())
    (Result.map_error (fun v -> v.Verify.obligation) (certificate_checks fifo));
  Alcotest.(check (result unit string)) "multi-rate certificate" (Ok ())
    (Result.map_error (fun v -> v.Verify.obligation) (certificate_checks mr));
  match (Sim.steady_cycle_time fifo, Sim.steady_cycle_time mr) with
  | Ok (Sim.Period a), Ok (Sim.Period b) -> Helpers.check_ratio "same sim period" a b
  | _ -> Alcotest.fail "simulation failed"

let test_handshake0_matches_rendezvous () =
  (* hold = 0 acks instantly: the ack loop (delay L + 0, one token) can never
     beat the process chain through the same transfer, so the cycle time and
     the simulated period equal the rendezvous system's exactly. *)
  let mk kind =
    let sys = Motivating.suboptimal () in
    List.iter (fun c -> System.set_channel_kind sys c kind) (System.channels sys);
    sys
  in
  let rdv = mk System.Rendezvous in
  let hs = mk (System.Handshake { hold = 0 }) in
  (match (analyze rdv, analyze hs) with
   | Ok a, Ok b -> Helpers.check_ratio "same CT" a.Csr.cycle_time b.Csr.cycle_time
   | _ -> Alcotest.fail "analysis failed");
  Alcotest.(check (result unit string)) "handshake certificate" (Ok ())
    (Result.map_error (fun v -> v.Verify.obligation) (certificate_checks hs));
  match (Sim.steady_cycle_time rdv, Sim.steady_cycle_time hs) with
  | Ok (Sim.Period a), Ok (Sim.Period b) -> Helpers.check_ratio "same sim period" a b
  | _ -> Alcotest.fail "simulation failed"

let test_side_latency_agreement () =
  (* The simulator's dequeue completion and the TMG's consumer-side
     transition delay both route through System.get_side_latency; the TMG
     side must carry exactly that value on every exit instance, for every
     kind. *)
  let sys = mr_pipeline () in
  let extra = System.add_simple_process sys ~latency:1 ~area:0. "tap" in
  let src = Option.get (System.find_process sys "src") in
  let h = System.add_channel sys ~name:"h" ~src ~dst:extra ~latency:2 in
  System.set_channel_kind sys h (System.Handshake { hold = 1 });
  let m = To_tmg.build sys in
  List.iter
    (fun c ->
      Array.iter
        (fun t ->
          Alcotest.(check int)
            (System.channel_name sys c ^ " exit delay = get_side_latency")
            (System.get_side_latency sys c)
            (Tmg.delay m.To_tmg.tmg t))
        m.To_tmg.channel_exit.(c))
    (System.channels sys)

let test_soc_all_kinds_fixpoint () =
  (* print -> parse -> print is a fixpoint with every kind present, and each
     kind survives the round trip structurally. *)
  let sys = mr_pipeline () in
  let dec = Option.get (System.find_process sys "dec") in
  let tap = System.add_simple_process sys ~latency:1 ~area:0. "tap" in
  let h = System.add_channel sys ~name:"h" ~src:dec ~dst:tap ~latency:2 in
  System.set_channel_kind sys h (System.Handshake { hold = 4 });
  ignore (System.add_channel sys ~name:"v" ~src:dec ~dst:tap ~latency:1);
  let text = Soc_format.print sys in
  match Soc_format.parse text with
  | Error e -> Alcotest.fail e
  | Ok sys' ->
    Alcotest.(check string) "print is a parse fixpoint" text (Soc_format.print sys');
    Alcotest.(check bool) "multi-rate preserved" true
      (System.channel_kind sys' 0
      = System.Multi_rate { produce = 2; consume = 3; depth = 6 });
    Alcotest.(check bool) "fifo preserved" true (System.channel_kind sys' 1 = System.Fifo 2);
    Alcotest.(check bool) "handshake preserved" true
      (System.channel_kind sys' 2 = System.Handshake { hold = 4 });
    Alcotest.(check bool) "rendezvous preserved" true
      (System.channel_kind sys' 3 = System.Rendezvous)

let test_soc_new_kind_errors () =
  let check_error text fragment =
    match Soc_format.parse text with
    | Ok _ -> Alcotest.fail ("accepted: " ^ text)
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e fragment)
        true
        (Astring_contains.contains e fragment)
  in
  let two_procs =
    "system s\nprocess a impl x latency 1 area 0\nprocess b impl x latency 1 area 0\n"
  in
  check_error (two_procs ^ "channel c a b latency 0") "latency must be >= 1";
  check_error (two_procs ^ "channel c a b latency -3") "latency must be >= 1";
  check_error (two_procs ^ "channel c a b latency 1 rate 2 fifo 4") "PRODUCE/CONSUME";
  check_error (two_procs ^ "channel c a b latency 1 rate 2/x fifo 4") "integer";
  check_error (two_procs ^ "channel c a b latency 1 handshake -1") "hold";
  check_error (two_procs ^ "channel c a b latency 1 rate 2/3 fifo 2") "depth";
  check_error (two_procs ^ "channel c a b latency 1 frobnicate 2") "usage: channel"

let prop_multirate_chain_consistent =
  (* Pipelines whose processes draw repetition factors in 1..3; every channel
     derives the coprime weights produce = q(dst)/g, consume = q(src)/g and a
     deadlock-free depth. The simulated per-iteration period times q(monitor)
     must equal the TMG cycle time. *)
  Helpers.qtest ~count:40 "multi-rate chains: sim x q(sink) = analysis"
    QCheck2.Gen.(list_size (int_range 2 5) (pair (int_range 1 3) (int_range 1 8)))
    (fun spec ->
      let sys = System.create ~name:"chain" () in
      let ps =
        List.mapi
          (fun i (_, l) ->
            System.add_simple_process sys ~latency:l ~area:0. (Printf.sprintf "p%d" i))
          spec
      in
      let reps = Array.of_list (List.map fst spec) in
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      List.iteri
        (fun i p ->
          match List.nth_opt ps (i + 1) with
          | None -> ()
          | Some p' ->
            let g = gcd reps.(i) reps.(i + 1) in
            let produce = reps.(i + 1) / g and consume = reps.(i) / g in
            let c =
              System.add_channel sys
                ~name:(Printf.sprintf "c%d" i)
                ~src:p ~dst:p' ~latency:1
            in
            if produce > 1 || consume > 1 then
              System.set_channel_kind sys c
                (System.Multi_rate { produce; consume; depth = produce + consume }))
        ps;
      match
        (analyze sys, Sim.steady_cycle_time ~rounds:1024 sys, System.repetition_vector sys)
      with
      | Ok res, Ok (Sim.Period m), Ok q ->
        let snk = List.nth ps (List.length ps - 1) in
        Ratio.equal (Ratio.mul m (Ratio.of_int q.(snk))) res.Csr.cycle_time
      | _ -> false)

(* ---- heap ---------------------------------------------------------------- *)

let prop_heap_sorts =
  Helpers.qtest "heap pops keys in order" QCheck2.Gen.(list (int_range 0 1000))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h x x) xs;
      let rec drain acc =
        match Heap.pop_min h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare xs)

(* ---- soc format ------------------------------------------------------------- *)

let test_soc_roundtrip_motivating () =
  let sys = Motivating.suboptimal () in
  match Soc_format.parse (Soc_format.print sys) with
  | Error e -> Alcotest.fail e
  | Ok sys' ->
    Alcotest.(check string) "same text" (Soc_format.print sys) (Soc_format.print sys');
    (match (analyze sys, analyze sys') with
     | Ok a, Ok b -> Helpers.check_ratio "same cycle time" a.Csr.cycle_time b.Csr.cycle_time
     | _ -> Alcotest.fail "analysis failed")

(* Lint's way into the parser: the text's lines, already tokenized. *)
let parse_lines text =
  Soc_format.parse_tokens (Soc_format.default_limits ())
    (List.map Soc_format.tokenize (String.split_on_char '\n' text))

let test_soc_parse_errors () =
  let check_error text fragment =
    match Soc_format.parse text with
    | Ok _ -> Alcotest.fail ("accepted: " ^ text)
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e fragment)
        true
        (Astring_contains.contains e fragment);
      Alcotest.(check (result string string))
        "parse_tokens gives the same error" (Error e)
        (Result.map Soc_format.print (parse_lines text))
  in
  check_error "process p impl a latency 1 area 1" "system";
  check_error "system s\nfrobnicate x" "unknown directive";
  check_error "system s\nprocess p" "impl";
  check_error "system s\nprocess p impl a latency x area 1" "integer";
  check_error "system s\nsystem t" "duplicate";
  check_error
    "system s\nprocess p impl a latency 1 area 1\nselect p 5"
    "no implementation";
  check_error
    "system s\nprocess a impl x latency 1 area 0\nprocess b impl x latency 1 area 0\nchannel c a b latency 1 fifo 0"
    "depth";
  check_error "system s\nchannel c a b latency 1" "unknown process";
  check_error "system s\nprocess p impl a latency 1 area 1\ngets q" "unknown process"

let test_soc_comments_and_whitespace () =
  let text =
    "# header comment\n\
     system s\n\
     \n\
     process a impl only latency 1 area 0 # trailing\n\
     process b impl only latency 2 area 0\n\
     \tchannel  c　a b latency 3\n"
  in
  (* Note: the channel line uses a tab; the unicode space must fail. *)
  match Soc_format.parse text with
  | Ok _ -> Alcotest.fail "unicode space accepted as separator"
  | Error _ -> (
    let clean = String.concat "\n" [ "system s"; "process a impl only latency 1 area 0"; "process b impl only latency 2 area 0"; "channel c a b latency 3" ] in
    match Soc_format.parse clean with
    | Ok sys -> Alcotest.(check int) "parsed channels" 1 (System.channel_count sys)
    | Error e -> Alcotest.fail e)

let test_soc_puts_first_preserved () =
  let sys = System.create ~name:"s" () in
  ignore (System.add_simple_process sys ~phase:System.Puts_first ~latency:1 ~area:0. "reg");
  match Soc_format.parse (Soc_format.print sys) with
  | Ok sys' ->
    let p = Option.get (System.find_process sys' "reg") in
    Alcotest.(check bool) "phase kept" true (System.phase sys' p = System.Puts_first)
  | Error e -> Alcotest.fail e

let prop_soc_roundtrip =
  Helpers.qtest ~count:80 "parse . print = identity on random systems"
    Helpers.feedback_system_gen (fun sys ->
      let text = Soc_format.print sys in
      match (Soc_format.parse text, parse_lines text) with
      | Ok sys', Ok sys'' -> Soc_format.print sys' = text && Soc_format.print sys'' = text
      | _ -> false)

(* Soc_format.print as it stood when it built its text with Printf, kinds
   included: the bytes are the daemon's cache key and every journal's
   fingerprint, so the Buffer-only printer must match it exactly. *)
let printf_print sys =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "system %s\n" (System.name sys);
  List.iter
    (fun p ->
      pf "process %s" (System.process_name sys p);
      (match System.phase sys p with
       | System.Puts_first -> pf " puts_first"
       | System.Gets_first -> ());
      Array.iter
        (fun (i : System.impl) ->
          pf " impl %s latency %d area %.9g" i.tag i.latency i.area)
        (System.impls sys p);
      pf "\n")
    (System.processes sys);
  List.iter
    (fun c ->
      pf "channel %s %s %s latency %d%s\n" (System.channel_name sys c)
        (System.process_name sys (System.channel_src sys c))
        (System.process_name sys (System.channel_dst sys c))
        (System.channel_latency sys c)
        (match System.channel_kind sys c with
         | System.Rendezvous -> ""
         | System.Fifo d -> Printf.sprintf " fifo %d" d
         | System.Multi_rate { produce; consume; depth } ->
           Printf.sprintf " rate %d/%d fifo %d" produce consume depth
         | System.Handshake { hold } -> Printf.sprintf " handshake %d" hold))
    (System.channels sys);
  List.iter
    (fun p ->
      if System.selected sys p <> 0 then
        pf "select %s %d\n" (System.process_name sys p) (System.selected sys p);
      (match System.get_order sys p with
       | [] -> ()
       | order ->
         pf "gets %s %s\n" (System.process_name sys p)
           (String.concat " " (List.map (System.channel_name sys) order)));
      match System.put_order sys p with
      | [] -> ()
      | order ->
        pf "puts %s %s\n" (System.process_name sys p)
          (String.concat " " (List.map (System.channel_name sys) order)))
    (System.processes sys);
  Buffer.contents buf

(* Systems the printer cannot tell from valid ones: every channel kind,
   both phases, non-default selections, permuted orders, and areas at the
   edges of %.9g (exponent switch-over, rounding past nine digits). *)
let printable_system_gen =
  QCheck2.Gen.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let int lo hi = lo + Random.State.int st (hi - lo + 1) in
      let edges =
        [| 0.; 1e-05; 0.0001; 0.1; 1.; 7.; 1e8; 123456789.5; 1234567890.; 1e21; 5e-324 |]
      in
      let area () =
        match int 0 3 with
        | 0 -> edges.(int 0 (Array.length edges - 1))
        | 1 -> float_of_int (int 0 1_000_000)
        | 2 -> 10. ** float_of_int (int (-12) 25)
        | _ -> Random.State.float st 1000.
      in
      let sys = System.create ~name:(Printf.sprintf "s%d" seed) () in
      let np = int 2 7 in
      let procs =
        Array.init np (fun i ->
            let impls =
              List.init (int 1 3) (fun k ->
                  { System.tag = Printf.sprintf "i%d" k; latency = int 0 5000; area = area () })
            in
            let phase = if int 0 3 = 0 then System.Puts_first else System.Gets_first in
            let p = System.add_process sys ~phase ~impls (Printf.sprintf "p%d" i) in
            System.select sys p (int 0 (List.length impls - 1));
            p)
      in
      for c = 0 to int 1 12 do
        let src = int 0 (np - 1) in
        let dst = (src + int 1 (np - 1)) mod np in
        let ch =
          System.add_channel sys ~name:(Printf.sprintf "c%d" c) ~src:procs.(src)
            ~dst:procs.(dst) ~latency:(int 1 99)
        in
        System.set_channel_kind sys ch
          (match int 0 3 with
          | 0 -> System.Rendezvous
          | 1 -> System.Fifo (int 1 9)
          | 2 ->
            let produce = int 1 4 and consume = int 1 4 in
            System.Multi_rate { produce; consume; depth = max produce consume + int 0 3 }
          | _ -> System.Handshake { hold = int 0 5 })
      done;
      Helpers.permute_orders sys (List.init 8 (fun _ -> int 0 1000));
      sys)
    QCheck2.Gen.(int_range 0 1_000_000)

let prop_print_matches_printf =
  Helpers.qtest ~count:400 "print equals the Printf reference" printable_system_gen
    (fun sys -> String.equal (Soc_format.print sys) (printf_print sys))

(* System.validate and repetition_vector give the pointer reference's exact
   Ok / Error text on systems with injected defects. *)
let prop_validate_matches_reference =
  Helpers.qtest ~count:600 "validate and repetition_vector equal the pointer reference"
    Helpers.defective_system_arbitrary (fun sys ->
      System.validate sys = Helpers.Ref_system.validate sys
      && System.repetition_vector sys = Helpers.Ref_system.repetition_vector sys)

(* The defect generator reaches every rule of validate, so the property
   above compares every error text, not just the first check's. *)
let test_defects_reach_every_rule () =
  let rand = Random.State.make [| 19 |] in
  let verdicts =
    List.init 600 (fun _ ->
        match System.validate (QCheck2.Gen.generate1 ~rand Helpers.defective_system_arbitrary) with
        | Ok () -> "ok"
        | Error e -> e)
  in
  List.iter
    (fun rule ->
      Alcotest.(check bool) rule true
        (List.exists (fun v -> Astring_contains.contains v rule) verdicts))
    [
      "ok";
      "must connect two distinct processes";
      "system has no source process";
      "system has no sink process";
      "system is not connected";
      "is not on any source-to-sink path";
      "inconsistent rates";
      "rate unfolding too large: process";
      "rate unfolding too large around channel";
    ]

let () =
  Alcotest.run "slm"
    [
      ( "system",
        [
          Alcotest.test_case "basics" `Quick test_system_basics;
          Alcotest.test_case "implementation selection" `Quick test_system_impl_selection;
          Alcotest.test_case "order validation" `Quick test_system_order_validation;
          Alcotest.test_case "duplicate names" `Quick test_system_duplicate_names;
          Alcotest.test_case "validate failures" `Quick test_system_validate_failures;
          Alcotest.test_case "defects reach every rule" `Quick test_defects_reach_every_rule;
          Alcotest.test_case "copy independence" `Quick test_system_copy_independent;
        ] );
      ( "motivating-example",
        [
          Alcotest.test_case "paper reference results" `Quick test_motivating_reference_results;
          Alcotest.test_case "deadlock cycle matches §2" `Quick test_motivating_deadlock_cycle_matches_paper;
          Alcotest.test_case "throughput 0.05" `Quick test_motivating_throughput;
        ] );
      ( "to-tmg",
        [
          Alcotest.test_case "shape" `Quick test_to_tmg_shape;
          Alcotest.test_case "marked-graph invariant" `Quick test_to_tmg_marked_graph_invariant;
          Alcotest.test_case "owner mapping" `Quick test_to_tmg_owner_mapping;
          Alcotest.test_case "words per transition" `Quick test_to_tmg_words_per_transition;
          Alcotest.test_case "puts-first register" `Quick test_puts_first_breaks_two_cycle;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "shape (Fig 2b)" `Quick test_fsm_shape;
          Alcotest.test_case "dot" `Quick test_fsm_dot;
          Alcotest.test_case "puts-first order" `Quick test_fsm_puts_first_order;
          Alcotest.test_case "system dot annotations" `Quick test_to_dot_annotations;
        ] );
      ( "sim",
        [
          Alcotest.test_case "pipeline" `Quick test_sim_pipeline_rate;
          Alcotest.test_case "motivating cycle times" `Quick test_sim_motivating;
          Alcotest.test_case "deadlock detection" `Quick test_sim_deadlock_detection;
          Alcotest.test_case "deadlock rendering" `Quick test_sim_deadlock_rendering;
          Alcotest.test_case "iteration counting" `Quick test_sim_iteration_counts;
          Alcotest.test_case "max cycles cap" `Quick test_sim_max_cycles_cap;
          Alcotest.test_case "monitor choice" `Quick test_sim_monitor_choice;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "validation" `Quick test_fifo_validation;
          Alcotest.test_case "tmg shape" `Quick test_fifo_tmg_shape;
          Alcotest.test_case "decouples suboptimal order" `Quick test_fifo_decouples_suboptimal_order;
          Alcotest.test_case "resolves protocol deadlock" `Quick test_fifo_resolves_protocol_deadlock;
          Alcotest.test_case "cannot fix data cycles" `Quick test_fifo_cannot_fix_data_dependence_cycle;
          Alcotest.test_case "soc round-trip" `Quick test_fifo_soc_roundtrip;
        ] );
      ( "multi-rate-handshake",
        [
          Alcotest.test_case "kind validation" `Quick test_kind_validation;
          Alcotest.test_case "repetition vector" `Quick test_repetition_vector;
          Alcotest.test_case "multi-rate cycle time" `Quick test_multirate_ct;
          Alcotest.test_case "under-depth deadlocks consistently" `Quick
            test_multirate_underdepth_deadlocks_consistently;
          Alcotest.test_case "handshake cycle time" `Quick test_handshake_ct;
          Alcotest.test_case "unit multi-rate == fifo (bit-identical)" `Quick
            test_unit_multirate_is_fifo;
          Alcotest.test_case "handshake hold=0 == rendezvous" `Quick
            test_handshake0_matches_rendezvous;
          Alcotest.test_case "sim/TMG dequeue latency agree" `Quick
            test_side_latency_agreement;
          Alcotest.test_case "soc fixpoint with every kind" `Quick
            test_soc_all_kinds_fixpoint;
          Alcotest.test_case "soc kind errors" `Quick test_soc_new_kind_errors;
        ] );
      ( "soc-format",
        [
          Alcotest.test_case "round-trip" `Quick test_soc_roundtrip_motivating;
          Alcotest.test_case "parse errors" `Quick test_soc_parse_errors;
          Alcotest.test_case "comments/whitespace" `Quick test_soc_comments_and_whitespace;
          Alcotest.test_case "puts_first preserved" `Quick test_soc_puts_first_preserved;
        ] );
      ( "property",
        [
          prop_sim_matches_analysis;
          prop_sim_matches_analysis_with_feedback;
          prop_deadlock_agreement;
          prop_heap_sorts;
          prop_soc_roundtrip;
          prop_print_matches_printf;
          prop_fifo_depth_monotone;
          prop_fifo_sim_matches_analysis;
          prop_fifo_mixed_kinds_consistent;
          prop_multirate_chain_consistent;
          prop_validate_matches_reference;
        ] );
    ]
