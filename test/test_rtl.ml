module Ir = Ermes_rtl.Ir
module Interp = Ermes_rtl.Interp
module Emit = Ermes_rtl.Emit
module Soc_rtl = Ermes_rtl.Soc_rtl
module System = Ermes_slm.System
module Motivating = Ermes_support.Motivating
module Sim = Ermes_slm.Sim
module Ratio = Ermes_tmg.Ratio

(* ---- IR builder ------------------------------------------------------------ *)

let test_builder_validation () =
  let b = Ir.Builder.create ~name:"t" in
  let r = Ir.Builder.reg b ~name:"r" ~width:4 ~reset:3 in
  Alcotest.check_raises "undriven register"
    (Invalid_argument "Ir.Builder: register r never driven") (fun () ->
      ignore (Ir.Builder.finish b));
  Ir.Builder.drive b r (Ir.Add (Ir.Sig r, Ir.Const (1, 4)));
  Alcotest.check_raises "double drive" (Invalid_argument "Ir.Builder: r driven twice")
    (fun () -> Ir.Builder.drive b r (Ir.Sig r));
  ignore (Ir.Builder.finish b);
  let b = Ir.Builder.create ~name:"t" in
  ignore (Ir.Builder.wire b ~name:"w" ~width:2 (Ir.Const (1, 3)));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Ir.Builder: w has width 2 but its expression has 3") (fun () ->
      ignore (Ir.Builder.finish b))

let test_builder_comb_cycle () =
  let b = Ir.Builder.create ~name:"t" in
  (* w1 depends on w2 and vice versa: declare w2 later via a forward
     reference is impossible with this API (expressions reference existing
     signals), so create the cycle through two wires referencing each other
     via ids known in advance: not expressible — instead check a self-cycle. *)
  let rec_wire = Ir.Builder.wire b ~name:"loop" ~width:1 (Ir.Const (0, 1)) in
  ignore rec_wire;
  (* A wire cannot reference itself through this API either; combinational
     cycles are structurally prevented at construction, which is itself the
     property: building never yields a cyclic design. *)
  ignore (Ir.Builder.finish b)

let test_builder_duplicate_names () =
  let b = Ir.Builder.create ~name:"t" in
  ignore (Ir.Builder.input b ~name:"x" ~width:1);
  Alcotest.check_raises "duplicate" (Invalid_argument "Ir.Builder: duplicate signal name \"x\"")
    (fun () -> ignore (Ir.Builder.input b ~name:"x" ~width:2))

(* ---- interpreter ------------------------------------------------------------- *)

let counter_design ~width =
  let b = Ir.Builder.create ~name:"counter" in
  let en = Ir.Builder.input b ~name:"en" ~width:1 in
  let cnt = Ir.Builder.reg b ~name:"cnt" ~width ~reset:0 in
  Ir.Builder.drive b cnt
    (Ir.Mux (Ir.Sig en, Ir.Add (Ir.Sig cnt, Ir.Const (1, width)), Ir.Sig cnt));
  let msb = Ir.Builder.wire b ~name:"is_max" ~width:1
      (Ir.Eq (Ir.Sig cnt, Ir.Const ((1 lsl width) - 1, width)))
  in
  Ir.Builder.output b cnt;
  (Ir.Builder.finish b, en, cnt, msb)

let test_interp_counter () =
  let design, en, cnt, is_max = counter_design ~width:3 in
  let sim = Interp.create design in
  Alcotest.(check int) "reset value" 0 (Interp.peek sim cnt);
  Interp.run sim ~cycles:5;
  Alcotest.(check int) "disabled holds" 0 (Interp.peek sim cnt);
  Interp.set_input sim en 1;
  Interp.run sim ~cycles:6;
  Alcotest.(check int) "counts" 6 (Interp.peek sim cnt);
  Interp.run sim ~cycles:1;
  Alcotest.(check int) "is_max wire" 1 (Interp.peek sim is_max);
  Interp.run sim ~cycles:1;
  Alcotest.(check int) "wraps" 0 (Interp.peek sim cnt);
  Alcotest.(check int) "cycle count" 13 (Interp.cycle sim)

let test_interp_two_phase () =
  (* Registers swap values without a race: both read the pre-edge values. *)
  let b = Ir.Builder.create ~name:"swap" in
  let x = Ir.Builder.reg b ~name:"x" ~width:4 ~reset:3 in
  let y = Ir.Builder.reg b ~name:"y" ~width:4 ~reset:9 in
  Ir.Builder.drive b x (Ir.Sig y);
  Ir.Builder.drive b y (Ir.Sig x);
  let design = Ir.Builder.finish b in
  let sim = Interp.create design in
  Interp.step sim;
  Alcotest.(check (pair int int)) "swapped" (9, 3) (Interp.peek sim x, Interp.peek sim y);
  Interp.step sim;
  Alcotest.(check (pair int int)) "swapped back" (3, 9) (Interp.peek sim x, Interp.peek sim y)

let test_interp_wire_chain () =
  (* Wires evaluate in dependence order regardless of declaration order
     possibilities offered by the builder. *)
  let b = Ir.Builder.create ~name:"chain" in
  let i = Ir.Builder.input b ~name:"i" ~width:8 in
  let w1 = Ir.Builder.wire b ~name:"w1" ~width:8 (Ir.Add (Ir.Sig i, Ir.Const (1, 8))) in
  let w2 = Ir.Builder.wire b ~name:"w2" ~width:8 (Ir.Add (Ir.Sig w1, Ir.Sig w1)) in
  let design = Ir.Builder.finish b in
  let sim = Interp.create design in
  Interp.set_input sim i 20;
  Alcotest.(check int) "comb settles without a clock" 42 (Interp.peek sim w2)

let test_interp_settled () =
  (* A closed design that commits a step without changing any register has
     reached a permanent fixed point — the cheap deadlock early-out the
     co-simulator relies on. *)
  let design, en, _, _ = counter_design ~width:3 in
  let sim = Interp.create design in
  Alcotest.(check bool) "not settled before the first step" false (Interp.settled sim);
  Interp.step sim;
  Alcotest.(check bool) "disabled counter is a fixed point" true (Interp.settled sim);
  Interp.set_input sim en 1;
  Alcotest.(check bool) "an input change un-settles" false (Interp.settled sim);
  Interp.step sim;
  Alcotest.(check bool) "counting is not settled" false (Interp.settled sim)

let test_interp_input_validation () =
  let design, en, _, _ = counter_design ~width:3 in
  let sim = Interp.create design in
  Alcotest.check_raises "bad value" (Invalid_argument "Interp.set_input: 2 does not fit en")
    (fun () -> Interp.set_input sim en 2)

(* ---- soc rtl: shape ----------------------------------------------------------- *)

let test_soc_rtl_fsm_shape () =
  (* Fig. 2b: P2 has 1 get + compute + 3 puts = 5 states -> 3-bit state. *)
  let sys = Motivating.system () in
  let rtl = Soc_rtl.build sys in
  let p2 = Option.get (System.find_process sys "P2") in
  let st = rtl.Soc_rtl.state_of.(p2) in
  Alcotest.(check int) "P2 state width" 3 rtl.Soc_rtl.design.Ir.signals.(st).Ir.width;
  (* Interpreting from reset, P2 starts at its first statement. *)
  let sim = Interp.create rtl.Soc_rtl.design in
  Alcotest.(check int) "reset state" 0 (Interp.peek sim st)

let test_soc_rtl_verilog_wellformed () =
  let sys = Motivating.optimal () in
  let rtl = Soc_rtl.build sys in
  let v = Emit.to_verilog rtl.Soc_rtl.design in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (Astring_contains.contains v fragment))
    [
      "module motivating_ctrl";
      "endmodule";
      "always @(posedge clk)";
      "if (rst) begin";
      "assign req_b";
      "st_P2_q <=";
    ];
  (* Every register appears in both branches of the always block. *)
  Array.iter
    (fun info ->
      match info.Ir.kind with
      | Ir.Reg _ ->
        (* Output registers are emitted under an internal "_q" name. *)
        let assigns =
          String.split_on_char '\n' v
          |> List.filter (fun l ->
                 Astring_contains.contains l (info.Ir.name ^ " <= ")
                 || Astring_contains.contains l (info.Ir.name ^ "_q <= "))
          |> List.length
        in
        Alcotest.(check bool) (info.Ir.name ^ " reset+next") true (assigns >= 2)
      | Ir.Input | Ir.Wire _ -> ())
    rtl.Soc_rtl.design.Ir.signals

(* ---- soc rtl: co-simulation ------------------------------------------------------ *)

(* Both runs stop at the first recurrence of their state; 1,024 iterations
   is a budget that slowly filling buffers need, not a window. *)
let rtl_matches_des sys =
  let rounds = 1024 in
  let max_cycles = Sim.default_max_cycles ~max_iterations:rounds sys in
  match
    (Soc_rtl.measured_cycle_time ~rounds ~max_cycles sys, Sim.steady_cycle_time ~rounds sys)
  with
  | Some rtl, Ok (Sim.Period des) -> Ratio.equal rtl des
  | None, Ok (Sim.Deadlock _) -> true  (* both deadlock *)
  | _ -> false

let test_soc_rtl_motivating () =
  List.iter
    (fun (name, sysf) ->
      Alcotest.(check bool) name true (rtl_matches_des (sysf ())))
    [
      ("suboptimal", Motivating.suboptimal);
      ("optimal", Motivating.optimal);
      ("listing 1", Motivating.system);
      ("deadlocking", Motivating.deadlocking);
    ]

let test_soc_rtl_fifo () =
  let sys = Motivating.suboptimal () in
  List.iter (fun c -> System.set_channel_kind sys c (System.Fifo 2)) (System.channels sys);
  Alcotest.(check bool) "fifo co-simulation" true (rtl_matches_des sys)

let test_soc_rtl_fifo_verilog () =
  let sys = Motivating.suboptimal () in
  System.set_channel_kind sys 0 (System.Fifo 2);
  let rtl = Soc_rtl.build sys in
  let v = Emit.to_verilog rtl.Soc_rtl.design in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("fifo rtl has " ^ frag) true (Astring_contains.contains v frag))
    [ "ch_a_credits"; "ch_a_items"; "ch_a_deq_fire" ]

let test_interp_determinism () =
  (* Two interpreters over the same design agree cycle by cycle. *)
  let sys = Motivating.optimal () in
  let rtl = Soc_rtl.build sys in
  let a = Interp.create rtl.Soc_rtl.design and b = Interp.create rtl.Soc_rtl.design in
  for _ = 1 to 100 do
    Interp.step a;
    Interp.step b
  done;
  Array.iter
    (fun st -> Alcotest.(check int) "same state" (Interp.peek a st) (Interp.peek b st))
    rtl.Soc_rtl.state_of

let test_soc_rtl_horizon () =
  (* A deadlocking system never completes its rounds: None. *)
  Alcotest.(check bool) "stalls reported as None" true
    (Soc_rtl.measured_cycle_time ~rounds:4 ~max_cycles:500 (Motivating.deadlocking ()) = None)

(* src (period 10) feeds snk (period 11) through a 20-deep FIFO. The
   sink's completions are 11 apart from the start, but the buffer gains an
   item every ten of them, so the whole state recurs only once it is full,
   after about 200 iterations. Before that every engine must answer "no
   period yet", never the period the completions suggest. *)
let test_recurrence_not_window () =
  let sys = System.create ~name:"fill" () in
  let src = System.add_simple_process sys ~latency:9 ~area:0. "src" in
  let snk = System.add_simple_process sys ~latency:10 ~area:0. "snk" in
  let c = System.add_channel sys ~name:"c" ~src ~dst:snk ~latency:1 in
  System.set_channel_kind sys c (System.Fifo 20);
  let eleven = Ratio.of_int 11 in
  let tmg = (Ermes_slm.To_tmg.build sys).Ermes_slm.To_tmg.tmg in
  (match Ermes_tmg.Csr.cycle_time tmg with
  | Ok h -> Alcotest.(check bool) "howard: 11" true (Ratio.equal h.Ermes_tmg.Csr.cycle_time eleven)
  | Error _ -> Alcotest.fail "howard: no cycle time");
  let sim rounds =
    match Sim.steady_cycle_time ~rounds sys with
    | Ok (Sim.Period p) -> Some p
    | Ok Sim.No_period -> None
    | _ -> Alcotest.fail "sim: deadlock or timeout"
  in
  let rtl rounds =
    let max_cycles = Sim.default_max_cycles ~max_iterations:rounds sys in
    match Soc_rtl.cosim ~rounds ~max_cycles sys with
    | Soc_rtl.Rtl_period p -> Some p
    | Soc_rtl.Rtl_no_period -> None
    | Soc_rtl.Rtl_exhausted _ -> Alcotest.fail "rtl: stalled"
  in
  let firing rounds = Ermes_tmg.Firing.measured_cycle_time tmg ~rounds in
  List.iter
    (fun (name, engine) ->
      Alcotest.(check bool) (name ^ ": no period at 16") true (engine 16 = None);
      match engine 1024 with
      | Some p -> Alcotest.(check bool) (name ^ ": 11 at 1024") true (Ratio.equal p eleven)
      | None -> Alcotest.fail (name ^ ": no period at 1024"))
    [ ("sim", sim); ("rtl", rtl); ("firing", firing) ]

let test_soc_rtl_limits () =
  (* Rejections name the offending process/channel and its kind: a refused
     design must be diagnosable from the message alone. *)
  let big = 1 lsl 30 in
  let mk ~latency =
    let sys = System.create () in
    let src = System.add_simple_process sys ~latency ~area:0. "src" in
    let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
    let c = System.add_channel sys ~name:"c" ~src ~dst:snk ~latency:1 in
    (sys, c)
  in
  let sys, _ = mk ~latency:big in
  Alcotest.check_raises "process latency too large"
    (Invalid_argument
       (Printf.sprintf
          "Soc_rtl.build: process \"src\" has latency %d, beyond the 2^30 limit of the \
           RTL counters"
          big))
    (fun () -> ignore (Soc_rtl.build sys));
  let sys, c = mk ~latency:1 in
  System.set_channel_kind sys c (System.Fifo big);
  Alcotest.check_raises "fifo depth too large"
    (Invalid_argument
       (Printf.sprintf
          "Soc_rtl.build: channel \"c\" (fifo %d) has depth %d, beyond the 2^30 limit \
           of the RTL counters"
          big big))
    (fun () -> ignore (Soc_rtl.build sys));
  let sys, c = mk ~latency:1 in
  System.set_channel_kind sys c (System.Handshake { hold = big });
  Alcotest.check_raises "handshake hold too large"
    (Invalid_argument
       (Printf.sprintf
          "Soc_rtl.build: channel \"c\" (handshake %d) has hold %d, beyond the 2^30 \
           limit of the RTL counters"
          big big))
    (fun () -> ignore (Soc_rtl.build sys))

let test_soc_rtl_degeneracy () =
  (* The degenerate corners of the two new kinds route through the exact
     same lowering code as the kinds they collapse to, so the emitted
     Verilog is bit-identical — not merely behaviourally equivalent. *)
  let verilog kind =
    let sys = Motivating.suboptimal () in
    List.iter (fun c -> System.set_channel_kind sys c kind) (System.channels sys);
    Emit.to_verilog (Soc_rtl.build sys).Soc_rtl.design
  in
  Alcotest.(check string) "Multi_rate{1,1,d} lowers bit-identically to Fifo d"
    (verilog (System.Fifo 3))
    (verilog (System.Multi_rate { produce = 1; consume = 1; depth = 3 }));
  Alcotest.(check string) "Handshake{0} lowers bit-identically to Rendezvous"
    (verilog System.Rendezvous)
    (verilog (System.Handshake { hold = 0 }))

let prop_rtl_matches_des =
  Helpers.qtest ~count:30 "generated RTL = discrete-event simulation (random systems)"
    Helpers.dag_system_gen rtl_matches_des

let prop_rtl_matches_des_feedback =
  Helpers.qtest ~count:20 "generated RTL = simulation on feedback systems"
    Helpers.feedback_system_gen (fun sys ->
      (* Keep the horizon sane: skip systems with very slow cycles. *)
      match Helpers.analyze_ct sys with
      | Some ct when Ratio.to_float ct < 2000. -> rtl_matches_des sys
      | _ -> true)

let prop_rtl_matches_des_mixed_fifo =
  Helpers.qtest ~count:20 "generated RTL = simulation with mixed FIFO depths"
    QCheck2.Gen.(pair Helpers.dag_system_gen (list_repeat 16 (int_range 0 3)))
    (fun (sys, draws) ->
      let draws = Array.of_list draws in
      List.iteri
        (fun i c ->
          match draws.(i mod Array.length draws) with
          | 0 -> ()
          | d -> System.set_channel_kind sys c (System.Fifo d))
        (System.channels sys);
      rtl_matches_des sys)

(* The headline oracle property: across all four channel kinds mixed freely
   over a random DAG, the interpreted RTL and the discrete-event simulator
   measure the same steady cycle time at the monitor. *)
let prop_rtl_matches_des_mixed_kinds =
  Helpers.qtest ~count:300 "generated RTL = simulation across mixed channel kinds"
    QCheck2.Gen.(
      pair Helpers.dag_system_gen
        (list_repeat 16 (triple (int_range 0 4) (int_range 1 3) (int_range 0 3))))
    (fun (sys, draws) ->
      let draws = Array.of_list draws in
      List.iteri
        (fun i c ->
          let kind, mag, slack = draws.(i mod Array.length draws) in
          match kind with
          | 0 -> ()
          | 1 -> System.set_channel_kind sys c (System.Fifo mag)
          | 2 -> System.set_channel_kind sys c (System.Handshake { hold = mag - 1 + slack })
          | 3 ->
            System.set_channel_kind sys c
              (System.Multi_rate { produce = 1; consume = 1; depth = mag })
          | _ ->
            (* Equal rates > 1 keep the repetition vector of the random DAG
               consistent (imbalanced rates would fail validation on most
               topologies) while still exercising the weighted counters;
               genuinely imbalanced rates are covered by the fuzz oracle's
               repetition-vector-driven generator. *)
            let rate = mag + 1 in
            System.set_channel_kind sys c
              (System.Multi_rate { produce = rate; consume = rate; depth = rate + slack }))
        (System.channels sys);
      rtl_matches_des sys)

(* Horizon agreement: when the simulator calls a permuted feedback system
   deadlocked, the RTL run exhausts its budget without completing — and
   when the simulator finds a period, the RTL finds the same one. *)
let prop_rtl_deadlock_horizon =
  Helpers.qtest ~count:40 "RTL stall horizon agrees with the simulator verdict"
    QCheck2.Gen.(pair Helpers.feedback_system_gen (list_repeat 24 (int_range 0 1000)))
    (fun (sys, draws) ->
      Helpers.permute_orders sys draws;
      match Sim.steady_cycle_time ~rounds:12 sys with
      | Ok (Sim.Deadlock _) -> (
        match Soc_rtl.cosim ~rounds:12 sys with
        | Soc_rtl.Rtl_exhausted _ -> true
        | Soc_rtl.Rtl_period _ | Soc_rtl.Rtl_no_period -> false)
      | Ok (Sim.Period p) -> (
        match Helpers.analyze_ct sys with
        | Some ct when Ratio.to_float ct >= 2000. -> true (* keep the horizon sane *)
        | _ -> (
          match Soc_rtl.cosim ~rounds:12 sys with
          | Soc_rtl.Rtl_period q -> Ratio.equal p q
          | Soc_rtl.Rtl_exhausted _ | Soc_rtl.Rtl_no_period -> false))
      | Ok (Sim.No_period | Sim.Timeout _) | Error _ -> true)

let () =
  Alcotest.run "rtl"
    [
      ( "ir",
        [
          Alcotest.test_case "builder validation" `Quick test_builder_validation;
          Alcotest.test_case "no comb cycles constructible" `Quick test_builder_comb_cycle;
          Alcotest.test_case "duplicate names" `Quick test_builder_duplicate_names;
        ] );
      ( "interp",
        [
          Alcotest.test_case "counter" `Quick test_interp_counter;
          Alcotest.test_case "two-phase update" `Quick test_interp_two_phase;
          Alcotest.test_case "wire chain" `Quick test_interp_wire_chain;
          Alcotest.test_case "settled fixed point" `Quick test_interp_settled;
          Alcotest.test_case "input validation" `Quick test_interp_input_validation;
        ] );
      ( "soc-rtl",
        [
          Alcotest.test_case "FSM shape (Fig 2b)" `Quick test_soc_rtl_fsm_shape;
          Alcotest.test_case "verilog well-formed" `Quick test_soc_rtl_verilog_wellformed;
          Alcotest.test_case "motivating co-simulation" `Quick test_soc_rtl_motivating;
          Alcotest.test_case "fifo co-simulation" `Quick test_soc_rtl_fifo;
          Alcotest.test_case "horizon" `Quick test_soc_rtl_horizon;
          Alcotest.test_case "fifo verilog" `Quick test_soc_rtl_fifo_verilog;
          Alcotest.test_case "interp determinism" `Quick test_interp_determinism;
          Alcotest.test_case "limits" `Quick test_soc_rtl_limits;
          Alcotest.test_case "degenerate kinds bit-identical" `Quick test_soc_rtl_degeneracy;
          Alcotest.test_case "recurrence, not a window" `Quick test_recurrence_not_window;
        ] );
      ( "property",
        [
          prop_rtl_matches_des;
          prop_rtl_matches_des_feedback;
          prop_rtl_matches_des_mixed_fifo;
          prop_rtl_matches_des_mixed_kinds;
          prop_rtl_deadlock_horizon;
        ] );
    ]
