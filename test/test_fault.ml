(* Fault models, watchdogs, and the differential harness.

   The anchor property: a token-removal fault is detected identically by
   Commoner's liveness test, Howard's cycle-time analysis, and the simulator
   watchdog; structural faults always yield well-formed systems; transient
   stalls perturb the schedule but never the steady-state cycle time. *)

module System = Ermes_slm.System
module Sim = Ermes_slm.Sim
module To_tmg = Ermes_slm.To_tmg
module Soc_format = Ermes_slm.Soc_format
module Motivating = Ermes_slm.Motivating
module Ratio = Ermes_tmg.Ratio
module Liveness = Ermes_tmg.Liveness
module Csr = Ermes_tmg.Csr
module Perf = Ermes_core.Perf
module Fault = Ermes_fault.Fault
module Differential = Ermes_fault.Differential
module Fuzz = Ermes_fault.Fuzz
module Resilience = Ermes_fault.Resilience
module Firing = Ermes_tmg.Firing
module Soc_rtl = Ermes_rtl.Soc_rtl
module Prng = Ermes_synth.Prng

let find_p sys n = Option.get (System.find_process sys n)
let find_c sys n = Option.get (System.find_channel sys n)

(* ---- structural application ---------------------------------------------- *)

let test_apply_preserves_structure () =
  let sys = Motivating.suboptimal () in
  let p2 = find_p sys "P2" and a = find_c sys "a" in
  let base_latency = System.latency sys p2 in
  let base_ch = System.channel_latency sys a in
  let faulted =
    Fault.apply sys
      [
        Fault.Process_slowdown { process = p2; delta = 4 };
        Fault.Latency_jitter { channel = a; delta = 3 };
      ]
  in
  Alcotest.(check (result unit string)) "well-formed" (Ok ()) (System.validate faulted);
  Alcotest.(check int) "slowdown applied" (base_latency + 4) (System.latency faulted p2);
  Alcotest.(check int) "jitter applied" (base_ch + 3) (System.channel_latency faulted a);
  (* Ids, names and orders survive, so fault specs stay valid on the copy. *)
  List.iter
    (fun p ->
      Alcotest.(check string) "process name" (System.process_name sys p)
        (System.process_name faulted p);
      Alcotest.(check bool) "get order" true
        (System.get_order sys p = System.get_order faulted p);
      Alcotest.(check bool) "put order" true
        (System.put_order sys p = System.put_order faulted p))
    (System.processes sys);
  (* The base system is untouched. *)
  Alcotest.(check int) "original latency intact" base_latency (System.latency sys p2)

let test_apply_clamps () =
  let sys = Motivating.suboptimal () in
  let a = find_c sys "a" in
  let faulted = Fault.apply sys [ Fault.Latency_jitter { channel = a; delta = -100 } ] in
  Alcotest.(check int) "channel latency clamped to 1" 1 (System.channel_latency faulted a);
  Alcotest.(check (result unit string)) "still valid" (Ok ()) (System.validate faulted)

let test_fifo_shrink () =
  let sys = Motivating.suboptimal () in
  let a = find_c sys "a" in
  System.set_channel_kind sys a (System.Fifo 4);
  let faulted = Fault.apply sys [ Fault.Fifo_shrink { channel = a; depth = 2 } ] in
  Alcotest.(check bool) "depth cut" true (System.channel_kind faulted a = System.Fifo 2);
  (* Shrinking never grows a buffer. *)
  let f2 = Fault.apply sys [ Fault.Fifo_shrink { channel = a; depth = 9 } ] in
  Alcotest.(check bool) "no growth" true (System.channel_kind f2 a = System.Fifo 4)

let prop_apply_well_formed =
  (* Any structural scenario over a valid system yields a valid system with
     the same shape. *)
  let gen = QCheck2.Gen.(pair Helpers.dag_system_gen (list_repeat 5 (int_range 0 100_000))) in
  Helpers.qtest ~count:80 "structural faults preserve well-formedness" gen
    (fun (sys, draws) ->
      let procs = Array.of_list (System.processes sys) in
      let chans = Array.of_list (System.channels sys) in
      let scenario =
        List.mapi
          (fun i d ->
            let p = procs.(d mod Array.length procs) in
            let c = chans.(d mod Array.length chans) in
            match (i + d) mod 3 with
            | 0 -> Fault.Latency_jitter { channel = c; delta = (d mod 31) - 5 }
            | 1 -> Fault.Process_slowdown { process = p; delta = d mod 17 }
            | _ -> Fault.Fifo_shrink { channel = c; depth = 1 + (d mod 3) })
          draws
      in
      let faulted = Fault.apply sys scenario in
      System.validate faulted = Ok ()
      && System.process_count faulted = System.process_count sys
      && System.channel_count faulted = System.channel_count sys)

(* ---- token removal: the three detectors must agree ------------------------ *)

let token_removal_verdicts sys victim =
  let scenario = [ Fault.Token_removal { process = victim } ] in
  let m = To_tmg.build sys in
  Fault.remove_tokens m scenario;
  let commoner = Liveness.find_dead_cycle m.To_tmg.tmg <> None in
  let howard =
    match Csr.cycle_time m.To_tmg.tmg with
    | Error (Csr.Deadlock _) -> true
    | Ok _ | Error Csr.No_cycle -> false
  in
  let watchdog =
    match Sim.steady_cycle_time ~hooks:(Fault.hooks scenario) sys with
    | Ok (Sim.Deadlock _ | Sim.Timeout _) -> true
    | Ok (Sim.Period _ | Sim.No_period) | Error _ -> false
  in
  (commoner, howard, watchdog)

let test_token_removal_agreement () =
  let sys = Motivating.optimal () in
  List.iter
    (fun name ->
      let commoner, howard, watchdog = token_removal_verdicts sys (find_p sys name) in
      Alcotest.(check bool) (name ^ ": liveness sees the dead cycle") true commoner;
      Alcotest.(check bool) (name ^ ": howard reports deadlock") true howard;
      Alcotest.(check bool) (name ^ ": simulator watchdog trips") true watchdog)
    [ "Psrc"; "P2"; "P6"; "Psnk" ]

let prop_token_removal_agreement =
  let gen = QCheck2.Gen.(pair Helpers.feedback_system_gen (int_range 0 10_000)) in
  Helpers.qtest ~count:40 "token removal: liveness = howard = watchdog" gen
    (fun (sys, d) ->
      let procs = Array.of_list (System.processes sys) in
      let victim = procs.(d mod Array.length procs) in
      match token_removal_verdicts sys victim with
      | true, true, true -> true
      | _ -> false)

(* ---- transient stalls --------------------------------------------------- *)

let test_stall_is_transient () =
  (* A one-shot stall shifts the transient schedule but cannot change the
     steady-state period. *)
  let sys = Motivating.optimal () in
  let base =
    match Sim.steady_cycle_time sys with
    | Ok (Sim.Period p) -> p
    | _ -> Alcotest.fail "baseline did not settle"
  in
  let scenario =
    [ Fault.Channel_stall { channel = find_c sys "a"; at_transfer = 2; cycles = 37 } ]
  in
  let budget =
    Sim.default_max_cycles ~max_iterations:64 sys + Fault.stall_budget scenario
  in
  match Sim.steady_cycle_time ~max_cycles:budget ~hooks:(Fault.hooks scenario) sys with
  | Ok (Sim.Period p) -> Helpers.check_ratio "same steady period" base p
  | _ -> Alcotest.fail "stalled run did not settle"

(* ---- recurrence: a period is proved or not given ---------------------------- *)

(* Fuzz cases, multi-rate designs and channel stalls among them, at a
   budget of 96 iterations, short of some transients: each engine may
   answer "no period yet", but a period it does answer, per monitor
   iteration times q(monitor) (Firing's is per TMG round already), is
   Howard's ratio. *)
let prop_recurrence_periods_exact =
  Helpers.qtest ~count:60 "recurrence periods equal howard's ratio"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let sys, scenario = Fuzz.gen_case (Prng.create ~seed) ~max_processes:12 in
      let faulted = Fault.apply sys scenario in
      System.validate faulted <> Ok ()
      ||
      let m = To_tmg.build faulted in
      Fault.remove_tokens m scenario;
      match Csr.cycle_time m.To_tmg.tmg with
      | Error _ -> true
      | Ok h ->
        let ct = h.Csr.cycle_time and rounds = 96 in
        let q = Ratio.of_int (Differential.monitor_repetition faulted) in
        let exact = function Some p -> Ratio.equal (Ratio.mul p q) ct | None -> true in
        let budget = Sim.default_max_cycles ~max_iterations:rounds faulted in
        let sim =
          match
            Sim.steady_cycle_time ~rounds
              ~max_cycles:(budget + Fault.stall_budget scenario)
              ~hooks:(Fault.hooks scenario) faulted
          with
          | Ok (Sim.Period p) -> Some p
          | _ -> None
        in
        let rtl =
          if Fault.stuck_processes scenario <> [] then None
          else
            match Soc_rtl.cosim ~rounds ~max_cycles:budget faulted with
            | Soc_rtl.Rtl_period p -> Some p
            | Soc_rtl.Rtl_no_period | Soc_rtl.Rtl_exhausted _ -> None
        in
        exact sim && exact rtl
        &&
        match Firing.measured_cycle_time m.To_tmg.tmg ~rounds with
        | Some p -> Ratio.equal p ct
        | None -> true)

(* ---- watchdog and structured errors -------------------------------------- *)

let test_sinkless_is_error_not_exception () =
  let sys = System.create ~name:"loop" () in
  let a = System.add_simple_process sys ~phase:System.Puts_first ~latency:1 ~area:0. "a" in
  let b = System.add_simple_process sys ~latency:1 ~area:0. "b" in
  ignore (System.add_channel sys ~name:"x" ~src:a ~dst:b ~latency:1);
  ignore (System.add_channel sys ~name:"y" ~src:b ~dst:a ~latency:1);
  (match Sim.run sys with
  | Error e -> Alcotest.(check bool) "mentions the sink" true
                 (Astring_contains.contains e "sink")
  | Ok _ -> Alcotest.fail "expected an error");
  match Sim.steady_cycle_time sys with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

let test_default_budget_covers_legitimate_runs () =
  (* The derived watchdog budget never trips on a live system at the default
     horizon. *)
  List.iter
    (fun sysf ->
      let sys = sysf () in
      match Sim.steady_cycle_time sys with
      | Ok (Sim.Period _) -> ()
      | Ok (Sim.Timeout t) ->
        Alcotest.failf "spurious watchdog timeout (budget %d)" t.Sim.budget
      | _ -> Alcotest.fail "expected a steady period")
    [ Motivating.suboptimal; Motivating.optimal; Motivating.system ]

(* ---- spec round-trip ------------------------------------------------------ *)

let test_spec_roundtrip () =
  let sys = Motivating.suboptimal () in
  let a = find_c sys "a" and p2 = find_p sys "P2" in
  System.set_channel_kind sys a (System.Fifo 3);
  List.iter
    (fun f ->
      match Fault.parse_spec sys (Fault.to_spec sys f) with
      | Ok f' -> Alcotest.(check bool) (Fault.to_spec sys f ^ " round-trips") true (f = f')
      | Error e -> Alcotest.fail e)
    [
      Fault.Latency_jitter { channel = a; delta = -4 };
      Fault.Process_slowdown { process = p2; delta = 7 };
      Fault.Fifo_shrink { channel = a; depth = 2 };
      Fault.Channel_stall { channel = a; at_transfer = 3; cycles = 11 };
      Fault.Token_removal { process = p2 };
    ]

let test_spec_errors () =
  let sys = Motivating.suboptimal () in
  let expect_err spec frag =
    match Fault.parse_spec sys spec with
    | Error e -> Alcotest.(check bool) (spec ^ " rejected") true (Astring_contains.contains e frag)
    | Ok _ -> Alcotest.fail (spec ^ " should not parse")
  in
  expect_err "jitter:nosuch:3" "unknown channel";
  expect_err "slow:nosuch:3" "unknown process";
  expect_err "slow:P2:x" "integer";
  expect_err "frobnicate:P2" "expected";
  expect_err "shrink:a:0" "depth"

(* ---- differential harness ------------------------------------------------- *)

let test_differential_live_scenario () =
  let sys = Motivating.suboptimal () in
  let scenario =
    [
      Fault.Latency_jitter { channel = find_c sys "b"; delta = 2 };
      Fault.Process_slowdown { process = find_p sys "P4"; delta = 3 };
      Fault.Channel_stall { channel = find_c sys "a"; at_transfer = 1; cycles = 9 };
    ]
  in
  let r = Differential.run_case sys scenario in
  Alcotest.(check (list string)) "all oracles agree" [] r.Differential.mismatches;
  match r.Differential.verdict with
  | Some (Differential.Live _) -> ()
  | _ -> Alcotest.fail "expected a live verdict"

let test_differential_dead_scenario () =
  let sys = Motivating.optimal () in
  let r =
    Differential.run_case sys [ Fault.Token_removal { process = find_p sys "P3" } ]
  in
  Alcotest.(check (list string)) "all oracles agree" [] r.Differential.mismatches;
  Alcotest.(check bool) "deadlock verdict" true
    (r.Differential.verdict = Some Differential.Dead)

let test_differential_new_kinds () =
  (* Multi-rate and handshake channels through the full oracle battery, with
     faults on top. The unfolded system's sim verdict is compared at the
     q(monitor)-scaled period. *)
  let sys = Motivating.suboptimal () in
  let a = find_c sys "a" and b = find_c sys "b" in
  System.set_channel_kind sys a (System.Multi_rate { produce = 1; consume = 1; depth = 2 });
  System.set_channel_kind sys b (System.Handshake { hold = 3 });
  let scenario =
    [
      Fault.Latency_jitter { channel = b; delta = 2 };
      Fault.Fifo_shrink { channel = a; depth = 1 };
    ]
  in
  let r = Differential.run_case sys scenario in
  Alcotest.(check (list string)) "all oracles agree" [] r.Differential.mismatches;
  (* A true rate-unfolded chain (q = (3, 2, 2)), no faults: every oracle on
     the unfolded TMG plus the q-scaled simulator. *)
  let mr = System.create ~name:"mr" () in
  let src = System.add_simple_process mr ~latency:1 ~area:0. "src" in
  let dec = System.add_simple_process mr ~latency:2 ~area:0. "dec" in
  let snk = System.add_simple_process mr ~latency:1 ~area:0. "snk" in
  let c = System.add_channel mr ~name:"a" ~src ~dst:dec ~latency:1 in
  ignore (System.add_channel mr ~name:"b" ~src:dec ~dst:snk ~latency:1);
  System.set_channel_kind mr c (System.Multi_rate { produce = 2; consume = 3; depth = 6 });
  let r = Differential.run_case mr [] in
  Alcotest.(check (list string)) "multi-rate chain agrees" [] r.Differential.mismatches;
  match r.Differential.verdict with
  | Some (Differential.Live _) -> ()
  | _ -> Alcotest.fail "expected a live verdict"

(* ---- fuzz campaign -------------------------------------------------------- *)

let test_fuzz_clean_and_deterministic () =
  let config = { Fuzz.default with Fuzz.cases = 40; seed = 7; repro_dir = None } in
  let s1 = Fuzz.run config in
  let s2 = Fuzz.run config in
  Alcotest.(check (list string)) "no failures"
    []
    (List.concat_map (fun f -> f.Fuzz.mismatches) s1.Fuzz.failures);
  Alcotest.(check int) "cases" 40 s1.Fuzz.cases_run;
  Alcotest.(check bool) "both verdict kinds exercised" true (s1.Fuzz.live > 0 && s1.Fuzz.dead > 0);
  Alcotest.(check int) "deterministic live count" s1.Fuzz.live s2.Fuzz.live;
  Alcotest.(check int) "deterministic dead count" s1.Fuzz.dead s2.Fuzz.dead;
  Alcotest.(check int) "deterministic fault count" s1.Fuzz.faults_injected s2.Fuzz.faults_injected

let test_fuzz_mixed_kinds_sweep () =
  (* Acceptance sweep: 500 random systems mixing all four channel kinds (the
     generator draws per-process repetition factors, so true multi-rate
     weights appear alongside FIFOs and handshakes), all eight oracles
     cross-checked on every case. *)
  let config = { Fuzz.default with Fuzz.cases = 500; seed = 11; repro_dir = None } in
  let s = Fuzz.run ~jobs:4 config in
  Alcotest.(check (list string)) "no mismatches" []
    (List.concat_map (fun f -> f.Fuzz.mismatches) s.Fuzz.failures);
  Alcotest.(check int) "all cases ran" 500 s.Fuzz.cases_run;
  Alcotest.(check bool) "both verdicts exercised" true (s.Fuzz.live > 100 && s.Fuzz.dead > 0)

let test_fuzz_repro_emission () =
  (* The repro writer must produce a parseable .soc with the faulted system
     baked in and a replay header for the dynamic faults. *)
  let dir = Filename.temp_file "ermes-fuzz" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let sys = Motivating.optimal () in
  let scenario =
    [
      Fault.Process_slowdown
        { process = Option.get (System.find_process sys "P2"); delta = 3 };
      Fault.Token_removal { process = Option.get (System.find_process sys "P4") };
    ]
  in
  let path =
    Fuzz.write_repro dir ~seed:99 ~case:3 sys scenario [ "induced mismatch" ]
  in
  Alcotest.(check bool) "repro file exists" true (Sys.file_exists path);
  let contents = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check bool) "header records the mismatch" true
    (Astring_contains.contains contents "induced mismatch");
  Alcotest.(check bool) "header records the dynamic fault" true
    (Astring_contains.contains contents "droptoken:P4");
  Alcotest.(check bool) "header has a replay command" true
    (Astring_contains.contains contents "# replay: ermes inject");
  (match Soc_format.parse contents with
  | Ok faulted ->
    (* The structural slowdown is baked into the printed system. *)
    let p2 = Option.get (System.find_process faulted "P2") in
    Alcotest.(check bool) "structural fault baked in" true
      (Array.exists (fun i -> i.System.latency = 5 + 3) (System.impls faulted p2))
  | Error e -> Alcotest.fail ("repro does not parse: " ^ e));
  Sys.remove path;
  Sys.rmdir dir

(* ---- resilience ----------------------------------------------------------- *)

let test_resilience_motivating () =
  let sys = Motivating.suboptimal () in
  match (Perf.analyze sys, Resilience.analyze ~verify:true sys) with
  | Ok a, Ok r ->
    (* Critical processes have zero slack; every probe must confirm. *)
    List.iter
      (fun p ->
        match List.assoc p r.Resilience.processes with
        | { Resilience.slack = Perf.Bounded 0; _ } -> ()
        | _ -> Alcotest.fail "critical process should have slack 0")
      a.Perf.critical_processes;
    let entries =
      List.map snd r.Resilience.processes @ List.map snd r.Resilience.channels
    in
    Alcotest.(check bool) "every bounded slack verified by probing" true
      (List.for_all (fun e -> e.Resilience.verified <> Some false) entries);
    let frag = Resilience.fragile sys ~threshold:0 r in
    Alcotest.(check bool) "critical components are fragile at threshold 0" true
      (List.length frag >= List.length a.Perf.critical_processes)
  | _ -> Alcotest.fail "analysis failed"

let test_resilience_deadlock_is_error () =
  match Resilience.analyze (Motivating.deadlocking ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "deadlocked system must not produce a report"

let () =
  Alcotest.run "fault"
    [
      ( "apply",
        [
          Alcotest.test_case "preserves structure" `Quick test_apply_preserves_structure;
          Alcotest.test_case "clamps latencies" `Quick test_apply_clamps;
          Alcotest.test_case "fifo shrink" `Quick test_fifo_shrink;
        ] );
      ( "token-removal",
        [ Alcotest.test_case "liveness = howard = watchdog" `Quick test_token_removal_agreement ] );
      ( "stall", [ Alcotest.test_case "transient only" `Quick test_stall_is_transient ] );
      ("recurrence", [ prop_recurrence_periods_exact ]);
      ( "watchdog",
        [
          Alcotest.test_case "sink-less is a structured error" `Quick
            test_sinkless_is_error_not_exception;
          Alcotest.test_case "budget covers legitimate runs" `Quick
            test_default_budget_covers_legitimate_runs;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
        ] );
      ( "differential",
        [
          Alcotest.test_case "live scenario" `Quick test_differential_live_scenario;
          Alcotest.test_case "dead scenario" `Quick test_differential_dead_scenario;
          Alcotest.test_case "multi-rate and handshake" `Quick test_differential_new_kinds;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean + deterministic" `Quick test_fuzz_clean_and_deterministic;
          Alcotest.test_case "mixed-kind 500-case sweep" `Slow test_fuzz_mixed_kinds_sweep;
          Alcotest.test_case "repro emission" `Quick test_fuzz_repro_emission;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "motivating report" `Quick test_resilience_motivating;
          Alcotest.test_case "deadlock is an error" `Quick test_resilience_deadlock_is_error;
        ] );
      ( "property",
        [ prop_apply_well_formed; prop_token_removal_agreement ] );
    ]
