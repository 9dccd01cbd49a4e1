module System = Ermes_slm.System
module Motivating = Ermes_support.Motivating
module Sim = Ermes_slm.Sim
module Perf = Ermes_core.Perf
module Order = Ermes_core.Order
module Oracle = Ermes_core.Oracle
module Ilp_select = Ermes_core.Ilp_select
module Explore = Ermes_core.Explore
module Incremental = Ermes_core.Incremental
module Frontier = Ermes_core.Frontier
module Ratio = Ermes_tmg.Ratio

let r = Helpers.ratio

let find_channel sys n = Option.get (System.find_channel sys n)
let find_process sys n = Option.get (System.find_process sys n)

(* ---- perf ------------------------------------------------------------------ *)

let test_perf_motivating () =
  let sys = Motivating.suboptimal () in
  match Perf.analyze sys with
  | Error _ -> Alcotest.fail "deadlock"
  | Ok a ->
    Helpers.check_ratio "cycle time" (r 20 1) a.Perf.cycle_time;
    Helpers.check_ratio "throughput" (r 1 20) (Perf.throughput a);
    Alcotest.(check int) "delay/tokens consistent" 0
      (compare (Ratio.make a.Perf.critical_delay a.Perf.critical_tokens) a.Perf.cycle_time);
    (* The 20-cycle critical path threads P2 -> P3 -> P4 -> P6. *)
    let names = List.map (System.process_name sys) a.Perf.critical_processes in
    List.iter
      (fun p -> Alcotest.(check bool) (p ^ " critical") true (List.mem p names))
      [ "P2"; "P3"; "P4" ]

let test_perf_deadlock_diagnostics () =
  let sys = Motivating.deadlocking () in
  match Perf.analyze sys with
  | Ok _ -> Alcotest.fail "missed deadlock"
  | Error Perf.No_cycle -> Alcotest.fail "no cycle?"
  | Error (Perf.Deadlock d) ->
    let chans = List.map (System.channel_name sys) d.Perf.dead_channels in
    List.iter
      (fun c -> Alcotest.(check bool) (c ^ " in dead cycle") true (List.mem c chans))
      [ "d"; "f"; "g" ]

let rebuild_with_latency sys target delta =
  (* A copy of [sys] with [target]'s latency increased by [delta]. *)
  let sys' = System.create ~name:(System.name sys) () in
  List.iter
    (fun p ->
      let impls =
        Array.to_list (System.impls sys p)
        |> List.map (fun (i : System.impl) ->
               if p = target then { i with System.latency = i.System.latency + delta }
               else i)
      in
      ignore (System.add_process sys' ~phase:(System.phase sys p) ~impls (System.process_name sys p)))
    (System.processes sys);
  List.iter
    (fun c ->
      ignore
        (System.add_channel sys' ~name:(System.channel_name sys c)
           ~src:(System.channel_src sys c) ~dst:(System.channel_dst sys c)
           ~latency:(System.channel_latency sys c)))
    (System.channels sys);
  List.iter
    (fun p ->
      System.select sys' p (System.selected sys p);
      System.set_get_order sys' p (System.get_order sys p);
      System.set_put_order sys' p (System.put_order sys p))
    (System.processes sys);
  sys'

let test_latency_slack_motivating () =
  let sys = Motivating.optimal () in
  let slacks = Perf.latency_slack sys in
  let slack_of name =
    List.assoc (find_process sys name) slacks
  in
  (* The critical cycle threads P2: zero slack. *)
  Alcotest.(check bool) "P2 critical" true (slack_of "P2" = Perf.Bounded 0);
  (* Every slack is exact: +slack keeps CT, +slack+1 increases it. *)
  let base_ct = Perf.cycle_time_exn sys in
  List.iter
    (fun (p, sl) ->
      match sl with
      | Perf.Unbounded -> Alcotest.fail "no process is off every cycle"
      | Perf.Bounded s ->
        let same = Perf.cycle_time_exn (rebuild_with_latency sys p s) in
        Helpers.check_ratio (System.process_name sys p ^ " at slack") base_ct same;
        let worse = Perf.cycle_time_exn (rebuild_with_latency sys p (s + 1)) in
        Alcotest.(check bool)
          (System.process_name sys p ^ " beyond slack")
          true
          Ratio.(worse > base_ct))
    slacks

let prop_latency_slack_exact =
  Helpers.qtest ~count:60 "latency slack is exact on random systems"
    Helpers.dag_system_gen (fun sys ->
      match Perf.analyze sys with
      | Error _ -> true
      | Ok a ->
        let base = a.Perf.cycle_time in
        List.for_all
          (fun (p, sl) ->
            match sl with
            | Perf.Unbounded -> false
            | Perf.Bounded s ->
              Ratio.equal base (Perf.cycle_time_exn (rebuild_with_latency sys p s))
              && Ratio.(Perf.cycle_time_exn (rebuild_with_latency sys p (s + 1)) > base))
          (Perf.latency_slack sys))

let rebuild_with_channel_latency sys target delta =
  (* Channel latencies are immutable; rebuild the system around the change. *)
  let sys2 = System.create ~name:(System.name sys) () in
  List.iter
    (fun p ->
      ignore
        (System.add_process sys2 ~phase:(System.phase sys p)
           ~impls:(Array.to_list (System.impls sys p))
           (System.process_name sys p)))
    (System.processes sys);
  List.iter
    (fun c ->
      ignore
        (System.add_channel sys2 ~name:(System.channel_name sys c)
           ~src:(System.channel_src sys c) ~dst:(System.channel_dst sys c)
           ~latency:(System.channel_latency sys c + if c = target then delta else 0)))
    (System.channels sys);
  List.iter
    (fun p ->
      System.select sys2 p (System.selected sys p);
      System.set_get_order sys2 p (System.get_order sys p);
      System.set_put_order sys2 p (System.put_order sys p))
    (System.processes sys);
  sys2

let test_channel_slack_exact () =
  let sys = Motivating.optimal () in
  let base = Perf.cycle_time_exn sys in
  List.iter
    (fun (c, sl) ->
      match sl with
      | Perf.Unbounded -> Alcotest.fail "every channel lies on a cycle"
      | Perf.Bounded s ->
        Helpers.check_ratio
          (System.channel_name sys c ^ " at slack")
          base
          (Perf.cycle_time_exn (rebuild_with_channel_latency sys c s));
        Alcotest.(check bool)
          (System.channel_name sys c ^ " beyond slack")
          true
          Ratio.(Perf.cycle_time_exn (rebuild_with_channel_latency sys c (s + 1)) > base))
    (Perf.channel_slack sys)

let test_local_search_improves_to_optimum () =
  (* From the suboptimal order, pure local search alone reaches the global
     optimum of the motivating example. *)
  let sys = Motivating.suboptimal () in
  let evals = Order.local_search sys in
  Alcotest.(check bool) "spent analyses" true (evals > 0);
  Helpers.check_ratio "reaches 12" (r 12 1) (Perf.cycle_time_exn sys)

let test_local_search_budget () =
  let sys = Motivating.suboptimal () in
  let evals = Order.local_search ~max_evaluations:3 sys in
  Alcotest.(check bool) "respects budget" true (evals <= 3)

let prop_local_search_monotone_and_closes_gap =
  Helpers.qtest ~count:40 "local search is monotone and at least as good as apply_safe"
    Helpers.dag_system_gen (fun sys ->
      (* Insertion orders can deadlock even on DAG systems; start live. *)
      Order.conservative sys;
      ignore (Order.apply_safe sys);
      let after_algo = Perf.cycle_time_exn sys in
      ignore (Order.local_search ~max_evaluations:2000 sys);
      let after_ls = Perf.cycle_time_exn sys in
      Ratio.(after_ls <= after_algo))

(* The local search as it stood before the witness-pruned sweep: every
   adjacent swap analyzed through one incremental session, each strict
   improvement kept at once, until a sweep keeps nothing or the budget is
   spent. [Order.local_search] must reach the same orders with the same
   count. *)
let unpruned_local_search ~max_evaluations sys =
  let session = Incremental.create sys in
  let best_ct =
    ref
      (match Incremental.cycle_time_opt session with
       | Some ct -> ct
       | None -> failwith "the incumbent orders deadlock")
  in
  let evals = ref 0 in
  let try_swap get_order set_order p i =
    !evals < max_evaluations
    &&
    let order = Array.of_list (get_order sys p) in
    let t = order.(i) in
    order.(i) <- order.(i + 1);
    order.(i + 1) <- t;
    set_order sys p (Array.to_list order);
    incr evals;
    match Incremental.cycle_time_opt session with
    | Some ct when Ratio.(ct < !best_ct) ->
      best_ct := ct;
      true
    | Some _ | None ->
      order.(i + 1) <- order.(i);
      order.(i) <- t;
      set_order sys p (Array.to_list order);
      false
  in
  let improved = ref true in
  while !improved && !evals < max_evaluations do
    improved := false;
    List.iter
      (fun p ->
        let sweep get_order set_order =
          for i = 0 to List.length (get_order sys p) - 2 do
            if try_swap get_order set_order p i then improved := true
          done
        in
        sweep System.get_order System.set_get_order;
        sweep System.put_order System.set_put_order)
      (System.processes sys)
  done;
  !evals

let prop_local_search_matches_unpruned name design_gen =
  Helpers.qtest ~count:80 name
    QCheck2.Gen.(pair design_gen (oneof [ pure 10_000; int_range 0 60 ]))
    (fun (sys, max_evaluations) ->
      let run search =
        let copy = System.copy sys in
        match search ~max_evaluations copy with
        | evals -> Ok (evals, Order.snapshot copy)
        | exception Failure _ -> Error ()
      in
      let pruned = run (fun ~max_evaluations s -> Order.local_search ~max_evaluations s) in
      match (pruned, run unpruned_local_search) with
      | a, b when a = b -> true
      | Ok (n, orders), Ok (m, orders') ->
        QCheck2.Test.fail_reportf "budget %d: %d analyses, unpruned %d; orders %s"
          max_evaluations n m
          (if orders = orders' then "equal" else "differ")
      | _ -> QCheck2.Test.fail_reportf "only one search rejected the incumbent")

let fuzz_design_gen =
  QCheck2.Gen.map
    (fun seed ->
      fst (Ermes_fault.Fuzz.gen_case (Ermes_synth.Prng.create ~seed) ~max_processes:12))
    QCheck2.Gen.(int_range 1 1_000_000)

let generated_design_gen =
  QCheck2.Gen.map
    (fun (processes, extra, seed) ->
      Ermes_synth.Generate.scaled ~seed ~processes ~channels:(processes + extra) ())
    QCheck2.Gen.(triple (int_range 8 30) (int_range 4 24) (int_range 1 1_000_000))

(* ---- order: the paper's worked example -------------------------------------- *)

let test_forward_labels_match_paper () =
  (* Fig. 4(b), red labels: heads. Starting order = suboptimal (§4 walks the
     puts of P2 in the order f, b, d). *)
  let sys = Motivating.suboptimal () in
  let lb = Order.forward_labels sys in
  let check name weight ts =
    let c = find_channel sys name in
    Alcotest.(check (pair int int))
      (name ^ " head (w,ts)")
      (weight, ts)
      (lb.Order.head_weight.(c), lb.Order.head_timestamp.(c))
  in
  check "a" 3 1;
  check "f" 13 2;
  check "b" 13 3;
  check "d" 13 4;
  (* g and c tie at weight 17; the queue processes P5 before P3 (both were
     enqueued while visiting P2, f before b). *)
  check "g" 17 5;
  check "c" 17 6;
  check "e" 19 7;
  check "h" 22 8

let test_backward_labels_match_paper () =
  (* Fig. 4(b), blue labels: tails. *)
  let sys = Motivating.suboptimal () in
  let lb = Order.compute_labels sys in
  let check name weight =
    let c = find_channel sys name in
    Alcotest.(check int) (name ^ " tail weight") weight lb.Order.tail_weight.(c)
  in
  check "h" 2;
  check "d" 10;
  check "g" 10;
  check "e" 10;
  check "f" 13;
  check "c" 13;
  check "b" 16;
  check "a" 23

let test_final_ordering_matches_paper () =
  (* §4: "process P6 reads first from channel d, then g, and finally e.
     Also, ... process P2 writes first channel b, then f and finally d." *)
  let sys = Motivating.suboptimal () in
  ignore (Order.apply sys);
  let names of_order p = List.map (System.channel_name sys) (of_order sys p) in
  Alcotest.(check (list string)) "P2 puts" [ "b"; "f"; "d" ]
    (names System.put_order (find_process sys "P2"));
  Alcotest.(check (list string)) "P6 gets" [ "d"; "g"; "e" ]
    (names System.get_order (find_process sys "P6"));
  match Perf.analyze sys with
  | Ok a -> Helpers.check_ratio "optimal CT reached" (r 12 1) a.Perf.cycle_time
  | Error _ -> Alcotest.fail "ordered system deadlocked"

let test_ordering_fixes_deadlock () =
  (* Starting from the deadlocking order, Algorithm 1 must both remove the
     deadlock and reach the optimum (the paper's §4 narrative). *)
  let sys = Motivating.deadlocking () in
  ignore (Order.apply sys);
  match Perf.analyze sys with
  | Ok a -> Helpers.check_ratio "CT 12 from deadlock" (r 12 1) a.Perf.cycle_time
  | Error _ -> Alcotest.fail "still deadlocked"

let test_order_complexity_scales () =
  (* O(E log E): ordering a 2000-process system must be near-instant; this is
     a smoke guard, not a benchmark. *)
  let sys = Ermes_synth.Generate.scaled ~processes:2000 ~channels:3000 () in
  let t0 = Sys.time () in
  ignore (Order.apply sys);
  Alcotest.(check bool) "fast enough" true (Sys.time () -. t0 < 5.)

(* ---- order: conservative ------------------------------------------------------ *)

let test_conservative_motivating_live () =
  let sys = Motivating.deadlocking () in
  Order.conservative sys;
  match Perf.analyze sys with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "conservative order deadlocked"

let prop_conservative_always_live =
  Helpers.qtest ~count:120 "conservative orders are always deadlock-free"
    Helpers.feedback_system_gen (fun sys ->
      (* The generator already installs the conservative order; scramble and
         reinstall to exercise the code path. *)
      Order.conservative sys;
      match Perf.analyze sys with
      | Ok _ -> true
      | Error Perf.No_cycle -> true
      | Error (Perf.Deadlock _) -> false)

let prop_apply_live_on_dags =
  Helpers.qtest ~count:120 "Algorithm 1 output is deadlock-free on DAG systems"
    Helpers.dag_system_gen (fun sys ->
      ignore (Order.apply sys);
      match Perf.analyze sys with
      | Ok _ | Error Perf.No_cycle -> true
      | Error (Perf.Deadlock _) -> false)

let prop_apply_safe_monotone =
  let gen = QCheck2.Gen.(pair Helpers.feedback_system_gen (list_repeat 12 (int_range 0 1000))) in
  Helpers.qtest ~count:120 "apply_safe never regresses and never deadlocks" gen
    (fun (sys, draws) ->
      (* Start from a random live order if possible; else conservative. *)
      Helpers.permute_orders sys draws;
      (match Perf.analyze sys with
       | Ok _ -> ()
       | Error _ -> Order.conservative sys);
      match Helpers.analyze_ct sys with
      | None -> false
      | Some before -> (
        ignore (Order.apply_safe sys);
        match Helpers.analyze_ct sys with
        | Some after -> Ratio.(after <= before)
        | None -> false))

let test_constrained_reproduces_paper_optimum () =
  (* The dependence-constrained variant must also reach CT 12 with the
     paper's orders on the motivating example. *)
  let sys = Motivating.suboptimal () in
  ignore (Order.apply_constrained sys);
  let names of_order p = List.map (System.channel_name sys) (of_order sys p) in
  Alcotest.(check (list string)) "P2 puts" [ "b"; "f"; "d" ]
    (names System.put_order (find_process sys "P2"));
  Alcotest.(check (list string)) "P6 gets" [ "d"; "g"; "e" ]
    (names System.get_order (find_process sys "P6"));
  match Perf.analyze sys with
  | Ok a -> Helpers.check_ratio "CT 12" (r 12 1) a.Perf.cycle_time
  | Error _ -> Alcotest.fail "deadlock"

let prop_constrained_always_live =
  Helpers.qtest ~count:120 "the constrained variant is always deadlock-free"
    Helpers.feedback_system_gen (fun sys ->
      ignore (Order.apply_constrained sys);
      match Perf.analyze sys with
      | Ok _ | Error Perf.No_cycle -> true
      | Error (Perf.Deadlock _) -> false)

let prop_conservative_random_live =
  let gen = QCheck2.Gen.(pair Helpers.feedback_system_gen (int_range 1 1_000_000)) in
  Helpers.qtest ~count:120 "random designer orders are always deadlock-free" gen
    (fun (sys, seed) ->
      Order.conservative_random ~seed sys;
      match Perf.analyze sys with
      | Ok _ | Error Perf.No_cycle -> true
      | Error (Perf.Deadlock _) -> false)

let test_conservative_random_varies () =
  (* Different seeds explore genuinely different orders on the MPEG-2-sized
     generator instance. *)
  let sys = Ermes_synth.Generate.generate Ermes_synth.Generate.default in
  let signature () =
    List.map (fun p -> (System.get_order sys p, System.put_order sys p)) (System.processes sys)
  in
  Order.conservative_random ~seed:1 sys;
  let s1 = signature () in
  Order.conservative_random ~seed:2 sys;
  let s2 = signature () in
  Alcotest.(check bool) "seeds differ" true (s1 <> s2);
  Order.conservative_random ~seed:1 sys;
  Alcotest.(check bool) "seed 1 reproducible" true (signature () = s1)

let test_conservative_canonical () =
  (* The conservative order must not depend on the orders installed before
     it runs. *)
  let a = Motivating.suboptimal () in
  let b = Motivating.deadlocking () in
  Order.conservative a;
  Order.conservative b;
  let sig_of sys =
    List.map (fun p -> (System.get_order sys p, System.put_order sys p)) (System.processes sys)
  in
  Alcotest.(check bool) "same canonical order" true (sig_of a = sig_of b)

(* ---- order vs exhaustive oracle -------------------------------------------------- *)

let test_oracle_motivating () =
  let sys = Motivating.suboptimal () in
  match Oracle.search sys with
  | None -> Alcotest.fail "all orders deadlocked?"
  | Some res ->
    Alcotest.(check int) "36 combinations" 36 res.Oracle.evaluated;
    Helpers.check_ratio "oracle optimum is 12" (r 12 1) res.Oracle.best_cycle_time;
    Alcotest.(check bool) "some orders deadlock" true (res.Oracle.deadlocked > 0)

let test_oracle_limit () =
  let sys = Ermes_synth.Generate.scaled ~processes:40 ~channels:80 () in
  (try
     ignore (Oracle.search ~limit:1000 sys);
     Alcotest.fail "limit not enforced"
   with Invalid_argument _ -> ())

let prop_algorithm_matches_oracle_on_small_dags =
  Helpers.qtest ~count:60 "Algorithm 1 is optimal or near-optimal vs exhaustive search"
    Helpers.dag_system_gen (fun sys ->
      if System.order_combinations sys > 5000. then true
      else begin
        match Oracle.search ~limit:5001 sys with
        | None -> true
        | Some oracle -> (
          ignore (Order.apply sys);
          match Helpers.analyze_ct sys with
          | None -> false (* must not deadlock on DAGs *)
          | Some got ->
            (* Algorithm 1 is a heuristic: on parallel-branch structures the
               longest-downstream-first put order can misalign with the
               shortest-upstream-first get order and lose up to ~2x (worst
               observed 2.1x over thousands of random DAGs; it is optimal on
               the large majority — the ablation bench quantifies this). *)
            Ratio.to_float got <= (2.5 *. Ratio.to_float oracle.Oracle.best_cycle_time) +. 1e-9)
      end)

let test_oracle_best_system_reanalyzes () =
  let sys = Motivating.suboptimal () in
  match Oracle.search sys with
  | None -> Alcotest.fail "no live order"
  | Some res -> (
    match Perf.analyze res.Oracle.best_system with
    | Ok a -> Helpers.check_ratio "best system reproduces its CT" res.Oracle.best_cycle_time a.Perf.cycle_time
    | Error _ -> Alcotest.fail "oracle returned a deadlocking system")

let test_perf_pp_smoke () =
  let sys = Motivating.suboptimal () in
  match Perf.analyze sys with
  | Ok a ->
    let text = Format.asprintf "%a" (Perf.pp_analysis sys) a in
    List.iter
      (fun frag ->
        Alcotest.(check bool) ("mentions " ^ frag) true (Astring_contains.contains text frag))
      [ "cycle time 20"; "throughput 1/20"; "P2" ]
  | Error _ -> Alcotest.fail "deadlock"

(* ---- ilp_select ------------------------------------------------------------------- *)

let three_impl_system () =
  (* src -> A -> B -> snk with 3 implementations each. *)
  let sys = System.create ~name:"dse" () in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let impls =
    [
      { System.tag = "fast"; latency = 4; area = 1.0 };
      { System.tag = "mid"; latency = 8; area = 0.5 };
      { System.tag = "slow"; latency = 16; area = 0.25 };
    ]
  in
  let a = System.add_process sys ~impls "A" in
  let b = System.add_process sys ~impls "B" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  ignore (System.add_channel sys ~name:"x" ~src ~dst:a ~latency:1);
  ignore (System.add_channel sys ~name:"y" ~src:a ~dst:b ~latency:1);
  ignore (System.add_channel sys ~name:"z" ~src:b ~dst:snk ~latency:1);
  sys

let test_timing_optimization_picks_needed () =
  let sys = three_impl_system () in
  System.select sys (find_process sys "A") 2;
  System.select sys (find_process sys "B") 2;
  (* A's own cycle: latency 16 + channels (1+1) = 18. Ask for gain 8: the
     min-area choice is "mid" (gain 8, area 0.5), not "fast". *)
  let changes =
    Ilp_select.timing_optimization ~needed_gain:8 sys ~critical:[ find_process sys "A" ]
  in
  (match changes with
   | [ c ] ->
     Alcotest.(check int) "switched to mid" 1 c.Ilp_select.to_impl
   | _ -> Alcotest.fail "expected exactly one change");
  (* Unreachable gain falls back to fastest. *)
  let changes =
    Ilp_select.timing_optimization ~needed_gain:100 sys ~critical:[ find_process sys "A" ]
  in
  match changes with
  | [ c ] -> Alcotest.(check int) "fell back to fastest" 0 c.Ilp_select.to_impl
  | _ -> Alcotest.fail "expected exactly one change"

let test_timing_no_gain_possible () =
  let sys = three_impl_system () in
  (* Already fastest everywhere. *)
  Alcotest.(check int) "no changes" 0
    (List.length (Ilp_select.timing_optimization sys ~critical:[ find_process sys "A" ]))

let test_area_recovery_respects_slack () =
  let sys = three_impl_system () in
  (* All fast (latency 4). Slack 4 allows A: fast->mid (latency +4) but not
     ->slow (+12); B likewise; but ONLY the critical ones are constrained.
     With both critical and slack 4, the ILP can afford one step on one of
     them plus... +4 latency total across both. *)
  let critical = [ find_process sys "A"; find_process sys "B" ] in
  let changes = Ilp_select.area_recovery sys ~critical ~slack:4 in
  let total_latency_increase =
    List.fold_left
      (fun acc c ->
        acc
        + (System.impls sys c.Ilp_select.process).(c.Ilp_select.to_impl).System.latency
        - System.latency sys c.Ilp_select.process)
      0 changes
  in
  Alcotest.(check bool) "within slack" true (total_latency_increase <= 4);
  Alcotest.(check bool) "recovers some area" true (changes <> [])

let test_area_recovery_tct_filter () =
  let sys = three_impl_system () in
  (* tct 15: "slow" (own cycle 16+2=18) is inadmissible everywhere; even for
     non-critical processes. *)
  let changes = Ilp_select.area_recovery ~tct:15 sys ~critical:[] ~slack:1000 in
  List.iter
    (fun c -> Alcotest.(check bool) "never slow" true (c.Ilp_select.to_impl <> 2))
    changes;
  Alcotest.(check bool) "still recovers via mid" true (changes <> [])

(* ---- explore ------------------------------------------------------------------------ *)

let test_explore_timing_reaches_target () =
  let sys = three_impl_system () in
  System.select sys (find_process sys "A") 2;
  System.select sys (find_process sys "B") 2;
  let trace = Explore.run ~tct:12 sys in
  Alcotest.(check bool) "met" true trace.Explore.met;
  Alcotest.(check bool) "final <= target" true
    Ratio.(Explore.final_cycle_time trace <= Ratio.of_int 12);
  (* The initial step is recorded. *)
  (match trace.Explore.steps with
   | s0 :: _ -> Alcotest.(check bool) "initial action" true (s0.Explore.action = Explore.Initial)
   | [] -> Alcotest.fail "no steps")

let test_explore_area_recovery_shrinks () =
  let sys = three_impl_system () in
  (* Fast everywhere; generous target: expect area recovery to kick in. *)
  let initial_area = System.total_area sys in
  let trace = Explore.run ~tct:100 sys in
  Alcotest.(check bool) "met" true trace.Explore.met;
  Alcotest.(check bool) "area shrank" true (Explore.final_area trace < initial_area)

let test_explore_area_budget_dual () =
  (* The dual formulation: with a tight area budget the timing step must not
     blow past it even though a faster (bigger) selection exists. *)
  let sys = three_impl_system () in
  System.select sys (find_process sys "A") 2;
  System.select sys (find_process sys "B") 2;
  (* Unbudgeted: reaches tct 12 (needs mid impls: area 0.5 + 0.5 = 1.0). *)
  let unbudgeted = Explore.run ~tct:12 (System.copy sys |> fun s -> s) in
  ignore unbudgeted;
  let sys2 = three_impl_system () in
  System.select sys2 (find_process sys2 "A") 2;
  System.select sys2 (find_process sys2 "B") 2;
  (* Budget below the area of any faster configuration: stuck at slow. *)
  let trace = Explore.run ~area_budget:0.45 ~tct:12 sys2 in
  Alcotest.(check bool) "budget forbids the upgrade" true (not trace.Explore.met);
  Alcotest.(check bool) "area stayed within budget" true
    (System.total_area sys2 <= 0.51 (* the two slow impls *))

let test_explore_with_fifo_channels () =
  (* The whole methodology runs unchanged on buffered channels. *)
  let sys = three_impl_system () in
  System.select sys (find_process sys "A") 2;
  System.select sys (find_process sys "B") 2;
  List.iter (fun c -> System.set_channel_kind sys c (System.Fifo 2)) (System.channels sys);
  let trace = Explore.run ~tct:12 sys in
  Alcotest.(check bool) "met with FIFOs" true trace.Explore.met;
  match (Perf.analyze sys, Ermes_slm.Sim.steady_cycle_time ~rounds:48 sys) with
  | Ok a, Ok (Ermes_slm.Sim.Period m) ->
    Helpers.check_ratio "still consistent" a.Perf.cycle_time m
  | _ -> Alcotest.fail "analysis/simulation failed"

let test_explore_unreachable_target () =
  let sys = three_impl_system () in
  let trace = Explore.run ~tct:3 sys in
  Alcotest.(check bool) "missed but terminated" true (not trace.Explore.met)

(* The paper's MPEG-2 case study at target 150000, pinned to the answer
   `ermes dse` prints (test/dse.t). The node bound holds the search to its
   dive and warm start: a floor-first search that re-solved every node took
   20,444. *)
let test_explore_mpeg2 () =
  let sys = Ermes_mpeg2.Soc.build () in
  Ermes_mpeg2.Soc.select_fastest sys;
  let was_enabled = Ermes_obs.Obs.enabled () in
  Ermes_obs.Obs.enable ();
  let trace = Explore.run ~tct:150000 sys in
  let nodes = Ermes_obs.Obs.counter "ilp.nodes" in
  if not was_enabled then Ermes_obs.Obs.disable ();
  Helpers.check_ratio "cycle time" (Ratio.of_int 149549) (Explore.final_cycle_time trace);
  Alcotest.(check string) "area" "8.1478" (Printf.sprintf "%.4f" (Explore.final_area trace));
  Alcotest.(check bool) (Printf.sprintf "ilp.nodes %d in [1, 2000]" nodes) true
    (nodes >= 1 && nodes <= 2000)

let prop_explore_monotone_outcome =
  let gen = QCheck2.Gen.(pair Helpers.feedback_system_gen (int_range 1 4)) in
  Helpers.qtest ~count:40 "exploration never ships worse than the start" gen
    (fun (sys, divisor) ->
      match Helpers.analyze_ct sys with
      | None -> true
      | Some ct0 ->
        let tct = max 1 (Ratio.num ct0 / Ratio.den ct0 / divisor) in
        let area0 = System.total_area sys in
        let trace = Explore.run ~tct sys in
        let final_ct = Explore.final_cycle_time trace in
        (* Either it improved/kept the cycle time, or (when the start already
           met the target) it recovered area without leaving the target. *)
        let shipped_matches =
          (* The trace's closing step must describe the shipped system. *)
          Ratio.equal final_ct (Perf.cycle_time_exn sys)
          && Float.abs (Explore.final_area trace -. System.total_area sys) < 1e-9
        in
        shipped_matches
        &&
        if Ratio.(ct0 <= Ratio.of_int tct) then
          trace.Explore.met && Explore.final_area trace <= area0 +. 1e-9
        else Ratio.(final_ct <= ct0))

(* ---- buffer sizing ----------------------------------------------------------------- *)

module Buffer_opt = Ermes_core.Buffer_opt

let test_buffer_sizing_motivating () =
  let sys = Motivating.suboptimal () in
  let res = Buffer_opt.size ~tct:11 sys in
  Alcotest.(check bool) "met" true res.Buffer_opt.met;
  Alcotest.(check bool) "frugal" true (res.Buffer_opt.slots_added <= 3);
  Helpers.check_ratio "final ct" (Perf.cycle_time_exn sys) res.Buffer_opt.final_cycle_time;
  (* Steps are strictly improving. *)
  let cts = List.map (fun (s : Buffer_opt.step) -> s.Buffer_opt.cycle_time) res.Buffer_opt.steps in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> Ratio.(b < a) && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone steps" true (decreasing (r 20 1 :: cts))

let test_buffer_sizing_unreachable () =
  (* Data-dependence-bound systems cannot be bought off with storage. *)
  let sys = Motivating.optimal () in
  let res = Buffer_opt.size ~max_slots:16 ~tct:1 sys in
  Alcotest.(check bool) "missed but terminated" true (not res.Buffer_opt.met);
  (* Still live and consistent. *)
  match Perf.analyze sys with
  | Ok a -> Helpers.check_ratio "consistent" a.Perf.cycle_time res.Buffer_opt.final_cycle_time
  | Error _ -> Alcotest.fail "buffering introduced deadlock"

let prop_buffer_sizing_monotone =
  Helpers.qtest ~count:40 "buffer sizing never worsens the cycle time"
    Helpers.dag_system_gen (fun sys ->
      Ermes_core.Order.conservative sys;
      match Helpers.analyze_ct sys with
      | None -> true
      | Some before ->
        let target = max 1 ((Ratio.num before / Ratio.den before) / 2) in
        let res = Buffer_opt.size ~max_slots:16 ~tct:target sys in
        Ratio.(res.Buffer_opt.final_cycle_time <= before))

(* ---- report ------------------------------------------------------------------------ *)

let test_report_markdown () =
  let sys = Motivating.suboptimal () in
  match Ermes_core.Report.markdown ~frontier:true sys with
  | Error e -> Alcotest.fail e
  | Ok text ->
    List.iter
      (fun frag ->
        Alcotest.(check bool) ("report mentions " ^ frag) true
          (Astring_contains.contains text frag))
      [
        "# Design report: motivating";
        "cycle time: **20**";
        "## Latency slack";
        "| P2 | 5 | 0 |";
        "## Area";
        "## System-level Pareto frontier";
      ]

let test_report_deadlock () =
  match Ermes_core.Report.markdown (Motivating.deadlocking ()) with
  | Error e -> Alcotest.(check bool) "diagnostic" true (Astring_contains.contains e "deadlock")
  | Ok _ -> Alcotest.fail "reported a deadlocked design"

(* ---- frontier ------------------------------------------------------------------------ *)

let test_frontier_basic () =
  let sys = three_impl_system () in
  let frontier = Frontier.system_pareto sys in
  Alcotest.(check bool) "non-empty" true (frontier <> []);
  (* Non-dominated and sorted. *)
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "ct ascending" true Ratio.(a.Frontier.cycle_time < b.Frontier.cycle_time);
      Alcotest.(check bool) "area descending" true (a.Frontier.area > b.Frontier.area);
      check rest
    | _ -> ()
  in
  check frontier;
  (* Fastest = all-fast configuration. *)
  let m1 = Frontier.fastest frontier in
  Frontier.select sys m1;
  Alcotest.(check int) "A fast" 0 (System.selected sys (find_process sys "A"));
  (* Selection restored semantics: selecting a frontier point then analyzing
     reproduces its recorded cycle time. *)
  match Perf.analyze sys with
  | Ok a -> Helpers.check_ratio "frontier point reproducible" m1.Frontier.cycle_time a.Perf.cycle_time
  | Error _ -> Alcotest.fail "deadlock"

let test_frontier_ratio_pick () =
  let sys = three_impl_system () in
  let frontier = Frontier.system_pareto sys in
  let m1 = Frontier.fastest frontier in
  let m2 = Frontier.at_cycle_time_ratio frontier 2.0 in
  Alcotest.(check bool) "m2 slower than m1" true
    Ratio.(m2.Frontier.cycle_time >= m1.Frontier.cycle_time)

(* ---- end-to-end: order + sim agree after exploration ----------------------------------- *)

let test_explore_result_simulates () =
  let sys = three_impl_system () in
  System.select sys (find_process sys "A") 2;
  System.select sys (find_process sys "B") 2;
  let trace = Explore.run ~tct:12 sys in
  match (Perf.analyze sys, Sim.steady_cycle_time ~rounds:64 sys) with
  | Ok a, Ok (Sim.Period measured) ->
    Helpers.check_ratio "explored system: analysis = simulation" a.Perf.cycle_time measured;
    Helpers.check_ratio "trace final = analysis" (Explore.final_cycle_time trace) a.Perf.cycle_time
  | _ -> Alcotest.fail "analysis or simulation failed"

let () =
  Alcotest.run "core"
    [
      ( "perf",
        [
          Alcotest.test_case "motivating analysis" `Quick test_perf_motivating;
          Alcotest.test_case "deadlock diagnostics" `Quick test_perf_deadlock_diagnostics;
          Alcotest.test_case "latency slack (motivating)" `Quick test_latency_slack_motivating;
          Alcotest.test_case "channel slack exact" `Quick test_channel_slack_exact;
        ] );
      ( "order-paper-oracle",
        [
          Alcotest.test_case "forward labels (Fig 4b)" `Quick test_forward_labels_match_paper;
          Alcotest.test_case "backward labels (Fig 4b)" `Quick test_backward_labels_match_paper;
          Alcotest.test_case "final ordering (§4)" `Quick test_final_ordering_matches_paper;
          Alcotest.test_case "fixes the deadlock" `Quick test_ordering_fixes_deadlock;
          Alcotest.test_case "scales" `Quick test_order_complexity_scales;
          Alcotest.test_case "local search reaches the optimum" `Quick test_local_search_improves_to_optimum;
          Alcotest.test_case "local search budget" `Quick test_local_search_budget;
        ] );
      ( "order-conservative",
        [
          Alcotest.test_case "motivating live" `Quick test_conservative_motivating_live;
          Alcotest.test_case "canonical" `Quick test_conservative_canonical;
          Alcotest.test_case "random orders vary and reproduce" `Quick test_conservative_random_varies;
          Alcotest.test_case "constrained variant reproduces paper optimum" `Quick
            test_constrained_reproduces_paper_optimum;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "motivating exhaustive" `Quick test_oracle_motivating;
          Alcotest.test_case "limit enforced" `Quick test_oracle_limit;
          Alcotest.test_case "best system re-analyzes" `Quick test_oracle_best_system_reanalyzes;
          Alcotest.test_case "pp smoke" `Quick test_perf_pp_smoke;
        ] );
      ( "ilp-select",
        [
          Alcotest.test_case "timing: min area to target" `Quick test_timing_optimization_picks_needed;
          Alcotest.test_case "timing: no gain" `Quick test_timing_no_gain_possible;
          Alcotest.test_case "area: slack respected" `Quick test_area_recovery_respects_slack;
          Alcotest.test_case "area: tct filter" `Quick test_area_recovery_tct_filter;
        ] );
      ( "explore",
        [
          Alcotest.test_case "timing reaches target" `Quick test_explore_timing_reaches_target;
          Alcotest.test_case "area recovery shrinks" `Quick test_explore_area_recovery_shrinks;
          Alcotest.test_case "unreachable target" `Quick test_explore_unreachable_target;
          Alcotest.test_case "area budget (dual formulation)" `Quick test_explore_area_budget_dual;
          Alcotest.test_case "fifo channels" `Quick test_explore_with_fifo_channels;
          Alcotest.test_case "result simulates" `Quick test_explore_result_simulates;
          Alcotest.test_case "MPEG-2 at 150000" `Quick test_explore_mpeg2;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "basic" `Quick test_frontier_basic;
          Alcotest.test_case "ratio pick" `Quick test_frontier_ratio_pick;
        ] );
      ( "buffer-sizing",
        [
          Alcotest.test_case "motivating" `Quick test_buffer_sizing_motivating;
          Alcotest.test_case "unreachable target" `Quick test_buffer_sizing_unreachable;
        ] );
      ( "report",
        [
          Alcotest.test_case "markdown" `Quick test_report_markdown;
          Alcotest.test_case "deadlock diagnostic" `Quick test_report_deadlock;
        ] );
      ( "property",
        [
          prop_conservative_always_live;
          prop_constrained_always_live;
          prop_conservative_random_live;
          prop_apply_live_on_dags;
          prop_apply_safe_monotone;
          prop_algorithm_matches_oracle_on_small_dags;
          prop_explore_monotone_outcome;
          prop_latency_slack_exact;
          prop_local_search_monotone_and_closes_gap;
          prop_local_search_matches_unpruned "local search matches the unpruned search on fuzz cases"
            fuzz_design_gen;
          prop_local_search_matches_unpruned
            "local search matches the unpruned search on generated designs" generated_design_gen;
          prop_buffer_sizing_monotone;
        ] );
    ]
