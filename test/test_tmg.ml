module Tmg = Ermes_tmg.Tmg
module Liveness = Ermes_tmg.Liveness
module Csr = Ermes_tmg.Csr
module Cycles = Ermes_support.Cycles
module Scc = Ermes_support.Scc
module Token_game = Ermes_tmg.Token_game
module Firing = Ermes_tmg.Firing
module Ratio = Ermes_tmg.Ratio
module Digraph = Ermes_digraph.Digraph

let r = Helpers.ratio

(* A ring of [n] transitions with given delays and per-place tokens. *)
let ring delays tokens =
  let tmg = Tmg.create () in
  let ts = List.map (fun d -> Tmg.add_transition tmg ~delay:d ()) delays in
  let arr = Array.of_list ts in
  let n = Array.length arr in
  List.iteri
    (fun i tk -> ignore (Tmg.add_place tmg ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens:tk ()))
    tokens;
  tmg

let cycle_time_exn tmg =
  match Csr.cycle_time tmg with
  | Ok res -> res
  | Error (Csr.Deadlock _) -> Alcotest.fail "unexpected deadlock"
  | Error Csr.No_cycle -> Alcotest.fail "unexpected acyclic net"

(* ---- structure ---------------------------------------------------------- *)

let test_structure () =
  let tmg = Tmg.create () in
  let t1 = Tmg.add_transition tmg ~name:"a" ~delay:3 () in
  let t2 = Tmg.add_transition tmg ~delay:0 () in
  let p = Tmg.add_place tmg ~name:"p" ~src:t1 ~dst:t2 ~tokens:2 () in
  Alcotest.(check int) "transitions" 2 (Tmg.transition_count tmg);
  Alcotest.(check int) "places" 1 (Tmg.place_count tmg);
  Alcotest.(check string) "name" "a" (Tmg.transition_name tmg t1);
  Alcotest.(check int) "delay" 3 (Tmg.delay tmg t1);
  Alcotest.(check int) "tokens" 2 (Tmg.tokens tmg p);
  Alcotest.(check int) "src" t1 (Tmg.place_src tmg p);
  Alcotest.(check int) "dst" t2 (Tmg.place_dst tmg p);
  Alcotest.(check (list int)) "in places" [ p ] (Tmg.in_places tmg t2);
  Alcotest.(check (list int)) "out places" [ p ] (Tmg.out_places tmg t1);
  Tmg.set_tokens tmg p 0;
  Alcotest.(check int) "set_tokens" 0 (Tmg.tokens tmg p);
  Alcotest.(check int) "total tokens" 0 (Tmg.total_tokens tmg)

let test_invalid_args () =
  let tmg = Tmg.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Tmg.add_transition: negative delay") (fun () ->
      ignore (Tmg.add_transition tmg ~delay:(-1) ()));
  let t = Tmg.add_transition tmg ~delay:1 () in
  Alcotest.check_raises "negative marking"
    (Invalid_argument "Tmg.add_place: negative marking") (fun () ->
      ignore (Tmg.add_place tmg ~src:t ~dst:t ~tokens:(-1) ()))

let test_cycle_metrics () =
  let tmg = ring [ 2; 3 ] [ 1; 1 ] in
  let places = Tmg.places tmg in
  Alcotest.(check int) "cycle tokens" 2 (Tmg.cycle_tokens tmg places);
  Alcotest.(check int) "cycle delay" 5 (Tmg.cycle_delay tmg places);
  (match Tmg.cycle_ratio tmg places with
   | Some x -> Helpers.check_ratio "cycle ratio" (r 5 2) x
   | None -> Alcotest.fail "ratio");
  let dead = ring [ 2; 3 ] [ 0; 0 ] in
  Alcotest.(check bool) "token-free ratio" true (Tmg.cycle_ratio dead (Tmg.places dead) = None)

(* ---- liveness ----------------------------------------------------------- *)

let test_liveness () =
  Alcotest.(check bool) "live ring" true (Liveness.is_live (ring [ 1; 1 ] [ 1; 0 ]));
  Alcotest.(check bool) "dead ring" false (Liveness.is_live (ring [ 1; 1 ] [ 0; 0 ]));
  match Liveness.find_dead_cycle (ring [ 1; 1; 1 ] [ 0; 0; 0 ]) with
  | None -> Alcotest.fail "missed dead cycle"
  | Some dc ->
    Alcotest.(check int) "cycle length" 3 (List.length dc.Liveness.dead_transitions);
    Alcotest.(check int) "place count" 3 (List.length dc.Liveness.dead_places)

let test_dead_cycle_well_formed () =
  (* Two rings sharing a transition; only one is token-free. *)
  let tmg = Tmg.create () in
  let a = Tmg.add_transition tmg ~delay:1 () in
  let b = Tmg.add_transition tmg ~delay:1 () in
  let c = Tmg.add_transition tmg ~delay:1 () in
  ignore (Tmg.add_place tmg ~src:a ~dst:b ~tokens:1 ());
  ignore (Tmg.add_place tmg ~src:b ~dst:a ~tokens:1 ());
  let p1 = Tmg.add_place tmg ~src:b ~dst:c ~tokens:0 () in
  let p2 = Tmg.add_place tmg ~src:c ~dst:b ~tokens:0 () in
  match Liveness.find_dead_cycle tmg with
  | None -> Alcotest.fail "missed"
  | Some dc ->
    Alcotest.(check (list int)) "exact places" (List.sort compare [ p1; p2 ])
      (List.sort compare dc.Liveness.dead_places)

(* ---- Howard: closed-form cases ------------------------------------------ *)

let test_howard_single_selfloop () =
  let tmg = Tmg.create () in
  let t = Tmg.add_transition tmg ~delay:5 () in
  ignore (Tmg.add_place tmg ~src:t ~dst:t ~tokens:1 ());
  Helpers.check_ratio "self loop" (r 5 1) (cycle_time_exn tmg).Csr.cycle_time

let test_howard_ring () =
  Helpers.check_ratio "2-ring 2 tokens" (r 5 2)
    (cycle_time_exn (ring [ 2; 3 ] [ 1; 1 ])).Csr.cycle_time;
  Helpers.check_ratio "2-ring 1 token" (r 5 1)
    (cycle_time_exn (ring [ 2; 3 ] [ 1; 0 ])).Csr.cycle_time;
  Helpers.check_ratio "3-ring" (r 6 2)
    (cycle_time_exn (ring [ 1; 2; 3 ] [ 1; 1; 0 ])).Csr.cycle_time

let test_howard_nested () =
  (* Inner self-loop slower than the outer ring. *)
  let tmg = ring [ 1; 10 ] [ 1; 1 ] in
  ignore (Tmg.add_place tmg ~src:1 ~dst:1 ~tokens:1 ());
  Helpers.check_ratio "max of cycles" (r 10 1) (cycle_time_exn tmg).Csr.cycle_time

let test_howard_deadlock () =
  match Csr.cycle_time (ring [ 1; 1 ] [ 0; 0 ]) with
  | Error (Csr.Deadlock _) -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_howard_acyclic () =
  let tmg = Tmg.create () in
  let a = Tmg.add_transition tmg ~delay:1 () in
  let b = Tmg.add_transition tmg ~delay:1 () in
  ignore (Tmg.add_place tmg ~src:a ~dst:b ~tokens:0 ());
  match Csr.cycle_time tmg with
  | Error Csr.No_cycle -> ()
  | _ -> Alcotest.fail "expected No_cycle"

let test_howard_disconnected_components () =
  (* Two independent rings: the slower one dominates. *)
  let tmg = Tmg.create () in
  let a = Tmg.add_transition tmg ~delay:2 () in
  let b = Tmg.add_transition tmg ~delay:9 () in
  ignore (Tmg.add_place tmg ~src:a ~dst:a ~tokens:1 ());
  ignore (Tmg.add_place tmg ~src:b ~dst:b ~tokens:1 ());
  Helpers.check_ratio "worst component" (r 9 1) (cycle_time_exn tmg).Csr.cycle_time

let test_howard_critical_cycle_consistent () =
  let tmg = ring [ 4; 5; 6 ] [ 1; 0; 1 ] in
  let res = cycle_time_exn tmg in
  (* The reported critical cycle must itself achieve the reported ratio. *)
  match Tmg.cycle_ratio tmg res.Csr.critical_places with
  | Some x -> Helpers.check_ratio "witness achieves ct" res.Csr.cycle_time x
  | None -> Alcotest.fail "token-free witness"

let test_howard_parallel_places () =
  (* Two parallel places between the same transitions with different
     markings: the scarcer one dominates. *)
  let tmg = Tmg.create () in
  let a = Tmg.add_transition tmg ~delay:3 () in
  let b = Tmg.add_transition tmg ~delay:4 () in
  ignore (Tmg.add_place tmg ~src:a ~dst:b ~tokens:2 ());
  ignore (Tmg.add_place tmg ~src:a ~dst:b ~tokens:1 ());
  ignore (Tmg.add_place tmg ~src:b ~dst:a ~tokens:0 ());
  Helpers.check_ratio "parallel places" (r 7 1) (cycle_time_exn tmg).Csr.cycle_time

(* ---- properties: Howard vs oracles -------------------------------------- *)

let prop_howard_vs_brute =
  Helpers.qtest ~count:300 "Howard equals exhaustive enumeration"
    Helpers.live_tmg_arbitrary (fun tmg ->
      match (Csr.cycle_time tmg, Cycles.max_cycle_ratio_brute tmg) with
      | Ok res, Some (best, _) -> Ratio.equal res.Csr.cycle_time best
      | Error Csr.No_cycle, None -> true
      | _ -> false)

let prop_howard_witness =
  Helpers.qtest ~count:300 "Howard's critical cycle achieves its cycle time"
    Helpers.live_tmg_arbitrary (fun tmg ->
      match Csr.cycle_time tmg with
      | Ok res -> (
        match Tmg.cycle_ratio tmg res.Csr.critical_places with
        | Some x -> Ratio.equal x res.Csr.cycle_time
        | None -> false)
      | Error Csr.No_cycle -> true
      | Error (Csr.Deadlock _) -> false)

let prop_howard_vs_karp_unit_tokens =
  (* On all-one-token rings plus chords, the max cycle ratio is a max cycle
     mean, where Karp is exact. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 7 in
      let* extra = int_range 0 6 in
      let* delays = list_repeat n (int_range 0 9) in
      let* chords = list_repeat extra (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (delays, chords))
  in
  Helpers.qtest ~count:300 "Howard equals Karp on unit-token nets" gen
    (fun (delays, chords) ->
      let tmg = Tmg.create () in
      let ts = List.map (fun d -> Tmg.add_transition tmg ~delay:d ()) delays in
      let arr = Array.of_list ts in
      let n = Array.length arr in
      Array.iteri
        (fun i _ -> ignore (Tmg.add_place tmg ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens:1 ()))
        arr;
      List.iter
        (fun (s, d) -> ignore (Tmg.add_place tmg ~src:arr.(s) ~dst:arr.(d) ~tokens:1 ()))
        chords;
      match (Csr.cycle_time tmg, Csr.karp_unit (Csr.of_tmg tmg)) with
      | Ok res, Some mean -> Ratio.equal res.Csr.cycle_time mean
      | _ -> false)

let prop_lawler_matches_howard =
  Helpers.qtest ~count:200 "Lawler's binary search equals Howard"
    Helpers.live_tmg_arbitrary (fun tmg ->
      match (Csr.cycle_time tmg, Csr.lawler_certified (Csr.of_tmg tmg)) with
      | Ok h, Ok (l, witness, _) ->
        Ratio.equal h.Csr.cycle_time l
        && (match Tmg.cycle_ratio tmg witness with
            | Some r -> Ratio.equal r l
            | None -> false)
      | Error Csr.No_cycle, Error Csr.No_cycle -> true
      | _ -> false)

let test_lawler_units () =
  let lawler tmg = Csr.lawler_certified (Csr.of_tmg tmg) in
  (match lawler (ring [ 2; 3 ] [ 1; 1 ]) with
   | Ok (r', _, _) -> Helpers.check_ratio "ring" (r 5 2) r'
   | Error _ -> Alcotest.fail "ring failed");
  (match lawler (ring [ 1; 1 ] [ 0; 0 ]) with
   | Error (Csr.Deadlock _) -> ()
   | _ -> Alcotest.fail "deadlock missed");
  let tmg = Tmg.create () in
  let a = Tmg.add_transition tmg ~delay:1 () in
  let b = Tmg.add_transition tmg ~delay:1 () in
  ignore (Tmg.add_place tmg ~src:a ~dst:b ~tokens:1 ());
  match lawler tmg with
  | Error Csr.No_cycle -> ()
  | _ -> Alcotest.fail "acyclic missed"

let prop_firing_matches_howard =
  Helpers.qtest ~count:150 "max-plus firing rate equals the analytic cycle time"
    Helpers.live_tmg_arbitrary (fun tmg ->
      match Csr.cycle_time tmg with
      | Error Csr.No_cycle -> true
      | Error (Csr.Deadlock _) -> false
      | Ok res ->
        if not (Scc.is_strongly_connected (Tmg.graph tmg)) then true
        else begin
          match Firing.measured_cycle_time tmg ~rounds:200 with
          | Some measured -> Ratio.equal measured res.Csr.cycle_time
          | None -> false
        end)

let prop_token_invariance =
  (* Firing conservation: along any cycle the token count is invariant; check
     it through the earliest-firing schedule by verifying the schedule is
     non-decreasing and respects place dependencies. *)
  Helpers.qtest ~count:150 "firing times respect every place dependency"
    Helpers.live_tmg_arbitrary (fun tmg ->
      let rounds = 40 in
      let x = Firing.firing_times tmg ~rounds in
      List.for_all
        (fun p ->
          let s = Tmg.place_src tmg p and d = Tmg.place_dst tmg p in
          let m = Tmg.tokens tmg p in
          List.for_all
            (fun k ->
              let avail = if k - m <= 0 then 0 else x.(s).(k - m - 1) in
              x.(d).(k - 1) >= avail + Tmg.delay tmg d)
            (List.init rounds (fun i -> i + 1)))
        (Tmg.places tmg))

(* ---- Karp --------------------------------------------------------------- *)

let test_karp_simple () =
  (* A self-loop on t0 (mean 6) beside the t0 <-> t1 ring (mean (6+2)/2). *)
  let tmg = ring [ 6; 2 ] [ 1; 1 ] in
  ignore (Tmg.add_place tmg ~src:0 ~dst:0 ~tokens:1 ());
  (match Csr.karp_unit (Csr.of_tmg tmg) with
   | Some m -> Helpers.check_ratio "max mean" (r 6 1) m
   | None -> Alcotest.fail "no cycle");
  let dag = Tmg.create () in
  let a = Tmg.add_transition dag ~delay:3 () and b = Tmg.add_transition dag ~delay:5 () in
  ignore (Tmg.add_place dag ~src:a ~dst:b ~tokens:1 ());
  Alcotest.(check bool) "acyclic" true (Csr.karp_unit (Csr.of_tmg dag) = None)

let test_karp_requires_unit_tokens () =
  let tmg = ring [ 1; 1 ] [ 1; 2 ] in
  Alcotest.check_raises "non-unit tokens"
    (Invalid_argument "Csr.karp_unit: every place must hold exactly one token")
    (fun () -> ignore (Csr.karp_unit (Csr.of_tmg tmg)))

(* ---- cycle enumeration --------------------------------------------------- *)

let complete_digraph n =
  let g = Digraph.create () in
  for _ = 1 to n do
    ignore (Digraph.add_vertex g ())
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then ignore (Digraph.add_arc g ~src:i ~dst:j ())
    done
  done;
  g

let test_johnson_counts () =
  (* Complete digraph on n vertices has sum_{k=2..n} C(n,k)(k-1)! cycles. *)
  Alcotest.(check int) "K2" 1 (Cycles.count (complete_digraph 2));
  Alcotest.(check int) "K3" 5 (Cycles.count (complete_digraph 3));
  Alcotest.(check int) "K4" 20 (Cycles.count (complete_digraph 4));
  Alcotest.(check int) "K5" 84 (Cycles.count (complete_digraph 5))

let test_johnson_self_loops_and_parallels () =
  let g = Digraph.create () in
  let a = Digraph.add_vertex g () and b = Digraph.add_vertex g () in
  ignore (Digraph.add_arc g ~src:a ~dst:a ());
  ignore (Digraph.add_arc g ~src:a ~dst:b ());
  ignore (Digraph.add_arc g ~src:a ~dst:b ());
  ignore (Digraph.add_arc g ~src:b ~dst:a ());
  (* self-loop + two parallel 2-cycles. *)
  Alcotest.(check int) "cycles" 3 (Cycles.count g)

let test_johnson_limit () =
  Alcotest.check_raises "limit" (Cycles.Too_many_cycles 10) (fun () ->
      ignore (Cycles.elementary_cycles ~limit:10 (complete_digraph 5)))

let prop_johnson_cycles_are_cycles =
  Helpers.qtest ~count:200 "every enumerated cycle is elementary and closed"
    Helpers.live_tmg_arbitrary (fun tmg ->
      let g = Tmg.graph tmg in
      List.for_all
        (fun arcs ->
          arcs <> []
          &&
          let vs = List.map (Digraph.arc_src g) arcs in
          let closed =
            List.for_all2
              (fun a next_v -> Digraph.arc_dst g a = next_v)
              arcs
              (List.tl vs @ [ List.hd vs ])
          in
          closed && List.length (List.sort_uniq compare vs) = List.length vs)
        (Cycles.elementary_cycles g))

(* ---- token game (paper SS3 structural facts) ------------------------------- *)

let test_token_game_basics () =
  (* Place 0 is t0->t1 with one token: t1 can fire, t0 (fed by the empty
     place 1) cannot. *)
  let tmg = ring [ 1; 1 ] [ 1; 0 ] in
  let g = Token_game.start tmg in
  Alcotest.(check bool) "t1 enabled" true (Token_game.enabled g 1);
  Alcotest.(check bool) "t0 disabled" false (Token_game.enabled g 0);
  Alcotest.check_raises "firing disabled raises"
    (Invalid_argument "Token_game.fire: t0 is not enabled") (fun () -> Token_game.fire g 0);
  Token_game.fire g 1;
  Alcotest.(check (list int)) "tokens moved" [ 0; 1 ] (Array.to_list (Token_game.marking g));
  Alcotest.(check bool) "now t0" true (Token_game.enabled g 0);
  Token_game.fire g 0;
  Alcotest.(check bool) "back to M0" true (Token_game.at_initial_marking g);
  Alcotest.(check (list int)) "each fired once" [ 1; 1 ]
    (Array.to_list (Token_game.fire_counts g));
  (* The net's own stored marking is untouched. *)
  Alcotest.(check int) "net marking intact" 1 (Tmg.tokens tmg 0)

let test_token_game_dead_marking () =
  let g = Token_game.start (ring [ 1; 1 ] [ 0; 0 ]) in
  Alcotest.(check bool) "nothing enabled" true (Token_game.fire_any g = None)

let cycle_tokens_under marking places = List.fold_left (fun acc p -> acc + marking.(p)) 0 places

let prop_cycle_token_invariance =
  (* Paper SS3: the token count of every cycle is invariant under any firing
     sequence. *)
  Helpers.qtest ~count:200 "cycle token counts are firing-invariant"
    QCheck2.Gen.(pair Helpers.live_tmg_arbitrary (list_repeat 60 (int_range 0 1000)))
    (fun (tmg, draws) ->
      let cycles = Cycles.elementary_cycles (Tmg.graph tmg) in
      let g = Token_game.start tmg in
      let before = List.map (cycle_tokens_under (Token_game.marking g)) cycles in
      (* A randomized firing sequence driven by the draws. *)
      List.iter
        (fun d ->
          match Token_game.enabled_transitions g with
          | [] -> ()
          | ts -> Token_game.fire g (List.nth ts (d mod List.length ts)))
        draws;
      let after = List.map (cycle_tokens_under (Token_game.marking g)) cycles in
      before = after)

let prop_round_returns_to_marking =
  (* Paper SS3: for strongly connected nets, firing every transition an equal
     number of times reproduces the initial marking. *)
  Helpers.qtest ~count:200 "one full round reproduces the marking"
    Helpers.live_tmg_arbitrary (fun tmg ->
      let g = Token_game.start tmg in
      if Token_game.run_round g then
        Token_game.at_initial_marking g
        && Array.for_all (( = ) 1) (Token_game.fire_counts g)
      else
        (* A live net always completes a round: getting stuck would
           contradict liveness (some transition could never fire again). *)
        false)

(* ---- firing ------------------------------------------------------------- *)

let test_firing_ring () =
  let tmg = ring [ 2; 3 ] [ 1; 1 ] in
  let x = Firing.firing_times tmg ~rounds:4 in
  (* t0 fires at 2, t1 at 3 in round 1 (both enabled at time 0). *)
  Alcotest.(check int) "t0 round 1" 2 x.(0).(0);
  Alcotest.(check int) "t1 round 1" 3 x.(1).(0);
  (* Round 2: t0 waits for t1's first token: 3 + 2 = 5. *)
  Alcotest.(check int) "t0 round 2" 5 x.(0).(1);
  Alcotest.(check int) "t1 round 2" 5 x.(1).(1)

let test_firing_rejects_dead () =
  Alcotest.check_raises "not live" (Invalid_argument "Firing: net is not live (token-free cycle)")
    (fun () -> ignore (Firing.firing_times (ring [ 1; 1 ] [ 0; 0 ]) ~rounds:2))

let test_firing_zero_delay_chain () =
  (* Zero-delay transitions complete within the same instant, in dependency
     order. *)
  let tmg = ring [ 0; 0; 1 ] [ 1; 0; 0 ] in
  match Firing.measured_cycle_time tmg ~rounds:30 with
  | Some m -> Helpers.check_ratio "rate" (r 1 1) m
  | None -> Alcotest.fail "no period"

let () =
  Alcotest.run "tmg"
    [
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_structure;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "cycle metrics" `Quick test_cycle_metrics;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "live/dead rings" `Quick test_liveness;
          Alcotest.test_case "exact dead cycle" `Quick test_dead_cycle_well_formed;
        ] );
      ( "howard",
        [
          Alcotest.test_case "self loop" `Quick test_howard_single_selfloop;
          Alcotest.test_case "rings" `Quick test_howard_ring;
          Alcotest.test_case "nested cycles" `Quick test_howard_nested;
          Alcotest.test_case "deadlock" `Quick test_howard_deadlock;
          Alcotest.test_case "acyclic" `Quick test_howard_acyclic;
          Alcotest.test_case "disconnected" `Quick test_howard_disconnected_components;
          Alcotest.test_case "critical cycle consistent" `Quick test_howard_critical_cycle_consistent;
          Alcotest.test_case "parallel places" `Quick test_howard_parallel_places;
        ] );
      ( "lawler", [ Alcotest.test_case "units" `Quick test_lawler_units ] );
      ( "karp",
        [
          Alcotest.test_case "simple" `Quick test_karp_simple;
          Alcotest.test_case "unit tokens required" `Quick test_karp_requires_unit_tokens;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "complete digraph counts" `Quick test_johnson_counts;
          Alcotest.test_case "self loops and parallels" `Quick test_johnson_self_loops_and_parallels;
          Alcotest.test_case "limit" `Quick test_johnson_limit;
        ] );
      ( "token-game",
        [
          Alcotest.test_case "basics" `Quick test_token_game_basics;
          Alcotest.test_case "dead marking" `Quick test_token_game_dead_marking;
        ] );
      ( "firing",
        [
          Alcotest.test_case "ring schedule" `Quick test_firing_ring;
          Alcotest.test_case "rejects dead nets" `Quick test_firing_rejects_dead;
          Alcotest.test_case "zero-delay chain" `Quick test_firing_zero_delay_chain;
        ] );
      ( "property",
        [
          prop_howard_vs_brute;
          prop_howard_witness;
          prop_howard_vs_karp_unit_tokens;
          prop_lawler_matches_howard;
          prop_firing_matches_howard;
          prop_token_invariance;
          prop_johnson_cycles_are_cycles;
          prop_cycle_token_invariance;
          prop_round_returns_to_marking;
        ] );
    ]
