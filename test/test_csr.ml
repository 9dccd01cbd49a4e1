(* The flat CSR core held to independent references.

   Howard's policy iteration is the production solver. Its exact ratio and
   verdict must match Lawler's binary search and, on these small nets, the
   enumeration of every elementary cycle (Johnson's algorithm, {!Cycles}) —
   algorithms that share no code with it beyond the freeze — and its
   deadlock verdicts must match the pointer {!Liveness}. Karp's value and
   its certified form must agree with enumeration too. Every certificate
   the core assembles must pass the one checker, [Verify.check_csr], on a
   fresh freeze. The checker's trust in that freeze rests on two more
   groups: freeze/thaw must round-trip through every accessor, and the
   pointer {!Liveness} must reproduce [Csr.live_ranks] bit for bit. The
   iterative SCC must take a 10^5-vertex path graph in stride where the old
   recursive walk blew the OCaml stack. The exact certification starts from
   Howard's own values, so chained rings of different ratios hold cold and
   warm answers and certificates to enumeration and the checker, and a mesh
   SoC holds the certification to one scan per transition. Finally, one
   digest per family pins every answer Howard gives on a fixed corpus,
   iteration counts and potentials included. *)

module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio
module Liveness = Ermes_tmg.Liveness
module Cycles = Ermes_support.Cycles
module Csr = Ermes_tmg.Csr
module Generate = Ermes_synth.Generate
module To_tmg = Ermes_slm.To_tmg
module Verify = Ermes_verify.Verify
module Obs = Ermes_obs.Obs

(* Add a ring through fresh transitions, plus chord places between them,
   to [tmg]; returns the ring's transitions. *)
let add_ring tmg (delays, ring_tokens, chords) =
  let arr = Array.of_list (List.map (fun d -> Tmg.add_transition tmg ~delay:d ()) delays) in
  let n = Array.length arr in
  List.iteri
    (fun i tokens ->
      ignore (Tmg.add_place tmg ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens ()))
    ring_tokens;
  List.iter
    (fun (s, d, tokens) -> ignore (Tmg.add_place tmg ~src:arr.(s) ~dst:arr.(d) ~tokens ()))
    chords;
  arr

(* Like Helpers.build_tmg but without the make-it-live fixup: deadlocked
   markings stay deadlocked, so the Deadlock path is compared too. *)
let build_raw_tmg spec =
  let tmg = Tmg.create () in
  ignore (add_ring tmg spec);
  tmg

let raw_tmg_gen = QCheck2.Gen.map build_raw_tmg Helpers.random_tmg_gen

(* A unit-token variant for Karp, which requires exactly one token per
   place. Always live (every cycle carries tokens). *)
let unit_tmg_gen =
  QCheck2.Gen.map
    (fun (delays, ring_tokens, chords) ->
      build_raw_tmg
        ( delays,
          List.map (fun _ -> 1) ring_tokens,
          List.map (fun (s, d, _) -> (s, d, 1)) chords ))
    Helpers.random_tmg_gen

(* 1-4 live rings chained by token-free one-way bridges (ring i to ring
   i+1), plus one delay edit. Each ring is its own SCC with its own ratio,
   so Howard's values come from different ratios, and delays up to 10^6
   with tokens up to 10^3 keep -q*x from rounding exactly. *)
let rings_gen =
  QCheck2.Gen.(
    let ring =
      let* k = int_range 1 4 in
      let* delays = list_repeat k (int_range 0 1_000_000) in
      let* tokens = list_repeat k (int_range 0 1_000) in
      let* chords =
        list_size (int_range 0 3)
          (triple (int_range 0 (k - 1)) (int_range 0 (k - 1)) (int_range 0 1_000))
      in
      return (delays, tokens, chords)
    in
    let* rings = list_size (int_range 1 4) ring in
    let* bridges = list_repeat (List.length rings - 1) (pair nat nat) in
    let* edit = pair nat (int_range 0 1_000_000) in
    return (rings, bridges, edit))

let build_rings (rings, bridges, _) =
  let tmg = Tmg.create () in
  let ts = Array.of_list (List.map (add_ring tmg) rings) in
  List.iteri
    (fun i (a, b) ->
      let from = ts.(i) and into = ts.(i + 1) in
      ignore
        (Tmg.add_place tmg
           ~src:from.(a mod Array.length from)
           ~dst:into.(b mod Array.length into)
           ~tokens:0 ()))
    bridges;
  Helpers.make_live tmg;
  tmg

let fail fmt = Format.kasprintf (fun s -> Alcotest.failf "%s" s) fmt

(* ---- Howard against Lawler, enumeration and Liveness -------------------- *)

let same_dead (a : Liveness.dead_cycle) (b : Liveness.dead_cycle) =
  a.Liveness.dead_places = b.Liveness.dead_places
  && a.Liveness.dead_transitions = b.Liveness.dead_transitions

let lawler tmg = Csr.lawler_certified (Csr.of_tmg tmg)

let prop_howard_exact tmg =
  let howard = Csr.cycle_time tmg in
  (match (howard, lawler tmg) with
  | Ok h, Ok (l, _, _) ->
    if not (Ratio.equal h.Csr.cycle_time l) then
      fail "howard %a, lawler %a" Ratio.pp h.Csr.cycle_time Ratio.pp l
  | Error (Csr.Deadlock _), Error (Csr.Deadlock _) -> ()
  | Error Csr.No_cycle, Error Csr.No_cycle -> ()
  | _ -> fail "howard and lawler verdicts differ");
  (match (howard, Liveness.find_dead_cycle tmg) with
  | Error (Csr.Deadlock _), Some _ -> ()
  | Error (Csr.Deadlock _), None | (Ok _ | Error Csr.No_cycle), Some _ ->
    fail "howard's deadlock verdict differs from Liveness"
  | (Ok _ | Error Csr.No_cycle), None -> (
    (* Enumeration is ground truth on live nets only: a token-free cycle
       has no ratio. *)
    match (howard, Cycles.max_cycle_ratio_brute tmg) with
    | Ok h, Some (b, _) ->
      if not (Ratio.equal h.Csr.cycle_time b) then
        fail "howard %a, enumeration %a" Ratio.pp h.Csr.cycle_time Ratio.pp b
    | Error Csr.No_cycle, None -> ()
    | _ -> fail "howard and enumeration verdicts differ"));
  true

(* Cold and warm solves over several SCCs: the cold answer is the
   enumerated one, a warm re-solve after a delay edit is the cold answer of
   the edited net, and the checker accepts both certificates. *)
let prop_rings_cold_warm ((_, _, (edit_t, edit_d)) as spec) =
  let tmg = build_rings spec in
  let ratio label = function
    | Ok r -> r.Csr.cycle_time
    | Error _ -> fail "%s: chained live rings have a cycle time" label
  in
  let accepted label solved =
    let fresh = Csr.of_tmg tmg in
    match Verify.check_csr fresh (Verify.of_howard_csr fresh solved) with
    | Ok () -> ()
    | Error v -> fail "%s certificate rejected: %a" label Verify.pp_violation v
  in
  let solver = Csr.make_solver tmg in
  let cold = Csr.solve solver in
  (match Cycles.max_cycle_ratio_brute tmg with
  | Some (b, _) when Ratio.equal b (ratio "cold" cold) -> ()
  | _ -> fail "cold %a disagrees with enumeration" Ratio.pp (ratio "cold" cold));
  accepted "cold" cold;
  Tmg.set_delay tmg (edit_t mod Tmg.transition_count tmg) edit_d;
  let warm = Csr.solve solver in
  let fresh = ratio "fresh" (Csr.cycle_time tmg) in
  if not (Ratio.equal (ratio "warm" warm) fresh) then
    fail "warm %a, cold %a after the edit" Ratio.pp (ratio "warm" warm) Ratio.pp fresh;
  accepted "warm" warm;
  true

(* ---- Karp / Lawler / ranks against the references ----------------------- *)

let prop_karp_equal tmg =
  let g = Csr.of_tmg tmg in
  (match (Csr.karp_unit g, Csr.karp_unit_certified g, Cycles.max_cycle_ratio_brute tmg) with
  | None, Error Csr.No_cycle, None -> ()
  | Some k, Ok (kc, witness, _), Some (b, _) ->
    if not (Ratio.equal k kc && Ratio.equal k b) then
      fail "karp %a, certified %a, enumeration %a" Ratio.pp k Ratio.pp kc Ratio.pp b;
    (match Tmg.cycle_ratio tmg witness with
    | Some w when Ratio.equal w k -> ()
    | _ -> fail "karp witness does not attain the mean")
  | _ -> fail "karp verdicts differ");
  true

let prop_lawler_equal tmg =
  (match (lawler tmg, Liveness.live_ranks tmg) with
  | Error (Csr.Deadlock a), Error b ->
    if not (same_dead a b) then fail "dead cycles differ"
  | Error (Csr.Deadlock _), Ok _ | (Ok _ | Error Csr.No_cycle), Error _ ->
    fail "lawler's deadlock verdict differs from Liveness"
  | Ok (l, witness, _), Ok _ -> (
    (match Tmg.cycle_ratio tmg witness with
    | Some w when Ratio.equal w l -> ()
    | _ -> fail "lawler witness does not attain its ratio");
    match Cycles.max_cycle_ratio_brute tmg with
    | Some (b, _) when Ratio.equal b l -> ()
    | _ -> fail "lawler %a disagrees with enumeration" Ratio.pp l)
  | Error Csr.No_cycle, Ok _ ->
    if Cycles.max_cycle_ratio_brute tmg <> None then
      fail "lawler finds no cycle, enumeration does");
  true

let prop_live_ranks_equal tmg =
  let g = Csr.of_tmg tmg in
  (match (Liveness.live_ranks tmg, Csr.live_ranks g) with
  | Ok a, Ok b -> if a <> b then fail "rank vectors differ"
  | Error a, Error b -> if not (same_dead a b) then fail "dead cycles differ"
  | _ -> fail "liveness verdicts differ");
  true

(* ---- every certificate passes the one checker ---------------------------- *)

let prop_certificates_accepted tmg =
  let fresh = Csr.of_tmg tmg in
  List.iter
    (fun (label, cert) ->
      match Verify.check_csr fresh cert with
      | Ok () -> ()
      | Error v -> fail "%s certificate rejected: %a" label Verify.pp_violation v)
    [
      ("howard", Verify.of_howard_csr fresh (Csr.cycle_time tmg));
      ("lawler", Verify.of_certified fresh (lawler tmg));
      ("liveness", Verify.of_liveness tmg);
    ];
  true

(* Howard's converged values seed the certification, so a 20x20 mesh SoC
   (1,224 transitions) certifies in at most one scan per transition, cold
   and warm after a delay edit on its critical cycle. Started from all-zero
   potentials, the cold certification dequeued 44,062 vertices. The scans
   are counted, not timed. *)
let test_mesh_certify_scans () =
  let tmg = (To_tmg.build (Generate.mesh_system ~seed:1 ~rows:20 ~cols:20 ())).To_tmg.tmg in
  let n = Tmg.transition_count tmg in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let solver = Csr.make_solver tmg in
  let solve_counted label expected =
    let before = Obs.counter "csr.certify.scans" in
    let r =
      match Csr.solve solver with
      | Ok r -> r
      | Error _ -> fail "%s: the mesh is live and cyclic" label
    in
    Helpers.check_ratio label expected r.Csr.cycle_time;
    let scans = Obs.counter "csr.certify.scans" - before in
    if scans > n then fail "%s: %d certification scans for %d transitions" label scans n;
    r
  in
  let cold = solve_counted "cold" (Ratio.make 305 1) in
  let t = List.hd cold.Csr.critical_transitions in
  Tmg.set_delay tmg t (Tmg.delay tmg t + 7);
  match Csr.cycle_time tmg with
  | Ok fresh -> ignore (solve_counted "warm" fresh.Csr.cycle_time)
  | Error _ -> fail "the edited mesh is live and cyclic"

(* ---- Howard's answers, pinned ------------------------------------------- *)

(* Every answer Howard gives on a fixed corpus, folded into one digest per
   family: the ratio, both iteration counts, the witness and the
   potentials of a cold solve, and of a warm re-solve after each of five
   seeded delay or rewire edits. The properties above check only what the
   equivalence contract promises; these digests also pin the trajectory
   (rounds, tie-breaks, the reported cycle, Howard's values through the
   seeded potentials), so a rework of the solver's internals that claims
   bit-identical answers is held to it. A rewire moves a place between
   random endpoints, which merges and splits components, and on the random
   nets may leave the net deadlocked or acyclic; those verdicts are folded
   in too. *)

module Prng = Ermes_synth.Prng

let fold_answer b answer =
  let one = Buffer.create 256 in
  let places ps = String.concat "," (List.map string_of_int ps) in
  (match answer with
  | Ok r ->
    Printf.bprintf one "ok %s %d %d [%s] [" (Ratio.to_string r.Csr.cycle_time)
      r.Csr.howard_iterations r.Csr.cancel_iterations (places r.Csr.critical_places);
    Array.iter (Printf.bprintf one "%d,") r.Csr.potentials;
    Buffer.add_char one ']'
  | Error (Csr.Deadlock d) ->
    Printf.bprintf one "deadlock [%s]" (places d.Liveness.dead_places)
  | Error Csr.No_cycle -> Buffer.add_string one "no-cycle");
  Buffer.add_string b (Digest.to_hex (Digest.string (Buffer.contents one)))

(* A cold solve of [tmg], then five edits each followed by a warm solve of
   the same solver. A rewired place gets [lo_tokens..2] tokens: at 1 it
   cannot close a token-free cycle, so the large families stay live. *)
let solve_edited b rng ~lo_tokens ~max_delay tmg =
  let solver = Csr.make_solver tmg in
  fold_answer b (Csr.solve solver);
  for _ = 1 to 5 do
    let n = Tmg.transition_count tmg and m = Tmg.place_count tmg in
    let pick k = Prng.int_range rng ~lo:0 ~hi:(k - 1) in
    (if Prng.bool_with rng ~probability:0.5 then begin
       let delay = Prng.int_range rng ~lo:0 ~hi:max_delay in
       let t = pick n in
       Tmg.set_delay tmg t delay
     end
     else
       let p = pick m in
       let tokens = Prng.int_range rng ~lo:lo_tokens ~hi:2 in
       let dst = pick n in
       let src = pick n in
       Tmg.rewire_place tmg p ~src ~dst ~tokens ());
    fold_answer b (Csr.solve solver)
  done

(* Ring-plus-chords nets of 2-40 transitions; the delay range varies from
   net to net so that some rounds are decided by ties and some by large,
   inexact ratios. *)
let random_net rng =
  let n = Prng.int_range rng ~lo:2 ~hi:40 in
  let max_delay = Prng.pick rng [ 9; 1_000; 1_000_000 ] in
  let delay () = Prng.int_range rng ~lo:0 ~hi:max_delay in
  let tokens () = Prng.int_range rng ~lo:0 ~hi:2 in
  let chords =
    List.init (Prng.int_range rng ~lo:0 ~hi:(2 * n)) (fun _ ->
        let s = Prng.int_range rng ~lo:0 ~hi:(n - 1) in
        let t = tokens () in
        let d = Prng.int_range rng ~lo:0 ~hi:(n - 1) in
        (s, d, t))
  in
  let ring_tokens = List.init n (fun _ -> tokens ()) in
  let delays = List.init n (fun _ -> delay ()) in
  (Helpers.build_tmg (delays, ring_tokens, chords), max_delay)

let mesh side =
  (To_tmg.build (Generate.mesh_system ~seed:1 ~rows:side ~cols:side ())).To_tmg.tmg

let scaled (processes, channels) =
  (To_tmg.build (Generate.scaled ~processes ~channels ())).To_tmg.tmg

let pinned_families =
  [
    ( "random nets",
      "805e836f15a4e35a4695a5691a3ac712",
      fun b ->
        let rng = Prng.create ~seed:2026 in
        for _ = 1 to 400 do
          let tmg, max_delay = random_net rng in
          solve_edited b rng ~lo_tokens:0 ~max_delay tmg
        done );
    ( "100x100 torus",
      "ab7c1eb91dc36edbf6b73a340fca7baf",
      fun b ->
        solve_edited b (Prng.create ~seed:1) ~lo_tokens:1 ~max_delay:200
          (Generate.torus_tmg ~rows:100 ~cols:100 ()) );
    ( "clusters",
      "648ad9865452851a7c201bc85207777f",
      fun b ->
        let rng = Prng.create ~seed:2 in
        List.iter
          (fun (clusters, cluster_size) ->
            solve_edited b rng ~lo_tokens:1 ~max_delay:200
              (Generate.clusters_tmg ~seed:clusters ~clusters ~cluster_size ()))
          [ (10, 10); (40, 25); (100, 30) ] );
    ( "meshes",
      "aeb8e2e942eebe59cccd3bfa2b675e14",
      fun b ->
        let rng = Prng.create ~seed:3 in
        List.iter
          (fun side -> solve_edited b rng ~lo_tokens:1 ~max_delay:3_000 (mesh side))
          [ 20; 58; 100 ] );
    ( "scaled designs",
      "40bcd38ce95e404eadc8448e1373f216",
      fun b ->
        let rng = Prng.create ~seed:4 in
        List.iter
          (fun size -> solve_edited b rng ~lo_tokens:1 ~max_delay:6_000 (scaled size))
          [ (26, 60); (100, 150); (300, 450); (1000, 1500) ] );
  ]

let test_pinned (family, expected, run) () =
  let b = Buffer.create 4096 in
  run b;
  Alcotest.(check string) family expected (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- freeze / thaw round-trip ------------------------------------------- *)

let prop_round_trip tmg =
  let g = Csr.of_tmg tmg in
  let tmg' = Csr.to_tmg g in
  let n = Tmg.transition_count tmg and m = Tmg.place_count tmg in
  if Tmg.transition_count tmg' <> n then fail "transition count differs";
  if Tmg.place_count tmg' <> m then fail "place count differs";
  for v = 0 to n - 1 do
    if Tmg.delay tmg' v <> Tmg.delay tmg v then fail "delay differs at %d" v;
    if Tmg.transition_name tmg' v <> Tmg.transition_name tmg v then
      fail "transition name differs at %d" v
  done;
  for p = 0 to m - 1 do
    if Tmg.place_src tmg' p <> Tmg.place_src tmg p then fail "src differs at %d" p;
    if Tmg.place_dst tmg' p <> Tmg.place_dst tmg p then fail "dst differs at %d" p;
    if Tmg.tokens tmg' p <> Tmg.tokens tmg p then fail "tokens differ at %d" p;
    if Tmg.place_name tmg' p <> Tmg.place_name tmg p then
      fail "place name differs at %d" p
  done;
  (* Re-freezing the thawed net reproduces the arrays exactly. *)
  if Csr.of_tmg tmg' <> g then fail "re-freeze differs";
  true

(* ---- deep graphs: the iterative SCC and rank walks ---------------------- *)

(* A 10^5-transition path graph. The old recursive Tarjan overflowed the
   OCaml stack around depth ~10^4; the CSR core must return 10^5 singleton
   components and an Acyclic verdict. *)
let test_path_stress () =
  let n = 100_000 in
  let tmg = Tmg.create () in
  let ts = Array.init n (fun _ -> Tmg.add_transition tmg ~delay:1 ()) in
  for i = 0 to n - 2 do
    ignore (Tmg.add_place tmg ~src:ts.(i) ~dst:ts.(i + 1) ~tokens:1 ())
  done;
  let g = Csr.of_tmg tmg in
  let { Csr.comp_count; _ } = Csr.strongly_connected g in
  Alcotest.(check int) "singleton components" n comp_count;
  (match Csr.cycle_time tmg with
  | Error Csr.No_cycle -> ()
  | _ -> Alcotest.fail "expected No_cycle on a path graph");
  match Csr.topo_ranks g with
  | Error _ -> Alcotest.fail "path graph is acyclic"
  | Ok ranks ->
    for p = 0 to g.Csr.m - 1 do
      if ranks.(g.Csr.src.(p)) >= ranks.(g.Csr.dst.(p)) then
        Alcotest.fail "topological ranks out of order"
    done

(* A 10^5-transition single ring: one SCC, and the policy-evaluation walk
   (also iterative) crosses the whole cycle in one chain. *)
let test_ring_stress () =
  let n = 100_000 in
  let tmg = Tmg.create () in
  let ts = Array.init n (fun _ -> Tmg.add_transition tmg ~delay:1 ()) in
  for i = 0 to n - 1 do
    ignore (Tmg.add_place tmg ~src:ts.(i) ~dst:ts.((i + 1) mod n) ~tokens:1 ())
  done;
  let g = Csr.of_tmg tmg in
  let { Csr.comp_count; _ } = Csr.strongly_connected g in
  Alcotest.(check int) "one component" 1 comp_count;
  match Csr.cycle_time tmg with
  | Ok r -> Helpers.check_ratio "ring cycle time" (Ratio.make 1 1) r.Csr.cycle_time
  | Error _ -> Alcotest.fail "ring is live and cyclic"

(* ---- a realistic net: the synthetic SoC family -------------------------- *)

let test_synth_exact () =
  let sys = Generate.scaled ~processes:200 ~channels:300 () in
  let tmg = (To_tmg.build sys).To_tmg.tmg in
  (match (Csr.cycle_time tmg, lawler tmg) with
  | Ok h, Ok (l, _, _) -> Helpers.check_ratio "howard = lawler" l h.Csr.cycle_time
  | _ -> Alcotest.fail "synth-200 should be live and cyclic");
  assert (prop_certificates_accepted tmg)

let () =
  Alcotest.run "csr"
    [
      ( "howard",
        [
          Helpers.qtest ~count:300 "exact vs Lawler, brute (live nets)"
            Helpers.live_tmg_arbitrary prop_howard_exact;
          Helpers.qtest ~count:300 "exact vs Lawler, brute (raw nets)"
            raw_tmg_gen prop_howard_exact;
          Alcotest.test_case "exact vs Lawler (synth-200)" `Quick test_synth_exact;
          Helpers.qtest ~count:1000 "cold = brute, warm = cold, both certified (chained rings)"
            rings_gen prop_rings_cold_warm;
        ] );
      ( "cross-check",
        [
          Helpers.qtest ~count:200 "karp agrees (unit nets)" unit_tmg_gen
            prop_karp_equal;
          Helpers.qtest ~count:200 "lawler agrees (raw nets)" raw_tmg_gen
            prop_lawler_equal;
          Helpers.qtest ~count:300 "live ranks agree (raw nets)" raw_tmg_gen
            prop_live_ranks_equal;
        ] );
      ( "certificates",
        [
          Helpers.qtest ~count:200 "accepted by check_csr (live nets)"
            Helpers.live_tmg_arbitrary prop_certificates_accepted;
          Helpers.qtest ~count:200 "accepted by check_csr (raw nets)" raw_tmg_gen
            prop_certificates_accepted;
          Alcotest.test_case "mesh certifies in at most one scan per transition" `Quick
            test_mesh_certify_scans;
        ] );
      ( "pinned",
        List.map
          (fun ((family, _, _) as f) ->
            Alcotest.test_case ("answers of " ^ family) `Quick (test_pinned f))
          pinned_families );
      ( "round-trip",
        [
          Helpers.qtest ~count:300 "freeze/thaw identity (raw nets)" raw_tmg_gen
            prop_round_trip;
        ] );
      ( "stress",
        [
          Alcotest.test_case "10^5-node path graph" `Quick test_path_stress;
          Alcotest.test_case "10^5-node ring" `Quick test_ring_stress;
        ] );
    ]
