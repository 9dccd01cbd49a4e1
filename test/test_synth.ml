module Prng = Ermes_synth.Prng
module Generate = Ermes_synth.Generate
module System = Ermes_slm.System
module Perf = Ermes_core.Perf

(* ---- prng -------------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next_int a) (Prng.next_int b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xs = List.init 10 (fun _ -> Prng.next_int a) in
  let ys = List.init 10 (fun _ -> Prng.next_int b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_prng_ranges () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int_range rng ~lo:3 ~hi:9 in
    Alcotest.(check bool) "in range" true (v >= 3 && v <= 9);
    let f = Prng.float_unit rng in
    Alcotest.(check bool) "unit float" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_range: empty range")
    (fun () -> ignore (Prng.int_range rng ~lo:5 ~hi:4))

let test_prng_pick_shuffle () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick member" true (List.mem (Prng.pick rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  let xs = List.init 20 Fun.id in
  let shuffled = Prng.shuffle rng xs in
  Alcotest.(check (list int)) "permutation" xs (List.sort compare shuffled)

let test_prng_distribution_rough () =
  (* Not a statistical test — just guards against a catastrophically biased
     generator (e.g. always even). *)
  let rng = Prng.create ~seed:3 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Prng.int_range rng ~lo:0 ~hi:9 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket within 3x of uniform" true (c > 333 && c < 3000))
    buckets

(* ---- generate ------------------------------------------------------------------ *)

let test_generate_deterministic () =
  let a = Generate.generate Generate.default in
  let b = Generate.generate Generate.default in
  Alcotest.(check string) "same .soc text" (Ermes_slm.Soc_format.print a)
    (Ermes_slm.Soc_format.print b)

let test_generate_shape () =
  let sys = Generate.generate { Generate.default with processes = 50; channels = 110; layers = 10 } in
  (match System.validate sys with Ok () -> () | Error e -> Alcotest.fail e);
  (* Worker count plus relay registers plus testbench. *)
  Alcotest.(check bool) "at least the workers" true (System.process_count sys >= 52);
  Alcotest.(check bool) "around the channel target" true (System.channel_count sys >= 110)

let test_generate_bad_configs () =
  Alcotest.check_raises "layers" (Invalid_argument "Generate: layers must be within [1, processes]")
    (fun () -> ignore (Generate.generate { Generate.default with processes = 2; layers = 5 }))

let prop_generated_valid_and_live =
  Helpers.qtest ~count:80 "generated systems validate and analyze"
    Helpers.feedback_system_gen (fun sys ->
      System.validate sys = Ok ()
      &&
      match Perf.analyze sys with
      | Ok a -> Ermes_tmg.Ratio.(a.Perf.cycle_time > Ermes_tmg.Ratio.zero)
      | Error _ -> false)

let prop_generated_simulates =
  Helpers.qtest ~count:25 "generated systems simulate to the analytic rate"
    Helpers.feedback_system_gen (fun sys ->
      match (Perf.analyze sys, Ermes_slm.Sim.steady_cycle_time ~rounds:4096 sys) with
      | Ok a, Ok (Ermes_slm.Sim.Period m) -> Ermes_tmg.Ratio.equal a.Perf.cycle_time m
      | _ -> false)

let test_generated_pareto_shapes () =
  (* Every generated implementation set is a real trade-off: latency strictly
     ascending, area strictly descending. *)
  let sys = Generate.generate { Generate.default with seed = 17 } in
  List.iter
    (fun p ->
      let impls = System.impls sys p in
      for i = 0 to Array.length impls - 2 do
        Alcotest.(check bool) "latency ascends" true
          (impls.(i).System.latency <= impls.(i + 1).System.latency);
        Alcotest.(check bool) "area descends" true
          (impls.(i).System.area >= impls.(i + 1).System.area)
      done)
    (System.processes sys)

let test_scaled_instances () =
  List.iter
    (fun (np, nc) ->
      let sys = Generate.scaled ~processes:np ~channels:nc () in
      match Perf.analyze sys with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail (Printf.sprintf "%d/%d deadlocked" np nc))
    [ (50, 75); (200, 300); (500, 750) ]

let () =
  Alcotest.run "synth"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "pick/shuffle" `Quick test_prng_pick_shuffle;
          Alcotest.test_case "rough uniformity" `Quick test_prng_distribution_rough;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "shape" `Quick test_generate_shape;
          Alcotest.test_case "bad configs" `Quick test_generate_bad_configs;
          Alcotest.test_case "scaled instances" `Quick test_scaled_instances;
          Alcotest.test_case "pareto shapes" `Quick test_generated_pareto_shapes;
        ] );
      ("property", [ prop_generated_valid_and_live; prop_generated_simulates ]);
    ]
