(* The observability layer: counter exactness on hand-computed edit
   sequences, the obs-on ≡ obs-off determinism contract, exporter shape, and
   the simulator's utilization profile. *)

module Obs = Ermes_obs.Obs
module System = Ermes_slm.System
module Motivating = Ermes_support.Motivating
module Sim = Ermes_slm.Sim
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Incremental = Ermes_core.Incremental
module Explore = Ermes_core.Explore

let with_obs f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

(* ---- disabled mode ------------------------------------------------------ *)

let test_disabled () =
  Obs.disable ();
  Obs.incr "nope";
  Alcotest.(check int) "counter reads 0" 0 (Obs.counter "nope");
  Alcotest.(check (list (pair string int))) "no counters" [] (Obs.counters ());
  Alcotest.(check int) "span is transparent" 42 (Obs.span "s" (fun () -> 42));
  Alcotest.(check bool) "no span stats" true (Obs.span_stats () = []);
  Alcotest.(check string) "empty trace" "{\"traceEvents\":[]}\n" (Obs.chrome_trace ())

(* With no clock installed, a span measures wall time: a 50 ms sleep reads
   at least 40 ms, where CPU time would read almost nothing. *)
let test_default_clock_is_wall_time () =
  with_obs @@ fun () ->
  Obs.span "sleep" (fun () -> Unix.sleepf 0.05);
  match Obs.span_stats () with
  | [ s ] ->
    if s.Obs.total_s < 0.04 then Alcotest.failf "a 50 ms sleep read %.3f ms" (1000. *. s.Obs.total_s)
  | _ -> Alcotest.fail "expected one span name"

let test_enable_resets () =
  with_obs @@ fun () ->
  Obs.incr ~by:7 "x";
  Alcotest.(check int) "counted" 7 (Obs.counter "x");
  Obs.enable ();
  Alcotest.(check int) "fresh sink" 0 (Obs.counter "x")

(* ---- counter exactness on a hand-computed system ------------------------ *)

(* The motivating example, driven through one session with a known edit
   script. Every counter value below is forced by the implementation
   contract, not a statistical property. *)
let test_counters_exact () =
  with_obs @@ fun () ->
  let sys = Motivating.suboptimal () in
  let session = Incremental.create sys in
  (* First solve: cold, SCC computed, no liveness cache yet. *)
  (match Incremental.analyze session with
   | Ok a ->
     Alcotest.(check int) "suboptimal CT" Motivating.expected_suboptimal_cycle_time
       (Ratio.num a.Perf.cycle_time / Ratio.den a.Perf.cycle_time)
   | Error _ -> Alcotest.fail "suboptimal system deadlocked");
  Alcotest.(check int) "1 cold solve" 1 (Obs.counter "csr.solve.cold");
  Alcotest.(check int) "0 warm solves" 0 (Obs.counter "csr.solve.warm");
  Alcotest.(check int) "1 SCC computation" 1 (Obs.counter "csr.scc.recomputed");
  Alcotest.(check int) "1 analysis" 1 (Obs.counter "incremental.analyses");
  let analyze_ok tag =
    match Incremental.analyze session with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail (tag ^ ": unexpected deadlock")
  in
  (* Unchanged system, analyze again: warm, every cache hits. *)
  analyze_ok "repeat";
  Alcotest.(check int) "now 1 warm solve" 1 (Obs.counter "csr.solve.warm");
  Alcotest.(check int) "still 1 cold solve" 1 (Obs.counter "csr.solve.cold");
  Alcotest.(check int) "liveness verdict reused" 1 (Obs.counter "csr.cache.liveness_hit");
  Alcotest.(check int) "SCC reused" 1 (Obs.counter "csr.cache.scc_hit");
  (* Reorder to the paper's optimal configuration (one put-order change on
     P2, one get-order change on P6 — together they stay live): exactly two
     rethreads, and the structural edit invalidates the liveness verdict. *)
  let p2 = Option.get (System.find_process sys "P2") in
  let p6 = Option.get (System.find_process sys "P6") in
  let chan n = Option.get (System.find_channel sys n) in
  System.set_put_order sys p2 [ chan "b"; chan "d"; chan "f" ];
  System.set_get_order sys p6 [ chan "d"; chan "g"; chan "e" ];
  (match Incremental.analyze session with
   | Ok a ->
     Alcotest.(check int) "optimal CT" Motivating.expected_optimal_cycle_time
       (Ratio.num a.Perf.cycle_time / Ratio.den a.Perf.cycle_time)
   | Error _ -> Alcotest.fail "rethread: unexpected deadlock");
  Alcotest.(check int) "2 rethreads" 2 (Obs.counter "incremental.rethreads");
  Alcotest.(check int) "liveness invalidated once" 1
    (Obs.counter "csr.cache.liveness_invalidated");
  Alcotest.(check int) "0 rebuilds so far" 0 (Obs.counter "incremental.rebuilds");
  (* FIFO-izing a channel changes the transition set: one full rebuild, and
     the rebuilt solver starts cold. *)
  let a = chan "a" in
  System.set_channel_kind sys a (System.Fifo 2);
  analyze_ok "fifoize";
  Alcotest.(check int) "1 rebuild" 1 (Obs.counter "incremental.rebuilds");
  Alcotest.(check int) "rebuild solves cold" 2 (Obs.counter "csr.solve.cold");
  (* A depth change on the now-FIFO channel is a marking edit, not a
     rebuild, and the solver stays warm. *)
  System.set_channel_kind sys a (System.Fifo 5);
  analyze_ok "depth edit";
  Alcotest.(check int) "1 marking edit" 1 (Obs.counter "incremental.marking_edits");
  Alcotest.(check int) "still 1 rebuild" 1 (Obs.counter "incremental.rebuilds");
  Alcotest.(check int) "depth edit solves warm" 3 (Obs.counter "csr.solve.warm");
  (* Probes count as analyses and probes. *)
  let p5 = Option.get (System.find_process sys "P5") in
  ignore (Incremental.probe session [ Incremental.Slow_process (p5, 3) ]);
  Alcotest.(check int) "1 probe" 1 (Obs.counter "incremental.probes");
  Alcotest.(check int) "6 analyses total" 6 (Obs.counter "incremental.analyses")

(* ---- obs-on == obs-off -------------------------------------------------- *)

let analysis_signature sys =
  match Perf.analyze sys with
  | Ok a ->
    Printf.sprintf "ok %s [%s]"
      (Ratio.to_string a.Perf.cycle_time)
      (String.concat " " a.Perf.critical_cycle)
  | Error f -> Format.asprintf "error %a" (Perf.pp_failure sys) f

let sim_signature sys =
  match Sim.run ~max_iterations:16 sys with
  | Error e -> "error " ^ e
  | Ok r ->
    Printf.sprintf "%d cycles %s [%s] [%s]" r.Sim.cycles
      (match r.Sim.outcome with
      | Sim.Completed -> "completed"
      | Sim.Deadlocked _ -> "deadlocked"
      | Sim.Timed_out _ -> "timed-out")
      (String.concat " " (Array.to_list (Array.map string_of_int r.Sim.iterations)))
      (String.concat " "
         (Array.to_list (Array.map string_of_int r.Sim.profile.Sim.blocked_on_get)))

let explore_signature sys =
  let trace = Explore.run ~tct:12 sys in
  Printf.sprintf "%s %b"
    (Ratio.to_string (Explore.final_cycle_time trace))
    trace.Explore.met

let test_on_equals_off () =
  Obs.disable ();
  let everything () =
    String.concat "\n"
      [
        analysis_signature (Motivating.suboptimal ());
        sim_signature (Motivating.suboptimal ());
        explore_signature (Motivating.suboptimal ());
        sim_signature (Motivating.deadlocking ());
      ]
  in
  let off = everything () in
  let on = with_obs everything in
  Alcotest.(check string) "tracing changes nothing" off on

(* ---- spans and exporters ------------------------------------------------ *)

let test_span_stats () =
  with_obs @@ fun () ->
  ignore (Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> 1) + 1));
  ignore (Obs.span "outer" (fun () -> 2));
  (* Exception safety: the interval is recorded even when the body raises. *)
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  let stats = Obs.span_stats () in
  let find n = List.find (fun s -> s.Obs.span_name = n) stats in
  Alcotest.(check int) "outer calls" 2 (find "outer").Obs.calls;
  Alcotest.(check int) "inner calls" 1 (find "inner").Obs.calls;
  Alcotest.(check int) "raising span recorded" 1 (find "boom").Obs.calls;
  Alcotest.(check bool) "totals are non-negative" true
    (List.for_all (fun s -> s.Obs.total_s >= 0. && s.Obs.max_s >= 0.) stats)

(* Past [max_events] the sink stops retaining events, but the aggregates
   keep counting: a long-lived daemon's metrics must not freeze. *)
let test_span_stats_past_cap () =
  let tick = ref 0. in
  Obs.set_clock (fun () ->
      tick := !tick +. 1.;
      !tick);
  Fun.protect ~finally:(fun () -> Obs.set_clock Unix.gettimeofday) @@ fun () ->
  with_obs @@ fun () ->
  let n = Obs.max_events + 10 in
  for _ = 1 to n do
    Obs.span "s" ignore
  done;
  match Obs.span_stats () with
  | [ s ] ->
    Alcotest.(check int) "every span counted" n s.Obs.calls;
    Alcotest.(check (float 0.)) "total of unit spans" (float_of_int n) s.Obs.total_s;
    Alcotest.(check (float 0.)) "max" 1. s.Obs.max_s
  | _ -> Alcotest.fail "expected one span name"

(* The trace lists every retained span, oldest first, each with its own
   start and end, however many storage chunks they fill. With a clock that
   ticks one second per read, span k starts 2k+1 s after the epoch and
   lasts 1 s. *)
let test_trace_keeps_every_event () =
  let tick = ref 0. in
  Obs.set_clock (fun () ->
      tick := !tick +. 1.;
      !tick);
  Fun.protect ~finally:(fun () -> Obs.set_clock Unix.gettimeofday) @@ fun () ->
  with_obs @@ fun () ->
  let n = 10_000 in
  for _ = 1 to n do
    Obs.span "s" ignore
  done;
  let span_line l =
    Scanf.sscanf_opt l
      "{\"name\":\"s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%f,\"dur\":%f}"
      (fun _ ts dur -> (ts, dur))
  in
  let spans = List.filter_map span_line (String.split_on_char '\n' (Obs.chrome_trace ())) in
  Alcotest.(check int) "every span in the trace" n (List.length spans);
  List.iteri
    (fun k (ts, dur) ->
      if ts <> float_of_int ((2 * k) + 1) *. 1e6 || dur <> 1e6 then
        Alcotest.failf "span %d: ts %.1f dur %.1f" k ts dur)
    spans

let test_chrome_trace_shape () =
  with_obs @@ fun () ->
  Obs.incr ~by:3 "my.counter";
  ignore (Obs.span "my \"span\"" (fun () -> ()));
  let json = Obs.chrome_trace () in
  let contains needle = Astring_contains.contains json needle in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\":[");
  Alcotest.(check bool) "has the X event" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "has the C event" true (contains "\"ph\":\"C\"");
  Alcotest.(check bool) "counter value serialized" true (contains "{\"value\":3}");
  Alcotest.(check bool) "span name escaped" true (contains "my \\\"span\\\"");
  Alcotest.(check bool) "no raw quote" false (contains "my \"span\"")

let test_summary_shape () =
  with_obs @@ fun () ->
  Obs.incr ~by:0 "registered.only";
  Obs.incr ~by:2 "bumped";
  let s = Obs.summary () in
  let contains needle = Astring_contains.contains s needle in
  Alcotest.(check bool) "counters header" true (contains "== counters ==");
  Alcotest.(check bool) "spans header" true (contains "== spans ==");
  Alcotest.(check bool) "registered counter listed" true (contains "registered.only");
  Alcotest.(check bool) "bumped value" true (contains "bumped");
  Alcotest.(check bool) "value printed" true (contains " 2")

(* ---- the simulator's utilization profile -------------------------------- *)

let test_sim_profile () =
  Obs.disable ();
  let sys = Motivating.system () in
  match Sim.run ~max_iterations:32 sys with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let np = System.process_count sys in
    Alcotest.(check int) "per-process arrays" np
      (Array.length r.Sim.profile.Sim.blocked_on_get);
    Array.iteri
      (fun p g ->
        let u = r.Sim.profile.Sim.blocked_on_put.(p) in
        Alcotest.(check bool)
          (Printf.sprintf "process %d blocked time within the run" p)
          true
          (g >= 0 && u >= 0 && g + u <= r.Sim.cycles))
      r.Sim.profile.Sim.blocked_on_get;
    (* Rendezvous-only system: no occupancy anywhere. *)
    Alcotest.(check bool) "no buffered items" true
      (Array.for_all (fun x -> x = 0.) r.Sim.profile.Sim.mean_occupancy);
    (* The sink of a live system spends time waiting but never the whole
       run; the source of this system is put-blocked (back-pressure). *)
    let snk = Option.get (System.find_process sys "Psnk") in
    let src = Option.get (System.find_process sys "Psrc") in
    Alcotest.(check bool) "sink waits on gets" true
      (r.Sim.profile.Sim.blocked_on_get.(snk) > 0);
    Alcotest.(check bool) "source feels back-pressure" true
      (r.Sim.profile.Sim.blocked_on_put.(src) > 0)

let test_sim_profile_fifo () =
  Obs.disable ();
  let sys = Motivating.system () in
  List.iter
    (fun c -> System.set_channel_kind sys c (System.Fifo 2))
    (System.channels sys);
  match Sim.run ~max_iterations:32 sys with
  | Error e -> Alcotest.fail e
  | Ok r ->
    List.iter
      (fun c ->
        let peak = r.Sim.profile.Sim.peak_occupancy.(c) in
        let mean = r.Sim.profile.Sim.mean_occupancy.(c) in
        Alcotest.(check bool)
          (Printf.sprintf "channel %s occupancy bounded by depth"
             (System.channel_name sys c))
          true
          (peak >= 0 && peak <= 2 && mean >= 0. && mean <= float_of_int peak))
      (System.channels sys);
    Alcotest.(check bool) "something was buffered" true
      (Array.exists (fun p -> p > 0) r.Sim.profile.Sim.peak_occupancy)

let test_sim_deadlock_profile () =
  Obs.disable ();
  let sys = Motivating.deadlocking () in
  match Sim.run sys with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    match r.Sim.outcome with
    | Sim.Deadlocked d ->
      (* The processes the deadlock report blames must, collectively, show
         blocked time accrued up to the final cycle. *)
      let total =
        List.fold_left
          (fun acc (b : Sim.blocked) ->
            acc
            + r.Sim.profile.Sim.blocked_on_get.(b.Sim.process)
            + r.Sim.profile.Sim.blocked_on_put.(b.Sim.process))
          0 d.Sim.blocked
      in
      Alcotest.(check bool) "blamed processes accrued wait" true (total > 0)
    | _ -> Alcotest.fail "expected a deadlock")

let () =
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled;
          Alcotest.test_case "enable resets" `Quick test_enable_resets;
          Alcotest.test_case "default clock is wall time" `Quick
            test_default_clock_is_wall_time;
        ] );
      ("counters", [ Alcotest.test_case "exact on motivating" `Quick test_counters_exact ]);
      ( "determinism",
        [ Alcotest.test_case "obs-on == obs-off" `Quick test_on_equals_off ] );
      ( "exporters",
        [
          Alcotest.test_case "span stats" `Quick test_span_stats;
          Alcotest.test_case "span stats past max_events" `Quick
            test_span_stats_past_cap;
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
          Alcotest.test_case "trace keeps every event" `Quick test_trace_keeps_every_event;
          Alcotest.test_case "summary shape" `Quick test_summary_shape;
        ] );
      ( "sim-profile",
        [
          Alcotest.test_case "rendezvous utilization" `Quick test_sim_profile;
          Alcotest.test_case "fifo occupancy" `Quick test_sim_profile_fifo;
          Alcotest.test_case "deadlock attribution" `Quick test_sim_deadlock_profile;
        ] );
    ]
