(* Incremental-analysis sessions and the multicore engines.

   The contract under test: a session must be observationally equivalent to
   fresh [Perf.analyze] calls after ANY sequence of system mutations, and
   every parallel engine must return bit-identical results at any job count.
   Cycle times are compared exactly (both paths certify), deadlock verdicts
   must name the same dead channels (the rethreaded net is bit-identical to
   a fresh build), and critical cycles must be internally consistent —
   though the representative cycle may differ when several tie. *)

module System = Ermes_slm.System
module Motivating = Ermes_support.Motivating
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Incremental = Ermes_core.Incremental
module Order = Ermes_core.Order
module Oracle = Ermes_core.Oracle
module Buffer_opt = Ermes_core.Buffer_opt
module Fault = Ermes_fault.Fault
module Fuzz = Ermes_fault.Fuzz
module Parallel = Ermes_parallel.Parallel

(* ---- mutation scripts --------------------------------------------------- *)

(* Three integer draws encode one mutation: a selection change, an adjacent
   get-order swap, or an adjacent put-order swap on a drawn process. *)
let swap_adjacent xs k =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n >= 2 then begin
    let i = k mod (n - 1) in
    let t = a.(i) in
    a.(i) <- a.(i + 1);
    a.(i + 1) <- t
  end;
  Array.to_list a

let apply_mutation sys (kind, which, detail) =
  let procs = Array.of_list (System.processes sys) in
  let p = procs.(which mod Array.length procs) in
  match kind mod 3 with
  | 0 ->
    let n = Array.length (System.impls sys p) in
    System.select sys p (detail mod n)
  | 1 -> System.set_get_order sys p (swap_adjacent (System.get_order sys p) detail)
  | _ -> System.set_put_order sys p (swap_adjacent (System.put_order sys p) detail)

let mutations_gen =
  QCheck2.Gen.(
    list_size (int_range 4 12)
      (triple (int_range 0 1_000_000) (int_range 0 1_000_000) (int_range 0 1_000_000)))

(* One analysis comparison; returns false on any observable disagreement. *)
let agrees fresh inc =
  match (fresh, inc) with
  | Ok (f : Perf.analysis), Ok (g : Perf.analysis) ->
    Ratio.equal f.Perf.cycle_time g.Perf.cycle_time
    (* the incremental critical cycle must be genuinely critical *)
    && Ratio.equal (Ratio.make g.Perf.critical_delay g.Perf.critical_tokens) g.Perf.cycle_time
    && g.Perf.critical_cycle <> []
  | Error (Perf.Deadlock df), Error (Perf.Deadlock dg) ->
    List.sort compare df.Perf.dead_channels = List.sort compare dg.Perf.dead_channels
  | Error Perf.No_cycle, Error Perf.No_cycle -> true
  | _ -> false

let prop_session_equiv (sys, script) =
  let session = Incremental.create sys in
  let ok =
    List.for_all
      (fun mutation ->
        apply_mutation sys mutation;
        agrees (Perf.analyze sys) (Incremental.analyze session))
      script
  in
  (* Selection and order mutations must never fall back to a rebuild. *)
  ok && (Incremental.stats session).Incremental.rebuilds = 0

let test_session_equiv_feedback =
  Helpers.qtest ~count:120 "session == fresh (feedback systems)"
    QCheck2.Gen.(pair Helpers.feedback_system_gen mutations_gen)
    prop_session_equiv

let test_session_equiv_dag =
  Helpers.qtest ~count:60 "session == fresh (DAG systems)"
    QCheck2.Gen.(pair Helpers.dag_system_gen mutations_gen)
    prop_session_equiv

(* A channel-kind change alters the transition set: the session must fall
   back to a full rebuild and still agree with a fresh analysis. *)
let test_rebuild_on_kind_change () =
  let sys = Motivating.suboptimal () in
  let session = Incremental.create sys in
  (match Incremental.analyze session with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "motivating system deadlocked");
  let c = Option.get (System.find_channel sys "a") in
  System.set_channel_kind sys c (System.Fifo 2);
  Alcotest.(check bool) "agrees after FIFO-ization" true
    (agrees (Perf.analyze sys) (Incremental.analyze session));
  Alcotest.(check bool) "rebuilt" true
    ((Incremental.stats session).Incremental.rebuilds >= 1);
  (* And keeps absorbing ordinary mutations afterwards. *)
  apply_mutation sys (0, 1, 1);
  Alcotest.(check bool) "agrees after rebuild + mutation" true
    (agrees (Perf.analyze sys) (Incremental.analyze session))

(* A FIFO depth change ([Fifo d → Fifo d']) must be absorbed in place as a
   token write on the credit place — no rebuild — and still agree with a
   fresh analysis at every depth. *)
let test_depth_edit_in_place () =
  let sys = Motivating.suboptimal () in
  let session = Incremental.create sys in
  (match Incremental.analyze session with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "motivating system deadlocked");
  let c = Option.get (System.find_channel sys "a") in
  System.set_channel_kind sys c (System.Fifo 1);
  Alcotest.(check bool) "agrees after FIFO-ization" true
    (agrees (Perf.analyze sys) (Incremental.analyze session));
  let rebuilds = (Incremental.stats session).Incremental.rebuilds in
  List.iter
    (fun d ->
      System.set_channel_kind sys c (System.Fifo d);
      Alcotest.(check bool) (Printf.sprintf "agrees at depth %d" d) true
        (agrees (Perf.analyze sys) (Incremental.analyze session)))
    [ 2; 5; 1; 3 ];
  Alcotest.(check int) "no further rebuilds" rebuilds
    (Incremental.stats session).Incremental.rebuilds;
  Alcotest.(check int) "4 marking edits" 4
    (Incremental.stats session).Incremental.marking_edits

(* Multi-rate depth edits at fixed weights absorb as token writes on the
   gadget's credit places (no rebuild at unit rates, and at true rates only
   when a credit source moves); handshake hold edits absorb as delay writes
   on the ack instances. Kind and rate changes still rebuild. *)
let test_new_kind_edits_in_place () =
  let sys = Motivating.suboptimal () in
  let a = Option.get (System.find_channel sys "a") in
  let b = Option.get (System.find_channel sys "b") in
  System.set_channel_kind sys a
    (System.Multi_rate { produce = 1; consume = 1; depth = 2 });
  System.set_channel_kind sys b (System.Handshake { hold = 1 });
  let session = Incremental.create sys in
  (match Incremental.analyze session with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "system deadlocked");
  let rebuilds () = (Incremental.stats session).Incremental.rebuilds in
  let base = rebuilds () in
  List.iter
    (fun d ->
      System.set_channel_kind sys a
        (System.Multi_rate { produce = 1; consume = 1; depth = d });
      Alcotest.(check bool) (Printf.sprintf "agrees at depth %d" d) true
        (agrees (Perf.analyze sys) (Incremental.analyze session)))
    [ 3; 1; 5 ];
  Alcotest.(check int) "depth edits absorbed without rebuild" base (rebuilds ());
  List.iter
    (fun hold ->
      System.set_channel_kind sys b (System.Handshake { hold });
      Alcotest.(check bool) (Printf.sprintf "agrees at hold %d" hold) true
        (agrees (Perf.analyze sys) (Incremental.analyze session)))
    [ 0; 7; 2 ];
  Alcotest.(check int) "hold edits absorbed without rebuild" base (rebuilds ());
  (* A rate change is structural. *)
  System.set_channel_kind sys a
    (System.Multi_rate { produce = 2; consume = 2; depth = 4 });
  Alcotest.(check bool) "agrees after rate change" true
    (agrees (Perf.analyze sys) (Incremental.analyze session));
  Alcotest.(check bool) "rate change rebuilt" true (rebuilds () > base)

let prop_depth_session_equiv (sys, (which, depths)) =
  let chans = Array.of_list (System.channels sys) in
  let c = chans.(which mod Array.length chans) in
  System.set_channel_kind sys c (System.Fifo 1);
  let session = Incremental.create sys in
  ignore (Incremental.analyze session);
  let ok =
    List.for_all
      (fun d ->
        System.set_channel_kind sys c (System.Fifo (1 + (d mod 8)));
        agrees (Perf.analyze sys) (Incremental.analyze session))
      depths
  in
  ok && (Incremental.stats session).Incremental.rebuilds = 0

let test_depth_session_equiv =
  Helpers.qtest ~count:80 "depth edits == fresh (feedback systems)"
    QCheck2.Gen.(
      pair Helpers.feedback_system_gen
        (pair (int_range 0 1_000_000) (list_size (int_range 1 6) (int_range 0 1_000_000))))
    prop_depth_session_equiv

(* ---- buffer sizing through a session ------------------------------------ *)

(* The reference implementation [Buffer_opt.size] replaced: the same greedy
   loop, but every evaluation is a fresh [Perf.analyze] from scratch. The
   session-backed version must be observationally identical. *)
let reference_buffer_size ?(max_slots = 64) ~tct sys =
  let analyze_exn () =
    match Perf.analyze sys with Ok a -> a | Error _ -> failwith "deadlock"
  in
  let depth_of c =
    match System.channel_kind sys c with
    | System.Rendezvous -> 0
    | System.Fifo d -> d
    | System.Multi_rate _ | System.Handshake _ -> assert false
  in
  let set_depth c d =
    System.set_channel_kind sys c (if d = 0 then System.Rendezvous else System.Fifo d)
  in
  let steps = ref [] in
  let slots = ref 0 in
  let current = ref (analyze_exn ()) in
  let target = Ratio.of_int tct in
  let continue_ = ref true in
  while !continue_ && !slots < max_slots && Ratio.(!current.Perf.cycle_time > target) do
    let base_ct = !current.Perf.cycle_time in
    let best = ref None in
    List.iter
      (fun c ->
        let d = depth_of c in
        set_depth c (d + 1);
        (match Perf.analyze sys with
         | Ok a ->
           if Ratio.(a.Perf.cycle_time < base_ct) then begin
             match !best with
             | Some (_, _, ct) when Ratio.(ct <= a.Perf.cycle_time) -> ()
             | _ -> best := Some (c, d + 1, a.Perf.cycle_time)
           end
         | Error _ -> ());
        set_depth c d)
      !current.Perf.critical_channels;
    match !best with
    | None -> continue_ := false
    | Some (c, d, ct) ->
      set_depth c d;
      incr slots;
      steps := (c, d, ct) :: !steps;
      current := analyze_exn ()
  done;
  (List.rev !steps, !slots, !current.Perf.cycle_time, Ratio.(!current.Perf.cycle_time <= target))

let buffer_result_signature (r : Buffer_opt.result) =
  ( List.map
      (fun (s : Buffer_opt.step) -> (s.Buffer_opt.channel, s.Buffer_opt.new_depth, s.Buffer_opt.cycle_time))
      r.Buffer_opt.steps,
    r.Buffer_opt.slots_added,
    r.Buffer_opt.final_cycle_time,
    r.Buffer_opt.met )

(* On random systems the session-backed sizing may legitimately pick a
   different channel than the fresh reference when two candidates improve
   the cycle time equally (the critical-cycle {e representative} may differ
   between warm and cold solves — see incremental.mli), after which the
   greedy paths diverge. The invariant that must hold regardless: every
   recorded cycle time is exact. Replaying the recorded steps on a fresh
   copy and re-analyzing from scratch at each point must reproduce the
   session's numbers bit for bit. *)
let prop_buffer_opt_session sys =
  match Perf.analyze sys with
  | Error _ -> true (* sizing is only defined on live systems *)
  | Ok a ->
    let ct0 = a.Perf.cycle_time in
    let tct = max 1 (Ratio.num ct0 * 2 / (Ratio.den ct0 * 3)) in
    let replay = System.copy sys in
    let r = Buffer_opt.size ~max_slots:24 ~tct sys in
    let steps_exact =
      List.for_all
        (fun (s : Buffer_opt.step) ->
          System.set_channel_kind replay s.Buffer_opt.channel
            (System.Fifo s.Buffer_opt.new_depth);
          match Perf.analyze replay with
          | Ok b -> Ratio.equal b.Perf.cycle_time s.Buffer_opt.cycle_time
          | Error _ -> false)
        r.Buffer_opt.steps
    in
    let rec strictly_improving prev = function
      | [] -> true
      | (s : Buffer_opt.step) :: tl ->
        Ratio.(s.Buffer_opt.cycle_time < prev)
        && strictly_improving s.Buffer_opt.cycle_time tl
    in
    steps_exact
    && strictly_improving ct0 r.Buffer_opt.steps
    && r.Buffer_opt.slots_added = List.length r.Buffer_opt.steps
    && (match List.rev r.Buffer_opt.steps with
       | last :: _ -> Ratio.equal r.Buffer_opt.final_cycle_time last.Buffer_opt.cycle_time
       | [] -> Ratio.equal r.Buffer_opt.final_cycle_time ct0)
    && r.Buffer_opt.met = Ratio.(r.Buffer_opt.final_cycle_time <= Ratio.of_int tct)
    && List.for_all
         (fun c -> System.channel_kind sys c = System.channel_kind replay c)
         (System.channels sys)

let test_buffer_opt_session =
  Helpers.qtest ~count:60 "Buffer_opt session steps replay exactly"
    Helpers.feedback_system_gen prop_buffer_opt_session

let test_buffer_opt_motivating () =
  let sys = Motivating.suboptimal () in
  let fresh_sys = System.copy sys in
  let r = Buffer_opt.size ~tct:12 sys in
  let ref_r = reference_buffer_size ~tct:12 fresh_sys in
  Alcotest.(check bool) "motivating sizing identical" true
    (buffer_result_signature r = ref_r)

(* ---- transient probes --------------------------------------------------- *)

let prop_probe_matches_fault (sys, (dp, dc, pdelta, cdelta)) =
  let session = Incremental.create sys in
  let procs = Array.of_list (System.processes sys) in
  let chans = Array.of_list (System.channels sys) in
  let p = procs.(dp mod Array.length procs) in
  let c = chans.(dc mod Array.length chans) in
  let via_probe =
    Incremental.probe session
      [ Incremental.Slow_process (p, pdelta); Incremental.Jitter_channel (c, cdelta) ]
  in
  let via_fault =
    Perf.analyze
      (Fault.apply sys
         [
           Fault.Process_slowdown { process = p; delta = pdelta };
           Fault.Latency_jitter { channel = c; delta = cdelta };
         ])
  in
  let same =
    match (via_probe, via_fault) with
    | Ok a, Ok b -> Ratio.equal a.Perf.cycle_time b.Perf.cycle_time
    | Error _, Error _ -> true
    | _ -> false
  in
  (* The probe must leave no trace. *)
  same && agrees (Perf.analyze sys) (Incremental.analyze session)

let test_probe_matches_fault =
  Helpers.qtest ~count:100 "probe == Fault.apply + fresh analysis"
    QCheck2.Gen.(
      pair Helpers.feedback_system_gen
        (quad (int_range 0 1_000_000) (int_range 0 1_000_000) (int_range (-10) 25)
           (int_range (-10) 25)))
    prop_probe_matches_fault

(* ---- parallel oracle ---------------------------------------------------- *)

let orders_signature sys =
  List.map (fun p -> (System.get_order sys p, System.put_order sys p)) (System.processes sys)

let oracle_results_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Oracle.result), Some (y : Oracle.result) ->
    Ratio.equal x.Oracle.best_cycle_time y.Oracle.best_cycle_time
    && x.Oracle.evaluated = y.Oracle.evaluated
    && x.Oracle.deadlocked = y.Oracle.deadlocked
    && orders_signature x.Oracle.best_system = orders_signature y.Oracle.best_system
  | _ -> false

let prop_oracle_jobs sys =
  System.order_combinations sys > 600.
  ||
  let r1 = Oracle.search ~limit:1000 ~jobs:1 sys in
  let r2 = Oracle.search ~limit:1000 ~jobs:2 sys in
  let r4 = Oracle.search ~limit:1000 ~jobs:4 sys in
  oracle_results_equal r1 r2 && oracle_results_equal r1 r4

let test_oracle_jobs =
  Helpers.qtest ~count:60 "Oracle.search ~jobs:{2,4} == ~jobs:1"
    Helpers.dag_system_gen prop_oracle_jobs

let test_oracle_jobs_motivating () =
  let sys = Motivating.system () in
  let r1 = Oracle.search ~jobs:1 sys in
  let r4 = Oracle.search ~jobs:4 sys in
  Alcotest.(check bool) "identical results" true (oracle_results_equal r1 r4);
  match r1 with
  | Some r -> Alcotest.(check int) "all 36 combinations" 36 r.Oracle.evaluated
  | None -> Alcotest.fail "oracle found nothing"

(* The regression this guards: an earlier Oracle gave every slice its own
   System copy and cold incremental session, so jobs:4 paid dozens of cold
   solver starts while jobs:1 kept one warm session — the parallel search
   was 2-4x *slower* than the sequential one. With slices grouped onto
   shared warm sessions, extra jobs may buy nothing on a loaded or
   single-core host, but they must never cost more than scheduling noise.
   Min-of-3 runs per jobs value smooths the clock. *)
let test_oracle_jobs_timing () =
  (* A reconvergent fan-in/fan-out shape with 1,728 order combinations —
     large enough that a timing ratio means something. *)
  let sys = System.create ~name:"oracle-timing" () in
  let proc lat name = System.add_simple_process sys ~latency:lat ~area:0.01 name in
  let chan name src dst lat = ignore (System.add_channel sys ~name ~src ~dst ~latency:lat) in
  let srcs = Array.init 4 (fun i -> proc (2 + (3 * i)) (Printf.sprintf "src%d" i)) in
  let hub = proc 7 "hub" in
  let mids = Array.init 3 (fun i -> proc (3 + (2 * i)) (Printf.sprintf "mid%d" i)) in
  let hub2 = proc 5 "hub2" in
  let snks = Array.init 2 (fun i -> proc (1 + i) (Printf.sprintf "snk%d" i)) in
  Array.iteri (fun i s -> chan (Printf.sprintf "a%d" i) s hub (1 + (2 * i))) srcs;
  Array.iteri (fun i m -> chan (Printf.sprintf "b%d" i) hub m (5 - i)) mids;
  Array.iteri (fun i m -> chan (Printf.sprintf "c%d" i) m hub2 (2 + i)) mids;
  Array.iteri (fun i t -> chan (Printf.sprintf "d%d" i) hub2 t (3 - i)) snks;
  let min_time jobs =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      result := Oracle.search ~limit:10_000 ~jobs sys;
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    (!best, !result)
  in
  let t1, r1 = min_time 1 in
  let t4, r4 = min_time 4 in
  Alcotest.(check bool) "identical results across jobs" true (oracle_results_equal r1 r4);
  Alcotest.(check bool)
    (Printf.sprintf "jobs4 (%.4fs) <= jobs1 (%.4fs) x 1.2" t4 t1)
    true
    (t4 <= t1 *. 1.2)

(* ---- ordering ---------------------------------------------------------- *)

let prop_apply_safe_session sys =
  Order.conservative sys;
  let a = System.copy sys in
  let b = System.copy sys in
  let session = Incremental.create a in
  let ra = Order.apply_safe ~session a in
  let rb = Order.apply_safe b in
  let same_outcome =
    match (ra, rb) with
    | Order.Applied _, Order.Applied _ -> true
    | Order.Kept_incumbent x, Order.Kept_incumbent y -> x = y
    | _ -> false
  in
  same_outcome && orders_signature a = orders_signature b
  && agrees (Perf.analyze a) (Incremental.analyze session)

let test_apply_safe_session =
  Helpers.qtest ~count:60 "apply_safe ?session == apply_safe"
    Helpers.dag_system_gen prop_apply_safe_session

(* ---- parallel fuzzing --------------------------------------------------- *)

let failure_signature (f : Fuzz.failure) = (f.Fuzz.case, f.Fuzz.scenario, f.Fuzz.mismatches)

let test_fuzz_jobs () =
  let config =
    { Fuzz.seed = 7; cases = 12; max_processes = 8; rounds = 48; rtl = true; repro_dir = None }
  in
  let s1 = Fuzz.run ~jobs:1 config in
  let s2 = Fuzz.run ~jobs:2 config in
  Alcotest.(check int) "cases" s1.Fuzz.cases_run s2.Fuzz.cases_run;
  Alcotest.(check int) "live" s1.Fuzz.live s2.Fuzz.live;
  Alcotest.(check int) "dead" s1.Fuzz.dead s2.Fuzz.dead;
  Alcotest.(check int) "faults" s1.Fuzz.faults_injected s2.Fuzz.faults_injected;
  Alcotest.(check bool) "failures" true
    (List.map failure_signature s1.Fuzz.failures
    = List.map failure_signature s2.Fuzz.failures)

(* ---- the domain pool itself --------------------------------------------- *)

let test_parallel_map () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "jobs 4 == List.map" (List.map f xs) (Parallel.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs 1 == List.map" (List.map f xs) (Parallel.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~jobs:4 f []);
  Alcotest.(check (array int)) "init" (Array.init 37 f) (Parallel.init ~jobs:3 37 f)

let test_parallel_failure () =
  match
    Parallel.map ~jobs:4
      (fun i -> if i >= 50 then failwith "boom" else i)
      (List.init 100 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Parallel.Worker_failure (i, Failure m) ->
    Alcotest.(check int) "lowest failing index" 50 i;
    Alcotest.(check string) "payload" "boom" m
  | exception e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e)

(* [Parallel.waves] at 1, 2 and 4 jobs: [emit] sees every result in index
   order; every emit of a wave precedes every run of the next wave; each
   state from [init] serves one worker domain within one wave, and a
   worker builds at most one per wave; a raising unit surfaces as the
   lowest failing index, after the waves before it were emitted and before
   any later wave ran. *)
let waves_gen =
  QCheck2.Gen.(
    let* n = int_range 0 300 in
    let* size = int_range 1 (n + 1) in
    let* jobs = oneofl [ 1; 2; 4 ] in
    let* fails =
      if n = 0 then pure []
      else frequency [ (2, pure []); (1, list_size (int_range 1 3) (int_range 0 (n - 1))) ]
    in
    pure (n, size, jobs, fails))

let prop_waves (n, size, jobs, fails) =
  let f i = (7 * i) + 1 in
  let clock = Atomic.make 0 in
  let tick () = Atomic.fetch_and_add clock 1 in
  let ran = Array.make n (-1) and emitted_at = Array.make n (-1) in
  let emitted = ref [] in
  let lock = Mutex.create () in
  let inits = ref [] and uses = ref [] in
  let domain () = (Domain.self () :> int) in
  let init () =
    Mutex.protect lock (fun () ->
        let token = List.length !inits in
        inits := (token, domain ()) :: !inits;
        token)
  in
  let run token i =
    ran.(i) <- tick ();
    Mutex.protect lock (fun () -> uses := (token, domain (), i) :: !uses);
    if List.mem i fails then failwith "unit" else f i
  in
  let emit i v =
    emitted := (i, v) :: !emitted;
    emitted_at.(i) <- tick ()
  in
  let raised =
    match Parallel.waves ~jobs ~size ~init n run emit with
    | () -> None
    | exception Parallel.Worker_failure (i, Failure _) -> Some i
  in
  let wave i = i / size in
  let expected, emitted_upto =
    match fails with
    | [] -> (None, n)
    | _ ->
      let lowest = List.fold_left min max_int fails in
      (Some lowest, wave lowest * size)
  in
  let barrier =
    List.for_all
      (fun i ->
        List.for_all
          (fun j -> wave j <= wave i || (ran.(j) < 0 || emitted_at.(i) < ran.(j)))
          (List.init n Fun.id))
      (List.init emitted_upto Fun.id)
  in
  let never_ran_after_failure =
    List.for_all
      (fun j -> j < emitted_upto + size || ran.(j) < 0)
      (List.init n Fun.id)
  in
  let one_state_per_worker_per_wave =
    List.for_all
      (fun (token, dom) ->
        let mine = List.filter (fun (t, _, _) -> t = token) !uses in
        match mine with
        | [] -> false
        | (_, _, i0) :: _ ->
          List.for_all (fun (_, d, i) -> d = dom && wave i = wave i0) mine
          && not
               (List.exists
                  (fun (t, d, i) -> t <> token && d = dom && wave i = wave i0)
                  !uses))
      !inits
  in
  raised = expected
  && List.rev !emitted = List.init emitted_upto (fun i -> (i, f i))
  && barrier && never_ran_after_failure && one_state_per_worker_per_wave

let test_waves = Helpers.qtest ~count:150 "waves: order, barrier, init, failure" waves_gen prop_waves

let () =
  Alcotest.run "incremental"
    [
      ( "session",
        [
          test_session_equiv_feedback;
          test_session_equiv_dag;
          Alcotest.test_case "kind change rebuilds" `Quick test_rebuild_on_kind_change;
          Alcotest.test_case "depth edits in place" `Quick test_depth_edit_in_place;
          Alcotest.test_case "multi-rate/handshake edits in place" `Quick
            test_new_kind_edits_in_place;
          test_depth_session_equiv;
        ] );
      ( "buffer-opt",
        [
          test_buffer_opt_session;
          Alcotest.test_case "motivating sizing" `Quick test_buffer_opt_motivating;
        ] );
      ("probe", [ test_probe_matches_fault ]);
      ( "oracle",
        [
          test_oracle_jobs;
          Alcotest.test_case "motivating, jobs 4" `Quick test_oracle_jobs_motivating;
          Alcotest.test_case "jobs 4 never slower than jobs 1" `Quick
            test_oracle_jobs_timing;
        ] );
      ("ordering", [ test_apply_safe_session ]);
      ("fuzz", [ Alcotest.test_case "jobs 2 == jobs 1" `Quick test_fuzz_jobs ]);
      ( "parallel",
        [
          Alcotest.test_case "map/init deterministic" `Quick test_parallel_map;
          Alcotest.test_case "worker failure index" `Quick test_parallel_failure;
          test_waves;
        ] );
    ]
