module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module Prng = Ermes_synth.Prng
module Generate = Ermes_synth.Generate
module Parallel = Ermes_parallel.Parallel
module Obs = Ermes_obs.Obs

type config = {
  seed : int;
  cases : int;
  max_processes : int;
  rounds : int;
  rtl : bool;
  repro_dir : string option;
}

let default =
  { seed = 1; cases = 100; max_processes = 12; rounds = 384; rtl = true; repro_dir = Some "." }

type failure = {
  case : int;
  scenario : Fault.scenario;
  mismatches : string list;
  system : System.t;
  repro_file : string option;
}

type summary = {
  cases_run : int;
  live : int;
  dead : int;
  faults_injected : int;
  failures : failure list;
}

type case_outcome =
  | Case_agreed of Differential.verdict option
  | Case_failed of { scenario : Fault.scenario; mismatches : string list }

let gen_fault rng sys =
  let channels = System.channels sys in
  let processes = System.processes sys in
  let fifos =
    List.filter
      (fun c ->
        match System.channel_kind sys c with
        | System.Fifo _ | System.Multi_rate _ -> true
        | System.Rendezvous | System.Handshake _ -> false)
      channels
  in
  let jitter () =
    Fault.Latency_jitter
      { channel = Prng.pick rng channels; delta = Prng.int_range rng ~lo:(-5) ~hi:25 }
  in
  match Prng.int_range rng ~lo:0 ~hi:99 with
  | n when n < 30 -> jitter ()
  | n when n < 55 ->
    Fault.Process_slowdown
      { process = Prng.pick rng processes; delta = Prng.int_range rng ~lo:1 ~hi:20 }
  | n when n < 80 ->
    Fault.Channel_stall
      {
        channel = Prng.pick rng channels;
        at_transfer = Prng.int_range rng ~lo:0 ~hi:4;
        cycles = Prng.int_range rng ~lo:1 ~hi:60;
      }
  | _ -> (
    match fifos with
    | [] -> jitter ()
    | _ ->
      Fault.Fifo_shrink
        { channel = Prng.pick rng fifos; depth = Prng.int_range rng ~lo:1 ~hi:2 })

let gen_case rng ~max_processes =
  let processes = Prng.int_range rng ~lo:4 ~hi:(max 4 max_processes) in
  let channels = processes + Prng.int_range rng ~lo:(processes / 2) ~hi:(2 * processes) in
  let cfg =
    {
      Generate.processes;
      channels;
      layers = max 2 (processes / 3);
      feedback_fraction = Prng.float_unit rng *. 0.4;
      impls = 2;
      max_process_latency = 50;
      max_channel_latency = 40;
      seed = Prng.int_range rng ~lo:1 ~hi:1_000_000;
    }
  in
  let sys = Generate.generate cfg in
  (* Dress the system up: buffered channels exercise the relay-station TMG
     expansion, multi-rate weights the SDF rate unfolding, handshakes the
     valid/ready gadget, and permuted statement orders the deadlock
     detectors (a permutation may legitimately deadlock a reconvergent
     path). Rates are consistent by construction: each process draws a
     repetition factor q(p) and a multi-rate channel derives its weights as
     produce = q(dst)/g, consume = q(src)/g with g = gcd(q(src), q(dst)),
     so the SDF balance equations always admit the drawn vector as their
     solution — no generated case is rejected for rate inconsistency. *)
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rep =
    let multirate = Prng.bool_with rng ~probability:0.5 in
    Array.init (System.process_count sys) (fun _ ->
        if multirate then Prng.int_range rng ~lo:1 ~hi:3 else 1)
  in
  List.iter
    (fun c ->
      let qs = rep.(System.channel_src sys c)
      and qd = rep.(System.channel_dst sys c) in
      let g = gcd qs qd in
      let produce = qd / g and consume = qs / g in
      if produce > 1 || consume > 1 then
        (* produce and consume are coprime, so produce + consume - 1 is the
           minimal deadlock-free depth; a little slack keeps most cases live
           while the occasional tight buffer still throttles. *)
        System.set_channel_kind sys c
          (System.Multi_rate
             {
               produce;
               consume;
               depth = produce + consume - 1 + Prng.int_range rng ~lo:0 ~hi:3;
             })
      else
        match Prng.int_range rng ~lo:0 ~hi:9 with
        | 0 | 1 | 2 ->
          System.set_channel_kind sys c (System.Fifo (Prng.int_range rng ~lo:1 ~hi:4))
        | 3 ->
          System.set_channel_kind sys c
            (System.Handshake { hold = Prng.int_range rng ~lo:0 ~hi:5 })
        | 4 ->
          (* Unit-rate multi-rate: must behave bit-identically to a FIFO. *)
          System.set_channel_kind sys c
            (System.Multi_rate
               { produce = 1; consume = 1; depth = Prng.int_range rng ~lo:1 ~hi:4 })
        | _ -> ())
    (System.channels sys);
  if Prng.bool_with rng ~probability:0.4 then
    List.iter
      (fun p ->
        if Prng.bool_with rng ~probability:0.5 then begin
          System.set_get_order sys p (Prng.shuffle rng (System.get_order sys p));
          System.set_put_order sys p (Prng.shuffle rng (System.put_order sys p))
        end)
      (System.processes sys);
  let n_faults = Prng.int_range rng ~lo:0 ~hi:3 in
  let scenario = List.init n_faults (fun _ -> gen_fault rng sys) in
  let scenario =
    if Prng.bool_with rng ~probability:0.15 then
      Fault.Token_removal { process = Prng.pick rng (System.processes sys) } :: scenario
    else scenario
  in
  (sys, scenario)

let fails sys ~rounds ~rtl scenario =
  Obs.incr "fuzz.execs";
  Obs.incr "fuzz.shrink_steps";
  match Differential.run_case ~rounds ~rtl sys scenario with
  | r -> not (Differential.agreed r)
  | exception _ -> true

(* Greedy shrink: drop whole faults while the failure reproduces, then halve
   magnitudes fault by fault to a fixpoint — the {!Shrink} discipline, with
   the halving step specific to fault scenarios. *)
let shrink sys ~rounds ~rtl scenario =
  let fails sc = fails sys ~rounds ~rtl sc in
  let step = function
    | Fault.Latency_jitter { channel; delta } when abs delta > 1 ->
      Some (Fault.Latency_jitter { channel; delta = delta / 2 })
    | Fault.Process_slowdown { process; delta } when delta > 1 ->
      Some (Fault.Process_slowdown { process; delta = delta / 2 })
    | Fault.Channel_stall { channel; at_transfer; cycles } when cycles > 1 ->
      Some (Fault.Channel_stall { channel; at_transfer; cycles = cycles / 2 })
    | _ -> None
  in
  Shrink.minimize ~fails ~step scenario

let one_line s = String.map (function '\n' -> ' ' | c -> c) s

(* The repro is one self-contained .soc file: the shrunk faulted system,
   headed by the mismatches, the dynamic fault specs and a replay command. *)
let repro_text ~seed ~case sys scenario mismatches =
  let faulted = Fault.apply sys scenario in
  let dynamic = List.filter (fun f -> not (Fault.is_structural f)) scenario in
  let file = Printf.sprintf "fuzz-seed%d-case%d.soc" seed case in
  let b = Buffer.create 1024 in
  Printf.bprintf b "# ermes fuzz repro: seed %d, case %d\n" seed case;
  List.iter (fun m -> Printf.bprintf b "# mismatch: %s\n" (one_line m)) mismatches;
  List.iter
    (fun f -> Printf.bprintf b "# dynamic fault: %s\n" (Fault.to_spec faulted f))
    dynamic;
  Printf.bprintf b "# replay: ermes inject %s%s --check\n" file
    (String.concat ""
       (List.map (fun f -> Printf.sprintf " --fault %s" (Fault.to_spec faulted f)) dynamic));
  Buffer.add_string b (Soc_format.print faulted);
  (file, Buffer.contents b)

let write_repro dir ~seed ~case sys scenario mismatches =
  let file, text = repro_text ~seed ~case sys scenario mismatches in
  let path = Filename.concat dir file in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
  path

(* The campaign runs in three phases so it can fan out over domains without
   changing a single output bit relative to the sequential run:

   1. {e Generate} (sequential): every case comes from the single seeded Prng
      in case order — exactly the draws the sequential loop would make.
   2. {e Execute} (parallel): differential run + shrink + mismatch extraction
      are a pure function of one case (each worker only touches its own
      generated system), run by {!Parallel.waves}.
   3. {e Classify} (sequential, in case order): counters, repro files and log
      lines replay exactly the sequential order; [waves] emits each wave of
      32 cases before the next starts, so checkpoints persist as the
      campaign progresses.

   [resume] short-circuits phase 2 for cases whose outcome a checkpoint
   journal already holds (generation still runs — it is what makes the
   outcome meaningful); [checkpoint] is called from phase 3, in case order,
   with the final (shrunk) scenario — so a resumed-and-continued campaign
   journals exactly what an uninterrupted one would. *)
let run ?(log = fun _ -> ()) ?checkpoint ?resume ?jobs config =
  Obs.span "fuzz.run" @@ fun () ->
  List.iter (Obs.incr ~by:0) [ "fuzz.execs"; "fuzz.shrink_steps" ];
  let rng = Prng.create ~seed:config.seed in
  let faults = ref 0 in
  let cases =
    Array.init config.cases (fun _ ->
        let sys, scenario = gen_case rng ~max_processes:config.max_processes in
        faults := !faults + List.length scenario;
        (sys, scenario))
  in
  let execute_case () case =
    let sys, scenario = cases.(case) in
    let execute () =
      let outcome =
        Obs.incr "fuzz.execs";
        match Differential.run_case ~rounds:config.rounds ~rtl:config.rtl sys scenario with
        | r -> Ok r
        | exception e ->
          Error (Printf.sprintf "uncaught exception: %s" (Printexc.to_string e))
      in
      match outcome with
      | Ok r when Differential.agreed r -> (scenario, `Agreed r.Differential.verdict)
      | _ ->
        let scenario = shrink sys ~rounds:config.rounds ~rtl:config.rtl scenario in
        let mismatches =
          Obs.incr "fuzz.execs";
          match Differential.run_case ~rounds:config.rounds ~rtl:config.rtl sys scenario with
          | r when not (Differential.agreed r) -> r.Differential.mismatches
          | _ -> (
            (* The shrunk scenario no longer fails deterministically (should
               not happen); report whatever the original run said. *)
            match outcome with Ok r -> r.Differential.mismatches | Error e -> [ e ])
          | exception e -> [ Printf.sprintf "uncaught exception: %s" (Printexc.to_string e) ]
        in
        (scenario, `Failed mismatches)
    in
    match resume with
    | None -> execute ()
    | Some lookup -> (
      match lookup ~case sys with
      | Some (Case_agreed v) -> (scenario, `Agreed v)
      | Some (Case_failed { scenario = shrunk; mismatches }) -> (shrunk, `Failed mismatches)
      | None -> execute ())
  in
  let live = ref 0 and dead = ref 0 in
  let failures = ref [] in
  let record case sys outcome =
    match checkpoint with None -> () | Some f -> f ~case sys outcome
  in
  let classify case (scenario, verdict) =
    let sys, _ = cases.(case) in
    (match verdict with
    | `Agreed v ->
      (match v with
      | Some (Differential.Live _) -> incr live
      | Some Differential.Dead -> incr dead
      | None -> ());
      record case sys (Case_agreed v)
    | `Failed mismatches ->
      let repro_file =
        match config.repro_dir with
        | Some dir -> (
          match write_repro dir ~seed:config.seed ~case sys scenario mismatches with
          | path -> Some path
          | exception Sys_error _ -> None)
        | None -> None
      in
      log
        (Printf.sprintf "case %d: FAIL — %s%s" case
           (String.concat "; " (List.map one_line mismatches))
           (match repro_file with Some f -> " (repro: " ^ f ^ ")" | None -> ""));
      (* With no repro file the shrunk counterexample would be lost —
         print it instead, so a failing CI log is actionable on its own. *)
      if repro_file = None then begin
        let _, text = repro_text ~seed:config.seed ~case sys scenario mismatches in
        log (Printf.sprintf "case %d: shrunk counterexample:\n%s" case text)
      end;
      record case sys (Case_failed { scenario; mismatches });
      failures := { case; scenario; mismatches; system = sys; repro_file } :: !failures);
    if (case + 1) mod 25 = 0 then
      log
        (Printf.sprintf "%d/%d cases, %d failures" (case + 1) config.cases
           (List.length !failures))
  in
  Parallel.waves ?jobs ~size:32 ~init:ignore config.cases execute_case classify;
  {
    cases_run = config.cases;
    live = !live;
    dead = !dead;
    faults_injected = !faults;
    failures = List.rev !failures;
  }
