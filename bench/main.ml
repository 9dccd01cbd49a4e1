(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DAC'14), plus the ablations called out in DESIGN.md.

   Usage:  dune exec bench/main.exe              (full run, a few minutes)
           dune exec bench/main.exe -- --quick   (skip the 10k-process sweep)
           dune exec bench/main.exe -- SECTION   (one section by name)
           dune exec bench/main.exe -- --json FILE   (machine-readable metrics)
           dune exec bench/main.exe -- --jobs J      (fan sweeps over J domains)

   Sections: table1 fig2 fig3 fig4 m1 fig6-timing fig6-area scalability
             ablation-mcm ablation-ordering ablation-dse incremental rtl
             scale runtime chaos micro   *)

module System = Ermes_slm.System
module Motivating = Ermes_support.Motivating
module Sim = Ermes_slm.Sim
module To_tmg = Ermes_slm.To_tmg
module Fsm = Ermes_support.Fsm
module Tmg = Ermes_tmg.Tmg
module Csr = Ermes_tmg.Csr
module Verify = Ermes_verify.Verify
module Cycles = Ermes_support.Cycles
module Firing = Ermes_tmg.Firing
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Order = Ermes_core.Order
module Oracle = Ermes_core.Oracle
module Explore = Ermes_core.Explore
module Frontier = Ermes_core.Frontier
module Soc = Ermes_mpeg2.Soc
module Behaviors = Ermes_mpeg2.Behaviors
module Generate = Ermes_synth.Generate
module Incremental = Ermes_core.Incremental
module Parallel = Ermes_parallel.Parallel

let quick = Array.exists (( = ) "--quick") Sys.argv

(* Value-taking flags, prescanned from argv (the section filter in [main]
   skips flag/value pairs). *)
let argv_value flag =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let json_file = argv_value "--json"

let jobs =
  match argv_value "--jobs" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      prerr_endline "bench: --jobs expects a positive integer";
      exit 1)
  | None -> Parallel.default_jobs ()

(* Machine-readable outcomes, dumped as a flat JSON object by --json FILE:
   per-section wall-clock, headline cycle-time/area/speedup numbers, and the
   microbenchmark ns/run estimates. *)
let metrics : (string * float) list ref = ref []
let metric key v = metrics := (key, v) :: !metrics

let write_json file =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  let entries = List.rev !metrics in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ",\n";
      let v =
        if Float.is_nan v then "null" (* NaN is not JSON *)
        else if Float.is_integer v && Float.abs v < 1e15 then
          Printf.sprintf "%.0f" v
        else Printf.sprintf "%.6g" v
      in
      Printf.bprintf b "  %S: %s" k v)
    entries;
  Buffer.add_string b "\n}\n";
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Buffer.contents b))

let hr title =
  Format.printf "@.======================================================================@.";
  Format.printf "== %s@." title;
  Format.printf "======================================================================@."

let row fmt = Format.printf fmt

let paper fmt = Format.printf ("  paper:      " ^^ fmt ^^ "@.")
let repro fmt = Format.printf ("  reproduced: " ^^ fmt ^^ "@.")

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let min_time ?(reps = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let r, t = time f in
    result := Some r;
    best := min !best t
  done;
  (Option.get !result, !best)

let analyze_exn sys =
  match Perf.analyze sys with
  | Ok a -> a
  | Error f -> Format.kasprintf failwith "%a" (Perf.pp_failure sys) f

(* The characterized MPEG-2 system and its frontier, shared by sections. *)
let mpeg2 = lazy (Soc.build ())
let mpeg2_frontier = lazy (Frontier.system_pareto (Lazy.force mpeg2))
let m1_point = lazy (Frontier.fastest (Lazy.force mpeg2_frontier))
let m2_point =
  (* The paper's M2 sits at CT ratio 3597/1906 = 1.887 above M1. *)
  lazy (Frontier.at_cycle_time_ratio (Lazy.force mpeg2_frontier) (3597. /. 1906.))

(* ---------------------------------------------------------------- table 1 *)

let table1 () =
  hr "Table 1 - experimental setup of the MPEG-2 encoder";
  let sys = Lazy.force mpeg2 in
  let s = Soc.stats sys in
  row "  %-28s %-22s %s@." "" "paper" "reproduced";
  row "  %-28s %-22s %d@." "processes" "26" s.Soc.worker_processes;
  row "  %-28s %-22s %d@." "channels" "60" s.Soc.channels;
  row "  %-28s %-22s %dx%d@." "image size (pixels)" "352x240" Behaviors.frame_width
    Behaviors.frame_height;
  row "  %-28s %-22s %d@." "Pareto points" "171" s.Soc.pareto_points;
  row "  %-28s %-22s %d..%d@." "channel latencies (cycles)" "1..5,280"
    s.Soc.min_channel_latency s.Soc.max_channel_latency;
  row "  %-28s %-22s %s@." "HLS knobs" "pipelining, unrolling, .."
    "unroll x pipeline x sharing";
  row "  %-28s %-22s %.3g@." "order combinations" "(not reported)" s.Soc.order_combinations;
  row "  %-28s %-22s %s@." "SystemC LoC" "~9,000" "n/a (OCaml model)"

(* ------------------------------------------------------------------ fig 2 *)

let fig2 () =
  hr "Fig. 2 / SS2 - motivating example: orders, deadlock, FSM";
  let sys = Motivating.system () in
  paper "36 possible order combinations";
  repro "%.0f combinations" (System.order_combinations sys);
  (* The deadlocking order of SS2. *)
  let dead = Motivating.deadlocking () in
  (match Perf.analyze dead with
   | Error (Perf.Deadlock d) ->
     paper "P6 reading (g,d,e) deadlocks: P2 waits on d, P6 on g, P5 on f";
     repro "token-free cycle through channels [%s]"
       (String.concat " " (List.map (System.channel_name dead) d.Perf.dead_channels))
   | _ -> repro "ERROR: deadlock not detected");
  (match Sim.steady_cycle_time dead with
   | Ok (Sim.Deadlock d) ->
     repro "cycle-accurate simulation confirms: %d processes blocked at cycle %d"
       (List.length d.Sim.blocked) d.Sim.at_cycle
   | Ok _ | Error _ -> repro "ERROR: simulation missed the deadlock");
  (* Fig 2b: the FSM of P2. *)
  let p2 = Option.get (System.find_process sys "P2") in
  let fsm = Fsm.of_process sys p2 in
  paper "P2's FSM: one state per get/put with wait self-loops + computation chain";
  repro "P2's FSM: %d I/O states, %d computation states, 1 reset"
    (Fsm.io_state_count fsm) (Fsm.compute_state_count fsm)

(* ------------------------------------------------------------------ fig 3 *)

let fig3 () =
  hr "Fig. 3 / SS3 - TMG model and performance analysis without simulation";
  let sys = Motivating.suboptimal () in
  let m = To_tmg.build sys in
  let tmg = m.To_tmg.tmg in
  paper "one transition per channel and per computation; put/get places; 1 token per process";
  repro "%d transitions, %d places, %d tokens (7 processes, 8 channels)"
    (Tmg.transition_count tmg) (Tmg.place_count tmg) (Tmg.total_tokens tmg);
  let res, t = time (fun () -> analyze_exn sys) in
  repro "Howard's algorithm: cycle time %s in %.3f ms (no simulation needed)"
    (Ratio.to_string res.Perf.cycle_time) (1000. *. t);
  (match Firing.measured_cycle_time tmg ~rounds:100 with
   | Some r -> repro "max-plus earliest-firing execution agrees: %s" (Ratio.to_string r)
   | None -> repro "ERROR: no steady state");
  (match Sim.steady_cycle_time sys with
   | Ok (Sim.Period r) -> repro "discrete-event simulation agrees: %s" (Ratio.to_string r)
   | _ -> repro "ERROR: simulation disagreed");
  match Ermes_rtl.Soc_rtl.measured_cycle_time sys with
  | Some r -> repro "generated RTL (interpreted cycle by cycle) agrees: %s" (Ratio.to_string r)
  | None -> repro "ERROR: RTL stalled"

(* ------------------------------------------------------------------ fig 4 *)

let fig4 () =
  hr "Fig. 4 / SS4 - channel ordering: labels, optimal order, CT 20 -> 12";
  let sys = Motivating.suboptimal () in
  let before = analyze_exn sys in
  paper "suboptimal ordering: cycle time 20, throughput 0.05";
  repro "cycle time %s, throughput %s" (Ratio.to_string before.Perf.cycle_time)
    (Ratio.to_string (Perf.throughput before));
  let lb = Order.apply sys in
  paper "forward labels: a(3,1) f(13,2) b(13,3) d(13,4) then {17,17} e(19,7) h(22,8)";
  let show name =
    let c = Option.get (System.find_channel sys name) in
    Format.sprintf "%s(%d,%d)" name lb.Order.head_weight.(c) lb.Order.head_timestamp.(c)
  in
  repro "forward labels: %s" (String.concat " " (List.map show [ "a"; "f"; "b"; "d"; "g"; "c"; "e"; "h" ]));
  let show_tail name =
    let c = Option.get (System.find_channel sys name) in
    Format.sprintf "%s(%d)" name lb.Order.tail_weight.(c)
  in
  paper "tail weights: h=2 d=g=e=10 f=13 c=13 b=16 a=23";
  repro "tail weights: %s" (String.concat " " (List.map show_tail [ "h"; "d"; "g"; "e"; "f"; "c"; "b"; "a" ]));
  let p2 = Option.get (System.find_process sys "P2") in
  let p6 = Option.get (System.find_process sys "P6") in
  paper "final order: P2 writes (b,f,d); P6 reads (d,g,e)";
  repro "final order: P2 writes (%s); P6 reads (%s)"
    (String.concat "," (List.map (System.channel_name sys) (System.put_order sys p2)))
    (String.concat "," (List.map (System.channel_name sys) (System.get_order sys p6)));
  let after = analyze_exn sys in
  paper "optimal cycle time 12 (40%% better than 20)";
  repro "cycle time %s (%.0f%% better)" (Ratio.to_string after.Perf.cycle_time)
    (100. *. (1. -. (Ratio.to_float after.Perf.cycle_time /. Ratio.to_float before.Perf.cycle_time)));
  match Oracle.search (Motivating.system ()) with
  | Some o ->
    repro "exhaustive check over all %d orders: optimum %s, %d orders deadlock"
      o.Oracle.evaluated (Ratio.to_string o.Oracle.best_cycle_time) o.Oracle.deadlocked
  | None -> repro "ERROR: oracle failed"

(* ----------------------------------------------------- M1 reordering (SS6) *)

let m1 () =
  hr "SS6 - implementation M1: reordering alone (paper: ~5% CT, no area cost)";
  let sys = System.copy (Lazy.force mpeg2) in
  let m1p = Lazy.force m1_point in
  let m2p = Lazy.force m2_point in
  row "  frontier: %d system-level Pareto points (Liu-Carloni preprocessing)@."
    (List.length (Lazy.force mpeg2_frontier));
  paper "M1: CT 1,906 KCycles, area 2.267 mm2; M2: CT 3,597 KC, 1.562 mm2 (ratio 1.89)";
  repro "M1: CT %s cycles, area %.3f mm2; M2: CT %s, %.3f mm2 (ratio %.2f)"
    (Ratio.to_string m1p.Frontier.cycle_time) m1p.Frontier.area
    (Ratio.to_string m2p.Frontier.cycle_time) m2p.Frontier.area
    (Ratio.to_float m2p.Frontier.cycle_time /. Ratio.to_float m1p.Frontier.cycle_time);
  (* From the conservative baseline. *)
  Frontier.select sys m1p;
  Order.conservative sys;
  let before, after = Explore.reorder_only sys in
  repro "from the conservative baseline: CT %s -> %s (%.1f%%), area unchanged"
    (Ratio.to_string before) (Ratio.to_string after)
    (100. *. (1. -. (Ratio.to_float after /. Ratio.to_float before)));
  (* Distribution over random live designer orders. Each seed is independent
     given its own copy, so the sweep fans out over [jobs] domains; the
     result set is identical for any jobs value. *)
  let n = if quick then 30 else 100 in
  let gains =
    Parallel.map ~jobs
      (fun (seed, sys) ->
        Order.conservative_random ~seed sys;
        let b, a = Explore.reorder_only sys in
        100. *. (1. -. (Ratio.to_float a /. Ratio.to_float b)))
      (List.init n (fun i -> (i + 1, System.copy sys)))
  in
  let gains = List.sort compare gains in
  let pct k = List.nth gains (k * (List.length gains - 1) / 100) in
  paper "reordering resolved unnecessary serialization: 5%% CT improvement";
  repro "over %d random live designer orders: median %.1f%%, p75 %.1f%%, max %.1f%%" n
    (pct 50) (pct 75) (pct 100);
  metric "m1.gain_pct.median" (pct 50);
  metric "m1.gain_pct.max" (pct 100)

(* ----------------------------------------------------------- fig 6 (both) *)

let run_exploration ~label ~paper_line ~tct_frac sys m2p =
  Frontier.select sys m2p;
  Order.conservative sys;
  let m2ct = Ratio.to_float m2p.Frontier.cycle_time in
  let tct = int_of_float (m2ct *. tct_frac) in
  let trace, t = time (fun () -> Explore.run ~tct sys) in
  Format.printf "  target cycle time: %d (%.3f x M2's CT); ERMES ran %.1f s@." tct tct_frac t;
  Format.printf "  iter  action               cycle-time     area(mm2)@.";
  List.iter
    (fun (s : Explore.step) ->
      Format.printf "   %2d   %-20s %-12s   %6.3f%s@." s.Explore.iteration
        (match s.Explore.action with
         | Explore.Initial -> "initial"
         | Explore.Timing_optimization -> "timing-optimization"
         | Explore.Area_recovery -> "area-recovery"
         | Explore.Converged -> "converged")
        (Ratio.to_string s.Explore.cycle_time)
        s.Explore.area
        (if s.Explore.reordered then "  (reordered)" else ""))
    trace.Explore.steps;
  paper "%s" paper_line;
  let speedup = m2ct /. Ratio.to_float (Explore.final_cycle_time trace) in
  let area_change = 100. *. ((Explore.final_area trace /. m2p.Frontier.area) -. 1.) in
  let ct_change = 100. *. ((Ratio.to_float (Explore.final_cycle_time trace) /. m2ct) -. 1.) in
  repro "target %s; speed-up %.2fx; CT %+.1f%%; area %+.1f%% vs M2"
    (if trace.Explore.met then "met" else "missed")
    speedup ct_change area_change;
  metric (Printf.sprintf "fig6.%s.met" label) (if trace.Explore.met then 1. else 0.);
  metric (Printf.sprintf "fig6.%s.cycle_time" label)
    (Ratio.to_float (Explore.final_cycle_time trace));
  metric (Printf.sprintf "fig6.%s.area_mm2" label) (Explore.final_area trace);
  metric (Printf.sprintf "fig6.%s.seconds" label) t

let fig6_timing () =
  hr "Fig. 6 left - timing optimization from M2 (paper TCT = 2,000 KC = 0.556 x M2)";
  run_exploration ~label:"timing"
    ~paper_line:"meets TCT after 4 iterations: 2x speed-up, +44.6% area"
    ~tct_frac:(2000. /. 3597.)
    (System.copy (Lazy.force mpeg2))
    (Lazy.force m2_point)

let fig6_area () =
  hr "Fig. 6 right - area recovery from M2 (paper TCT = 4,000 KC = 1.112 x M2)";
  run_exploration ~label:"area"
    ~paper_line:"-32.5% area for <1% CT degradation after 3 iterations"
    ~tct_frac:(4000. /. 3597.)
    (System.copy (Lazy.force mpeg2))
    (Lazy.force m2_point)

(* ------------------------------------------------------------- scalability *)

let scalability () =
  hr "SS6 - scalability on synthetic SoCs (paper: up to 10,000 processes, minutes)";
  let sizes =
    if quick then [ (100, 150); (1000, 1500); (3000, 4500) ]
    else [ (100, 150); (1000, 1500); (3000, 4500); (10_000, 15_000) ]
  in
  row "  procs  chans   generate   analyze    order+verify   total@.";
  List.iter
    (fun (np, nc) ->
      let sys, tgen = time (fun () -> Generate.scaled ~processes:np ~channels:nc ()) in
      let _, tana = time (fun () -> analyze_exn sys) in
      let _, tord = time (fun () -> Order.apply_safe sys) in
      metric (Printf.sprintf "scalability.%d.analyze_s" np) tana;
      metric (Printf.sprintf "scalability.%d.order_s" np) tord;
      row "  %5d  %5d   %7.2fs   %7.2fs   %10.2fs   %6.2fs@." np
        (System.channel_count sys) tgen tana tord (tgen +. tana +. tord))
    sizes;
  paper "ERMES takes on the order of a few minutes in the worst cases";
  repro "the largest instance completes in seconds on one core"

(* ------------------------------------------------------------ ablation MCM *)

let ablation_mcm () =
  hr "Ablation - minimum cycle mean/ratio algorithms (paper SS3 cites [2,5,12])";
  (* Agreement sweep on random live TMGs. *)
  let rng = Ermes_synth.Prng.create ~seed:99 in
  let mismatches = ref 0 and nets = ref 0 in
  for _ = 1 to 300 do
    let n = Ermes_synth.Prng.int_range rng ~lo:2 ~hi:7 in
    let tmg = Tmg.create () in
    let ts = List.init n (fun _ -> Tmg.add_transition tmg ~delay:(Ermes_synth.Prng.int_range rng ~lo:0 ~hi:9) ()) in
    let arr = Array.of_list ts in
    for i = 0 to n - 1 do
      ignore (Tmg.add_place tmg ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens:1 ())
    done;
    for _ = 1 to Ermes_synth.Prng.int_range rng ~lo:0 ~hi:6 do
      ignore
        (Tmg.add_place tmg
           ~src:arr.(Ermes_synth.Prng.int_range rng ~lo:0 ~hi:(n - 1))
           ~dst:arr.(Ermes_synth.Prng.int_range rng ~lo:0 ~hi:(n - 1))
           ~tokens:1 ())
    done;
    incr nets;
    let g = Csr.of_tmg tmg in
    match (Csr.cycle_time tmg, Csr.karp_unit g, Cycles.max_cycle_ratio_brute tmg) with
    | Ok h, Some k, Some (b, _) ->
      let lawler_ok =
        match Csr.lawler_certified g with
        | Ok (l, _, _) -> Ratio.equal l h.Csr.cycle_time
        | Error _ -> false
      in
      if not (Ratio.equal h.Csr.cycle_time k && Ratio.equal k b && lawler_ok) then
        incr mismatches
    | _ -> incr mismatches
  done;
  repro "Howard = Karp = Lawler = exhaustive enumeration on %d random unit-token nets (%d mismatches)"
    !nets !mismatches;
  (* Timing on the MPEG-2 TMG and a large synthetic one. *)
  let m = To_tmg.build (Lazy.force mpeg2) in
  let (_, t_howard) = time (fun () -> Csr.cycle_time m.To_tmg.tmg) in
  let (_, t_lawler) = time (fun () -> Csr.lawler_certified (Csr.of_tmg m.To_tmg.tmg)) in
  repro "Howard on the MPEG-2 TMG (%d transitions, %d places): %.3f ms (Lawler: %.3f ms)"
    (Tmg.transition_count m.To_tmg.tmg) (Tmg.place_count m.To_tmg.tmg) (1000. *. t_howard)
    (1000. *. t_lawler);
  let big = Generate.scaled ~processes:1000 ~channels:1500 () in
  let mb = To_tmg.build big in
  let (_, t_big) = time (fun () -> Csr.cycle_time mb.To_tmg.tmg) in
  repro "Howard on a 1,000-process TMG (%d transitions, %d places): %.1f ms"
    (Tmg.transition_count mb.To_tmg.tmg) (Tmg.place_count mb.To_tmg.tmg) (1000. *. t_big);
  repro "exhaustive enumeration is already intractable at this size (the paper's point)"

(* ------------------------------------------------------- ablation ordering *)

let ablation_ordering () =
  hr "Ablation - ordering algorithm vs conservative baseline vs exhaustive optimum";
  (* Small random DAG systems where the oracle is affordable. *)
  let rng = Random.State.make [| 2024 |] in
  let ri lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let random_sys () =
    let layers = ri 2 4 in
    let sys = System.create () in
    let workers = ref [] in
    let layer_of = Hashtbl.create 16 in
    let id = ref 0 in
    for l = 0 to layers - 1 do
      for _ = 1 to ri 1 3 do
        let w = System.add_simple_process sys ~latency:(ri 0 9) ~area:0.01 (Printf.sprintf "w%d" !id) in
        incr id;
        Hashtbl.add layer_of w l;
        workers := w :: !workers
      done
    done;
    let workers = Array.of_list (List.rev !workers) in
    let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
    let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
    let seen = Hashtbl.create 16 in
    let next = ref 0 in
    let add s d =
      if s <> d && not (Hashtbl.mem seen (s, d)) then begin
        Hashtbl.add seen (s, d) ();
        ignore (System.add_channel sys ~name:(Printf.sprintf "c%d" !next) ~src:s ~dst:d ~latency:(ri 1 9));
        incr next
      end
    in
    Array.iter
      (fun w ->
        let l = Hashtbl.find layer_of w in
        (if l = 0 then add src w
         else
           let prev = Array.to_list workers |> List.filter (fun v -> Hashtbl.find layer_of v = l - 1) in
           add (List.nth prev (ri 0 (List.length prev - 1))) w);
        if l = layers - 1 then add w snk
        else
          let nxt = Array.to_list workers |> List.filter (fun v -> Hashtbl.find layer_of v = l + 1) in
          add w (List.nth nxt (ri 0 (List.length nxt - 1))))
      workers;
    for _ = 1 to ri 0 5 do
      let u = workers.(ri 0 (Array.length workers - 1)) in
      let v = workers.(ri 0 (Array.length workers - 1)) in
      if Hashtbl.find layer_of u < Hashtbl.find layer_of v then add u v
    done;
    sys
  in
  let n = if quick then 40 else 120 in
  (* Candidate generation draws from the shared rng, so it stays sequential
     (the candidate set is identical for any jobs value); the per-candidate
     evaluation — oracle + both ordering algorithms + local search on a
     private system — fans out over [jobs] domains. *)
  let candidates =
    let acc = ref [] in
    while List.length !acc < n do
      let sys = random_sys () in
      if System.order_combinations sys <= 3000. then acc := sys :: !acc
    done;
    List.rev !acc
  in
  let results =
    Parallel.map ~jobs
      (fun sys ->
        match Oracle.search ~limit:3001 sys with
        | None -> None
        | Some oracle ->
          let best = Ratio.to_float oracle.Oracle.best_cycle_time in
          Order.conservative sys;
          let cons = Ratio.to_float (analyze_exn sys).Perf.cycle_time in
          ignore (Order.apply_safe sys);
          let got = Ratio.to_float (analyze_exn sys).Perf.cycle_time in
          ignore (Order.local_search ~max_evaluations:2000 sys);
          let refined = Ratio.to_float (analyze_exn sys).Perf.cycle_time in
          Some (cons /. best, got /. best, refined /. best))
      candidates
    |> List.filter_map Fun.id
  in
  let total = List.length results in
  let cons_gaps = List.map (fun (c, _, _) -> c) results in
  let gaps = List.map (fun (_, g, _) -> g) results in
  let ls_gaps = List.map (fun (_, _, r) -> r) results in
  let optimal = List.length (List.filter (fun g -> g <= 1. +. 1e-9) gaps) in
  let ls_optimal = List.length (List.filter (fun g -> g <= 1. +. 1e-9) ls_gaps) in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let worst xs = List.fold_left max 1. xs in
  repro "on %d small systems with exhaustive ground truth:" total;
  repro "  conservative baseline:   mean gap %.3fx, worst %.2fx" (mean cons_gaps)
    (worst cons_gaps);
  repro "  Algorithm 1 (safe):      optimal in %3d/%d, mean gap %.3fx, worst %.2fx" optimal
    total (mean gaps) (worst gaps);
  repro "  + local search (beyond the paper): optimal in %3d/%d, mean gap %.3fx, worst %.2fx"
    ls_optimal total (mean ls_gaps) (worst ls_gaps);
  metric "ablation_ordering.algorithm1.mean_gap" (mean gaps);
  metric "ablation_ordering.local_search.mean_gap" (mean ls_gaps);
  metric "ablation_ordering.local_search.optimal" (float_of_int ls_optimal);
  metric "ablation_ordering.total" (float_of_int total)

(* ------------------------------------------------------------ ablation DSE *)

let ablation_dse () =
  hr "Ablation - exploration with vs without channel reordering (paper Fig. 5 loop)";
  let m2p = Lazy.force m2_point in
  let tct = int_of_float (Ratio.to_float m2p.Frontier.cycle_time *. 2000. /. 3597.) in
  let run reorder =
    let sys = System.copy (Lazy.force mpeg2) in
    Frontier.select sys m2p;
    Order.conservative sys;
    let trace = Explore.run ~reorder ~tct sys in
    (Explore.final_cycle_time trace, Explore.final_area trace, trace.Explore.met,
     List.length trace.Explore.steps)
  in
  let ct1, a1, met1, it1 = run true in
  let ct2, a2, met2, it2 = run false in
  repro "with reordering:    CT %s area %.3f mm2 target %s (%d steps)"
    (Ratio.to_string ct1) a1 (if met1 then "met" else "missed") it1;
  repro "without reordering: CT %s area %.3f mm2 target %s (%d steps)"
    (Ratio.to_string ct2) a2 (if met2 then "met" else "missed") it2

(* ------------------------------------------------------- ermes frontier *)

let ermes_frontier () =
  hr "SS6 - richer explorations: the ERMES frontier vs the scalarization frontier";
  paper "'the proposed methodology ... allows us to perform richer design-space";
  paper "explorations and to obtain better implementations' (SS6)";
  let frontier = Lazy.force mpeg2_frontier in
  let m2p = Lazy.force m2_point in
  let m2ct = Ratio.to_float m2p.Frontier.cycle_time in
  (* Sweep targets across the frontier's dynamic range and let ERMES find a
     configuration per target; compare with the closest scalarization
     point. *)
  let fractions = if quick then [ 0.6; 1.0; 1.6 ] else [ 0.5; 0.7; 1.0; 1.4; 2.0; 3.0 ] in
  row "  target-CT   ERMES CT          ERMES area  cheapest frontier point meeting it@.";
  List.iter
    (fun f ->
      let tct = int_of_float (m2ct *. f) in
      let sys = System.copy (Lazy.force mpeg2) in
      Frontier.select sys m2p;
      Order.conservative sys;
      let trace = Explore.run ~max_iterations:10 ~tct sys in
      let ct = Explore.final_cycle_time trace in
      let area = Explore.final_area trace in
      (* What a designer would take from the scalarization frontier for this
         target: the cheapest point meeting it. *)
      let meeting =
        List.filter
          (fun (p : Frontier.point) -> Ratio.(p.Frontier.cycle_time <= Ratio.of_int tct))
          frontier
      in
      let pick =
        List.fold_left
          (fun best (p : Frontier.point) ->
            match best with
            | None -> Some p
            | Some b -> if p.Frontier.area < b.Frontier.area then Some p else best)
          None meeting
      in
      (match pick with
       | Some p ->
         row "  %8d   %-10s %s  %6.3f      CT=%-10s area=%6.3f  (ERMES %s)@." tct
           (Ratio.to_string ct)
           (if trace.Explore.met then "met   " else "missed")
           area
           (Ratio.to_string p.Frontier.cycle_time)
           p.Frontier.area
           (if area < p.Frontier.area -. 1e-9 then "smaller" else "within")
       | None ->
         row "  %8d   %-10s %s  %6.3f      (no frontier point meets the target)@." tct
           (Ratio.to_string ct)
           (if trace.Explore.met then "met   " else "missed")
           area))
    fractions;
  repro "at every achievable target the explored configuration needs no more area";
  repro "than the scalarization frontier's, usually much less (per-process ILP +";
  repro "reordering reach combinations the frontier's uniform weighting cannot)"

(* ------------------------------------------------------- ablation memory *)

let ablation_memory () =
  hr "Extension - memory co-optimization (the paper's stated future work, SS7/SS8)";
  paper "SS7: 'HLS tools create as many memory ports as the number of concurrent";
  paper "processes insisting on that memory and the memory size scales badly with";
  paper "the number of ports' - the argument for the three-phase process style";
  let module Memory = Ermes_hls.Memory in
  let module Behavior = Ermes_hls.Behavior in
  let module Op = Ermes_hls.Op in
  let module Design = Ermes_hls.Design in
  row "  a 16K-word local SRAM at increasing port counts:@.";
  row "    ports   multi-ported(mm2)   banked(mm2)   multi-port penalty@.";
  let base = Memory.area { Memory.words = 16384; banks = 1 } in
  List.iter
    (fun n ->
      let mp = Memory.multiport_area ~words:16384 ~ports:n in
      let bk = Memory.area { Memory.words = 16384; banks = n } in
      row "      %2d        %6.4f            %6.4f          %.2fx@." n (mp *. 1e-6)
        (bk *. 1e-6) (mp /. base))
    [ 1; 2; 4; 8 ];
  repro "splitting one process into 8 sharing a memory costs 5.2x the storage area;";
  repro "banking inside one three-phase process delivers the same 8 ports for ~1.05x";
  (* Banking as a micro-architecture knob on a memory-bound kernel. *)
  let kernel =
    Behavior.make ~local_words:16384 "stream_kernel"
      [
        Behavior.loop ~label:"stream" ~trip:1024
          (Array.init 16 (fun i ->
               if i < 8 then Op.op Op.Mem else Op.op ~deps:[ i - 8 ] Op.Mem));
      ]
  in
  row "  banking knob on a memory-bound kernel (trip 1024, 16 mem ops/iter):@.";
  row "    banks   latency(cycles)   area(mm2)@.";
  List.iter
    (fun banking ->
      let p =
        Design.evaluate kernel
          { Design.unroll = 1; pipelined = true; sharing = Design.Full; banking }
      in
      row "      %2d        %6d         %6.4f@." banking p.Design.latency (p.Design.area *. 1e-6))
    [ 1; 2; 4; 8 ];
  let frontier = Design.pareto_frontier kernel in
  repro "the banking knob contributes %d points to the kernel's %d-point Pareto frontier"
    (List.length
       (List.sort_uniq compare
          (List.map (fun (p : Design.point) -> p.Design.knobs.Design.banking) frontier)))
    (List.length frontier)

(* ------------------------------------------------------ incremental engine *)

(* A layered system whose order space is oracle-affordable but nontrivial:
   hub 4!·3! = 144 times hub2 3!·2! = 12, i.e. 1,728 combinations. *)
let oracle_playground () =
  let sys = System.create ~name:"oracle-playground" () in
  let proc lat name = System.add_simple_process sys ~latency:lat ~area:0.01 name in
  let chan name src dst lat =
    ignore (System.add_channel sys ~name ~src ~dst ~latency:lat)
  in
  let srcs = Array.init 4 (fun i -> proc (2 + (3 * i)) (Printf.sprintf "src%d" i)) in
  let hub = proc 7 "hub" in
  let mids = Array.init 3 (fun i -> proc (3 + (2 * i)) (Printf.sprintf "mid%d" i)) in
  let hub2 = proc 5 "hub2" in
  let snks = Array.init 2 (fun i -> proc (1 + i) (Printf.sprintf "snk%d" i)) in
  Array.iteri (fun i s -> chan (Printf.sprintf "a%d" i) s hub (1 + (2 * i))) srcs;
  Array.iteri (fun i m -> chan (Printf.sprintf "b%d" i) hub m (5 - i)) mids;
  Array.iteri (fun i m -> chan (Printf.sprintf "c%d" i) m hub2 (2 + i)) mids;
  Array.iteri (fun i t -> chan (Printf.sprintf "d%d" i) hub2 t (3 - i)) snks;
  sys

let incremental () =
  hr "Incremental engine - session probes vs fresh analysis; multicore oracle";
  (* Repeated probes in the shape of every search inner loop: mutate a
     selection (even steps) or swap a statement order (odd steps), then
     re-analyze. The fresh path rebuilds the TMG and solves cold each time;
     the session path edits the TMG in place and solves warm. *)
  let k = if quick then 100 else 400 in
  let mutate sys procs i =
    let p = procs.(i mod Array.length procs) in
    if i land 1 = 0 then
      let n = Array.length (System.impls sys p) in
      System.select sys p ((System.selected sys p + 1) mod n)
    else
      match System.put_order sys p with
      | a :: b :: rest -> System.set_put_order sys p (b :: a :: rest)
      | _ -> ()
  in
  let run_probes analyze sys =
    let procs = Array.of_list (System.processes sys) in
    let cts = ref [] in
    let (), t =
      time (fun () ->
          for i = 0 to k - 1 do
            mutate sys procs i;
            cts := (analyze sys : Perf.analysis).Perf.cycle_time :: !cts
          done)
    in
    (List.rev !cts, t)
  in
  let base = Lazy.force mpeg2 in
  let fresh_cts, t_fresh = run_probes analyze_exn (System.copy base) in
  let inc_sys = System.copy base in
  let session = Incremental.create inc_sys in
  let inc_cts, t_inc = run_probes (fun _ -> Incremental.analyze_exn session) inc_sys in
  if not (List.for_all2 Ratio.equal fresh_cts inc_cts) then
    failwith "incremental bench: session disagrees with fresh analysis";
  let stats = Incremental.stats session in
  repro "%d mutate+analyze probes on the MPEG-2 system (identical cycle times):" k;
  repro "  fresh rebuild each probe: %6.2f ms total (%.3f ms/probe)" (1000. *. t_fresh)
    (1000. *. t_fresh /. float_of_int k);
  repro "  incremental session:      %6.2f ms total (%.3f ms/probe) — %.1fx faster"
    (1000. *. t_inc) (1000. *. t_inc /. float_of_int k) (t_fresh /. t_inc);
  repro "  session absorbed %d delay edits + %d rethreads, %d rebuilds"
    stats.Incremental.delay_edits stats.Incremental.rethreads stats.Incremental.rebuilds;
  metric "incremental.fresh_s" t_fresh;
  metric "incremental.session_s" t_inc;
  metric "incremental.speedup" (t_fresh /. t_inc);
  (* Warm-start payoff isolated to the solver: delay perturbations on one
     prebuilt MPEG-2 TMG, a cold Howard run per probe vs one persistent
     warm solver. Both runs start from a fresh build, so they see the same
     perturbation sequence and must agree on every cycle time. *)
  let k_warm = if quick then 200 else 1000 in
  let run_howard mk_solve =
    let m = To_tmg.build base in
    let tmg = m.To_tmg.tmg in
    let compute = m.To_tmg.compute_transition in
    let solve = mk_solve tmg in
    let cts = ref [] in
    let (), t =
      time (fun () ->
          for i = 0 to k_warm - 1 do
            let tr = compute.(i mod Array.length compute).(0) in
            Tmg.set_delay tmg tr (1 + ((Tmg.delay tmg tr + i) mod 50));
            match solve () with
            | Ok (r : Csr.result) -> cts := r.Csr.cycle_time :: !cts
            | Error _ -> failwith "howard-warm bench: unexpected verdict"
          done)
    in
    (List.rev !cts, t)
  in
  let cold_cts, t_cold = run_howard (fun tmg () -> Csr.cycle_time tmg) in
  let warm_cts, t_warm =
    run_howard (fun tmg ->
        let solver = Csr.make_solver tmg in
        fun () -> Csr.solve solver)
  in
  if not (List.for_all2 Ratio.equal cold_cts warm_cts) then
    failwith "howard-warm bench: warm solver disagrees with cold analysis";
  repro "%d delay-perturbation solves on the MPEG-2 TMG (identical cycle times):"
    k_warm;
  repro "  cold solve each probe:    %6.2f ms total (%.3f ms/solve)" (1000. *. t_cold)
    (1000. *. t_cold /. float_of_int k_warm);
  repro "  warm persistent solver:   %6.2f ms total (%.3f ms/solve) — %.1fx faster"
    (1000. *. t_warm)
    (1000. *. t_warm /. float_of_int k_warm)
    (t_cold /. t_warm);
  metric "howard_warm.cold_s" t_cold;
  metric "howard_warm.warm_s" t_warm;
  metric "howard_warm.speedup" (t_cold /. t_warm);
  (* Same loop on a 1,000-process synthetic SoC, where the per-probe rebuild
     the session avoids is ~10,000x the delay edit that replaces it. *)
  let k_big = if quick then 20 else 50 in
  let big = Generate.scaled ~processes:1000 ~channels:1500 () in
  let run_big analyze sys =
    let procs = Array.of_list (System.processes sys) in
    let cts = ref [] in
    let (), t =
      time (fun () ->
          for i = 0 to k_big - 1 do
            mutate sys procs (2 * i + 1) (* odd steps: order swaps *);
            cts := (analyze sys : Perf.analysis).Perf.cycle_time :: !cts
          done)
    in
    (List.rev !cts, t)
  in
  let fresh_cts, t_fresh_big = run_big analyze_exn (System.copy big) in
  let big_inc = System.copy big in
  let big_session = Incremental.create big_inc in
  let inc_cts, t_inc_big =
    run_big (fun _ -> Incremental.analyze_exn big_session) big_inc
  in
  if not (List.for_all2 Ratio.equal fresh_cts inc_cts) then
    failwith "incremental bench: session disagrees with fresh analysis (synth-1000)";
  repro "%d order-swap probes on a 1,000-process synthetic SoC:" k_big;
  repro "  fresh rebuild each probe: %6.1f ms total (%.2f ms/probe)"
    (1000. *. t_fresh_big)
    (1000. *. t_fresh_big /. float_of_int k_big);
  repro "  incremental session:      %6.1f ms total (%.2f ms/probe) — %.1fx faster"
    (1000. *. t_inc_big)
    (1000. *. t_inc_big /. float_of_int k_big)
    (t_fresh_big /. t_inc_big);
  metric "incremental.synth1000.fresh_s" t_fresh_big;
  metric "incremental.synth1000.session_s" t_inc_big;
  metric "incremental.synth1000.speedup" (t_fresh_big /. t_inc_big);
  (* The multicore oracle: same 1,728-combination search at 1, 2 and 4
     domains; the three results must be bit-identical. One untimed sweep
     over the job counts first, so that no key pays the process's first
     domain spawn; then five timed sweeps, and each key is its median. *)
  let osys = oracle_playground () in
  repro "oracle playground: %.0f order combinations" (System.order_combinations osys);
  let job_counts = [ 1; 2; 4 ] in
  let sweep () =
    List.map
      (fun j -> time (fun () -> Option.get (Oracle.search ~limit:10_000 ~jobs:j osys)))
      job_counts
  in
  ignore (sweep ());
  let sweeps = List.init 5 (fun _ -> sweep ()) in
  List.iteri
    (fun i j ->
      let runs = List.map (fun s -> List.nth s i) sweeps in
      let r = fst (List.hd runs) in
      let t = List.nth (List.sort compare (List.map snd runs)) 2 in
      repro
        "  oracle ~jobs:%d: optimum %s over %d combinations (%d deadlock) in %.2f ms \
         (median of 5)"
        j
        (Ratio.to_string r.Oracle.best_cycle_time)
        r.Oracle.evaluated r.Oracle.deadlocked (1000. *. t);
      metric (Printf.sprintf "incremental.oracle.jobs%d_s" j) t)
    job_counts;
  let r1 = fst (List.hd (List.hd sweeps)) in
  List.iter
    (List.iter (fun (r, _) ->
         if
           not
             (Ratio.equal r.Oracle.best_cycle_time r1.Oracle.best_cycle_time
             && r.Oracle.evaluated = r1.Oracle.evaluated
             && r.Oracle.deadlocked = r1.Oracle.deadlocked)
         then failwith "incremental bench: parallel oracle deviates from sequential"))
    sweeps;
  repro "  all job counts agree bit-for-bit (%d host cores available)"
    (Parallel.available ())

(* ------------------------------------------------------- bechamel microbench *)

let micro () =
  hr "Microbenchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let mpeg2_sys = Lazy.force mpeg2 in
  let mpeg2_tmg = (To_tmg.build mpeg2_sys).To_tmg.tmg in
  let synth_sys = Generate.scaled ~processes:1000 ~channels:1500 () in
  let synth_tmg = (To_tmg.build synth_sys).To_tmg.tmg in
  let motiv = Motivating.suboptimal () in
  let block = Array.init 64 (fun i -> ((i * 37) mod 256) - 128) in
  let frame_a = Ermes_support.Frame.synthetic ~width:64 ~height:48 ~index:0 in
  let frame_b = Ermes_support.Frame.synthetic ~width:64 ~height:48 ~index:1 in
  let tests =
    [
      Test.make ~name:"howard/motivating (15t,23p)"
        (Staged.stage (fun () -> Csr.cycle_time (To_tmg.build motiv).To_tmg.tmg));
      Test.make ~name:"howard/mpeg2 (88t,148p)"
        (Staged.stage (fun () -> Csr.cycle_time mpeg2_tmg));
      Test.make ~name:"howard/synth-1000"
        (Staged.stage (fun () -> Csr.cycle_time synth_tmg));
      Test.make ~name:"howard-warm/mpeg2"
        (Staged.stage
           (let solver = Csr.make_solver mpeg2_tmg in
            fun () -> Csr.solve solver));
      Test.make ~name:"fresh-analyze/synth-1000"
        (Staged.stage (fun () -> Perf.analyze synth_sys));
      Test.make ~name:"incremental-vs-fresh/synth-1000"
        (Staged.stage
           (let session = Incremental.create synth_sys in
            let p0 = List.hd (System.processes synth_sys) in
            fun () -> Incremental.probe session [ Incremental.Slow_process (p0, 1) ]));
      Test.make ~name:"karp/mpeg2 (unit tokens)"
        (Staged.stage
           (let g = Csr.of_tmg mpeg2_tmg in
            let unit = { g with Csr.tokens = Array.map (fun _ -> 1) g.Csr.tokens } in
            fun () -> Csr.karp_unit unit));
      Test.make ~name:"ordering/mpeg2"
        (Staged.stage (fun () -> Order.compute_labels mpeg2_sys));
      Test.make ~name:"ordering/synth-1000"
        (Staged.stage (fun () -> Order.compute_labels synth_sys));
      Test.make ~name:"to-tmg/mpeg2" (Staged.stage (fun () -> To_tmg.build mpeg2_sys));
      Test.make ~name:"sim-16-frames/motivating"
        (Staged.stage (fun () -> Sim.run ~max_iterations:16 motiv));
      Test.make ~name:"dct-8x8-forward" (Staged.stage (fun () -> Ermes_support.Dct.forward block));
      Test.make ~name:"rtl-interp-1-frame/motivating"
        (Staged.stage
           (let rtl = Ermes_rtl.Soc_rtl.build motiv in
            let snk = List.hd (System.sinks motiv) in
            fun () ->
              let sim = Ermes_rtl.Interp.create rtl.Ermes_rtl.Soc_rtl.design in
              let iter = rtl.Ermes_rtl.Soc_rtl.iterations_of.(snk) in
              while Ermes_rtl.Interp.peek sim iter < 1 do
                Ermes_rtl.Interp.step sim
              done));
      Test.make ~name:"motion-search-16x16-r7"
        (Staged.stage (fun () ->
             Ermes_support.Motion.search ~reference:frame_a ~current:frame_b ~x0:16 ~y0:16
               ~size:16 ~range:7));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  row "  %-32s %14s@." "benchmark" "time/run";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (v :: _) -> v
            | _ -> nan
          in
          let pretty =
            if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
            else Printf.sprintf "%8.0f ns" ns
          in
          metric (Printf.sprintf "micro.%s.ns" name) ns;
          row "  %-32s %14s@." name pretty)
        results)
    tests

(* ----------------------------------------------------------------- runtime *)

(* Supervised-runtime costs: what the retrying pool adds over the fail-fast
   pool on representative work, and what crash-safe journalling costs per
   checkpointed work unit. *)
let runtime () =
  hr "Supervised runtime - pool overhead, journal durability cost";
  let module Supervise = Ermes_runtime.Supervise in
  let module Journal = Ermes_runtime.Journal in
  let n = if quick then 32 else 128 in
  let base = Lazy.force mpeg2 in
  let copies = Array.init n (fun _ -> System.copy base) in
  let work i = (analyze_exn copies.(i)).Perf.cycle_time in
  let (), t_plain =
    time (fun () -> ignore (Parallel.map ~jobs work (List.init n Fun.id)))
  in
  let (), t_sup =
    time (fun () ->
        let outcomes = Parallel.init ~jobs n (fun i -> Supervise.attempt (fun () -> work i)) in
        Array.iter
          (function
            | Supervise.Done _ -> ()
            | _ -> failwith "runtime bench: unexpected task failure")
          outcomes)
  in
  repro "%d MPEG-2 analyses over %d domain(s):" n jobs;
  repro "  fail-fast pool:  %7.2f ms" (1000. *. t_plain);
  repro "  supervised pool: %7.2f ms (%.2fx)" (1000. *. t_sup) (t_sup /. t_plain);
  metric "runtime.parallel_s" t_plain;
  metric "runtime.supervised_s" t_sup;
  metric "runtime.supervision_overhead" (t_sup /. t_plain);
  (* Every append renders and atomically replaces the whole journal, so the
     cost grows with journal length — measure the amortized cost across a
     campaign-sized record count, which is what a checkpointed run pays. *)
  let records = if quick then 200 else 500 in
  let path = Filename.temp_file "ermes_bench" ".journal" in
  let j = Journal.start ~meta:"bench" ~kind:"bench" path in
  let payload = String.make 96 'x' in
  let (), t_j =
    time (fun () ->
        for _ = 1 to records do
          Journal.append j payload
        done)
  in
  Sys.remove path;
  repro "  journal: %d atomic appends in %7.2f ms (%.3f ms/append amortized)"
    records (1000. *. t_j)
    (1000. *. t_j /. float_of_int records);
  metric "runtime.journal_append_ms" (1000. *. t_j /. float_of_int records)

(* -------------------------------------------------------------------- rtl *)

(* The ninth oracle's cost profile: how fast the two-phase interpreter
   clocks the generated control skeleton, and what co-simulating a case
   adds over the discrete-event simulation it cross-checks. Both headline
   numbers are ratios of work done on this host, so they gate in CI like
   the *.speedup metrics do. *)
let rtl_bench () =
  hr "RTL co-simulation - interpreter throughput and oracle overhead";
  let module Soc_rtl = Ermes_rtl.Soc_rtl in
  let module Interp = Ermes_rtl.Interp in
  let sys = Motivating.suboptimal () in
  let rtl, t_build = min_time (fun () -> Soc_rtl.build sys) in
  let nsig = Array.length rtl.Soc_rtl.design.Ermes_rtl.Ir.signals in
  let cycles = if quick then 300_000 else 2_000_000 in
  let (), t_run =
    min_time (fun () ->
        let ip = Interp.create rtl.Soc_rtl.design in
        Interp.run ip ~cycles)
  in
  let cps = float_of_int cycles /. t_run in
  repro "build: %.3f ms (%d signals); interpreter: %.2f Mcycles/s (%d cycles)"
    (1000. *. t_build) nsig (cps /. 1e6) cycles;
  metric "rtl.build_ms" (1000. *. t_build);
  metric "rtl.interp.cycles_per_sec" cps;
  (* Oracle overhead: one co-simulated measurement vs the discrete-event
     simulation it is diffed against, at the fuzzer's default horizon. The
     two must agree — a silent divergence here would invalidate the ratio. *)
  let rounds = 64 in
  let rtl_ct, t_cosim = min_time (fun () -> Soc_rtl.measured_cycle_time ~rounds sys) in
  let des_ct, t_sim = min_time (fun () -> Sim.steady_cycle_time ~rounds sys) in
  (match (rtl_ct, des_ct) with
  | Some r, Ok (Sim.Period d) when Ratio.equal r d -> ()
  | _ -> failwith "rtl bench: co-simulation disagrees with the simulator");
  repro "cosim %.3f ms vs simulation %.3f ms at %d rounds: %.1fx overhead"
    (1000. *. t_cosim) (1000. *. t_sim) rounds (t_cosim /. t_sim);
  metric "rtl.cosim_ms" (1000. *. t_cosim);
  metric "rtl.sim_ms" (1000. *. t_sim);
  metric "rtl.cosim.overhead_x" (t_cosim /. t_sim)

(* ------------------------------------------------------------------ scale *)

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" @@ fun ic ->
    let rec go () =
      match In_channel.input_line ic with
      | None -> 0.
      | Some line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else go ()
    in
    go ()
  with _ -> 0.

(* One cold solve, one warm re-solve and one certificate check of [tmg],
   printed as a table row. A wrong verdict at scale fails the bench rather
   than inflating a number: both solves must give [expected] and the
   independent checker must accept the cold solve's certificate. Returns
   the cold seconds and nodes/sec, the warm and check seconds, and the
   process's peak RSS. *)
let scale_row family label tmg expected =
  let cold, t_cold = time (fun () -> Csr.cycle_time tmg) in
  let solver = Csr.make_solver tmg in
  ignore (Csr.solve solver);
  let warm, t_warm = time (fun () -> Csr.solve solver) in
  (match (cold, warm) with
  | Ok c, Ok w ->
    if not (Ratio.equal c.Csr.cycle_time expected && Ratio.equal w.Csr.cycle_time expected)
    then
      Format.kasprintf failwith "scale bench: %s %s cycle time %a cold, %a warm, expected %a"
        family label Ratio.pp c.Csr.cycle_time Ratio.pp w.Csr.cycle_time Ratio.pp expected
  | _ -> Format.kasprintf failwith "scale bench: %s %s did not analyze" family label);
  let cert = Verify.of_howard_csr (Csr.of_tmg tmg) cold in
  (* The checker gets a fresh freeze of its own, built outside the timed
     call: the key times check_csr alone. *)
  let fresh = Csr.of_tmg tmg in
  let checked, t_cert = time (fun () -> Verify.check_csr fresh cert) in
  (match checked with
  | Ok () -> ()
  | Error v ->
    Format.kasprintf failwith "scale bench: %s %s certificate rejected: %a" family label
      Verify.pp_violation v);
  let nps = float_of_int (Tmg.transition_count tmg) /. t_cold in
  let rss = peak_rss_mb () in
  row "  %-6s %-6s %12.2f %12.2f %12.2f %14.0f %10.1f@." family label (1000. *. t_cold)
    (1000. *. t_warm) (1000. *. t_cert) nps rss;
  (t_cold, t_warm, t_cert, nps, rss)

(* Cold Howard, warm Howard and certificate checking on two families. The
   torus (10^3..10^6 transitions) pins its maximum cycle ratio to exactly
   128/1: a hot row 0 against jittered cold rows. The mesh SoC (10^4 and
   10^5 transitions, built through To_tmg like a .soc file) is the net
   `ermes analyze --certify` meets on a generated SoC; its answers are
   pinned from the seed. The two split the cold solve differently between
   Howard and the certification, so each gets its own keys. *)
let scale () =
  hr "Scale - CSR analysis throughput on 10^3..10^6-transition SoCs";
  let sizes =
    [ ("1e3", 25, 40); ("1e4", 100, 100); ("1e5", 250, 400) ]
    @ (if quick then [] else [ ("1e6", 1000, 1000) ])
  in
  row "  %-6s %-6s %12s %12s %12s %14s %10s@." "family" "nodes" "cold (ms)" "warm (ms)"
    "certify (ms)" "nodes/sec" "rss (MB)";
  List.iter
    (fun (label, rows, cols) ->
      let tmg = Generate.torus_tmg ~rows ~cols () in
      let t_cold, t_warm, t_cert, nps, rss = scale_row "torus" label tmg (Ratio.make 128 1) in
      metric (Printf.sprintf "scale.cold_s.%s" label) t_cold;
      metric (Printf.sprintf "scale.warm_s.%s" label) t_warm;
      metric (Printf.sprintf "scale.certify_s.%s" label) t_cert;
      metric (Printf.sprintf "scale.nodes_per_sec.%s" label) nps;
      metric (Printf.sprintf "scale.peak_rss_mb.%s" label) rss)
    sizes;
  List.iter
    (fun (label, side, expected) ->
      let sys = Generate.mesh_system ~seed:1 ~rows:side ~cols:side () in
      let tmg = (To_tmg.build sys).To_tmg.tmg in
      let words = Obj.reachable_words (Obj.repr tmg) in
      let t_cold, _, _, nps, _ = scale_row "mesh" label tmg (Ratio.make expected 1) in
      metric (Printf.sprintf "scale.mesh.cold_s.%s" label) t_cold;
      metric (Printf.sprintf "scale.mesh.nodes_per_sec.%s" label) nps;
      metric
        (Printf.sprintf "scale.mesh.tmg_words_per_transition.%s" label)
        (float_of_int words /. float_of_int (Tmg.transition_count tmg)))
    [ ("1e4", 58, 858); ("1e5", 180, 2651) ];
  (* The acyclic and hierarchical families at 10^5, as verdict coverage: the
     grid exercises the No_cycle/Acyclic path (Kahn at scale), the clusters
     the many-SCC path; both certificates must check. *)
  let grid = Generate.grid_tmg ~rows:250 ~cols:400 () in
  let g_out = Csr.cycle_time grid in
  (match g_out with
  | Error Csr.No_cycle -> ()
  | _ -> failwith "scale bench: 1e5 grid should be acyclic");
  (match Verify.check_csr (Csr.of_tmg grid) (Verify.of_howard_csr (Csr.of_tmg grid) g_out) with
  | Ok () -> ()
  | Error v ->
    Format.kasprintf failwith "scale bench: grid certificate rejected: %a"
      Verify.pp_violation v);
  let clusters = Generate.clusters_tmg ~clusters:1000 ~cluster_size:100 () in
  let c_out = Csr.cycle_time clusters in
  (match c_out with
  | Ok r when Ratio.equal r.Csr.cycle_time (Ratio.make 128 1) -> ()
  | _ -> failwith "scale bench: 1e5 clusters should run at 128/1");
  (match
     Verify.check_csr (Csr.of_tmg clusters) (Verify.of_howard_csr (Csr.of_tmg clusters) c_out)
   with
  | Ok () -> ()
  | Error v ->
    Format.kasprintf failwith "scale bench: clusters certificate rejected: %a"
      Verify.pp_violation v);
  repro "1e5 grid (acyclic) and 1e5 clusters-of-clusters verdicts certified"

(* ------------------------------------------------------------------- chaos *)

(* The chaos layer's standing claim: routing every syscall of the journal
   and the daemon through the pluggable Io record costs nothing measurable
   when no injector is installed. Benchmarked as min-over-reps on the two
   hot paths — journal-append-shaped bulk writes and a serve-request-shaped
   frame round trip — and gated loudly at 5% so the claim cannot rot. *)
let chaos_bench () =
  hr "Chaos layer - passthrough-Io overhead on the I/O hot paths";
  let module Chaos = Ermes_chaos.Chaos in
  let module Sproto = Ermes_serve.Proto in
  let io = Chaos.Io.passthrough in
  let reps = 7 in
  (* Journal appends render the whole file and write it in one call; model
     the write with render-sized buffers against /dev/null so the syscall
     is real but storage noise is not. *)
  let fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let payload = String.make 4096 'x' in
  let n = if quick then 50_000 else 200_000 in
  let (), t_direct =
    min_time ~reps (fun () ->
        for _ = 1 to n do
          ignore (Unix.write_substring fd payload 0 (String.length payload))
        done)
  in
  let (), t_io =
    min_time ~reps (fun () ->
        for _ = 1 to n do
          ignore (io.Chaos.Io.write fd payload 0 (String.length payload))
        done)
  in
  Unix.close fd;
  let jx = t_io /. t_direct in
  (* A serve request round trip: frame a small JSON request over a
     socketpair, read it back and decode it — the daemon's per-request
     socket work, with and without the Io indirection. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let req =
    Sproto.frame
      (Sproto.to_string
         (Sproto.Obj [ ("id", Sproto.Int 1); ("verb", Sproto.Str "ping") ]))
  in
  let buf = Bytes.create 4096 in
  let m = if quick then 20_000 else 50_000 in
  let roundtrip write read =
    let dec = Sproto.decoder () in
    let wrote = write a req 0 (String.length req) in
    if wrote <> String.length req then failwith "chaos bench: short pipe write";
    let rec drain () =
      match Sproto.next dec with
      | Ok (Some p) -> p
      | Ok None ->
        let k = read b buf 0 (Bytes.length buf) in
        Sproto.feed dec buf k;
        drain ()
      | Error e -> failwith ("chaos bench: " ^ e)
    in
    match Sproto.parse_request (drain ()) with
    | Ok r -> if r.Sproto.verb <> "ping" then failwith "chaos bench: bad verb"
    | Error e -> failwith ("chaos bench: " ^ e)
  in
  let (), t_frame_direct =
    min_time ~reps (fun () ->
        for _ = 1 to m do
          roundtrip
            (fun fd s off len -> Unix.write_substring fd s off len)
            Unix.read
        done)
  in
  let (), t_frame_io =
    min_time ~reps (fun () ->
        for _ = 1 to m do
          roundtrip io.Chaos.Io.write io.Chaos.Io.read
        done)
  in
  Unix.close a;
  Unix.close b;
  let fx = t_frame_io /. t_frame_direct in
  repro "%d 4 KiB writes:          direct %7.2f ms   via Io %7.2f ms  (%.3fx)"
    n (1000. *. t_direct) (1000. *. t_io) jx;
  repro "%d framed round trips:    direct %7.2f ms   via Io %7.2f ms  (%.3fx)"
    m
    (1000. *. t_frame_direct)
    (1000. *. t_frame_io)
    fx;
  metric "chaos.journal_write_direct_s" t_direct;
  metric "chaos.journal_write_io_s" t_io;
  metric "chaos.journal_write_overhead_x" jx;
  metric "chaos.frame_roundtrip_direct_s" t_frame_direct;
  metric "chaos.frame_roundtrip_io_s" t_frame_io;
  metric "chaos.frame_roundtrip_overhead_x" fx;
  if jx > 1.05 || fx > 1.05 then
    failwith
      (Printf.sprintf
         "chaos bench: passthrough Io exceeds the 5%% overhead budget (journal \
          %.3fx, frame %.3fx)"
         jx fx)

(* -------------------------------------------------------------------- main *)

let sections =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("m1", m1);
    ("fig6-timing", fig6_timing);
    ("fig6-area", fig6_area);
    ("scalability", scalability);
    ("ablation-mcm", ablation_mcm);
    ("ablation-ordering", ablation_ordering);
    ("ablation-dse", ablation_dse);
    ("ablation-memory", ablation_memory);
    ("ermes-frontier", ermes_frontier);
    ("incremental", incremental);
    ("rtl", rtl_bench);
    ("scale", scale);
    ("runtime", runtime);
    ("chaos", chaos_bench);
    ("micro", micro);
  ]

let () =
  let wanted =
    (* Everything that is not a flag (or a flag's value) is a section name. *)
    let rec keep = function
      | [] -> []
      | "--quick" :: tl -> keep tl
      | ("--json" | "--jobs") :: _ :: tl -> keep tl
      | a :: tl -> a :: keep tl
    in
    keep (List.tl (Array.to_list Sys.argv))
  in
  let to_run =
    if wanted = [] then sections
    else
      List.filter_map
        (fun w ->
          match List.assoc_opt w sections with
          | Some f -> Some (w, f)
          | None ->
            Printf.eprintf "unknown section %S (known: %s)\n" w
              (String.concat " " (List.map fst sections));
            exit 1)
        wanted
  in
  (* Collect the instrumentation counters alongside the timings: they land in
     --json as obs.* metrics, so a perf regression can be correlated with a
     behavioural change (more rebuilds, fewer warm solves) from the same
     artifact. *)
  Ermes_obs.Obs.enable ();
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let (), t = time f in
      metric (Printf.sprintf "section.%s.seconds" name) t)
    to_run;
  Format.printf "@.total bench time: %.1f s@." (Unix.gettimeofday () -. t0);
  List.iter
    (fun (k, v) -> metric ("obs." ^ k) (float_of_int v))
    (Ermes_obs.Obs.counters ());
  match json_file with
  | Some file ->
    write_json file;
    Format.printf "metrics written to %s@." file
  | None -> ()
