(* ermes — command-line front-end to the compositional-HLS toolkit.

   Subcommands mirror the methodology of the paper: analyze (TMG cycle time
   and critical cycle), order (channel reordering), simulate (cycle-accurate
   rendezvous simulation), dse (the full exploration loop), plus generators
   and DOT export. *)

module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module Sim = Ermes_slm.Sim
module To_tmg = Ermes_slm.To_tmg
module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Order = Ermes_core.Order
module Explore = Ermes_core.Explore
module Frontier = Ermes_core.Frontier
module Fault = Ermes_fault.Fault
module Differential = Ermes_fault.Differential
module Fuzz = Ermes_fault.Fuzz
module Resilience = Ermes_fault.Resilience
module Parallel = Ermes_parallel.Parallel
module Incremental = Ermes_core.Incremental
module Obs = Ermes_obs.Obs
module Verify = Ermes_verify.Verify
module Lint = Ermes_verify.Lint
module Supervise = Ermes_runtime.Supervise
module Batch = Ermes_runtime.Batch
module Checkpoint = Ermes_runtime.Checkpoint
module Chaos = Ermes_chaos.Chaos
module Sproto = Ermes_serve.Proto
module Server = Ermes_serve.Server
module Client = Ermes_serve.Client
module Campaign = Ermes_chaos_campaign.Campaign

open Cmdliner

(* Exit-code contract, uniform across subcommands so CI can gate on it:
   0 success, 1 invalid input or usage, 2 deadlock / mismatch / failed
   verification, 3 watchdog timeout. *)
let exits =
  Cmd.Exit.info 1
       ~doc:
         "on invalid input: unparseable or ill-formed system descriptions, \
          unknown channels or processes, structural errors (e.g. no sink to \
          monitor)."
  :: Cmd.Exit.info 2
       ~doc:
         "on deadlock (statically proven or simulated), an oracle mismatch, a \
          failed verification, or batch jobs that failed or were quarantined."
  :: Cmd.Exit.info 3
       ~doc:
         "on watchdog timeout: the simulation cycle budget or the batch \
          $(b,--max-seconds) budget was exhausted."
  :: Cmd.Exit.defaults

(* Every subcommand accepts -v/-vv to surface the library's log sources. *)
let verbosity =
  let env = Cmd.Env.info "ERMES_VERBOSITY" in
  Logs_cli.level ~env ()

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* --trace plugs the instrumentation sink in and dumps it on exit — also on
   the non-zero [exit] paths, which [Fun.protect] would miss ([Stdlib.exit]
   does not unwind). *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record counters and timing spans and write them to $(docv) as \
           Chrome trace-event JSON (loadable in chrome://tracing or \
           ui.perfetto.dev) when the command exits. Instrumentation never \
           changes any result.")

let setup_trace = function
  | None -> ()
  | Some file ->
    Obs.set_clock Unix.gettimeofday;
    Obs.enable ();
    at_exit (fun () -> Obs.write_chrome_trace file)

(* Shared by every multicore-capable subcommand. Results are bit-identical
   for any value — parallelism only changes wall-clock. *)
let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"J"
         ~doc:"Fan the work over J domains, at most the host's cores (default: \
               the $(b,ERMES_JOBS) environment variable, else sequential). The \
               result is identical for every J.")

let resolve_jobs = function Some j -> j | None -> Parallel.default_jobs ()

(* Shared by the checkpointable campaigns (fuzz, dse, oracle). *)
let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Persist campaign progress into a crash-safe journal at $(docv) \
           (atomic whole-file replace, per-record CRC). Combine with \
           $(b,--resume) to continue an interrupted campaign.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay completed work units from the $(b,--checkpoint) journal \
           before running the rest; the final report is identical to an \
           uninterrupted run's. A missing journal just starts fresh.")

let require_checkpoint resume = function
  | Some path -> Some path
  | None ->
    if resume then begin
      prerr_endline "ermes: --resume requires --checkpoint FILE";
      exit 1
    end;
    None

let load path =
  match Soc_format.parse_file path with
  | Ok sys -> (
    match System.validate sys with
    | Ok () -> Ok sys
    | Error e -> Error (Printf.sprintf "%s: invalid system: %s" path e))
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("ermes: " ^ msg);
    exit 1

let save out sys =
  match out with
  | None -> print_string (Soc_format.print sys)
  | Some path ->
    Soc_format.write_file path sys;
    Printf.printf "wrote %s\n" path

(* ---- common arguments -------------------------------------------------- *)

let with_logs term = Term.(const (fun () f -> f) $ (const setup_logs $ verbosity) $ term)
let with_trace term = Term.(const (fun () f -> f) $ (const setup_trace $ trace_arg) $ term)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.soc" ~doc:"System description.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file (default: stdout).")

(* ---- analyze ----------------------------------------------------------- *)

let print_analysis sys a =
  Format.printf "%a@." (Perf.pp_analysis sys) a;
  Format.printf "critical cycle: %s@." (String.concat " -> " a.Perf.critical_cycle)

(* --certify prints the proof object the certified analysis ran through the
   independent checker; any rejection is an analysis bug and exits 2. *)
let print_certificate (c : Incremental.certified) =
  match c.Incremental.checked with
  | Ok () ->
    Format.printf "certificate: %s — checked@." (Verify.describe c.Incremental.certificate)
  | Error v ->
    Format.eprintf "ermes: %a@." Verify.pp_violation v;
    exit 2

let analyze_cmd =
  let simulate =
    Arg.(value & flag & info [ "simulate" ] ~doc:"Cross-check with the discrete-event simulator.")
  in
  let slack =
    Arg.(value & flag & info [ "slack" ] ~doc:"Report per-process latency slack (sensitivity).")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ]
           ~doc:"Emit a machine-checkable certificate for the verdict (critical \
                 witness cycle + node potentials, or a token-free cycle) and run \
                 it through the independent checker; exit 2 if it is rejected.")
  in
  let run file simulate slack certify =
    let sys = or_die (load file) in
    let certified =
      if certify then Some (Incremental.analyze_certified (Incremental.create sys))
      else None
    in
    let outcome =
      match certified with
      | Some c -> c.Incremental.outcome
      | None -> Perf.analyze sys
    in
    (match outcome with
     | Ok a ->
       print_analysis sys a;
       Option.iter print_certificate certified;
       if slack then begin
         Format.printf "latency slack (extra cycles before the cycle time degrades):@.";
         List.iter
           (fun (p, s) ->
             Format.printf "  %-16s %a@." (System.process_name sys p) Perf.pp_slack s)
           (Perf.latency_slack sys)
       end;
       if simulate then begin
         (* The simulator's period is per monitor *iteration*; on a
            multi-rate system the monitor fires q(monitor) times per common
            period, so the TMG cycle time is the product (the same contract
            the differential oracle checks). *)
         let qmon = Differential.monitor_repetition sys in
         match Sim.steady_cycle_time sys with
         | Ok (Sim.Period r) ->
           let scaled = Ratio.mul r (Ratio.of_int qmon) in
           let verdict =
             if Ratio.equal scaled a.Perf.cycle_time then "matches the analysis"
             else "DIFFERS from the analysis"
           in
           if qmon = 1 then
             Format.printf "simulated steady-state cycle time: %a (%s)@." Ratio.pp r verdict
           else
             Format.printf
               "simulated steady-state cycle time: %a per monitor iteration, x%d firings \
                per period = %a (%s)@."
               Ratio.pp r qmon Ratio.pp scaled verdict
         | Ok Sim.No_period -> Format.printf "simulation: periodicity not reached; raise rounds@."
         | Ok (Sim.Deadlock d) ->
           Format.printf "simulation: %a@." (Sim.pp_deadlock sys) d;
           exit 2
         | Ok (Sim.Timeout t) ->
           Format.printf "simulation: %a@." Sim.pp_timeout t;
           exit 3
         | Error e ->
           prerr_endline ("ermes: " ^ e);
           exit 1
       end
     | Error f ->
       Format.printf "%a@." (Perf.pp_failure sys) f;
       Option.iter print_certificate certified;
       exit 2)
  in
  Cmd.v
    (Cmd.info "analyze" ~exits ~doc:"Cycle time and critical cycle of a system (TMG + Howard).")
    (with_logs (with_trace Term.(const run $ file_arg $ simulate $ slack $ certify)))

(* ---- order ------------------------------------------------------------- *)

let order_cmd =
  let strategy =
    let strategies = Arg.enum [ ("optimize", `Optimize); ("conservative", `Conservative); ("unsafe", `Unsafe) ] in
    Arg.(value & opt strategies `Optimize & info [ "strategy" ] ~docv:"S"
           ~doc:"$(b,optimize) (Algorithm 1 with safety check, default), $(b,conservative) \
                 (latency-blind deadlock-free baseline), or $(b,unsafe) (raw Algorithm 1).")
  in
  let refine =
    Arg.(value & opt (some int) None & info [ "refine" ] ~docv:"N"
           ~doc:"After ordering, run up to N local-search analyses to close the remaining gap.")
  in
  let run file strategy refine out =
    let sys = or_die (load file) in
    let before =
      match Perf.analyze sys with
      | Ok a -> Some a.Perf.cycle_time
      | Error _ -> None
    in
    (match strategy with
     | `Conservative -> Order.conservative sys
     | `Unsafe -> ignore (Order.apply sys)
     | `Optimize -> (
       match before with
       | None ->
         (* Deadlocked input: fall back to a live baseline first. *)
         Order.conservative sys;
         (match Order.apply_safe sys with
          | Order.Applied _ | Order.Kept_incumbent _ -> ())
       | Some _ -> (
         match Order.apply_safe sys with
         | Order.Applied _ -> ()
         | Order.Kept_incumbent `Would_deadlock ->
           Printf.eprintf "note: optimized order would deadlock; kept the incumbent\n"
         | Order.Kept_incumbent `Would_regress ->
           Printf.eprintf "note: optimized order would be slower; kept the incumbent\n")));
    (match refine with
     | Some budget when Perf.analyze sys |> Result.is_ok ->
       let evals = Order.local_search ~max_evaluations:budget sys in
       Format.eprintf "local search: %d analyses@." evals
     | Some _ | None -> ());
    (match (before, Perf.analyze sys) with
     | Some b, Ok a ->
       Format.eprintf "cycle time: %a -> %a@." Ratio.pp b Ratio.pp a.Perf.cycle_time
     | None, Ok a ->
       Format.eprintf "cycle time: deadlock -> %a@." Ratio.pp a.Perf.cycle_time
     | _, Error f -> Format.eprintf "result: %a@." (Perf.pp_failure sys) f);
    save out sys
  in
  Cmd.v
    (Cmd.info "order" ~exits ~doc:"Reorder the put/get statements (paper §4).")
    (with_logs (with_trace Term.(const run $ file_arg $ strategy $ refine $ output_arg)))

(* ---- simulate ---------------------------------------------------------- *)

let simulate_cmd =
  let rounds =
    Arg.(value & opt int 64 & info [ "rounds" ] ~docv:"N"
           ~doc:"Budget of sink iterations: the run stops at the first recurrence of its \
                 state, which proves the period.")
  in
  let max_cycles =
    Arg.(value & opt (some int) None & info [ "max-cycles" ] ~docv:"B"
           ~doc:"Watchdog cycle budget (default: derived from the system's total latency).")
  in
  let run file rounds max_cycles =
    let sys = or_die (load file) in
    match Sim.steady_cycle_time ~rounds ?max_cycles sys with
    | Ok (Sim.Period r) ->
      Format.printf "steady-state cycle time: %a (throughput %a)@." Ratio.pp r Ratio.pp
        (Ratio.inv r)
    | Ok Sim.No_period ->
      Format.printf "no exact periodicity within %d rounds; raise --rounds@." rounds
    | Ok (Sim.Deadlock d) ->
      Format.printf "%a@." (Sim.pp_deadlock sys) d;
      exit 2
    | Ok (Sim.Timeout t) ->
      Format.printf "%a@." Sim.pp_timeout t;
      exit 3
    | Error e ->
      prerr_endline ("ermes: " ^ e);
      exit 1
  in
  Cmd.v
    (Cmd.info "simulate" ~exits ~doc:"Cycle-accurate rendezvous simulation.")
    (with_logs (with_trace Term.(const run $ file_arg $ rounds $ max_cycles)))

(* ---- dse --------------------------------------------------------------- *)

let dse_cmd =
  let tct =
    Arg.(required & opt (some int) None & info [ "tct" ] ~docv:"CYCLES" ~doc:"Target cycle time.")
  in
  let no_reorder =
    Arg.(value & flag & info [ "no-reorder" ] ~doc:"Disable the channel-reordering stage (ablation).")
  in
  let run file tct no_reorder checkpoint resume out =
    let sys = or_die (load file) in
    let reorder = not no_reorder in
    let trace =
      match require_checkpoint resume checkpoint with
      | None -> Explore.run ~reorder ~tct sys
      | Some path -> or_die (Checkpoint.dse_run ~reorder ~path ~resume ~tct sys)
    in
    Format.printf "%a@." Explore.pp_trace trace;
    save out sys
  in
  Cmd.v
    (Cmd.info "dse" ~exits ~doc:"Design-space exploration: IP selection (ILP) + channel reordering (paper §5).")
    (with_logs
       (with_trace
          Term.(const run $ file_arg $ tct $ no_reorder $ checkpoint_arg $ resume_arg $ output_arg)))

(* ---- generate / mpeg2 -------------------------------------------------- *)

let generate_cmd =
  let processes =
    Arg.(value & opt int 26 & info [ "processes" ] ~docv:"N" ~doc:"Worker process count.")
  in
  let channels =
    Arg.(value & opt int 60 & info [ "channels" ] ~docv:"M" ~doc:"Target channel count.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let family =
    let families = Arg.enum [ ("random", `Random); ("mesh", `Mesh) ] in
    Arg.(value & opt families `Random
         & info [ "family" ] ~docv:"FAMILY"
             ~doc:"Benchmark family: $(b,random) (layered MPEG-2-like, sized by \
                   --processes/--channels) or $(b,mesh) (2-D worker mesh with \
                   per-row feedback rings, sized by --rows/--cols — scales to \
                   10^5+ processes).")
  in
  let rows =
    Arg.(value & opt int 64 & info [ "rows" ] ~docv:"R" ~doc:"Mesh rows (mesh family).")
  in
  let cols =
    Arg.(value & opt int 64 & info [ "cols" ] ~docv:"C" ~doc:"Mesh columns (mesh family).")
  in
  let run processes channels seed family rows cols out =
    let sys =
      match family with
      | `Random -> Ermes_synth.Generate.scaled ~seed ~processes ~channels ()
      | `Mesh -> Ermes_synth.Generate.mesh_system ~seed ~rows ~cols ()
    in
    save out sys
  in
  Cmd.v
    (Cmd.info "generate" ~exits ~doc:"Generate a synthetic SoC benchmark (paper §6 scalability study).")
    (with_logs Term.(const run $ processes $ channels $ seed $ family $ rows $ cols $ output_arg))

let mpeg2_cmd =
  let selection =
    let selections = Arg.enum [ ("fastest", `Fastest); ("median", `Median); ("smallest", `Smallest) ] in
    Arg.(value & opt selections `Fastest & info [ "select" ] ~docv:"S" ~doc:"Initial implementation selection.")
  in
  let run selection out =
    let sys = Ermes_mpeg2.Soc.build () in
    (match selection with
     | `Fastest -> Ermes_mpeg2.Soc.select_fastest sys
     | `Median -> Ermes_mpeg2.Soc.select_median sys
     | `Smallest -> Ermes_mpeg2.Soc.select_smallest sys);
    save out sys
  in
  Cmd.v
    (Cmd.info "mpeg2" ~exits ~doc:"Emit the MPEG-2 encoder case study (26 processes, 60 channels).")
    (with_logs Term.(const run $ selection $ output_arg))

(* ---- fifo -------------------------------------------------------------- *)

let fifo_cmd =
  let depth =
    Arg.(required & opt (some int) None & info [ "depth" ] ~docv:"K" ~doc:"FIFO depth (>= 1).")
  in
  let channels =
    Arg.(value & opt_all string [] & info [ "channel" ] ~docv:"NAME"
           ~doc:"Buffer only this channel (repeatable; default: every channel).")
  in
  let critical =
    Arg.(value & flag & info [ "critical" ] ~doc:"Buffer only the channels on the current critical cycle.")
  in
  let run file depth channels critical out =
    let sys = or_die (load file) in
    let targets =
      if critical then
        match Perf.analyze sys with
        | Ok a -> a.Perf.critical_channels
        | Error f ->
          Format.eprintf "cannot find the critical cycle: %a@." (Perf.pp_failure sys) f;
          exit 2
      else if channels = [] then System.channels sys
      else
        List.map
          (fun n ->
            match System.find_channel sys n with
            | Some c -> c
            | None ->
              prerr_endline ("ermes: unknown channel " ^ n);
              exit 1)
          channels
    in
    List.iter (fun c -> System.set_channel_kind sys c (System.Fifo depth)) targets;
    (match Perf.analyze sys with
     | Ok a ->
       Format.eprintf "buffered %d channels; cycle time %a@." (List.length targets) Ratio.pp a.Perf.cycle_time;
       save out sys
     | Error f ->
       Format.eprintf "buffered %d channels; %a@." (List.length targets) (Perf.pp_failure sys) f;
       Format.eprintf "warning: the buffered system deadlocks; writing it anyway@.";
       save out sys;
       exit 2)
  in
  Cmd.v
    (Cmd.info "fifo" ~exits ~doc:"Replace blocking channels with bounded FIFOs (buffer sizing).")
    (with_logs Term.(const run $ file_arg $ depth $ channels $ critical $ output_arg))

(* ---- frontier ----------------------------------------------------------- *)

let frontier_cmd =
  let run file =
    let sys = or_die (load file) in
    let frontier = Frontier.system_pareto sys in
    Format.printf "%d system-level Pareto points:@." (List.length frontier);
    List.iter
      (fun (p : Frontier.point) ->
        Format.printf "  CT=%-12s area=%.4f mm2@." (Ratio.to_string p.Frontier.cycle_time)
          p.Frontier.area)
      frontier
  in
  Cmd.v
    (Cmd.info "frontier" ~exits ~doc:"System-level Pareto frontier over the implementation sets.")
    (with_logs Term.(const run $ file_arg))

(* ---- oracle -------------------------------------------------------------- *)

let oracle_cmd =
  let limit =
    Arg.(value & opt int 100_000 & info [ "limit" ] ~docv:"N" ~doc:"Refuse beyond this many order combinations.")
  in
  let run file limit checkpoint resume jobs =
    let sys = or_die (load file) in
    let jobs = resolve_jobs jobs in
    let search () =
      match require_checkpoint resume checkpoint with
      | None -> Ermes_core.Oracle.search ~limit ~jobs sys
      | Some path -> or_die (Checkpoint.oracle_search ~limit ~jobs ~path ~resume sys)
    in
    match search () with
    | Some res ->
      Format.printf "best cycle time over %d order combinations: %a (%d deadlock)@."
        res.Ermes_core.Oracle.evaluated Ratio.pp res.Ermes_core.Oracle.best_cycle_time
        res.Ermes_core.Oracle.deadlocked
    | None -> Format.printf "every order combination deadlocks@."
    | exception Invalid_argument m ->
      prerr_endline ("ermes: " ^ m);
      exit 1
  in
  Cmd.v
    (Cmd.info "oracle" ~exits ~doc:"Exhaustive statement-order search (small systems only).")
    (with_logs Term.(const run $ file_arg $ limit $ checkpoint_arg $ resume_arg $ jobs_arg))

(* ---- report ------------------------------------------------------------- *)

let report_cmd =
  let frontier =
    Arg.(value & flag & info [ "frontier" ] ~doc:"Append the system-level Pareto frontier.")
  in
  let run file frontier out =
    let sys = or_die (load file) in
    match Ermes_core.Report.markdown ~frontier sys with
    | Error m ->
      prerr_endline ("ermes: " ^ m);
      exit 2
    | Ok text -> (
      match out with
      | None -> print_string text
      | Some path ->
        Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
        Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "report" ~exits ~doc:"Markdown design report: performance, slack, area, frontier.")
    (with_logs Term.(const run $ file_arg $ frontier $ output_arg))

(* ---- buffers -------------------------------------------------------------- *)

let buffers_cmd =
  let tct =
    Arg.(required & opt (some int) None & info [ "tct" ] ~docv:"CYCLES" ~doc:"Target cycle time.")
  in
  let max_slots =
    Arg.(value & opt int 64 & info [ "max-slots" ] ~docv:"N" ~doc:"Storage budget in FIFO slots.")
  in
  let run file tct max_slots out =
    let sys = or_die (load file) in
    let r = Ermes_core.Buffer_opt.size ~max_slots ~tct sys in
    List.iter
      (fun (s : Ermes_core.Buffer_opt.step) ->
        Format.eprintf "  %s -> fifo(%d): cycle time %a@."
          (System.channel_name sys s.Ermes_core.Buffer_opt.channel)
          s.Ermes_core.Buffer_opt.new_depth Ratio.pp s.Ermes_core.Buffer_opt.cycle_time)
      r.Ermes_core.Buffer_opt.steps;
    Format.eprintf "%d slots added; cycle time %a; target %s@."
      r.Ermes_core.Buffer_opt.slots_added Ratio.pp r.Ermes_core.Buffer_opt.final_cycle_time
      (if r.Ermes_core.Buffer_opt.met then "met" else "missed");
    save out sys
  in
  Cmd.v
    (Cmd.info "buffers" ~exits ~doc:"Automatic FIFO sizing toward a target cycle time.")
    (with_logs Term.(const run $ file_arg $ tct $ max_slots $ output_arg))

(* ---- rtl --------------------------------------------------------------- *)

let rtl_cmd =
  let emit =
    Arg.(value & opt (some string) None
         & info [ "emit"; "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the generated Verilog to $(docv). Without it the Verilog goes \
                   to stdout (unless $(b,--cosim) takes the output over).")
  in
  let cosim =
    Arg.(value & flag & info [ "cosim" ]
           ~doc:"Co-simulate: interpret the generated RTL cycle by cycle and diff its \
                 steady-state cycle time against the TMG analysis. Exit 0 on \
                 agreement, 2 on any disagreement or an (agreed) deadlock, 3 when no \
                 state recurs within $(b,--rounds) iterations.")
  in
  let rounds =
    Arg.(value & opt int 48 & info [ "rounds" ] ~docv:"N"
           ~doc:"Budget of monitored sink iterations for --cosim: the run stops at the \
                 first recurrence of the register state, which proves the period.")
  in
  let run file emit cosim rounds =
    let sys = or_die (load file) in
    let rtl =
      (* Unsupported inputs (counter widths beyond the IR's limits) are a
         one-line diagnostic naming the offender, not a backtrace. *)
      try Ermes_rtl.Soc_rtl.build sys
      with Invalid_argument msg ->
        prerr_endline ("ermes: " ^ msg);
        exit 1
    in
    let text = Ermes_rtl.Emit.to_verilog rtl.Ermes_rtl.Soc_rtl.design in
    (match emit with
     | Some path ->
       Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
       Printf.printf "wrote %s\n" path
     | None -> if not cosim then print_string text);
    if cosim then begin
      (* The RTL period is per monitor (first-sink) iteration; the analysis
         cycle time is per unfolded firing — they agree up to q(monitor). *)
      let qmon = Differential.monitor_repetition sys in
      match (Ermes_rtl.Soc_rtl.cosim ~rounds sys, Perf.analyze sys) with
      | exception Invalid_argument msg ->
        prerr_endline ("ermes: " ^ msg);
        exit 1
      | Ermes_rtl.Soc_rtl.Rtl_period p, Ok a ->
        let scaled = Ratio.mul p (Ratio.of_int qmon) in
        if Ratio.equal scaled a.Perf.cycle_time then
          Format.printf "cosim: RTL steady period %a (x%d unfolding = %a); analysis %a (match)@."
            Ratio.pp p qmon Ratio.pp scaled Ratio.pp a.Perf.cycle_time
        else begin
          Format.printf "cosim: MISMATCH — RTL steady period %a (x%d unfolding = %a), analysis %a@."
            Ratio.pp p qmon Ratio.pp scaled Ratio.pp a.Perf.cycle_time;
          exit 2
        end
      | Ermes_rtl.Soc_rtl.Rtl_exhausted _, Error f ->
        Format.printf "cosim: RTL stalls and the analysis agrees: %a@." (Perf.pp_failure sys) f;
        exit 2
      | Ermes_rtl.Soc_rtl.Rtl_exhausted { cycles; iterations }, Ok a ->
        Format.printf
          "cosim: MISMATCH — RTL stalled after %d iterations (%d cycles), analysis %a@."
          iterations cycles Ratio.pp a.Perf.cycle_time;
        exit 2
      | Ermes_rtl.Soc_rtl.Rtl_period p, Error f ->
        Format.printf "cosim: MISMATCH — RTL settles at %a, analysis reports %a@."
          Ratio.pp p (Perf.pp_failure sys) f;
        exit 2
      | Ermes_rtl.Soc_rtl.Rtl_no_period, _ ->
        Format.printf "cosim: no steady period within %d monitored iterations (raise --rounds)@."
          rounds;
        exit 3
    end
  in
  Cmd.v
    (Cmd.info "rtl" ~exits
       ~doc:"Generate the Verilog control skeleton (per-process FSMs + channel \
             handshakes) and optionally co-simulate it against the analysis.")
    (with_logs Term.(const run $ file_arg $ emit $ cosim $ rounds))

(* ---- inject ------------------------------------------------------------ *)

let faults_arg =
  Arg.(value & opt_all string []
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Fault to inject (repeatable): $(b,jitter:CH:D) (channel latency drift), \
                 $(b,slow:P:D) (process slowdown), $(b,shrink:CH:K) (FIFO depth cut), \
                 $(b,stall:CH:C\\@K) (transient stall of C cycles on the K-th transfer), \
                 $(b,droptoken:P) (lose the process's initial token).")

let inject_cmd =
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Cross-check the faulted system across every oracle (liveness, Howard, \
                 Karp, Lawler, token game, max-plus firing, simulator, certificate \
                 checker, RTL co-simulation) instead of emitting it.")
  in
  let rounds =
    Arg.(value & opt int 384 & info [ "rounds" ] ~docv:"N"
           ~doc:"Budget of monitored iterations for --check: the simulator, the RTL and \
                 the firing schedule stop at the first recurrence of their state.")
  in
  let run file faults check rounds out =
    let sys = or_die (load file) in
    let scenario = List.map (fun s -> or_die (Fault.parse_spec sys s)) faults in
    if check then begin
      let r = Differential.run_case ~rounds sys scenario in
      (match r.Differential.verdict with
       | Some (Differential.Live ct) -> Format.printf "verdict: live, cycle time %a@." Ratio.pp ct
       | Some Differential.Dead -> Format.printf "verdict: deadlock@."
       | None -> Format.printf "verdict: unavailable@.");
      match r.Differential.mismatches with
      | [] -> Format.printf "all oracles agree@."
      | ms ->
        List.iter (fun m -> Format.printf "MISMATCH: %s@." m) ms;
        exit 2
    end
    else begin
      List.iter
        (fun f ->
          if not (Fault.is_structural f) then
            Format.eprintf "note: %a is a dynamic fault; only --check and the simulator see it@."
              (Fault.pp sys) f)
        scenario;
      let faulted = Fault.apply sys scenario in
      (match Perf.analyze faulted with
       | Ok a -> Format.eprintf "faulted cycle time: %a@." Ratio.pp a.Perf.cycle_time
       | Error f -> Format.eprintf "faulted system: %a@." (Perf.pp_failure faulted) f);
      save out faulted
    end
  in
  Cmd.v
    (Cmd.info "inject" ~exits ~doc:"Apply fault models to a system (and optionally cross-check the oracles).")
    (with_logs Term.(const run $ file_arg $ faults_arg $ check $ rounds $ output_arg))

(* ---- fuzz -------------------------------------------------------------- *)

let fuzz_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Campaign PRNG seed.") in
  let cases = Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc:"Number of random cases.") in
  let max_processes =
    Arg.(value & opt int 12 & info [ "max-processes" ] ~docv:"P" ~doc:"Largest generated system.")
  in
  let rounds =
    Arg.(value & opt int 384 & info [ "rounds" ] ~docv:"N"
           ~doc:"Budget of monitored iterations per case: the simulator, the RTL and the \
                 firing schedule stop at the first recurrence of their state.")
  in
  let repro_dir =
    Arg.(value & opt (some string) (Some ".") & info [ "repro-dir" ] ~docv:"DIR"
           ~doc:"Where failing cases are written as .soc repro files.")
  in
  let no_repro =
    Arg.(value & flag & info [ "no-repro" ] ~doc:"Do not write repro files.")
  in
  let no_rtl =
    Arg.(value & flag & info [ "no-rtl" ]
           ~doc:"Disable the RTL co-simulation oracle (on by default; structural \
                 faults only — scenarios with droptoken skip it on their own).")
  in
  let run seed cases max_processes rounds repro_dir no_repro no_rtl checkpoint resume jobs =
    let config =
      {
        Fuzz.seed;
        cases;
        max_processes;
        rounds;
        rtl = not no_rtl;
        repro_dir = (if no_repro then None else repro_dir);
      }
    in
    let jobs = resolve_jobs jobs in
    let s =
      match require_checkpoint resume checkpoint with
      | None -> Fuzz.run ~log:prerr_endline ~jobs config
      | Some path ->
        or_die (Checkpoint.fuzz_run ~log:prerr_endline ~jobs ~path ~resume config)
    in
    Printf.printf "fuzz: seed %d, %d cases: %d live, %d dead, %d faults injected, %d failure(s)\n"
      seed s.Fuzz.cases_run s.Fuzz.live s.Fuzz.dead s.Fuzz.faults_injected
      (List.length s.Fuzz.failures);
    if s.Fuzz.failures <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:"Differential fuzzing: random systems + fault scenarios, every analysis \
             cross-checked against the simulator; failures are shrunk and written as \
             .soc repros.")
    (with_logs
       (with_trace
          Term.(
            const run $ seed $ cases $ max_processes $ rounds $ repro_dir $ no_repro
            $ no_rtl $ checkpoint_arg $ resume_arg $ jobs_arg)))

(* ---- batch -------------------------------------------------------------- *)

let batch_cmd =
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"FILE.soc"
           ~doc:"Jobs: run the selected --action on each file.")
  in
  let manifest =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"M"
             ~doc:"Job manifest: one $(i,FILE [analyze|lint|simulate] [crash|flaky:N]) \
                   per line, $(b,#) comments. $(b,crash)/$(b,flaky:N) are documented \
                   fault-injection hooks: they make attempts of that job raise, \
                   exercising the retry and quarantine machinery.")
  in
  let action =
    let actions =
      Arg.enum [ ("analyze", Batch.Analyze); ("lint", Batch.Lint); ("simulate", Batch.Simulate) ]
    in
    Arg.(value & opt actions Batch.Analyze
         & info [ "action" ] ~docv:"A" ~doc:"Action for positional FILE jobs (manifest entries carry their own).")
  in
  let max_attempts =
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N"
           ~doc:"Attempts per job before it is quarantined (>= 1); retries back off \
                 exponentially with a deterministic jitter.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Per-job wall budget: a job whose attempt overruns it is classified \
                 timed-out (and not retried).")
  in
  let max_seconds =
    Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"SEC"
           ~doc:"Batch watchdog: no new wave of jobs starts after this budget; \
                 remaining jobs are reported skipped and the exit code is 3.")
  in
  let rounds =
    Arg.(value & opt int 64 & info [ "rounds" ] ~docv:"N" ~doc:"Budget of sink iterations for simulate jobs.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the machine-readable JSON report instead of text.")
  in
  let run files manifest action max_attempts timeout max_seconds rounds json jobs =
    if max_attempts < 1 then begin
      prerr_endline "ermes: --max-attempts must be >= 1";
      exit 1
    end;
    let manifest_jobs =
      match manifest with
      | None -> []
      | Some m -> or_die (Batch.parse_manifest_file m)
    in
    let entries = manifest_jobs @ List.map (Batch.job_of_file ~action) files in
    if entries = [] then begin
      prerr_endline "ermes: no jobs (give FILE.soc arguments or --manifest M)";
      exit 1
    end;
    let policy =
      {
        Supervise.default_policy with
        Supervise.max_attempts;
        timeout_s = timeout;
        clock = Unix.gettimeofday;
      }
    in
    let report =
      Batch.run ~jobs:(resolve_jobs jobs) ~policy ?max_seconds ~rounds entries
    in
    if json then print_endline (Batch.to_json report)
    else Format.printf "%a@." Batch.pp_text report;
    let code = Batch.exit_code report in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "batch" ~exits
       ~doc:"Process a batch of .soc jobs (analyze/lint/simulate) under a supervised \
             runtime: parse errors, deadlocks and lint findings are isolated per job; \
             crashing jobs are retried with backoff and quarantined; a JSON or text \
             summary reports every job. Exit 0 when all jobs are ok, 2 when some \
             failed, 3 when the $(b,--max-seconds) watchdog expired.")
    (with_logs
       (with_trace
          Term.(
            const run $ files $ manifest $ action $ max_attempts $ timeout $ max_seconds
            $ rounds $ json $ jobs_arg)))

(* ---- resilience --------------------------------------------------------- *)

let resilience_cmd =
  let threshold =
    Arg.(value & opt int 2 & info [ "threshold" ] ~docv:"T"
           ~doc:"Components with slack <= T cycles are classified fragile.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Probe every bounded slack with fault injections (slack keeps the cycle \
                 time, slack+1 degrades it).")
  in
  let run file threshold verify =
    let sys = or_die (load file) in
    match Resilience.analyze ~verify sys with
    | Error e ->
      prerr_endline ("ermes: " ^ e);
      exit 2
    | Ok r ->
      Format.printf "%a@." (Resilience.pp sys ~threshold) r;
      let entries = List.map snd r.Resilience.processes @ List.map snd r.Resilience.channels in
      if List.exists (fun e -> e.Resilience.verified = Some false) entries then begin
        prerr_endline "ermes: slack verification failed (analysis bug)";
        exit 2
      end
  in
  Cmd.v
    (Cmd.info "resilience" ~exits
       ~doc:"Latency-slack report: how much each component can degrade before the \
             cycle time moves; fragile vs robust classification.")
    (with_logs Term.(const run $ file_arg $ threshold $ verify))

(* ---- profile ------------------------------------------------------------ *)

let profile_cmd =
  let rounds =
    Arg.(value & opt int 64 & info [ "rounds" ] ~docv:"N"
           ~doc:"Sink iterations driving the utilization simulation.")
  in
  let run file rounds =
    (* --trace may already have installed a sink; otherwise record locally so
       the summary has something to print. *)
    Obs.set_clock Unix.gettimeofday;
    if not (Obs.enabled ()) then Obs.enable ();
    let sys = or_die (load file) in
    let session = Incremental.create sys in
    let code = ref 0 in
    (match Incremental.analyze session with
     | Ok a -> Format.printf "analysis: cycle time %a@." Ratio.pp a.Perf.cycle_time
     | Error f ->
       Format.printf "analysis: %a@." (Perf.pp_failure sys) f;
       code := 2);
    (match Sim.run ~max_iterations:rounds sys with
     | Ok r ->
       Format.printf "%a@." (Sim.pp_profile sys) r;
       (match r.Sim.outcome with
        | Sim.Completed -> ()
        | Sim.Deadlocked d ->
          Format.printf "simulation: %a@." (Sim.pp_deadlock sys) d;
          if !code = 0 then code := 2
        | Sim.Timed_out t ->
          Format.printf "simulation: %a@." Sim.pp_timeout t;
          if !code = 0 then code := 3)
     | Error e ->
       prerr_endline ("ermes: " ^ e);
       if !code = 0 then code := 1);
    print_string (Obs.summary ());
    if !code <> 0 then exit !code
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:"Analyze and simulate a system, printing the simulator's utilization \
             profile (per-process blocked time, FIFO occupancy) and the \
             instrumentation summary (solver and session counters, span timings).")
    (with_logs (with_trace Term.(const run $ file_arg $ rounds)))

(* ---- lint -------------------------------------------------------------- *)

let lint_cmd =
  let file =
    (* A plain string (not Arg.file): an unreadable path must follow the lint
       exit contract (1 = invalid input), not cmdliner's CLI-error code. *)
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.soc" ~doc:"System description.")
  in
  let format =
    let formats = Arg.enum [ ("text", `Text); ("json", `Json) ] in
    Arg.(value & opt formats `Text & info [ "format" ] ~docv:"F"
           ~doc:"Output format: $(b,text) (one line per diagnostic) or $(b,json).")
  in
  let warnings_ok =
    Arg.(value & flag & info [ "warnings-ok" ]
           ~doc:"Exit 0 when only warnings were found (errors still exit 2).")
  in
  let run file format warnings_ok =
    match Lint.lint_file file with
    | Error msg ->
      prerr_endline ("ermes: " ^ msg);
      exit 1
    | Ok report ->
      (match format with
       | `Text -> Format.printf "%a" Lint.pp_text report
       | `Json -> print_endline (Lint.to_json report));
      if Lint.errors report > 0 then exit 2
      else if Lint.warnings report > 0 && not warnings_ok then exit 2
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:"Static diagnostics for a system description: name and shape errors \
             (stable codes E101-E107), hostile input sizes (E108), statically \
             proven deadlock with its witness cycle, and serialization warnings \
             (W201-W202) for put/get orders that a single adjacent swap would \
             improve. Exit 0 clean, 1 invalid input, 2 on any error finding (or \
             warnings without $(b,--warnings-ok)).")
    (with_logs (with_trace Term.(const run $ file $ format $ warnings_ok)))

(* ---- serve / call ------------------------------------------------------- *)

let serve_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket to listen on (created; unlinked on shutdown).")
  in
  let tcp_port =
    Arg.(value & opt (some int) None & info [ "tcp-port" ] ~docv:"PORT"
           ~doc:"Also listen on 127.0.0.1:$(docv).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Admission queue bound: requests beyond $(docv) queued get an \
                 $(b,overloaded) reply with a retry-after hint instead of \
                 waiting without bound.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing requests.")
  in
  let client_cap =
    Arg.(value & opt int 8 & info [ "client-cap" ] ~docv:"N"
           ~doc:"Maximum in-flight requests per connection.")
  in
  let idle_timeout =
    Arg.(value & opt float 300. & info [ "idle-timeout-s" ] ~docv:"S"
           ~doc:"Reap connections idle for $(docv) seconds.")
  in
  let frame_deadline =
    Arg.(value & opt float 10. & info [ "frame-deadline-s" ] ~docv:"S"
           ~doc:"Answer $(b,bad-request) and close a connection that has held \
                 a partial frame open for $(docv) seconds — a slow-loris \
                 client must not pin a connection slot until the idle reaper \
                 fires.")
  in
  let session_ttl =
    Arg.(value & opt float 900. & info [ "session-ttl-s" ] ~docv:"S"
           ~doc:"Reap incremental sessions idle for $(docv) seconds.")
  in
  let cache =
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N"
           ~doc:"Warm-cache capacity (certified verdicts keyed by design hash).")
  in
  let max_attempts =
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N"
           ~doc:"Supervised attempts per request before it is answered \
                 $(b,crash).")
  in
  let deadline_ms =
    Arg.(value & opt int 30_000 & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline when the request names none.")
  in
  let max_deadline_ms =
    Arg.(value & opt int 120_000 & info [ "max-deadline-ms" ] ~docv:"MS"
           ~doc:"Ceiling on client-requested deadlines.")
  in
  let crash_budget =
    Arg.(value & opt int 1000 & info [ "crash-budget" ] ~docv:"N"
           ~doc:"Cumulative crashed requests before the daemon circuit-breaks \
                 to metrics-only service.")
  in
  let rounds =
    Arg.(value & opt int 10_000 & info [ "rounds" ] ~docv:"N"
           ~doc:"Budget of sink iterations for batch $(b,simulate) jobs.")
  in
  let run socket tcp_port queue workers client_cap idle_timeout frame_deadline
      session_ttl cache max_attempts deadline_ms max_deadline_ms crash_budget
      rounds =
    let cfg =
      {
        (Server.default_config ~socket) with
        Server.tcp_port;
        queue_capacity = queue;
        workers;
        client_cap;
        idle_timeout_s = idle_timeout;
        frame_deadline_s = frame_deadline;
        session_ttl_s = session_ttl;
        cache_capacity = cache;
        max_attempts;
        default_deadline_ms = deadline_ms;
        max_deadline_ms;
        crash_budget;
        rounds;
      }
    in
    match Server.run cfg with
    | Ok () -> ()
    | Error msg ->
      prerr_endline ("ermes: " ^ msg);
      exit 1
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Run the analysis daemon: concurrent $(b,analyze)/$(b,lint)/\
             $(b,dse)/$(b,batch)/$(b,metrics) requests over a unix socket \
             with a length-prefixed JSON protocol. Robustness contract: \
             bounded admission with $(b,overloaded) backpressure replies, \
             per-request deadlines classified as $(b,timeout), crash \
             isolation per request (a dying worker domain costs one reply, \
             never the daemon), graceful degradation to metrics-only, a warm \
             cache of certified verdicts, and per-client incremental \
             sessions. SIGTERM/SIGINT shut down cleanly (exit 0), so \
             $(b,--trace) dumps are written. See DESIGN.md \xC2\xA712.")
    (with_logs
       (with_trace
          Term.(
            const run $ socket $ tcp_port $ queue $ workers $ client_cap
            $ idle_timeout $ frame_deadline $ session_ttl $ cache
            $ max_attempts $ deadline_ms $ max_deadline_ms $ crash_budget
            $ rounds)))

let call_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket of a running $(b,ermes serve).")
  in
  let verb =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VERB"
           ~doc:"Request verb: ping, analyze, lint, dse, batch, metrics, \
                 session-open, session-close.")
  in
  let design =
    Arg.(value & opt (some string) None & info [ "design" ] ~docv:"FILE.soc"
           ~doc:"System description to embed in the request.")
  in
  let session =
    Arg.(value & opt (some string) None & info [ "session" ] ~docv:"NAME"
           ~doc:"Incremental session name (analyze/session-open/session-close).")
  in
  let tct =
    Arg.(value & opt (some int) None & info [ "tct" ] ~docv:"T"
           ~doc:"Target cycle time for $(b,dse).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline (server clamps to its maximum).")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Fault injection: $(b,crash), $(b,flaky:N), $(b,sleep:MS), \
                 $(b,kill-worker).")
  in
  let client =
    Arg.(value & opt string "cli" & info [ "client" ] ~docv:"NAME"
           ~doc:"Client name sent in the hello (sessions are keyed by it, so \
                 a stable name makes them survive reconnects).")
  in
  let warnings_ok =
    Arg.(value & flag & info [ "warnings-ok" ]
           ~doc:"For $(b,lint): status ok when only warnings were found.")
  in
  let format =
    Arg.(value & opt (some string) None & info [ "format" ] ~docv:"F"
           ~doc:"For $(b,metrics): $(b,json) (default) or $(b,text).")
  in
  let jobs_file =
    Arg.(value & opt (some string) None & info [ "jobs-file" ] ~docv:"FILE"
           ~doc:"For $(b,batch): a JSON array of job objects to embed.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Pipeline the same request $(docv) times on one connection; \
                 the exit code is the worst reply's code.")
  in
  let timeout_s =
    Arg.(value & opt float 60. & info [ "timeout-s" ] ~docv:"S"
           ~doc:"Give up waiting for a reply after $(docv) seconds (exit 3).")
  in
  let run socket verb design session tct deadline_ms inject client warnings_ok
      format jobs_file repeat timeout_s =
    let die code msg =
      prerr_endline ("ermes: " ^ msg);
      exit code
    in
    (* SO_RCVTIMEO reads 0 as "wait forever", and a negative value can
       time a read out at once. *)
    if not (Float.is_finite timeout_s && timeout_s > 0.) then
      die 1 (Printf.sprintf "--timeout-s must be a positive number of seconds, got %g" timeout_s);
    let read_file path =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error e -> die 1 e
    in
    let body_fields =
      List.concat
        [
          [ ("verb", Sproto.Str verb) ];
          (match design with
          | None -> []
          | Some f -> [ ("design", Sproto.Str (read_file f)) ]);
          (match session with None -> [] | Some s -> [ ("session", Sproto.Str s) ]);
          (match tct with None -> [] | Some t -> [ ("tct", Sproto.Int t) ]);
          (match deadline_ms with
          | None -> []
          | Some d -> [ ("deadline_ms", Sproto.Int d) ]);
          (match inject with None -> [] | Some i -> [ ("inject", Sproto.Str i) ]);
          (if warnings_ok then [ ("warnings_ok", Sproto.Bool true) ] else []);
          (match format with None -> [] | Some f -> [ ("format", Sproto.Str f) ]);
          (match jobs_file with
          | None -> []
          | Some f -> (
            match Sproto.of_string (read_file f) with
            | Ok (Sproto.Arr _ as jobs) -> [ ("jobs", jobs) ]
            | Ok _ -> die 1 (f ^ ": expected a JSON array of jobs")
            | Error e -> die 1 (f ^ ": " ^ e)));
        ]
    in
    let conn =
      match Client.connect ~timeout_s socket with
      | Ok c -> c
      | Error e -> die 3 (Printf.sprintf "%s: %s (is the daemon running?)" socket e)
    in
    let send_payload payload =
      match Client.send conn payload with Ok () -> () | Error e -> die 3 ("send: " ^ e)
    in
    let read_reply () =
      match Client.recv conn with
      | Ok payload -> payload
      | Error (Client.Bad_frame e) -> die 1 ("bad frame from server: " ^ e)
      | Error Client.Closed -> die 3 "connection closed by server"
      | Error Client.Timed_out ->
        die 3 (Printf.sprintf "timed out after %.1f s waiting for a reply" timeout_s)
      | Error (Client.Io e) -> die 3 ("recv: " ^ e)
    in
    let code_of payload =
      match Sproto.of_string payload with
      | Ok j -> Option.value ~default:1 (Sproto.int_member "code" j)
      | Error _ -> 1
    in
    send_payload (Sproto.to_string (Sproto.hello_request ~client));
    let hello = read_reply () in
    if code_of hello <> 0 then begin
      print_endline hello;
      exit (code_of hello)
    end;
    (* Pipelined: all requests go out before the first reply is read, which
       is what makes queue-overload tests deterministic. *)
    for id = 1 to repeat do
      send_payload
        (Sproto.to_string (Sproto.Obj (("id", Sproto.Int id) :: body_fields)))
    done;
    let worst = ref 0 in
    for _ = 1 to repeat do
      let payload = read_reply () in
      (* A reply carrying a pre-rendered text block (metrics --format text)
         is printed as that text; everything else as the raw JSON line. *)
      (match
         if format = Some "text" then
           Option.bind (Result.to_option (Sproto.of_string payload))
             (Sproto.str_member "text")
         else None
       with
      | Some text -> print_string text
      | None -> print_endline payload);
      worst := max !worst (code_of payload)
    done;
    Client.close conn;
    exit !worst
  in
  Cmd.v
    (Cmd.info "call" ~exits
       ~doc:"Send one request (or $(b,--repeat) pipelined copies) to a \
             running $(b,ermes serve), print each JSON reply on its own \
             line, and exit with the reply's $(b,code) — the same 0/1/2/3 \
             contract as the offline subcommands.")
    (with_logs
       Term.(
         const run $ socket $ verb $ design $ session $ tct $ deadline_ms
         $ inject $ client $ warnings_ok $ format $ jobs_file $ repeat
         $ timeout_s))

(* ---- chaos ------------------------------------------------------------- *)

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Campaign seed: the same seed replays the same plans, wave \
                 for wave, and reaches the same verdict.")
  in
  let waves_arg =
    Arg.(value & opt int 4 & info [ "waves" ] ~docv:"W"
           ~doc:"Fault plans drawn per target ($(b,--plan) forces exactly \
                 one).")
  in
  let target_arg =
    Arg.(value & opt string "all" & info [ "target" ] ~docv:"T"
           ~doc:"Comma-separated targets: $(b,journal), $(b,fuzz), $(b,dse), \
                 $(b,batch), $(b,serve) or $(b,all).")
  in
  let plan_arg =
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"SPEC"
           ~doc:"Replay one handwritten plan instead of drawing seeded ones: \
                 comma-separated $(b,enospc@N), $(b,short:K@N), \
                 $(b,eintr:T@N), $(b,eintr-read:T@N), $(b,rename-skip@N), \
                 $(b,rename-torn@N), $(b,skew:S@N).")
  in
  let repro_arg =
    Arg.(value & opt (some string) None & info [ "repro" ] ~docv:"FILE"
           ~doc:"Where to write the shrunk repro on a violation (default: \
                 $(b,chaos-repro-<seed>.txt)).")
  in
  let run seed waves target_spec plan_spec repro_file =
    let die msg =
      prerr_endline ("ermes: " ^ msg);
      exit 1
    in
    let targets =
      match Campaign.parse_targets target_spec with Ok t -> t | Error e -> die e
    in
    let plan =
      match plan_spec with
      | None -> None
      | Some s -> (
        match Chaos.parse_spec s with
        | Ok p -> Some p
        | Error e -> die ("bad --plan: " ^ e))
    in
    if waves < 1 then die "--waves must be >= 1";
    let waves = if plan = None then waves else 1 in
    let report ~wave target plan result =
      let name = Campaign.name target and spec = Chaos.to_spec plan in
      match result with
      | Ok () -> Printf.printf "wave %d %s [%s] ok\n%!" wave name spec
      | Error msg -> Printf.printf "wave %d %s [%s] VIOLATION: %s\n%!" wave name spec msg
    in
    match Campaign.run ?plan ~report ~seed ~waves targets with
    | None ->
      Printf.printf "chaos: seed %d, %d wave(s) over %s: all invariants hold\n"
        seed waves
        (String.concat "," (List.map Campaign.name targets))
    | Some v ->
      Printf.printf "shrunk to [%s]: %s\n" (Chaos.to_spec v.Campaign.minimal) v.message;
      Printf.printf "replay: %s\n" (Campaign.replay ~seed v);
      let file =
        match repro_file with
        | Some f -> f
        | None -> Printf.sprintf "chaos-repro-%d.txt" seed
      in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (Campaign.repro ~seed v));
      Printf.printf "wrote %s\n" file;
      exit 2
  in
  Cmd.v
    (Cmd.info "chaos" ~exits
       ~doc:"Run a deterministic I/O chaos campaign: seeded fault plans \
             (ENOSPC, short writes, EINTR storms, torn or skipped renames, \
             clock skew) injected into the checkpoint journal, the fuzz/DSE \
             campaigns, the batch engine and a live embedded daemon, \
             checking the crash-safety invariants of DESIGN.md \xC2\xA716. \
             Exit 0 when every invariant holds, 2 on a violation (after \
             shrinking the plan to a minimal repro and writing it to \
             $(b,--repro)), 1 on invalid input.")
    (with_logs
       (with_trace
          Term.(
            const run $ seed_arg $ waves_arg $ target_arg $ plan_arg
            $ repro_arg)))

(* ---- dot --------------------------------------------------------------- *)

let dot_cmd =
  let tmg = Arg.(value & flag & info [ "tmg" ] ~doc:"Render the timed marked graph instead of the process graph.") in
  let run file tmg_flag out =
    let sys = or_die (load file) in
    let text =
      if tmg_flag then Tmg.to_dot (To_tmg.build sys).To_tmg.tmg else System.to_dot sys
    in
    match out with
    | None -> print_string text
    | Some path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "dot" ~exits ~doc:"Graphviz export of the system or its TMG.")
    (with_logs Term.(const run $ file_arg $ tmg $ output_arg))

let () =
  let doc = "compositional high-level synthesis of communication-centric SoCs (DAC'14)" in
  let info = Cmd.info "ermes" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
                    [
                      analyze_cmd;
                      order_cmd;
                      simulate_cmd;
                      dse_cmd;
                      generate_cmd;
                      mpeg2_cmd;
                      fifo_cmd;
                      frontier_cmd;
                      oracle_cmd;
                      report_cmd;
                      buffers_cmd;
                      rtl_cmd;
                      inject_cmd;
                      fuzz_cmd;
                      batch_cmd;
                      resilience_cmd;
                      profile_cmd;
                      lint_cmd;
                      serve_cmd;
                      call_cmd;
                      chaos_cmd;
                      dot_cmd;
                    ]))
