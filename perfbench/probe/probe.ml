(* Per-layer probe of the end-to-end benchmark (perfbench/run.py).

   The end-to-end metrics come from the real [ermes] binary and daemon; this
   program only serves the traced run. It repeats one op's public library
   calls in-process, wraps each call in a span of its own (name, start, end,
   parent, words allocated from [Gc.counters]) and writes the spans plus
   the op's answers as one JSON document, which run.py turns into per-layer
   metrics and cross-checks against the binary's output.

     probe.exe analyze FILE OUT            the calls of `ermes analyze --certify FILE`
     probe.exe dse FILE TCT JOURNAL OUT    each step's Ilp_select call, replayed from
                                           the checkpoint journal of `ermes dse`
     probe.exe fuzz SEED CASES ROUNDS OUT  the cases of `ermes fuzz --seed SEED --no-rtl`,
                                           and the RTL co-simulation of each case
     probe.exe serve REQUESTS OUT          Handler.execute and the client codec on
                                           a request log (one "CLASS\tPAYLOAD" a line)

   Exit 0 on success; any failure raises and exits 2. *)

module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module To_tmg = Ermes_slm.To_tmg
module Sim = Ermes_slm.Sim
module Csr = Ermes_tmg.Csr
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Explore = Ermes_core.Explore
module Ilp_select = Ermes_core.Ilp_select
module Verify = Ermes_verify.Verify
module Branch_bound = Ermes_ilp.Branch_bound
module Fuzz = Ermes_fault.Fuzz
module Differential = Ermes_fault.Differential
module Soc_rtl = Ermes_rtl.Soc_rtl
module Proto = Ermes_serve.Proto
module Handler = Ermes_serve.Handler
module Cache = Ermes_serve.Cache
module Session = Ermes_serve.Session
module Cancel = Ermes_runtime.Supervise.Cancel
module Checkpoint = Ermes_runtime.Checkpoint
module Journal = Ermes_runtime.Journal
module Prng = Ermes_synth.Prng
module Obs = Ermes_obs.Obs

(* ---- spans ---------------------------------------------------------------- *)

type span = {
  op : int;  (** spans of one op share this id *)
  name : string;
  parent : string;  (** name of the enclosing span, "" at the top *)
  t0 : float;
  t1 : float;
  words : float;  (** words allocated during the call *)
  count : int;  (** a work count the call reports, 0 when it has none *)
}

let spans = ref []
let open_spans = ref []
let op = ref 0

(* Span times are seconds since start-up: small values keep their
   microseconds through the JSON float rendering. *)
let epoch = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. epoch

(* Gc.counters is exact for the calling domain; Gc.quick_stat may lag to
   the last minor collection and read 0 for a short call. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span ?(count = fun _ -> 0) name f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := name :: !open_spans;
  let w0 = allocated () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = allocated () in
  open_spans := List.tl !open_spans;
  spans := { op = !op; name; parent; t0; t1; words = w1 -. w0; count = count r } :: !spans;
  r

let write out result =
  let json_of s =
    Proto.Obj
      [
        ("op", Proto.Int s.op);
        ("name", Proto.Str s.name);
        ("parent", Proto.Str s.parent);
        ("start", Proto.Float s.t0);
        ("end", Proto.Float s.t1);
        ("words", Proto.Float s.words);
        ("count", Proto.Int s.count);
      ]
  in
  let doc =
    Proto.Obj
      [ ("result", Proto.Obj result); ("spans", Proto.Arr (List.rev_map json_of !spans)) ]
  in
  Out_channel.with_open_bin out (fun oc ->
      Out_channel.output_string oc (Proto.to_string doc))

let load file =
  match Soc_format.parse_file file with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok sys -> (
    match System.validate sys with
    | Ok () -> sys
    | Error e -> failwith (file ^ ": invalid system: " ^ e))

(* ---- analyze: the call sequence of `ermes analyze --certify FILE` --------- *)

(* Every freeze is a csr.freeze span, those inside Csr.make_solver included,
   so a csr.solve span times Csr.solve alone, as the program's own span does. *)
let analyze file =
  let sys = span "soc_format.parse" (fun () -> load file) in
  (* Perf.analyze *)
  let mapping = span "to_tmg.build" (fun () -> To_tmg.build sys) in
  let solver = span "csr.freeze" (fun () -> Csr.make_solver mapping.To_tmg.tmg) in
  let solved = span "csr.solve" (fun () -> Csr.solve solver) in
  let report =
    span "perf.report" (fun () ->
        let text =
          match Perf.of_howard mapping solved with
          | Ok a ->
            Format.asprintf "%a@.critical cycle: %s@." (Perf.pp_analysis sys) a
              (String.concat " -> " a.Perf.critical_cycle)
          | Error f -> Format.asprintf "%a@." (Perf.pp_failure sys) f
        in
        print_string text;
        text)
  in
  (* certification: a second build, three freezes, a second solve *)
  let tmg = (span "to_tmg.build" (fun () -> To_tmg.build sys)).To_tmg.tmg in
  let frozen = span "csr.freeze" (fun () -> Csr.of_tmg tmg) in
  let solver = span "csr.freeze" (fun () -> Csr.make_solver tmg) in
  let solved = span "csr.solve" (fun () -> Csr.solve solver) in
  let cert = span "verify.certify" (fun () -> Verify.of_howard_csr frozen solved) in
  let fresh = span "csr.freeze" (fun () -> Csr.of_tmg tmg) in
  let checked = span "verify.certify" (fun () -> Verify.check_csr fresh cert) in
  [
    ("analysis", Proto.Str (List.hd (String.split_on_char '\n' report)));
    ("certificate", Proto.Str (Verify.describe cert));
    ("checked", Proto.Bool (Result.is_ok checked));
  ]

(* ---- dse: each step's ILP, replayed from the op's checkpoint journal ------ *)

(* The Ilp_select call Explore.run makes from a given state (see
   lib/core/explore.ml). Branch_bound.node_count covers the last solve only:
   when timing_optimization falls back from min_area_with_gain to max_gain,
   the first solve's nodes go uncounted. *)
let ilp_call ~tct sys =
  let a = match Perf.analyze sys with Ok a -> a | Error _ -> failwith "replay: deadlock" in
  let critical = a.Perf.critical_processes in
  let slack = Ratio.sub (Ratio.of_int tct) a.Perf.cycle_time in
  if Ratio.(slack > Ratio.zero) then
    Ilp_select.area_recovery ~tct sys ~critical ~slack:(Ratio.num slack / Ratio.den slack)
  else
    Ilp_select.timing_optimization sys ~critical
      ~needed_gain:(a.Perf.critical_delay - (tct * a.Perf.critical_tokens))

let dse file tct journal =
  let snaps =
    match Journal.load journal with
    | Error e -> failwith (journal ^ ": " ^ e)
    | Ok l ->
      List.map
        (fun p ->
          match Checkpoint.decode_dse_snapshot p with
          | Some s -> s
          | None -> failwith (journal ^ ": undecodable snapshot"))
        l.Journal.entries
  in
  let replica = load file in
  let diverged = ref 0 in
  let rec replay = function
    | (pre : Explore.snapshot) :: ((post : Explore.snapshot) :: _ as rest) ->
      Array.iteri (System.select replica) pre.Explore.selection;
      List.iteri
        (fun p (gets, puts) ->
          System.set_get_order replica p gets;
          System.set_put_order replica p puts)
        pre.Explore.orders;
      let changes =
        span "ilp_select" ~count:(fun _ -> Branch_bound.node_count ()) (fun () ->
            ilp_call ~tct replica)
      in
      (* The replay analyzes cold where the exploration re-analyzed warm; a
         different answer means the replay no longer mirrors Explore.run. *)
      if post.Explore.snap_step.Explore.action <> Explore.Converged
         && List.sort compare changes <> List.sort compare post.Explore.snap_step.Explore.changes
      then incr diverged;
      replay rest
    | _ -> ()
  in
  replay snaps;
  [ ("steps", Proto.Int (List.length snaps)); ("diverged_steps", Proto.Int !diverged) ]

(* ---- fuzz: the cases of one campaign, which is one op --------------------- *)

(* The campaign runs as `ermes fuzz --no-rtl` does. The two simulators then
   run again on each generated system, each on its own, with the horizons the
   differential oracles give them; the RTL co-simulation's answer is not
   judged. They run after the campaign, so that the campaign's spans see the
   heap the binary's campaign sees. *)
let fuzz seed cases rounds =
  let cfg = { Fuzz.default with Fuzz.rtl = false; rounds } in
  let rng = Prng.create ~seed in
  let live = ref 0 and dead = ref 0 and faults = ref 0 and failures = ref 0 in
  let systems =
    List.init cases (fun _ ->
        let sys, scenario =
          span "fuzz.gen_case" (fun () -> Fuzz.gen_case rng ~max_processes:cfg.Fuzz.max_processes)
        in
        faults := !faults + List.length scenario;
        let r =
          span "differential.run_case" (fun () ->
              Differential.run_case ~rounds:cfg.Fuzz.rounds ~rtl:cfg.Fuzz.rtl sys scenario)
        in
        (match (Differential.agreed r, r.Differential.verdict) with
        | true, Some (Differential.Live _) -> incr live
        | true, Some Differential.Dead -> incr dead
        | true, None -> ()
        | false, _ -> incr failures);
        sys)
  in
  let rtl_rounds = max 12 (cfg.Fuzz.rounds / 3) in
  let interp_cycles = ref 0 in
  List.iter
    (fun sys ->
      Obs.enable ();
      (try
         ignore
           (span "soc_rtl.cosim" (fun () ->
                Soc_rtl.measured_cycle_time ~rounds:rtl_rounds
                  ~max_cycles:(Sim.default_max_cycles ~max_iterations:rtl_rounds sys)
                  sys))
       with Invalid_argument _ -> ());
      interp_cycles := !interp_cycles + Obs.counter "rtl.interp.cycles";
      Obs.disable ();
      ignore
        (span "sim.steady" (fun () ->
             Sim.steady_cycle_time ~rounds:cfg.Fuzz.rounds
               ~max_cycles:(Sim.default_max_cycles ~max_iterations:cfg.Fuzz.rounds sys)
               sys)))
    systems;
  [
    ( "summary",
      Proto.Str
        (Printf.sprintf "fuzz: seed %d, %d cases: %d live, %d dead, %d faults injected, %d failure(s)"
           seed cases !live !dead !faults !failures) );
    ("interp_cycles", Proto.Int !interp_cycles);
  ]

(* ---- serve: Handler.execute and the client codec on a request log --------- *)

let serve requests =
  let clock = Unix.gettimeofday in
  let deps =
    {
      Handler.cache = Cache.create ~capacity:256;
      sessions = Session.create_table ~clock ();
      rounds = 10_000;
    }
  in
  let statuses = ref [] in
  In_channel.with_open_bin requests In_channel.input_lines
  |> List.iteri (fun i line ->
         op := i;
         let cls, payload =
           match String.index_opt line '\t' with
           | Some k -> (String.sub line 0 k, String.sub line (k + 1) (String.length line - k - 1))
           | None -> failwith "request log: expected CLASS<TAB>PAYLOAD"
         in
         let req =
           match Proto.parse_request payload with Ok r -> r | Error e -> failwith e
         in
         ignore (span "proto.encode" (fun () -> Proto.frame (Proto.to_string req.Proto.body)));
         let reply =
           span ("handler." ^ cls) (fun () ->
               Handler.execute deps
                 ~cancel:(Cancel.make ~deadline_s:30. ~clock ())
                 ~attempts:(ref 0) ~client:"perfbench" req)
         in
         (* The daemon parses every design; time that layer on its own. *)
         Option.iter
           (fun text ->
             ignore
               (span "soc_format.parse" (fun () ->
                    match Soc_format.parse text with
                    | Ok sys -> System.validate sys
                    | Error e -> failwith e)))
           (Proto.str_member "design" req.Proto.body);
         let frame = Proto.frame (Proto.to_string reply) in
         let decoded =
           span "proto.decode" (fun () ->
               let dec = Proto.decoder () in
               Proto.feed dec (Bytes.unsafe_of_string frame) (String.length frame);
               match Proto.next dec with
               | Ok (Some p) -> Proto.of_string p
               | Ok None -> Error "incomplete frame"
               | Error e -> Error e)
         in
         match decoded with
         | Ok j -> statuses := Proto.Str (Option.value ~default:"?" (Proto.str_member "status" j)) :: !statuses
         | Error e -> failwith ("reply decode: " ^ e));
  [ ("statuses", Proto.Arr (List.rev !statuses)) ]

let () =
  let result, out =
    match Array.to_list Sys.argv |> List.tl with
    | [ "analyze"; file; out ] -> (analyze file, out)
    | [ "dse"; file; tct; journal; out ] -> (dse file (int_of_string tct) journal, out)
    | [ "fuzz"; seed; cases; rounds; out ] ->
      (fuzz (int_of_string seed) (int_of_string cases) (int_of_string rounds), out)
    | [ "serve"; requests; out ] -> (serve requests, out)
    | _ ->
      prerr_endline
        "usage: probe.exe (analyze FILE OUT | dse FILE TCT JOURNAL OUT | fuzz SEED CASES ROUNDS OUT \
         | serve REQUESTS OUT)";
      exit 1
  in
  write out result
