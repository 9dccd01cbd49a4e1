(* The supervised execution runtime: retrying pool, crash-safe checkpoint
   journal, campaign resume, and the batch job engine.

   Anchor properties: for pure tasks the supervised pool's outcomes — the
   Done values AND the quarantined index set — are identical for every job
   count; and for any kill point, resuming a checkpointed campaign
   reproduces the uninterrupted run's report bit-for-bit. *)

module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module Motivating = Ermes_slm.Motivating
module Ratio = Ermes_tmg.Ratio
module Explore = Ermes_core.Explore
module Oracle = Ermes_core.Oracle
module Fault = Ermes_fault.Fault
module Differential = Ermes_fault.Differential
module Fuzz = Ermes_fault.Fuzz
module Parallel = Ermes_parallel.Parallel
module Prng = Ermes_synth.Prng
module Supervise = Ermes_runtime.Supervise
module Journal = Ermes_runtime.Journal
module Checkpoint = Ermes_runtime.Checkpoint
module Batch = Ermes_runtime.Batch
module Chaos = Ermes_chaos.Chaos
module Campaign = Ermes_chaos_campaign.Campaign
module Obs = Ermes_obs.Obs

let contains = Astring_contains.contains

let outcome_tag = function
  | Supervise.Done _ -> "done"
  | Supervise.Failed _ -> "failed"
  | Supervise.Timed_out _ -> "timed-out"
  | Supervise.Quarantined _ -> "quarantined"

(* ---- supervised pool ----------------------------------------------------- *)

let test_supervise_all_done () =
  let outcomes, stats = Supervise.run ~jobs:3 20 (fun i -> i * i) in
  Array.iteri
    (fun i o ->
      match o with
      | Supervise.Done v -> Alcotest.(check int) "value" (i * i) v
      | o -> Alcotest.failf "task %d: expected Done, got %s" i (outcome_tag o))
    outcomes;
  Alcotest.(check int) "completed" 20 stats.Supervise.completed;
  Alcotest.(check int) "retries" 0 stats.Supervise.retries

let test_supervise_quarantine_jobs_invariant () =
  let task i = if i mod 5 = 0 then failwith (Printf.sprintf "bad %d" i) else 10 * i in
  let fingerprint jobs =
    let outcomes, stats = Supervise.run ~jobs 23 task in
    ( Array.to_list
        (Array.map
           (function
             | Supervise.Done v -> Printf.sprintf "done %d" v
             | Supervise.Quarantined f ->
               Printf.sprintf "quarantined %s after %d" f.Supervise.exn
                 f.Supervise.attempts
             | o -> outcome_tag o)
           outcomes),
      stats.Supervise.quarantined,
      stats.Supervise.retries )
  in
  let ref_fp = fingerprint 1 in
  let _, quarantined, retries = ref_fp in
  Alcotest.(check int) "quarantined count" 5 quarantined;
  (* Each quarantined task burned max_attempts - 1 = 2 retries. *)
  Alcotest.(check int) "retries" 10 retries;
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical" jobs)
        true
        (fingerprint jobs = ref_fp))
    [ 2; 4; 8 ]

let test_supervise_flaky_recovers () =
  let attempts = Array.make 8 0 in
  let task i =
    attempts.(i) <- attempts.(i) + 1;
    if attempts.(i) <= 2 then failwith "flaky" else i
  in
  let outcomes, stats = Supervise.run ~jobs:1 8 task in
  Array.iteri
    (fun i o ->
      match o with
      | Supervise.Done v -> Alcotest.(check int) "value" i v
      | o -> Alcotest.failf "task %d: %s" i (outcome_tag o))
    outcomes;
  Alcotest.(check int) "two retries each" 16 stats.Supervise.retries;
  Alcotest.(check int) "quarantined" 0 stats.Supervise.quarantined

let test_supervise_failed_when_quarantine_off () =
  let policy = { Supervise.default_policy with Supervise.quarantine = false } in
  let outcomes, stats = Supervise.run ~jobs:1 ~policy 3 (fun _ -> failwith "nope") in
  Array.iter
    (function
      | Supervise.Failed f -> Alcotest.(check int) "attempts" 3 f.Supervise.attempts
      | o -> Alcotest.failf "expected Failed, got %s" (outcome_tag o))
    outcomes;
  Alcotest.(check int) "failed" 3 stats.Supervise.failed;
  Alcotest.(check int) "quarantined" 0 stats.Supervise.quarantined

let test_supervise_sleeps_backoff () =
  let slept = ref [] in
  let policy =
    { Supervise.default_policy with Supervise.sleep = (fun d -> slept := d :: !slept) }
  in
  let _, _ = Supervise.run ~jobs:1 ~policy 1 (fun _ -> failwith "always") in
  let expected =
    [
      Supervise.backoff_delay policy ~task:0 ~attempt:1;
      Supervise.backoff_delay policy ~task:0 ~attempt:2;
    ]
  in
  Alcotest.(check (list (float 0.))) "slept the computed delays" expected (List.rev !slept)

let test_backoff_deterministic () =
  let p = Supervise.default_policy in
  for task = 0 to 5 do
    for attempt = 1 to 6 do
      let d1 = Supervise.backoff_delay p ~task ~attempt in
      let d2 = Supervise.backoff_delay p ~task ~attempt in
      Alcotest.(check (float 0.)) "pure function" d1 d2;
      let raw = p.Supervise.base_backoff_s *. (2. ** float_of_int (attempt - 1)) in
      let cap = Float.min p.Supervise.max_backoff_s raw in
      Alcotest.(check bool) "within jitter band" true (d1 >= 0.75 *. cap -. 1e-12);
      Alcotest.(check bool) "capped (modulo jitter)" true (d1 <= 1.25 *. cap +. 1e-12)
    done
  done;
  (* Jitter decorrelates tasks: not every task sees the same delay. *)
  let delays =
    List.init 16 (fun task -> Supervise.backoff_delay p ~task ~attempt:1)
  in
  Alcotest.(check bool)
    "task-decorrelated" true
    (List.exists (fun d -> d <> List.hd delays) delays)

let test_supervise_timeout_not_retried () =
  let ticks = ref 0. in
  let policy =
    {
      Supervise.default_policy with
      Supervise.timeout_s = Some 0.5;
      clock =
        (fun () ->
          ticks := !ticks +. 1.;
          !ticks);
    }
  in
  let calls = ref 0 in
  let outcomes, stats =
    Supervise.run ~jobs:1 ~policy 1 (fun _ ->
        incr calls;
        ())
  in
  (match outcomes.(0) with
  | Supervise.Timed_out { attempts; elapsed_s } ->
    Alcotest.(check int) "single attempt" 1 attempts;
    Alcotest.(check bool) "elapsed over budget" true (elapsed_s > 0.5)
  | o -> Alcotest.failf "expected Timed_out, got %s" (outcome_tag o));
  Alcotest.(check int) "not retried" 1 !calls;
  Alcotest.(check int) "timed_out stat" 1 stats.Supervise.timed_out

let test_supervise_rejects_bad_policy () =
  Alcotest.check_raises "max_attempts < 1"
    (Invalid_argument "Supervise.run: max_attempts < 1") (fun () ->
      ignore
        (Supervise.run
           ~policy:{ Supervise.default_policy with Supervise.max_attempts = 0 }
           1 Fun.id))

(* ---- cooperative cancellation --------------------------------------------- *)

let test_cancel_token_basics () =
  let t = Supervise.Cancel.make () in
  Alcotest.(check bool) "live at birth" false (Supervise.Cancel.cancelled t);
  Supervise.Cancel.check t;
  Supervise.Cancel.cancel ~reason:"first" t;
  Supervise.Cancel.cancel ~reason:"second" t;
  Alcotest.(check (option string)) "first reason sticks" (Some "first")
    (Supervise.Cancel.status t);
  Alcotest.check_raises "check raises with the reason"
    (Supervise.Cancelled "first") (fun () -> Supervise.Cancel.check t)

let test_cancel_deadline_latches () =
  let now = ref 0. in
  let t = Supervise.Cancel.make ~deadline_s:10. ~clock:(fun () -> !now) () in
  Supervise.Cancel.check t;
  now := 11.;
  Alcotest.(check bool) "expired" true (Supervise.Cancel.cancelled t);
  (* Latching: expiry survives the clock moving back. *)
  now := 0.;
  Alcotest.(check bool) "stays expired" true (Supervise.Cancel.cancelled t);
  Alcotest.(check bool) "has a reason" true
    (Supervise.Cancel.status t <> None)

(* A cancelled task is Timed_out: not retried, not quarantined, and the
   rest of the run is untouched — the serving layer's deadline taxonomy. *)
let test_cancel_classified_timed_out_in_pool () =
  let token = Supervise.Cancel.make () in
  Supervise.Cancel.cancel ~reason:"deadline" token;
  let calls = Array.make 4 0 in
  let outcomes, stats =
    Supervise.run ~jobs:2 4 (fun i ->
        calls.(i) <- calls.(i) + 1;
        if i = 2 then Supervise.Cancel.check token;
        i)
  in
  (match outcomes.(2) with
  | Supervise.Timed_out { attempts; _ } -> Alcotest.(check int) "one attempt" 1 attempts
  | o -> Alcotest.failf "expected Timed_out, got %s" (outcome_tag o));
  Alcotest.(check int) "cancelled task not retried" 1 calls.(2);
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Supervise.Done v -> Alcotest.(check int) "neighbour done" i v
        | o -> Alcotest.failf "neighbour %d: %s" i (outcome_tag o))
    outcomes;
  Alcotest.(check int) "timed_out stat" 1 stats.Supervise.timed_out;
  Alcotest.(check int) "no quarantine" 0 stats.Supervise.quarantined

let test_attempt_done_and_retry () =
  let calls = ref 0 in
  match
    Supervise.attempt (fun () ->
        incr calls;
        if !calls < 3 then failwith "flaky";
        "ok")
  with
  | Supervise.Done v ->
    Alcotest.(check string) "value" "ok" v;
    Alcotest.(check int) "retried to success" 3 !calls
  | o -> Alcotest.failf "expected Done, got %s" (outcome_tag o)

let test_attempt_quarantines_after_retries () =
  let calls = ref 0 in
  match
    Supervise.attempt (fun () ->
        incr calls;
        failwith "always")
  with
  | Supervise.Quarantined f ->
    Alcotest.(check int) "attempts recorded" 3 f.Supervise.attempts;
    Alcotest.(check int) "three calls" 3 !calls;
    Alcotest.(check bool) "keeps the exception" true (contains f.Supervise.exn "always")
  | o -> Alcotest.failf "expected Quarantined, got %s" (outcome_tag o)

let supervise_outcomes_prop =
  Helpers.qtest ~count:40 "supervise: outcomes jobs-invariant and slot-exact"
    QCheck2.Gen.(
      let* n = int_range 0 24 in
      let* bad = list_repeat n bool in
      return (n, bad))
    (fun (n, bad) ->
      let bad = Array.of_list bad in
      let task i = if bad.(i) then failwith "boom" else 3 * i in
      let seq, _ = Supervise.run ~jobs:1 n task in
      let par, _ = Supervise.run ~jobs:4 n task in
      Array.length seq = n
      && Array.for_all2
           (fun a b ->
             match (a, b) with
             | Supervise.Done x, Supervise.Done y -> x = y
             | Supervise.Quarantined f, Supervise.Quarantined g ->
               f.Supervise.exn = g.Supervise.exn
               && f.Supervise.attempts = g.Supervise.attempts
             | _ -> false)
           seq par
      && Array.for_all2
           (fun flag o ->
             match o with
             | Supervise.Done _ -> not flag
             | Supervise.Quarantined _ -> flag
             | _ -> false)
           bad seq)

(* ---- journal ------------------------------------------------------------- *)

let temp_path suffix =
  let path = Filename.temp_file "ermes_runtime" suffix in
  Sys.remove path;
  path

let test_crc32_vector () =
  Alcotest.(check int) "IEEE check value" 0xCBF43926 (Journal.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Journal.crc32 "")

let test_journal_roundtrip () =
  let path = temp_path ".journal" in
  let payloads =
    [ "plain"; ""; "has spaces and\ttabs"; "percent % signs %20"; "ctrl\x01\x7fbytes" ]
  in
  let j = Journal.start ~meta:"seed=1 cases=2" ~kind:"fuzz" path in
  List.iter (Journal.append j) payloads;
  Alcotest.(check (list string)) "records" payloads (Journal.records j);
  (match Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check string) "kind" "fuzz" l.Journal.kind;
    Alcotest.(check string) "meta" "seed=1 cases=2" l.Journal.meta;
    Alcotest.(check (list string)) "entries" payloads l.Journal.entries;
    Alcotest.(check int) "torn" 0 l.Journal.torn);
  Sys.remove path

let test_journal_torn_tail () =
  let path = temp_path ".journal" in
  let j = Journal.start ~kind:"test" path in
  List.iter (Journal.append j) [ "one"; "two"; "three"; "four" ];
  (* Corrupt the third record's payload without touching its CRC. *)
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let lines =
    List.mapi (fun i l -> if i = 3 then l ^ "corrupted" else l) lines
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" lines));
  (match Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check (list string)) "valid prefix" [ "one"; "two" ] l.Journal.entries;
    Alcotest.(check int) "torn lines" 2 l.Journal.torn);
  Sys.remove path

let test_journal_bad_header () =
  let path = temp_path ".journal" in
  let j = Journal.start ~kind:"test" path in
  Journal.append j "payload";
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc ("ermes-journal 1 test % deadbeef" ^ "\n" ^ text));
  (match Journal.load path with
  | Error e -> Alcotest.(check bool) "mentions CRC" true (contains e "CRC")
  | Ok _ -> Alcotest.fail "accepted a header with a bad CRC");
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a journal\n");
  (match Journal.load path with
  | Error e -> Alcotest.(check bool) "rejected" true (contains e "journal")
  | Ok _ -> Alcotest.fail "accepted a non-journal");
  Sys.remove path

let journal_escape_prop =
  Helpers.qtest ~count:200 "journal: escape/unescape round-trips any bytes"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64))
    (fun s ->
      let e = Journal.escape s in
      Journal.unescape e = s
      && (not (String.contains e ' '))
      && (not (String.contains e '\n'))
      && String.length e > 0)

(* ---- checkpoint codecs ---------------------------------------------------- *)

let scenario_specs sys scenario = List.map (Fault.to_spec sys) scenario

let test_fuzz_codec_roundtrip () =
  let rng = Prng.create ~seed:42 in
  let sys, scenario = Fuzz.gen_case rng ~max_processes:8 in
  let cases =
    [
      (0, Fuzz.Case_agreed None);
      (1, Fuzz.Case_agreed (Some Differential.Dead));
      (7, Fuzz.Case_agreed (Some (Differential.Live (Ratio.make 19 2))));
      ( 12,
        Fuzz.Case_failed
          { scenario; mismatches = [ "oracle A: 3"; ""; "multi\nline % message" ] } );
    ]
  in
  List.iter
    (fun (case, outcome) ->
      let payload = Checkpoint.encode_fuzz_case ~case sys outcome in
      match Checkpoint.decode_fuzz_case sys payload with
      | None -> Alcotest.failf "undecodable payload: %s" payload
      | Some (case', outcome') ->
        Alcotest.(check int) "case" case case';
        let fp = function
          | Fuzz.Case_agreed v ->
            ("agreed", (match v with
              | None -> "-"
              | Some Differential.Dead -> "dead"
              | Some (Differential.Live r) -> Ratio.to_string r), [])
          | Fuzz.Case_failed { scenario; mismatches } ->
            ("failed", String.concat ";" (scenario_specs sys scenario), mismatches)
        in
        Alcotest.(check bool) "outcome round-trips" true (fp outcome = fp outcome'))
    cases;
  (* Garbage degrades to None, never an exception. *)
  Alcotest.(check bool) "garbage is None" true
    (Checkpoint.decode_fuzz_case sys "case 3 agreed bogus" = None
    && Checkpoint.decode_fuzz_case sys "nonsense" = None)

let test_dse_codec_roundtrip () =
  let snap =
    {
      Explore.snap_step =
        {
          Explore.iteration = 4;
          action = Explore.Area_recovery;
          changes =
            [
              { Ermes_core.Ilp_select.process = 2; from_impl = 0; to_impl = 1 };
              { Ermes_core.Ilp_select.process = 5; from_impl = 3; to_impl = 0 };
            ];
          reordered = true;
          cycle_time = Ratio.make 47 3;
          area = 0.1 +. 0.2;
        };
      selection = [| 0; 1; 2; 0; 1 |];
      orders = [ ([ 1; 0 ], [ 2 ]); ([], [ 0; 1; 2 ]) ];
    }
  in
  let payload = Checkpoint.encode_dse_snapshot snap in
  (match Checkpoint.decode_dse_snapshot payload with
  | None -> Alcotest.failf "undecodable payload: %s" payload
  | Some snap' ->
    Alcotest.(check bool) "bit-exact round-trip (incl. the float)" true (snap = snap'));
  Alcotest.(check bool) "garbage is None" true
    (Checkpoint.decode_dse_snapshot "step 1 sideways" = None)

let test_oracle_codec_roundtrip () =
  let outcomes =
    [
      (0, { Oracle.slice_best = None; slice_evaluated = 6; slice_deadlocked = 6 });
      ( 3,
        {
          Oracle.slice_best = Some (Ratio.make 12 1, [ ([ 0; 1 ], [ 2 ]); ([ 2; 1; 0 ], []) ]);
          slice_evaluated = 9;
          slice_deadlocked = 2;
        } );
    ]
  in
  List.iter
    (fun (slice, o) ->
      let payload = Checkpoint.encode_oracle_slice ~slice o in
      match Checkpoint.decode_oracle_slice payload with
      | None -> Alcotest.failf "undecodable payload: %s" payload
      | Some (slice', o') ->
        Alcotest.(check int) "slice" slice slice';
        Alcotest.(check bool) "outcome round-trips" true (o = o'))
    outcomes

(* ---- resume == uninterrupted ---------------------------------------------- *)

(* Truncate a journal to its header plus the first [k] records — exactly the
   state a kill leaves behind (the atomic-rename discipline means the file on
   disk is always a complete valid journal for some prefix of the work). *)
let truncate_journal path k =
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))
  in
  let kept = List.filteri (fun i _ -> i <= k) lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept)

let journal_record_count path =
  match Journal.load path with
  | Ok l -> List.length l.Journal.entries
  | Error e -> Alcotest.fail e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fuzz_fingerprint (s : Fuzz.summary) =
  ( s.Fuzz.cases_run,
    s.Fuzz.live,
    s.Fuzz.dead,
    s.Fuzz.faults_injected,
    List.map
      (fun (f : Fuzz.failure) ->
        (f.Fuzz.case, f.Fuzz.mismatches, scenario_specs f.Fuzz.system f.Fuzz.scenario))
      s.Fuzz.failures )

let fuzz_resume_prop =
  Helpers.qtest ~count:5 "fuzz: resume(kill point) == uninterrupted run"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 1000))
    (fun (seed, kill) ->
      let config =
        { Fuzz.seed; cases = 10; max_processes = 6; rounds = 48; rtl = false; repro_dir = None }
      in
      let path = temp_path ".journal" in
      let full =
        match Checkpoint.fuzz_run ~jobs:2 ~path ~resume:false config with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let full_journal = read_file path in
      truncate_journal path (kill mod (journal_record_count path + 1));
      let resumed =
        match Checkpoint.fuzz_run ~jobs:3 ~path ~resume:true config with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let same_summary = fuzz_fingerprint full = fuzz_fingerprint resumed in
      let same_journal = read_file path = full_journal in
      Sys.remove path;
      same_summary && same_journal)

(* Stronger than the record-level kill points above: cut the journal at
   every *byte* and load it. Recovery must yield a CRC-valid prefix of the
   appended records (or report damage) — never raise, never invent or
   reorder records. *)
let test_journal_byte_truncation_sweep () =
  let path = temp_path ".journal" in
  let payloads =
    [ "alpha"; "beta beta"; "%25 escaped"; "tab\ttab"; "last one" ]
  in
  let j = Journal.start ~meta:"m=1" ~kind:"sweep" path in
  List.iter (Journal.append j) payloads;
  let full = read_file path in
  for cut = 0 to String.length full do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 cut));
    match Journal.load path with
    | exception e ->
      Alcotest.failf "cut %d: load raised %s" cut (Printexc.to_string e)
    | Error _ -> () (* a damaged header is reported, not repaired *)
    | Ok l ->
      let k = List.length l.Journal.entries in
      if
        k > List.length payloads
        || l.Journal.entries <> List.filteri (fun i _ -> i < k) payloads
      then Alcotest.failf "cut %d: recovered a non-prefix" cut
  done;
  Sys.remove path

(* The degrade contract under injected I/O faults: a persistent ENOSPC on
   the checkpoint journal disables checkpointing (one counter bump) while
   the campaign still runs to the very same summary. *)
let test_fuzz_enospc_degrades () =
  let config =
    { Fuzz.seed = 5; cases = 3; max_processes = 5; rounds = 48; rtl = false; repro_dir = None }
  in
  let path = temp_path ".journal" in
  let plain =
    match Checkpoint.fuzz_run ~path ~resume:false config with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  let before = Obs.counter "runtime.checkpoint.disabled" in
  let inj = Chaos.injector [ Chaos.Write_enospc { op = 2 } ] in
  let chaotic =
    match Checkpoint.fuzz_run ~io:(Chaos.io inj) ~path ~resume:false config with
    | Ok s -> s
    | Error e -> Alcotest.failf "campaign did not degrade: %s" e
  in
  let disabled = Obs.counter "runtime.checkpoint.disabled" - before in
  if not was_enabled then Obs.disable ();
  Alcotest.(check int) "counted one degrade" 1 disabled;
  Alcotest.(check bool) "summary unchanged" true
    (fuzz_fingerprint plain = fuzz_fingerprint chaotic);
  Alcotest.(check bool) "failed write leaves no temp file" false
    (Sys.file_exists (path ^ ".tmp"));
  if Sys.file_exists path then Sys.remove path

(* ---- chaos layer ---------------------------------------------------------- *)

let test_chaos_spec_roundtrip () =
  let plans =
    [
      [];
      [ Chaos.Write_enospc { op = 3 } ];
      [
        Chaos.Write_short { op = 1; bytes = 5 };
        Chaos.Read_eintr { op = 2; times = 4 };
        Chaos.Rename_skip { op = 9 };
        Chaos.Rename_torn { op = 7 };
        Chaos.Clock_skew { op = 2; skew_s = -12.5 };
      ];
    ]
  in
  List.iter
    (fun p ->
      match Chaos.parse_spec (Chaos.to_spec p) with
      | Ok q ->
        Alcotest.(check string) "round-trip" (Chaos.to_spec p) (Chaos.to_spec q)
      | Error e -> Alcotest.fail e)
    plans;
  match Chaos.parse_spec "bogus@x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage"

let test_chaos_gen_deterministic () =
  for seed = 1 to 25 do
    let a = Chaos.gen ~seed ~kinds:Chaos.file_kinds in
    let b = Chaos.gen ~seed ~kinds:Chaos.file_kinds in
    Alcotest.(check string) "same plan" (Chaos.to_spec a) (Chaos.to_spec b);
    Alcotest.(check bool) "non-empty" true (a <> [])
  done;
  Alcotest.(check bool) "derive stable" true (Chaos.derive 7 3 = Chaos.derive 7 3);
  Alcotest.(check bool) "derive varies" true (Chaos.derive 7 3 <> Chaos.derive 7 4)

let test_chaos_sticky_enospc () =
  let inj = Chaos.injector [ Chaos.Write_enospc { op = 1 } ] in
  let io = Chaos.io inj in
  let path = temp_path ".bin" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let enospc f =
    match f () with
    | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "first write fails" true
    (enospc (fun () -> io.Chaos.Io.write fd "abc" 0 3));
  Alcotest.(check bool) "disk stays full" true
    (enospc (fun () -> io.Chaos.Io.write fd "abc" 0 3));
  Unix.close fd;
  Sys.remove path;
  Alcotest.(check bool) "injections logged" true (Chaos.injected_count inj >= 2)

(* A short write persists exactly its prefix; the caller's retry with the
   rest reassembles the full payload — the POSIX contract write_all is
   built on. *)
let test_chaos_short_write () =
  let inj = Chaos.injector [ Chaos.Write_short { op = 1; bytes = 2 } ] in
  let io = Chaos.io inj in
  let path = temp_path ".bin" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let n1 = io.Chaos.Io.write fd "hello" 0 5 in
  Alcotest.(check int) "short" 2 n1;
  let n2 = io.Chaos.Io.write fd "hello" n1 (5 - n1) in
  Alcotest.(check int) "rest" 3 n2;
  Unix.close fd;
  Alcotest.(check string) "bytes persisted" "hello" (read_file path);
  Sys.remove path

(* An EINTR storm holds the operation counter still, so the caller's retry
   lands on the same logical operation and eventually succeeds. *)
let test_chaos_eintr_storm () =
  let inj = Chaos.injector [ Chaos.Write_eintr { op = 1; times = 3 } ] in
  let io = Chaos.io inj in
  let path = temp_path ".bin" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let interrupted = ref 0 in
  let rec persist () =
    match io.Chaos.Io.write fd "data" 0 4 with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      incr interrupted;
      persist ()
  in
  Alcotest.(check int) "written after the storm" 4 (persist ());
  Alcotest.(check int) "three interruptions" 3 !interrupted;
  Unix.close fd;
  Sys.remove path

let test_chaos_clock_skew () =
  let inj =
    Chaos.injector [ Chaos.Clock_skew { op = 2; skew_s = 100. } ]
  in
  let io = Chaos.io inj in
  let t1 = io.Chaos.Io.clock () in
  let t2 = io.Chaos.Io.clock () in
  Alcotest.(check bool) "second reading jumps" true (t2 -. t1 >= 99.);
  let t3 = io.Chaos.Io.clock () in
  Alcotest.(check bool) "skew is cumulative, not repeated" true
    (t3 -. t2 < 99.)

(* halve must reach a fixpoint (None) in finitely many steps — the shrink
   loop's termination depends on it. *)
let test_chaos_halve_terminates () =
  let rec steps n f =
    if n > 64 then Alcotest.fail "halve does not terminate"
    else match Chaos.halve f with None -> n | Some f' -> steps (n + 1) f'
  in
  List.iter
    (fun f -> ignore (steps 0 f))
    [
      Chaos.Write_short { op = 1; bytes = 1000 };
      Chaos.Write_eintr { op = 1; times = 9 };
      Chaos.Read_eintr { op = 3; times = 1 };
      Chaos.Clock_skew { op = 1; skew_s = -40. };
      Chaos.Write_enospc { op = 5 };
      Chaos.Rename_skip { op = 2 };
      Chaos.Rename_torn { op = 2 };
    ]

(* ---- chaos campaign ------------------------------------------------------- *)

(* A campaign seed and a plan drawn from the target's own kinds, shrunk the
   way [ermes chaos] shrinks a violation: drop one fault, or halve one. *)
let campaign_plan_gen target =
  let shrink (seed, plan) =
    let n = List.length plan in
    let dropped = Seq.init n (fun i -> List.filteri (fun j _ -> j <> i) plan) in
    let halved =
      Seq.filter_map
        (fun i ->
          Option.map
            (fun h -> List.mapi (fun j f -> if j = i then h else f) plan)
            (Chaos.halve (List.nth plan i)))
        (Seq.init n Fun.id)
    in
    Seq.map (fun p -> (seed, p)) (Seq.append dropped halved)
  in
  QCheck2.Gen.make_primitive ~shrink ~gen:(fun st ->
      let seed = 1 + Random.State.int st 200 in
      (seed, Chaos.gen ~seed:(Random.State.bits st) ~kinds:(Campaign.kinds target)))

let campaign_prop target =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:(Campaign.name target ^ " invariant holds under drawn plans")
       ~print:(fun (seed, plan) ->
         Printf.sprintf "seed %d, plan %s" seed (Chaos.to_spec plan))
       (campaign_plan_gen target)
       (fun (seed, plan) ->
         match Campaign.with_tmpdir (fun dir -> Campaign.check ~dir ~seed target plan) with
         | Ok () -> true
         | Error e -> QCheck2.Test.fail_report e))

(* The daemon target on one fixed socket plan: an EINTR storm on a frame
   read, one on a reply write, and a forward clock jump. Takes about the
   frame deadline (1 s): the loris half-frame must wait it out. *)
let test_campaign_serve () =
  let plan =
    [
      Chaos.Read_eintr { op = 2; times = 3 };
      Chaos.Write_eintr { op = 1; times = 2 };
      Chaos.Clock_skew { op = 4; skew_s = 5. };
    ]
  in
  match Campaign.with_tmpdir (fun dir -> Campaign.check ~dir ~seed:1 Campaign.Serve plan) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* A violation found at one seed replays at that seed: the seed picks the
   workload the plan ran against, so a replay line without it runs seed 1. *)
let test_campaign_replay_seed () =
  let plan =
    match Chaos.parse_spec "enospc@4" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let v =
    { Campaign.target = Campaign.Dse; original = plan; minimal = plan; message = "differs" }
  in
  let line = "ermes chaos --seed 55 --target dse --plan 'enospc@4'" in
  Alcotest.(check string) "replay line" line (Campaign.replay ~seed:55 v);
  Alcotest.(check bool) "repro file carries it" true
    (Astring_contains.contains (Campaign.repro ~seed:55 v) ("replay: " ^ line ^ "\n"))

let dse_resume_prop =
  Helpers.qtest ~count:8 "dse: resume(kill point) == uninterrupted run"
    QCheck2.Gen.(pair Helpers.feedback_system_gen (pair (int_range 0 1000) (int_range 0 2)))
    (fun (sys, (kill, tct_mode)) ->
      match Helpers.analyze_ct sys with
      | None -> true (* the generated system deadlocks: DSE does not apply *)
      | Some ct ->
        let base = max 1 (Ratio.num ct / Ratio.den ct) in
        let tct =
          match tct_mode with 0 -> max 1 (base / 2) | 1 -> base | _ -> 2 * base
        in
        let path = temp_path ".journal" in
        let s1 = System.copy sys and s2 = System.copy sys in
        let full =
          match Checkpoint.dse_run ~path ~resume:false ~tct s1 with
          | Ok t -> t
          | Error e -> Alcotest.fail e
        in
        let full_journal = read_file path in
        truncate_journal path (kill mod (journal_record_count path + 1));
        let resumed =
          match Checkpoint.dse_run ~path ~resume:true ~tct s2 with
          | Ok t -> t
          | Error e -> Alcotest.fail e
        in
        let ok =
          full = resumed
          && Soc_format.print s1 = Soc_format.print s2
          && read_file path = full_journal
        in
        Sys.remove path;
        ok)

let test_oracle_resume () =
  let sys = Motivating.suboptimal () in
  let path = temp_path ".journal" in
  let fingerprint = function
    | None -> None
    | Some (r : Oracle.result) ->
      Some
        ( Ratio.to_string r.Oracle.best_cycle_time,
          r.Oracle.evaluated,
          r.Oracle.deadlocked,
          Soc_format.print r.Oracle.best_system )
  in
  let plain = Oracle.search ~jobs:2 sys in
  let full =
    match Checkpoint.oracle_search ~jobs:2 ~path ~resume:false sys with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool)
    "checkpointing does not change the result" true
    (fingerprint plain = fingerprint full);
  let full_journal = read_file path in
  let records = journal_record_count path in
  List.iter
    (fun kill ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc full_journal);
      truncate_journal path (kill mod (records + 1));
      (* A different job count must replay the same slices. *)
      match Checkpoint.oracle_search ~jobs:3 ~path ~resume:true sys with
      | Error e -> Alcotest.fail e
      | Ok resumed ->
        Alcotest.(check bool)
          (Printf.sprintf "kill at %d: resumed == full" kill)
          true
          (fingerprint resumed = fingerprint full);
        Alcotest.(check string)
          (Printf.sprintf "kill at %d: journal restored" kill)
          full_journal (read_file path))
    [ 0; 1; records / 2; records ];
  Sys.remove path

let test_resume_rejects_mismatched_campaign () =
  let config = { Fuzz.default with Fuzz.cases = 3; repro_dir = None } in
  let path = temp_path ".journal" in
  (match Checkpoint.fuzz_run ~path ~resume:false config with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Same journal, different seed: must refuse, not silently mix campaigns. *)
  (match Checkpoint.fuzz_run ~path ~resume:true { config with Fuzz.seed = 999 } with
  | Ok _ -> Alcotest.fail "resumed a journal from a different configuration"
  | Error e -> Alcotest.(check bool) "mentions configuration" true (contains e "configuration"));
  (* And a DSE run must refuse a fuzz journal outright. *)
  (match Checkpoint.dse_run ~path ~resume:true ~tct:10 (Motivating.suboptimal ()) with
  | Ok _ -> Alcotest.fail "resumed a fuzz journal as dse"
  | Error e -> Alcotest.(check bool) "mentions kind" true (contains e "fuzz"));
  Sys.remove path

(* ---- batch ---------------------------------------------------------------- *)

let write_temp_soc sys =
  let path = temp_path ".soc" in
  Soc_format.write_file path sys;
  path

let write_temp_text text =
  let path = temp_path ".soc" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  path

let test_batch_isolates_and_quarantines () =
  let good = write_temp_soc (Motivating.suboptimal ()) in
  let dead = write_temp_soc (Motivating.deadlocking ()) in
  let broken = write_temp_text "this is not a soc file\n" in
  let entries =
    [
      Batch.job_of_file good;
      Batch.job_of_file broken;
      Batch.job_of_file dead;
      { Batch.file = good; action = Batch.Simulate; inject = Batch.Crash };
      { Batch.file = good; action = Batch.Lint; inject = Batch.Flaky 2 };
    ]
  in
  let statuses jobs =
    let r = Batch.run ~jobs entries in
    (List.map (fun (jr : Batch.job_report) -> Batch.status_name jr.Batch.status) r.Batch.results, r)
  in
  let names, report = statuses 2 in
  Alcotest.(check (list string))
    "statuses in manifest order"
    [ "ok"; "failed"; "failed"; "quarantined"; "ok" ]
    names;
  Alcotest.(check int) "exit code" 2 (Batch.exit_code report);
  Alcotest.(check int) "exactly one quarantined" 1 report.Batch.quarantined;
  (* The flaky job burned 2 retries, the crashing one 2 more. *)
  Alcotest.(check int) "retries" 4 report.Batch.retries;
  (match (List.nth report.Batch.results 1).Batch.status with
  | Batch.Job_failed { category; _ } -> Alcotest.(check string) "category" "parse-error" category
  | _ -> Alcotest.fail "broken file not classified");
  (match (List.nth report.Batch.results 2).Batch.status with
  | Batch.Job_failed { category; _ } -> Alcotest.(check string) "category" "deadlock" category
  | _ -> Alcotest.fail "deadlocking file not classified");
  let names_seq, _ = statuses 1 in
  Alcotest.(check (list string)) "jobs-invariant" names names_seq;
  (* JSON report shape. *)
  let json = Batch.to_json report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains json needle))
    [
      "\"jobs\""; "\"status\": \"quarantined\""; "\"category\": \"deadlock\"";
      "\"exit_code\": 2"; "\"retries\": 4"; "\"watchdog\": false";
    ];
  List.iter Sys.remove [ good; dead; broken ]

let test_batch_all_ok () =
  let good = write_temp_soc (Motivating.optimal ()) in
  let report = Batch.run ~jobs:2 [ Batch.job_of_file good; Batch.job_of_file ~action:Batch.Lint good ] in
  Alcotest.(check int) "exit code" 0 (Batch.exit_code report);
  Alcotest.(check int) "all ok" 2 report.Batch.ok;
  Sys.remove good

let test_batch_watchdog_skips () =
  let good = write_temp_soc (Motivating.suboptimal ()) in
  let entries = List.init 6 (fun _ -> Batch.job_of_file good) in
  let ticks = ref 0. in
  let clock () =
    ticks := !ticks +. 10.;
    !ticks
  in
  let report = Batch.run ~jobs:1 ~max_seconds:0.5 ~clock entries in
  Alcotest.(check bool) "watchdog fired" true report.Batch.watchdog;
  Alcotest.(check int) "exit code" 3 (Batch.exit_code report);
  Alcotest.(check int) "everything skipped" 6 report.Batch.skipped;
  Sys.remove good

let test_batch_job_timeout () =
  let good = write_temp_soc (Motivating.suboptimal ()) in
  let ticks = ref 0. in
  let policy =
    {
      Supervise.default_policy with
      Supervise.timeout_s = Some 0.5;
      clock =
        (fun () ->
          ticks := !ticks +. 1.;
          !ticks);
    }
  in
  let report = Batch.run ~jobs:1 ~policy [ Batch.job_of_file good ] in
  (match (List.hd report.Batch.results).Batch.status with
  | Batch.Job_timed_out { attempts; _ } -> Alcotest.(check int) "one attempt" 1 attempts
  | s -> Alcotest.failf "expected timed-out, got %s" (Batch.status_name s));
  Alcotest.(check int) "exit code" 2 (Batch.exit_code report);
  Sys.remove good

let test_batch_manifest_parse () =
  let text =
    "# a comment\n\
     good.soc\n\
     other.soc simulate flaky:2   # trailing comment\n\
     \n\
     third.soc lint crash\n"
  in
  (match Batch.parse_manifest text with
  | Error e -> Alcotest.fail e
  | Ok jobs ->
    Alcotest.(check int) "three jobs" 3 (List.length jobs);
    Alcotest.(check bool) "defaults" true
      (List.nth jobs 0 = { Batch.file = "good.soc"; action = Batch.Analyze; inject = Batch.No_inject });
    Alcotest.(check bool) "flaky" true
      (List.nth jobs 1 = { Batch.file = "other.soc"; action = Batch.Simulate; inject = Batch.Flaky 2 });
    Alcotest.(check bool) "crash" true
      (List.nth jobs 2 = { Batch.file = "third.soc"; action = Batch.Lint; inject = Batch.Crash }));
  match Batch.parse_manifest ~file:"m.txt" "x.soc frobnicate\n" with
  | Ok _ -> Alcotest.fail "accepted an unknown option"
  | Error e ->
    Alcotest.(check bool) "names the manifest line" true (contains e "m.txt:1")

(* ---- soc input limits (satellite) ----------------------------------------- *)

let test_soc_byte_limit () =
  let text = Soc_format.print (Motivating.suboptimal ()) in
  let limits = { Soc_format.max_bytes = 10; max_token = 4096 } in
  (match Soc_format.parse ~limits text with
  | Ok _ -> Alcotest.fail "accepted oversized input"
  | Error e ->
    Alcotest.(check bool) "names the limit" true (contains e "10-byte limit");
    Alcotest.(check bool) "names the env knob" true (contains e "ERMES_MAX_SOC_BYTES"));
  (* parse_file rejects on the stat, before reading the contents. *)
  let path = write_temp_text text in
  (match Soc_format.parse_file ~limits path with
  | Ok _ -> Alcotest.fail "accepted oversized file"
  | Error e -> Alcotest.(check bool) "file limit" true (contains e "limit"));
  Sys.remove path;
  match Soc_format.parse ~limits:(Soc_format.default_limits ()) text with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("default limits rejected a normal system: " ^ e)

let test_soc_token_limit () =
  let text =
    Printf.sprintf "process %s latency 1\n" (String.make 64 'x')
  in
  let limits = { Soc_format.max_bytes = 8_000_000; max_token = 8 } in
  match Soc_format.parse ~limits text with
  | Ok _ -> Alcotest.fail "accepted an oversized token"
  | Error e ->
    Alcotest.(check bool) "names the token limit" true (contains e "64 bytes");
    Alcotest.(check bool) "names the env knob" true (contains e "ERMES_MAX_SOC_TOKEN")

let test_lint_e108 () =
  let diag_codes r =
    List.map (fun (d : Ermes_verify.Lint.diagnostic) -> d.Ermes_verify.Lint.code)
      r.Ermes_verify.Lint.diagnostics
  in
  Unix.putenv "ERMES_MAX_SOC_TOKEN" "8";
  let long_token = match Ermes_verify.Lint.lint_string
    (Printf.sprintf "process %s latency 1\n" (String.make 64 'x')) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Unix.putenv "ERMES_MAX_SOC_TOKEN" "4096";
  Alcotest.(check bool) "long token flagged E108" true
    (List.mem "E108" (diag_codes long_token));
  Unix.putenv "ERMES_MAX_SOC_BYTES" "16";
  let oversized = match Ermes_verify.Lint.lint_string
    (Soc_format.print (Motivating.suboptimal ())) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Unix.putenv "ERMES_MAX_SOC_BYTES" "8000000";
  Alcotest.(check (list string)) "oversized input is a single E108" [ "E108" ]
    (diag_codes oversized);
  Alcotest.(check bool) "semantics not checked" false
    oversized.Ermes_verify.Lint.checked_semantics

(* ---- parallel backtrace (satellite) ---------------------------------------- *)

let[@inline never] deep_boom () = failwith "deep worker failure"

let test_worker_failure_backtrace () =
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  (* Control: do backtraces carry frames in this build at all? *)
  let control =
    try deep_boom () with _ -> Printexc.get_backtrace ()
  in
  (match
     Parallel.map ~jobs:2 (fun i -> if i = 3 then deep_boom () else i) [ 0; 1; 2; 3 ]
   with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Parallel.Worker_failure (i, Failure m) ->
    let bt = Printexc.get_backtrace () in
    Alcotest.(check int) "failing index" 3 i;
    Alcotest.(check string) "worker exception" "deep worker failure" m;
    if contains control "test_runtime" then
      Alcotest.(check bool)
        "backtrace reaches into the worker's frames" true (contains bt "test_runtime")
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
  Printexc.record_backtrace was

(* ---- registration ---------------------------------------------------------- *)

let () =
  Alcotest.run "runtime"
    [
      ( "supervise",
        [
          Alcotest.test_case "all done" `Quick test_supervise_all_done;
          Alcotest.test_case "quarantine jobs-invariant" `Quick
            test_supervise_quarantine_jobs_invariant;
          Alcotest.test_case "flaky recovers" `Quick test_supervise_flaky_recovers;
          Alcotest.test_case "failed when quarantine off" `Quick
            test_supervise_failed_when_quarantine_off;
          Alcotest.test_case "sleeps the backoff delays" `Quick test_supervise_sleeps_backoff;
          Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "timeout not retried" `Quick test_supervise_timeout_not_retried;
          Alcotest.test_case "rejects bad policy" `Quick test_supervise_rejects_bad_policy;
          supervise_outcomes_prop;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "token basics" `Quick test_cancel_token_basics;
          Alcotest.test_case "deadline latches" `Quick test_cancel_deadline_latches;
          Alcotest.test_case "classified Timed_out in the pool" `Quick
            test_cancel_classified_timed_out_in_pool;
          Alcotest.test_case "attempt retries to Done" `Quick
            test_attempt_done_and_retry;
          Alcotest.test_case "attempt quarantines after retries" `Quick
            test_attempt_quarantines_after_retries;
        ] );
      ( "journal",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "bad header" `Quick test_journal_bad_header;
          Alcotest.test_case "byte truncation sweep" `Quick
            test_journal_byte_truncation_sweep;
          journal_escape_prop;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "spec round-trip" `Quick test_chaos_spec_roundtrip;
          Alcotest.test_case "gen deterministic" `Quick
            test_chaos_gen_deterministic;
          Alcotest.test_case "sticky enospc" `Quick test_chaos_sticky_enospc;
          Alcotest.test_case "short write persists prefix" `Quick
            test_chaos_short_write;
          Alcotest.test_case "eintr storm retries to success" `Quick
            test_chaos_eintr_storm;
          Alcotest.test_case "clock skew cumulative" `Quick
            test_chaos_clock_skew;
          Alcotest.test_case "halve terminates" `Quick
            test_chaos_halve_terminates;
          Alcotest.test_case "fuzz enospc degrades and continues" `Quick
            test_fuzz_enospc_degrades;
        ] );
      ( "campaign",
        List.map campaign_prop Campaign.[ Journal; Fuzz; Dse; Batch ]
        @ [
            Alcotest.test_case "serve survives a socket plan" `Quick
              test_campaign_serve;
            Alcotest.test_case "replay line keeps the seed" `Quick
              test_campaign_replay_seed;
          ] );
      ( "checkpoint",
        [
          Alcotest.test_case "fuzz codec" `Quick test_fuzz_codec_roundtrip;
          Alcotest.test_case "dse codec" `Quick test_dse_codec_roundtrip;
          Alcotest.test_case "oracle codec" `Quick test_oracle_codec_roundtrip;
          fuzz_resume_prop;
          dse_resume_prop;
          Alcotest.test_case "oracle resume" `Quick test_oracle_resume;
          Alcotest.test_case "mismatched campaign rejected" `Quick
            test_resume_rejects_mismatched_campaign;
        ] );
      ( "batch",
        [
          Alcotest.test_case "isolates and quarantines" `Quick
            test_batch_isolates_and_quarantines;
          Alcotest.test_case "all ok" `Quick test_batch_all_ok;
          Alcotest.test_case "watchdog skips" `Quick test_batch_watchdog_skips;
          Alcotest.test_case "job timeout" `Quick test_batch_job_timeout;
          Alcotest.test_case "manifest parse" `Quick test_batch_manifest_parse;
        ] );
      ( "limits",
        [
          Alcotest.test_case "soc byte limit" `Quick test_soc_byte_limit;
          Alcotest.test_case "soc token limit" `Quick test_soc_token_limit;
          Alcotest.test_case "lint E108" `Quick test_lint_e108;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "worker failure keeps the backtrace" `Quick
            test_worker_failure_backtrace;
        ] );
    ]
