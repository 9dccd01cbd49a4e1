module Soc_format = Ermes_slm.Soc_format
module Sim = Ermes_slm.Sim
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Lint = Ermes_core.Lint
module Parallel = Ermes_parallel.Parallel
module Obs = Ermes_obs.Obs

type action = Analyze | Lint | Simulate

let action_name = function Analyze -> "analyze" | Lint -> "lint" | Simulate -> "simulate"

type inject = No_inject | Crash | Flaky of int

type job = { file : string; action : action; inject : inject }

let job_of_file ?(action = Analyze) file = { file; action; inject = No_inject }

(* ---- manifest ------------------------------------------------------------ *)

let parse_job_tokens ~where tokens =
  match tokens with
  | [] -> Error (where ^ ": empty job entry")
  | file :: opts ->
    let rec go job = function
      | [] -> Ok job
      | "analyze" :: tl -> go { job with action = Analyze } tl
      | "lint" :: tl -> go { job with action = Lint } tl
      | "simulate" :: tl -> go { job with action = Simulate } tl
      | "crash" :: tl -> go { job with inject = Crash } tl
      | opt :: tl when String.length opt > 6 && String.sub opt 0 6 = "flaky:" -> (
        match int_of_string_opt (String.sub opt 6 (String.length opt - 6)) with
        | Some n when n >= 0 -> go { job with inject = Flaky n } tl
        | _ -> Error (Printf.sprintf "%s: bad flaky count in %S" where opt))
      | opt :: _ ->
        Error
          (Printf.sprintf
             "%s: unknown job option %S (expected analyze|lint|simulate|crash|flaky:N)"
             where opt)
    in
    go (job_of_file file) opts

let parse_manifest ?(file = "manifest") text =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let jobs = ref [] in
  let error = ref None in
  List.iteri
    (fun i line ->
      if !error = None then begin
        let tokens =
          List.filter
            (fun t -> t <> "")
            (String.split_on_char ' '
               (String.map (function '\t' -> ' ' | c -> c) (strip_comment line)))
        in
        if tokens <> [] then begin
          let where = Printf.sprintf "%s:%d" file (i + 1) in
          match parse_job_tokens ~where tokens with
          | Ok job -> jobs := job :: !jobs
          | Error e -> error := Some e
        end
      end)
    (String.split_on_char '\n' text);
  match !error with Some e -> Error e | None -> Ok (List.rev !jobs)

let parse_manifest_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> parse_manifest ~file:path text

(* ---- per-job execution --------------------------------------------------- *)

type status =
  | Job_ok of string
  | Job_failed of { category : string; detail : string }
  | Job_quarantined of { exn : string; attempts : int }
  | Job_timed_out of { attempts : int; elapsed_s : float }
  | Job_skipped

let status_name = function
  | Job_ok _ -> "ok"
  | Job_failed _ -> "failed"
  | Job_quarantined _ -> "quarantined"
  | Job_timed_out _ -> "timed-out"
  | Job_skipped -> "skipped"

type job_report = { job : job; status : status; attempts : int }

type report = {
  results : job_report list;
  ok : int;
  failed : int;
  quarantined : int;
  timed_out : int;
  skipped : int;
  retries : int;
  watchdog : bool;
}

(* Expected domain failures — a file that does not parse, a design that
   deadlocks, a lint report with errors — are {e classifications}, returned
   as values: retrying them would be pointless. Only genuine exceptions
   (injected crashes, infrastructure trouble) reach the supervisor's
   retry/quarantine machinery. *)
let classify ~rounds action source =
  match action with
  | Lint -> (
    let linted =
      match source with
      | Soc_format.File path -> Lint.lint_file path
      | Soc_format.Text text -> Lint.lint_string text
    in
    match linted with
    | Error e -> Error ("parse-error", e)
    | Ok r ->
      let errors = Lint.errors r and warnings = Lint.warnings r in
      if errors > 0 then
        Error ("lint", Printf.sprintf "%d lint error(s)" errors)
      else Ok (Printf.sprintf "clean, %d warning(s)" warnings))
  | Analyze -> (
    match Soc_format.load source with
    | Error e -> Error ("parse-error", e)
    | Ok sys -> (
      match Perf.analyze sys with
      | Ok a -> Ok ("cycle time " ^ Ratio.to_string a.Perf.cycle_time)
      | Error f ->
        let category =
          match f with Perf.Deadlock _ -> "deadlock" | Perf.No_cycle -> "analysis"
        in
        Error (category, Format.asprintf "%a" (Perf.pp_failure sys) f)))
  | Simulate -> (
    match Soc_format.load source with
    | Error e -> Error ("parse-error", e)
    | Ok sys -> (
      match Sim.steady_cycle_time ~rounds sys with
      | Error e -> Error ("analysis", e)
      | Ok (Sim.Period r) -> Ok ("measured cycle time " ^ Ratio.to_string r)
      | Ok Sim.No_period -> Ok "no exact period within the horizon"
      | Ok (Sim.Deadlock d) -> Error ("deadlock", Format.asprintf "%a" (Sim.pp_deadlock sys) d)
      | Ok (Sim.Timeout t) -> Error ("sim-watchdog", Format.asprintf "%a" Sim.pp_timeout t)))

(* One job under the policy. The attempt counter is local to the job, so a
   [flaky:N] job fails exactly its first N attempts whichever domain runs
   it. *)
let supervised ~policy ~rounds job =
  let attempts = ref 0 in
  let outcome =
    Supervise.attempt ~policy (fun () ->
        incr attempts;
        (match job.inject with
        | Crash -> failwith (job.file ^ ": injected crash")
        | Flaky k when !attempts <= k ->
          failwith (Printf.sprintf "%s: injected flaky failure %d/%d" job.file !attempts k)
        | Flaky _ | No_inject -> ());
        classify ~rounds job.action (Soc_format.File job.file))
  in
  let status =
    match outcome with
    | Supervise.Done (Ok detail) -> Job_ok detail
    | Supervise.Done (Error (category, detail)) -> Job_failed { category; detail }
    | Supervise.Quarantined { exn; attempts } -> Job_quarantined { exn; attempts }
    | Supervise.Timed_out { attempts; elapsed_s } -> Job_timed_out { attempts; elapsed_s }
  in
  { job; status; attempts = !attempts }

let run ?jobs ?(policy = Supervise.default_policy) ?max_seconds ?(rounds = 64) entries =
  Obs.span "runtime.batch" @@ fun () ->
  let entries = Array.of_list entries in
  let n = Array.length entries in
  (* Waves bound how much work is in flight between watchdog checks; with no
     [max_seconds] a single wave covers everything. *)
  let size =
    match max_seconds with
    | None -> max 1 n
    | Some _ -> max 4 (2 * match jobs with Some j -> max 1 j | None -> 1)
  in
  (* One clock read per wave, on this domain, before the wave starts: the
     first here, each later one as the previous wave's last result comes
     in. The workers of a wave only read [skip]. *)
  let expired =
    match max_seconds with
    | None -> fun () -> false
    | Some s ->
      let clock = policy.Supervise.clock in
      let t0 = clock () in
      fun () -> clock () -. t0 > s
  in
  let skip = ref (n > 0 && expired ()) in
  let reports = ref [] in
  Parallel.waves ?jobs ~size ~init:ignore n
    (fun () i ->
      let job = entries.(i) in
      if !skip then { job; status = Job_skipped; attempts = 0 }
      else supervised ~policy ~rounds job)
    (fun i r ->
      reports := r :: !reports;
      if (i + 1) mod size = 0 && i + 1 < n then skip := expired ());
  let results = List.rev !reports in
  let count p = List.length (List.filter (fun r -> p r.status) results) in
  let skipped = count (function Job_skipped -> true | _ -> false) in
  {
    results;
    ok = count (function Job_ok _ -> true | _ -> false);
    failed = count (function Job_failed _ -> true | _ -> false);
    quarantined = count (function Job_quarantined _ -> true | _ -> false);
    timed_out = count (function Job_timed_out _ -> true | _ -> false);
    skipped;
    retries = List.fold_left (fun acc r -> acc + max 0 (r.attempts - 1)) 0 results;
    watchdog = skipped > 0;
  }

(* Extends the CLI's exit contract: 0 everything succeeded, 2 some jobs
   failed (including quarantined and per-job timeouts), 3 the batch watchdog
   expired and jobs were skipped. *)
let exit_code r = if r.watchdog then 3 else if r.ok = List.length r.results then 0 else 2

(* ---- reports ------------------------------------------------------------- *)

let status_detail = function
  | Job_ok d -> d
  | Job_failed { detail; _ } -> detail
  | Job_quarantined { exn; attempts } ->
    Printf.sprintf "%s (after %d attempt(s))" exn attempts
  | Job_timed_out { attempts; elapsed_s } ->
    Printf.sprintf "attempt %d overran its budget (%.3fs)" attempts elapsed_s
  | Job_skipped -> "skipped: batch watchdog expired"

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"jobs\": [";
  List.iteri
    (fun i jr ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    {\"file\": \"%s\", \"action\": \"%s\", \"status\": \"%s\""
        (Obs.json_escape jr.job.file) (action_name jr.job.action) (status_name jr.status);
      (match jr.status with
      | Job_failed { category; _ } ->
        Printf.bprintf b ", \"category\": \"%s\"" (Obs.json_escape category)
      | _ -> ());
      Printf.bprintf b ", \"detail\": \"%s\", \"attempts\": %d}"
        (Obs.json_escape (status_detail jr.status))
        jr.attempts)
    r.results;
  Printf.bprintf b "\n  ],\n  \"total\": %d,\n  \"ok\": %d,\n  \"failed\": %d,\n"
    (List.length r.results) r.ok r.failed;
  Printf.bprintf b "  \"quarantined\": %d,\n  \"timed_out\": %d,\n  \"skipped\": %d,\n"
    r.quarantined r.timed_out r.skipped;
  Printf.bprintf b "  \"retries\": %d,\n  \"watchdog\": %b,\n  \"exit_code\": %d\n}"
    r.retries r.watchdog (exit_code r);
  Buffer.contents b

let pp_text ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun jr ->
      Format.fprintf ppf "%-11s %-8s %s — %s@," (status_name jr.status)
        (action_name jr.job.action) jr.job.file
        (String.map (function '\n' -> ' ' | c -> c) (status_detail jr.status)))
    r.results;
  Format.fprintf ppf "batch: %d job(s): %d ok, %d failed, %d quarantined, %d timed out, %d skipped (%d retr%s)%s@]"
    (List.length r.results) r.ok r.failed r.quarantined r.timed_out r.skipped r.retries
    (if r.retries = 1 then "y" else "ies")
    (if r.watchdog then " — WATCHDOG EXPIRED" else "")
