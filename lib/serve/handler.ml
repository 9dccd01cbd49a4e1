module Soc_format = Ermes_slm.Soc_format
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Explore = Ermes_core.Explore
module Incremental = Ermes_core.Incremental
module Verify = Ermes_verify.Verify
module Lint = Ermes_core.Lint
module Obs = Ermes_obs.Obs
module Cancel = Ermes_runtime.Supervise.Cancel
module Batch = Ermes_runtime.Batch

open Proto

type deps = {
  cache : (string * (string * json) list) Cache.t;
  sessions : Session.table;
  rounds : int;
}

(* ---- fault-injection hooks ----------------------------------------------- *)

type inject = No_inject | Crash | Flaky of int | Sleep of int | Kill_worker

let inject_of_body body =
  match str_member "inject" body with
  | None -> Ok No_inject
  | Some "crash" -> Ok Crash
  | Some "kill-worker" -> Ok Kill_worker
  | Some s when String.length s > 6 && String.sub s 0 6 = "flaky:" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some n when n >= 0 -> Ok (Flaky n)
    | _ -> Error (Printf.sprintf "bad flaky count in %S" s))
  | Some s when String.length s > 6 && String.sub s 0 6 = "sleep:" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some ms when ms >= 0 -> Ok (Sleep ms)
    | _ -> Error (Printf.sprintf "bad sleep duration in %S" s))
  | Some s -> Error (Printf.sprintf "unknown inject %S" s)

(* Raise or sleep per the spec. [attempts] counts supervised attempts of
   this request, so [Flaky n] fails exactly its first [n]. *)
let apply_inject ~attempts ~cancel = function
  | No_inject | Kill_worker -> ()
  | Crash -> failwith "injected crash"
  | Flaky n ->
    if !attempts <= n then
      failwith (Printf.sprintf "injected flaky failure %d/%d" !attempts n)
  | Sleep ms ->
    (* Slices keep the worker responsive to its deadline: an expired token
       raises out of the sleep instead of holding the domain for the full
       duration. *)
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    let rec nap () =
      Cancel.check cancel;
      let left = deadline -. Unix.gettimeofday () in
      if left > 0. then begin
        Unix.sleepf (Float.min 0.01 left);
        nap ()
      end
    in
    nap ()

(* ---- shared pieces ------------------------------------------------------- *)

let parse_design body =
  match str_member "design" body with
  | None -> Error "missing \"design\" field"
  | Some text -> Soc_format.load (Soc_format.Text text)

let ratio_fields prefix r =
  [
    (prefix, Str (Ratio.to_string r));
    (prefix ^ "_float", Float (Ratio.to_float r));
  ]

(* System-level verdict → (status, reply fields). *)
let verdict_fields sys = function
  | Ok (a : Perf.analysis) ->
    ( "ok",
      ratio_fields "cycle_time" a.Perf.cycle_time
      @ [
          ("critical_cycle", Arr (List.map (fun s -> Str s) a.Perf.critical_cycle));
          ("critical_delay", Int a.Perf.critical_delay);
          ("critical_tokens", Int a.Perf.critical_tokens);
        ] )
  | Error (Perf.Deadlock d) ->
    ( "deadlock",
      [
        ("detail", Str (Format.asprintf "%a" (Perf.pp_failure sys) (Perf.Deadlock d)));
        ("dead_cycle", Arr (List.map (fun s -> Str s) d.Perf.dead_cycle));
      ] )
  | Error Perf.No_cycle ->
    ("findings", [ ("detail", Str (Format.asprintf "%a" (Perf.pp_failure sys) Perf.No_cycle)) ])

(* A certified analysis → (status, reply fields): the verdict, then its
   certificate; a rejected certificate turns any verdict into findings. *)
let certified_fields sys (c : Incremental.certified) =
  let status, fields = verdict_fields sys c.Incremental.outcome in
  let checked = c.Incremental.checked in
  ( (if Result.is_error checked then "findings" else status),
    fields
    @ [
        ("certificate", Str (Verify.describe c.Incremental.certificate));
        ("certificate_checked", Bool (Result.is_ok checked));
      ] )

let session_fields name (o : Session.outcome) =
  [
    ("session", Str name);
    ("path", Str (Session.path_name o.Session.path));
    ( "edits",
      Obj
        [
          ("delay_edits", Int o.Session.delay_edits);
          ("rethreads", Int o.Session.rethreads);
          ("marking_edits", Int o.Session.marking_edits);
          ("rebuilds", Int o.Session.rebuilds);
        ] );
  ]

let session_reply ~id ~verb ~name sys (o : Session.outcome) =
  let status, fields = certified_fields sys o.Session.certified in
  reply ~id ~verb status ~extra:(fields @ session_fields name o)

(* ---- verbs --------------------------------------------------------------- *)

let invalid ~id ~verb msg = error_reply ~id ~verb ~status:"invalid" msg

(* One-shot certified analysis through the warm cache. *)
let analyze_cold deps ~cancel ~id sys =
  let canonical = Soc_format.print sys in
  let key = Cache.key_of_canonical canonical in
  Cancel.check cancel;
  match Cache.find deps.cache key with
  | Some (status, fields) ->
    Obs.incr "serve.cache_hits";
    reply ~id ~verb:"analyze" status
      ~extra:(fields @ [ ("design_hash", Str key); ("cached", Bool true) ])
  | None ->
    Obs.incr "serve.cache_misses";
    let session = Incremental.create sys in
    Cancel.check cancel;
    let c = Incremental.analyze_certified session in
    Cancel.check cancel;
    let status, fields = certified_fields sys c in
    (* Only proof-carrying verdicts are worth replaying; a rejected
       certificate signals an analysis bug and must be recomputed loudly. *)
    if Result.is_ok c.Incremental.checked then Cache.add deps.cache key (status, fields);
    reply ~id ~verb:"analyze" status
      ~extra:(fields @ [ ("design_hash", Str key); ("cached", Bool false) ])

let analyze deps ~cancel ~client req =
  let id = req.id in
  match str_member "session" req.body with
  | None -> (
    match parse_design req.body with
    | Error e -> invalid ~id ~verb:"analyze" e
    | Ok sys -> analyze_cold deps ~cancel ~id sys)
  | Some name -> (
    match parse_design req.body with
    | Error e -> invalid ~id ~verb:"analyze" e
    | Ok sys -> (
      Cancel.check cancel;
      match Session.reanalyze deps.sessions ~client ~name sys with
      | Error e -> invalid ~id ~verb:"analyze" e
      | Ok outcome -> session_reply ~id ~verb:"analyze" ~name sys outcome))

let session_open deps ~cancel ~client req =
  let id = req.id in
  match str_member "session" req.body with
  | None -> invalid ~id ~verb:"session-open" "missing \"session\" field"
  | Some name -> (
    match parse_design req.body with
    | Error e -> invalid ~id ~verb:"session-open" e
    | Ok sys -> (
      Cancel.check cancel;
      Obs.incr "serve.sessions_opened";
      match Session.open_ deps.sessions ~client ~name sys with
      | Error e -> error_reply ~id ~verb:"session-open" ~status:"client-cap" e
      | Ok outcome -> session_reply ~id ~verb:"session-open" ~name sys outcome))

let session_close deps ~client req =
  let id = req.id in
  match str_member "session" req.body with
  | None -> invalid ~id ~verb:"session-close" "missing \"session\" field"
  | Some name ->
    let existed = Session.close deps.sessions ~client ~name in
    reply ~id ~verb:"session-close" "ok" ~extra:[ ("existed", Bool existed) ]

let lint req =
  let id = req.id in
  match str_member "design" req.body with
  | None -> invalid ~id ~verb:"lint" "missing \"design\" field"
  | Some text -> (
    match Lint.lint_string text with
    | Error e -> invalid ~id ~verb:"lint" e
    | Ok r ->
      let warnings_ok =
        Option.value ~default:false (bool_member "warnings_ok" req.body)
      in
      let errors = Lint.errors r and warnings = Lint.warnings r in
      let status =
        if errors > 0 then "findings"
        else if warnings > 0 && not warnings_ok then "findings"
        else "ok"
      in
      let report =
        match of_string (Lint.to_json r) with Ok j -> j | Error _ -> Null
      in
      reply ~id ~verb:"lint" status
        ~extra:[ ("errors", Int errors); ("warnings", Int warnings); ("report", report) ])

let dse ~cancel req =
  let id = req.id in
  match (parse_design req.body, int_member "tct" req.body) with
  | Error e, _ -> invalid ~id ~verb:"dse" e
  | _, None -> invalid ~id ~verb:"dse" "missing integer \"tct\" field"
  | Ok sys, Some tct -> (
    match Perf.analyze sys with
    | Error f ->
      let status, fields = verdict_fields sys (Error f) in
      reply ~id ~verb:"dse" status ~extra:fields
    | Ok _ ->
      (* The checkpoint hook fires once per completed exploration step —
         exactly the granularity at which an expired request should release
         its domain. *)
      let trace = Explore.run ~tct ~checkpoint:(fun _ -> Cancel.check cancel) sys in
      reply ~id ~verb:"dse" "ok"
        ~extra:
          (ratio_fields "final_cycle_time" (Explore.final_cycle_time trace)
          @ [
              ("met", Bool trace.Explore.met);
              ("final_area", Float (Explore.final_area trace));
              ("iterations", Int (List.length trace.Explore.steps));
              ("design", Str (Soc_format.print sys));
            ]))

(* Inline batch: each job isolated, cancellation between jobs, and every
   verdict [ermes batch]'s own. *)
let batch deps ~cancel req =
  let id = req.id in
  match member "jobs" req.body with
  | Some (Arr jobs) ->
    let run_job idx job =
      Cancel.check cancel;
      let action = Option.value ~default:"analyze" (str_member "action" job) in
      let item status ?category detail =
        Obj
          ([
             ("index", Int idx);
             ("action", Str action);
             ("status", Str status);
             ("detail", Str detail);
           ]
          @ match category with None -> [] | Some c -> [ ("category", Str c) ])
      in
      let known =
        match action with
        | "analyze" -> Some Batch.Analyze
        | "lint" -> Some Batch.Lint
        | "simulate" -> Some Batch.Simulate
        | _ -> None
      in
      match (str_member "design" job, known) with
      | None, _ -> item "failed" ~category:"bad-request" "missing \"design\" field"
      | Some _, None ->
        item "failed" ~category:"bad-request"
          (Printf.sprintf "unknown action %S (expected analyze|lint|simulate)" action)
      | Some text, Some a -> (
        match Batch.classify ~rounds:deps.rounds a (Soc_format.Text text) with
        | Ok detail -> item "ok" detail
        | Error (category, detail) -> item "failed" ~category detail)
    in
    let items = List.mapi run_job jobs in
    let ok =
      List.length
        (List.filter (fun j -> str_member "status" j = Some "ok") items)
    in
    let total = List.length items in
    reply ~id ~verb:"batch"
      (if ok = total then "ok" else "findings")
      ~extra:[ ("jobs", Arr items); ("total", Int total); ("ok", Int ok) ]
  | Some _ -> invalid ~id ~verb:"batch" "\"jobs\" must be an array"
  | None -> invalid ~id ~verb:"batch" "missing \"jobs\" array"

let execute deps ~cancel ~attempts ~client req =
  incr attempts;
  match inject_of_body req.body with
  | Error e -> error_reply ~id:req.id ~verb:req.verb ~status:"bad-request" e
  | Ok inj -> (
    apply_inject ~attempts ~cancel inj;
    Cancel.check cancel;
    Obs.span ("serve.verb." ^ req.verb) @@ fun () ->
    match req.verb with
    | "ping" -> reply ~id:req.id ~verb:"ping" "ok"
    | "analyze" -> analyze deps ~cancel ~client req
    | "lint" -> lint req
    | "dse" -> dse ~cancel req
    | "batch" -> batch deps ~cancel req
    | "session-open" -> session_open deps ~cancel ~client req
    | "session-close" -> session_close deps ~client req
    | v ->
      error_reply ~id:req.id ~verb:v ~status:"bad-request"
        (Printf.sprintf "unknown verb %S" v))
