module Chaos = Ermes_chaos.Chaos
module Soc_format = Ermes_slm.Soc_format
module Ratio = Ermes_tmg.Ratio
module Explore = Ermes_core.Explore
module Shrink = Ermes_fault.Shrink
module Generate = Ermes_synth.Generate
module Checkpoint = Ermes_runtime.Checkpoint
module Proto = Ermes_serve.Proto
module Server = Ermes_serve.Server
module Client = Ermes_serve.Client

type target = Journal | Fuzz | Dse | Batch | Serve

let all = [ Journal; Fuzz; Dse; Batch; Serve ]

let name = function
  | Journal -> "journal"
  | Fuzz -> "fuzz"
  | Dse -> "dse"
  | Batch -> "batch"
  | Serve -> "serve"

let parse_targets spec =
  let names =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> if acc = [] then Error "no chaos target" else Ok (List.rev acc)
    | n :: rest -> (
      match List.find_opt (fun t -> name t = n) all with
      | Some t -> go (t :: acc) rest
      | None ->
        Error
          (Printf.sprintf
             "unknown chaos target %s (expected journal, fuzz, dse, batch, \
              serve or all)"
             n))
  in
  if List.mem "all" names then Ok all else go [] names

let kinds = function
  | Journal | Fuzz | Dse -> Chaos.file_kinds
  | Batch -> [ Chaos.Skew ]
  | Serve -> Chaos.socket_kinds

let read_file path = In_channel.with_open_bin path In_channel.input_all
let remove_files = List.iter (fun p -> if Sys.file_exists p then Sys.remove p)

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_tmpdir f =
  let rec fresh i =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ermes-chaos-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh (i + 1)
  in
  let dir = fresh 0 in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let check_journal ~dir plan =
  let module Journal = Ermes_runtime.Journal in
  let path = Filename.concat dir "journal.j" in
  remove_files [ path; path ^ ".tmp" ];
  let inj = Chaos.injector plan in
  let payloads =
    List.init 8 (fun i -> Printf.sprintf "record %d %s" i (String.make (7 * i) 'x'))
  in
  let attempted = ref [] in
  let prefix_ok entries =
    let rec go = function
      | [], _ -> true
      | _ :: _, [] -> false
      | e :: es, a :: rest -> String.equal e a && go (es, rest)
    in
    go (entries, List.rev !attempted)
  in
  let check_disk () =
    if not (Sys.file_exists path) then Ok ()
    else
      match Journal.load path with
      | exception e -> Error ("journal load raised " ^ Printexc.to_string e)
      | Error _ -> Ok () (* recovery reported the damage; it never lied *)
      | Ok l ->
        if prefix_ok l.Journal.entries then Ok ()
        else Error "recovered journal is not a prefix of the appended records"
  in
  match Journal.start ~io:(Chaos.io inj) ~kind:"chaos" path with
  | exception (Unix.Unix_error _ | Sys_error _) -> check_disk ()
  | j ->
    let rec go = function
      | [] -> check_disk ()
      | p :: rest -> (
        attempted := p :: !attempted;
        match Journal.append j p with
        | () -> ( match check_disk () with Ok () -> go rest | e -> e)
        | exception (Unix.Unix_error _ | Sys_error _) ->
          (* the fault surfaced to the caller; the disk must still hold a
             valid prefix — exactly what a degrading campaign relies on *)
          check_disk ())
    in
    go payloads

(* The one resume-identity check of the checkpointed campaigns: a reference
   run, a run under the plan, a resume with healthy I/O, then a comparison
   of the digest and the journal bytes. [run] is the checkpointed runner;
   [actor] and [outcome] name the campaign and its result in messages. *)
let check_resume ~dir ~name ~actor ~outcome ~digest run plan =
  let ref_path = Filename.concat dir (name ^ "-ref.journal") in
  let path = Filename.concat dir (name ^ ".journal") in
  remove_files [ ref_path; path ];
  match run ~io:None ~path:ref_path ~resume:false with
  | Error e -> Error ("reference run refused: " ^ e)
  | Ok reference -> (
    let want = digest reference in
    let ref_bytes = read_file ref_path in
    let inj = Chaos.injector plan in
    match run ~io:(Some (Chaos.io inj)) ~path ~resume:false with
    | exception e ->
      Error (Printf.sprintf "%s crashed under chaos: %s" actor (Printexc.to_string e))
    | Error e -> Error (Printf.sprintf "%s refused to run under chaos: %s" actor e)
    | Ok under_chaos -> (
      if digest under_chaos <> want then
        Error
          (Printf.sprintf "%s diverged under chaos: %s vs %s" outcome
             (digest under_chaos) want)
      else
        (* resume from whatever chaos left behind; a journal the loader
           rejects outright is removed and the campaign restarted, exactly
           as a recovering operator would *)
        let resumed =
          match run ~io:None ~path ~resume:true with
          | Ok s -> Ok s
          | Error _ ->
            remove_files [ path ];
            run ~io:None ~path ~resume:false
        in
        match resumed with
        | Error e -> Error ("resume refused: " ^ e)
        | Ok s when digest s <> want ->
          Error (Printf.sprintf "resumed %s diverged from the uninterrupted run" outcome)
        | Ok _ ->
          if String.equal (read_file path) ref_bytes then Ok ()
          else
            Error
              "resumed journal is not byte-identical to the uninterrupted \
               run's"))

let fuzz_digest (s : Ermes_fault.Fuzz.summary) =
  Printf.sprintf "%d cases, %d live, %d dead, %d faults, %d failures"
    s.Ermes_fault.Fuzz.cases_run s.live s.dead s.faults_injected
    (List.length s.failures)

let check_fuzz ~dir ~seed plan =
  let cfg =
    {
      Ermes_fault.Fuzz.seed = 1 + (seed land 0xffff);
      cases = 3;
      max_processes = 5;
      rounds = 48;
      rtl = false;
      repro_dir = None;
    }
  in
  check_resume ~dir ~name:"fuzz" ~actor:"campaign" ~outcome:"summary"
    ~digest:fuzz_digest
    (fun ~io ~path ~resume -> Checkpoint.fuzz_run ?io ~path ~resume cfg)
    plan

let trace_digest (t : Explore.trace) =
  let last =
    match List.rev t.Explore.steps with
    | s :: _ -> Ratio.to_string s.Explore.cycle_time
    | [] -> "-"
  in
  Printf.sprintf "%d steps, met=%b, final ct %s" (List.length t.steps) t.met last

let check_dse ~dir ~seed plan =
  let sys () =
    Generate.generate
      {
        Generate.default with
        processes = 6;
        channels = 10;
        layers = 2;
        impls = 3;
        max_process_latency = 40;
        max_channel_latency = 25;
        seed = 1 + (seed land 0xffff);
      }
  in
  check_resume ~dir ~name:"dse" ~actor:"exploration" ~outcome:"trace"
    ~digest:trace_digest
    (fun ~io ~path ~resume -> Checkpoint.dse_run ?io ~path ~resume ~tct:60 (sys ()))
    plan

let check_batch ~dir ~seed plan =
  let module Batch = Ermes_runtime.Batch in
  let io = Chaos.io (Chaos.injector plan) in
  let files =
    List.init 3 (fun i ->
        let sys =
          Generate.generate
            {
              Generate.default with
              processes = 5;
              channels = 8;
              layers = 2;
              impls = 2;
              max_process_latency = 20;
              max_channel_latency = 15;
              seed = 1 + i + (seed land 0xff);
            }
        in
        let p = Filename.concat dir (Printf.sprintf "job%d.soc" i) in
        Soc_format.write_file p sys;
        p)
  in
  let jobs =
    List.map Batch.job_of_file files
    @ [ { Batch.file = List.hd files; action = Batch.Analyze; inject = Batch.Flaky 1 } ]
  in
  match Batch.run ~jobs:1 ~rounds:64 ~clock:io.Chaos.Io.clock jobs with
  | exception e ->
    Error ("batch crashed under a skewed clock: " ^ Printexc.to_string e)
  | r ->
    let total =
      r.Batch.ok + r.Batch.failed + r.Batch.quarantined + r.Batch.timed_out
      + r.Batch.skipped
    in
    if total <> List.length jobs then
      Error
        (Printf.sprintf "report accounts for %d of %d jobs" total
           (List.length jobs))
    else if not (List.mem (Batch.exit_code r) [ 0; 2; 3 ]) then
      Error
        (Printf.sprintf "exit code %d outside the 0/2/3 contract"
           (Batch.exit_code r))
    else Ok ()

let check_serve ~dir plan =
  (* Backward skew would merely postpone the frame deadline (and this
     check's completion); the serve target interprets skew forward so a
     campaign wave stays bounded. *)
  let plan =
    List.map
      (function
        | Chaos.Clock_skew { op; skew_s } when skew_s < 0. ->
          Chaos.Clock_skew { op; skew_s = Float.abs skew_s }
        | f -> f)
      plan
  in
  let socket = Filename.concat dir "chaos.sock" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let stop = Atomic.make false in
  let cfg =
    {
      (Server.default_config ~socket) with
      Server.workers = 1;
      queue_capacity = 8;
      frame_deadline_s = 1.;
      io = Chaos.io (Chaos.injector plan);
    }
  in
  let outcome = ref (Ok ()) in
  let dom = Domain.spawn (fun () -> outcome := Server.run ~stop cfg) in
  let finish res =
    Atomic.set stop true;
    Domain.join dom;
    match (res, !outcome) with
    | (Error _ as e), _ -> e
    | Ok (), Ok () -> Ok ()
    | Ok (), Error e -> Error ("daemon exited with: " ^ e)
  in
  let sent = Result.map_error (fun e -> "send: " ^ e) in
  let request c id verb =
    sent
      (Client.send c
         (Proto.to_string (Proto.Obj [ ("id", Proto.Int id); ("verb", Proto.Str verb) ])))
  in
  let recv what c =
    match Client.recv c with
    | Ok payload -> Ok payload
    | Error (Client.Bad_frame e) -> Error (what ^ ": bad frame from daemon: " ^ e)
    | Error Client.Closed -> Error (what ^ ": connection closed before a reply")
    | Error Client.Timed_out -> Error (what ^ ": no reply within 10 s")
    | Error (Client.Io e) -> Error (what ^ ": recv: " ^ e)
  in
  let parsed what payload =
    match Proto.of_string payload with
    | Ok j -> Ok j
    | Error e -> Error (what ^ ": unparseable reply: " ^ e)
  in
  let rec expect_eof c =
    match Client.recv c with
    | Ok _ -> expect_eof c (* drain the flush; EOF must follow *)
    | Error (Client.Closed | Client.Io _) -> Ok () (* reset counts as closed *)
    | Error Client.Timed_out -> Error "loris connection not closed after bad-request"
    | Error (Client.Bad_frame e) -> Error ("loris: bad frame from daemon: " ^ e)
  in
  let ( let* ) = Result.bind in
  finish
    (let* c =
       Result.map_error
         (fun e -> "daemon did not come up: " ^ e)
         (Client.connect ~retries:100 ~timeout_s:10. socket)
     in
     let res =
       let* () = sent (Client.send c (Proto.to_string (Proto.hello_request ~client:"chaos"))) in
       let* hello = recv "hello" c in
       let* j = parsed "hello" hello in
       let* () =
         if Proto.str_member "status" j = Some "ok" then Ok ()
         else Error ("hello not ok: " ^ hello)
       in
       let* () = request c 1 "ping" in
       (* the reply must be well-formed with the right id; a skewed clock
          may legitimately expire the deadline, so any status goes *)
       let* ping = recv "ping" c in
       let* pj = parsed "ping" ping in
       let* () =
         if Proto.int_member "id" pj = Some 1 then Ok ()
         else Error ("ping reply carries the wrong id: " ^ ping)
       in
       let* loris =
         Result.map_error (fun e -> "loris connect: " ^ e) (Client.connect ~timeout_s:10. socket)
       in
       let res2 =
         let* () = sent (Client.send_raw loris "64\n{\"half") in
         let* reply = recv "loris" loris in
         let* lj = parsed "loris" reply in
         let* () =
           if Proto.str_member "status" lj = Some "bad-request" then Ok ()
           else Error ("loris reply is not bad-request: " ^ reply)
         in
         expect_eof loris
       in
       Client.close loris;
       let* () = res2 in
       let* () = request c 2 "metrics" in
       let* m = recv "metrics" c in
       let* mj = parsed "metrics" m in
       if Proto.str_member "status" mj = Some "ok" then Ok ()
       else Error ("metrics not ok: " ^ m)
     in
     Client.close c;
     res)

let check ~dir ~seed target plan =
  match target with
  | Journal -> check_journal ~dir plan
  | Fuzz -> check_fuzz ~dir ~seed plan
  | Dse -> check_dse ~dir ~seed plan
  | Batch -> check_batch ~dir ~seed plan
  | Serve -> check_serve ~dir plan

type violation = {
  target : target;
  original : Chaos.plan;
  minimal : Chaos.plan;
  message : string;
}

(* Shrink with the fuzzer's minimizer: drop faults, then halve magnitudes,
   re-running the check each step. *)
let shrink ~dir ~seed target plan message =
  let fails p = Result.is_error (check ~dir ~seed target p) in
  let minimal = Shrink.minimize ~fails ~step:Chaos.halve plan in
  let message =
    match check ~dir ~seed target minimal with Error m -> m | Ok () -> message
  in
  { target; original = plan; minimal; message }

let run ?plan ~report ~seed ~waves targets =
  with_tmpdir (fun dir ->
      let rec wave w =
        if w > waves then None
        else
          let rec go ti = function
            | [] -> wave (w + 1)
            | target :: rest -> (
              let plan =
                match plan with
                | Some p -> p
                | None ->
                  Chaos.gen ~seed:(Chaos.derive seed ((w * 8) + ti)) ~kinds:(kinds target)
              in
              let result = check ~dir ~seed target plan in
              report ~wave:w target plan result;
              match result with
              | Ok () -> go (ti + 1) rest
              | Error msg -> Some (shrink ~dir ~seed target plan msg))
          in
          go 0 targets
      in
      wave 1)

let replay ~seed v =
  Printf.sprintf "ermes chaos --seed %d --target %s --plan '%s'" seed (name v.target)
    (Chaos.to_spec v.minimal)

let repro ~seed v =
  Printf.sprintf
    "ermes chaos repro\n\
     seed: %d\n\
     target: %s\n\
     original plan: %s\n\
     shrunk plan: %s\n\
     violation: %s\n\
     replay: %s\n"
    seed (name v.target) (Chaos.to_spec v.original) (Chaos.to_spec v.minimal)
    v.message (replay ~seed v)
