let available () = Domain.recommended_domain_count ()

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let env_jobs () = Option.bind (Sys.getenv_opt "ERMES_JOBS") parse_jobs

let default_jobs () = match env_jobs () with Some n -> n | None -> 1

exception Worker_failure of int * exn

(* Deterministic fan-out of the tasks [first .. first+n-1]: tasks are claimed
   from a shared atomic counter and every result lands at its input index, so
   the output order (and any exception surfaced — lowest index wins) is
   independent of worker count and scheduling. Each worker builds its state
   with [init] on its first claim, so a worker that claims nothing builds
   none. Exceptions are caught per task together with the raw backtrace of
   their raise point (captured inside the worker domain, where it is still
   accurate); after all domains join, the first failing index re-raises with
   that backtrace re-attached.

   Fan-out is at most the host's cores: domains beyond that only timeshare a
   core and pay cross-domain GC coordination, for the same result.

   Degradation ladder: a refused [Domain.spawn] means fewer workers, and a
   worker that dies outside its tasks (an infrastructure failure: [filler]
   catches every task exception) costs only its domain — every slot it left
   unfilled runs on the calling domain after the join. Both rungs count in
   [parallel.lost_workers]. *)
let run_tasks jobs ~init ~first n task =
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let jobs = max 1 (min (min jobs (available ())) n) in
    let obs = Ermes_obs.Obs.enabled () in
    if obs then begin
      Ermes_obs.Obs.incr "parallel.batches";
      Ermes_obs.Obs.incr ~by:n "parallel.tasks"
    end;
    let tally = Array.make jobs 0 in
    let filler slot =
      let state = ref None in
      fun k ->
        let r =
          try
            let st =
              match !state with
              | Some st -> st
              | None ->
                let st = init () in
                state := Some st;
                st
            in
            Ok (task st (first + k))
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        results.(k) <- Some r;
        tally.(slot) <- tally.(slot) + 1
    in
    let next = Atomic.make 0 in
    let worker fill () =
      let continue_ = ref true in
      while !continue_ do
        let k = Atomic.fetch_and_add next 1 in
        if k >= n then continue_ := false else fill k
      done
    in
    let lost = ref 0 in
    let domains =
      List.filter_map
        (fun k ->
          match Domain.spawn (worker (filler (k + 1))) with
          | d -> Some d
          | exception _ ->
            incr lost;
            None)
        (List.init (jobs - 1) Fun.id)
    in
    let fill = filler 0 in
    worker fill ();
    List.iter (fun d -> try Domain.join d with _ -> incr lost) domains;
    Array.iteri (fun k r -> if Option.is_none r then fill k) results;
    (* Recorded after the join, on the calling domain: the split across
       slots is scheduling-dependent, only the total is deterministic. *)
    if obs then begin
      Array.iteri
        (fun slot k ->
          Ermes_obs.Obs.incr ~by:k (Printf.sprintf "parallel.domain%d.tasks" slot))
        tally;
      if jobs > 1 then Ermes_obs.Obs.incr ~by:!lost "parallel.lost_workers"
    end;
    Array.mapi
      (fun k r ->
        match r with
        | Some (Ok v) -> v
        | Some (Error (e, bt)) ->
          Printexc.raise_with_backtrace (Worker_failure (first + k, e)) bt
        | None -> assert false)
      results
  end

let resolve = function Some j -> j | None -> default_jobs ()

let init ?jobs n f =
  run_tasks (resolve jobs) ~init:ignore ~first:0 n (fun () i -> f i)

let map ?jobs f xs =
  let arr = Array.of_list xs in
  Array.to_list (init ?jobs (Array.length arr) (fun i -> f arr.(i)))

let waves ?jobs ~size ~init n run emit =
  let jobs = resolve jobs and size = max 1 size in
  let rec from first =
    if first < n then begin
      let len = min size (n - first) in
      Array.iteri (fun k r -> emit (first + k) r) (run_tasks jobs ~init ~first len run);
      from (first + len)
    end
  in
  from 0
