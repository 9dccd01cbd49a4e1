module Obs = Ermes_obs.Obs
module Supervise = Ermes_runtime.Supervise
module Cancel = Supervise.Cancel
module Chaos = Ermes_chaos.Chaos
open Proto

type config = {
  socket : string;
  tcp_port : int option;
  queue_capacity : int;
  workers : int;
  client_cap : int;
  idle_timeout_s : float;
  frame_deadline_s : float;
  session_ttl_s : float;
  session_cap : int;
  cache_capacity : int;
  max_attempts : int;
  default_deadline_ms : int;
  max_deadline_ms : int;
  crash_budget : int;
  rounds : int;
  io : Chaos.Io.t;
}

let default_config ~socket =
  {
    socket;
    tcp_port = None;
    queue_capacity = 64;
    workers = 2;
    client_cap = 8;
    idle_timeout_s = 300.;
    frame_deadline_s = 10.;
    session_ttl_s = 900.;
    session_cap = 8;
    cache_capacity = 256;
    max_attempts = 3;
    default_deadline_ms = 30_000;
    max_deadline_ms = 120_000;
    crash_budget = 1000;
    rounds = 10_000;
    io = Chaos.Io.passthrough;
  }

(* ---- degradation ladder --------------------------------------------------- *)

type mode = Full | Reduced | Sequential | Metrics_only

let mode_name = function
  | Full -> "full"
  | Reduced -> "reduced"
  | Sequential -> "sequential"
  | Metrics_only -> "metrics-only"

(* ---- server state --------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  key : int;
  peer : string;
  dec : Proto.decoder;
  outq : string Queue.t;  (* framed replies awaiting the socket *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable client : string;
  mutable handshaken : bool;
  mutable in_flight : int;
  mutable last_activity : float;
  mutable frame_started : float option;
      (* a partial frame has been pending since this instant *)
  mutable closing : bool;  (* close once the outbox drains *)
  cancels : (int, Cancel.t) Hashtbl.t;  (* request id → its deadline token *)
}

type job = {
  jconn : int;
  jid : int;
  jreq : Proto.request;
  jcancel : Cancel.t;
  jclient : string;
  jdeadline : float;  (* absolute, Unix.gettimeofday terms *)
  jenqueued : float;
}

type completion = { cconn : int; cid : int; creply : Proto.json }

type t = {
  cfg : config;
  deps : Handler.deps;
  queue : job Admission.t;
  comp_lock : Mutex.t;
  completions : completion Queue.t;
  wake_r : Unix.file_descr;  (* self-pipe: workers nudge the select loop *)
  wake_w : Unix.file_descr;
  live_workers : int Atomic.t;
  crashes : int Atomic.t;
  stop : bool Atomic.t;
  started : float;
}

(* Every time source and socket/file operation goes through [cfg.io], so the
   chaos layer can interpose; the passthrough default is the bare syscalls. *)
let now srv = srv.cfg.io.Chaos.Io.clock ()

let mode srv =
  let live = Atomic.get srv.live_workers in
  if live <= 0 || Atomic.get srv.crashes >= srv.cfg.crash_budget then Metrics_only
  else if live >= srv.cfg.workers then Full
  else if live = 1 then Sequential
  else Reduced

(* ---- worker domains ------------------------------------------------------- *)

let push_completion srv c =
  Mutex.lock srv.comp_lock;
  Queue.push c srv.completions;
  Mutex.unlock srv.comp_lock;
  try ignore (Unix.write srv.wake_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let with_elapsed srv ~t0 reply =
  let ms = (now srv -. t0) *. 1000. in
  match reply with
  | Obj fields -> Obj (fields @ [ ("elapsed_ms", Float ms) ])
  | other -> other

let run_job srv job =
  let t0 = now srv in
  let reply =
    match Cancel.status job.jcancel with
    | Some reason ->
      (* Expired (or the client hung up) while queued: don't burn the
         domain on work nobody will read. *)
      Obs.incr "serve.timeouts";
      error_reply ~id:job.jid ~verb:job.jreq.verb ~status:"timeout"
        ("expired before execution: " ^ reason)
        ~extra:[ ("queued_ms", Float ((t0 -. job.jenqueued) *. 1000.)) ]
    | None -> (
      let attempts = ref 0 in
      let budget = Float.max 0.001 (job.jdeadline -. t0) in
      let policy =
        {
          Supervise.max_attempts = srv.cfg.max_attempts;
          timeout_s = Some budget;
          clock = srv.cfg.io.Chaos.Io.clock;
        }
      in
      match
        Supervise.attempt ~policy (fun () ->
            Handler.execute srv.deps ~cancel:job.jcancel ~attempts
              ~client:job.jclient job.jreq)
      with
      | Supervise.Done r ->
        Obs.incr "serve.completed";
        r
      | Supervise.Timed_out { attempts; elapsed_s } ->
        Obs.incr "serve.timeouts";
        let reason =
          match Cancel.status job.jcancel with
          | Some r -> r
          | None ->
            Printf.sprintf "attempt overran its %.0f ms budget" (budget *. 1000.)
        in
        error_reply ~id:job.jid ~verb:job.jreq.verb ~status:"timeout" reason
          ~extra:
            [ ("attempts", Int attempts); ("ran_ms", Float (elapsed_s *. 1000.)) ]
      | Supervise.Quarantined f ->
        Obs.incr "serve.crashes";
        Atomic.incr srv.crashes;
        error_reply ~id:job.jid ~verb:job.jreq.verb ~status:"crash"
          f.Supervise.exn
          ~extra:[ ("attempts", Int f.Supervise.attempts) ])
  in
  push_completion srv
    { cconn = job.jconn; cid = job.jid; creply = with_elapsed srv ~t0 reply }

let worker_loop srv =
  let rec loop () =
    match Admission.dequeue srv.queue with
    | None -> ()
    | Some job ->
      if
        (not (Cancel.cancelled job.jcancel))
        && Handler.inject_of_body job.jreq.body = Ok Handler.Kill_worker
      then begin
        (* The one fault Supervise.attempt must NOT contain: the inject
           models a worker domain dying mid-request. The request is
           answered [crash], the pool loses this slot, the ladder steps
           down — and the daemon keeps serving. *)
        Obs.incr "serve.crashes";
        Obs.incr "serve.workers_lost";
        Atomic.incr srv.crashes;
        Atomic.decr srv.live_workers;
        push_completion srv
          {
            cconn = job.jconn;
            cid = job.jid;
            creply =
              error_reply ~id:job.jid ~verb:job.jreq.verb ~status:"crash"
                "injected worker death (worker domain lost; pool degraded)";
          }
      end
      else begin
        run_job srv job;
        loop ()
      end
  in
  try loop ()
  with _ ->
    (* run_job never raises by construction; this is the belt to that
       suspenders — an unexpected loop bug costs the slot, not the daemon. *)
    Obs.incr "serve.workers_lost";
    Atomic.decr srv.live_workers

(* ---- connection plumbing -------------------------------------------------- *)

let send conn json = Queue.push (frame (to_string json)) conn.outq

let pending_output conn = not (Queue.is_empty conn.outq)

let drop_conn conns conn ~reason =
  ignore reason;
  Hashtbl.remove conns conn.key;
  Hashtbl.iter
    (fun _ tok -> Cancel.cancel ~reason:"client disconnected" tok)
    conn.cancels;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

let flush_conn srv conns conn =
  let rec go () =
    match Queue.peek_opt conn.outq with
    | None -> ()
    | Some head -> (
      let len = String.length head - conn.out_off in
      match
        srv.cfg.io.Chaos.Io.write conn.fd head conn.out_off len
      with
      | n ->
        if n = len then begin
          ignore (Queue.pop conn.outq);
          conn.out_off <- 0;
          go ()
        end
        else conn.out_off <- conn.out_off + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        drop_conn conns conn ~reason:"write error")
  in
  go ();
  if conn.closing && not (pending_output conn) then
    drop_conn conns conn ~reason:"closed after flush"

(* ---- inline verbs (event loop, never queued) ------------------------------ *)

let server_name = "ermes"

let metrics_fields srv ~connections =
  let snap = Obs.snapshot () in
  let cs = Cache.stats srv.deps.Handler.cache in
  [
    ("mode", Str (mode_name (mode srv)));
    ("uptime_s", Float (now srv -. srv.started));
    ( "workers",
      Obj
        [
          ("configured", Int srv.cfg.workers);
          ("live", Int (Atomic.get srv.live_workers));
        ] );
    ( "queue",
      Obj
        [
          ("depth", Int (Admission.depth srv.queue));
          ("capacity", Int (Admission.capacity srv.queue));
        ] );
    ("connections", Int connections);
    ( "cache",
      Obj
        [
          ("size", Int cs.Cache.size);
          ("capacity", Int cs.Cache.capacity);
          ("hits", Int cs.Cache.hits);
          ("misses", Int cs.Cache.misses);
          ("evictions", Int cs.Cache.evictions);
        ] );
    ("sessions", Int (Session.count srv.deps.Handler.sessions));
    ( "counters",
      Obj (List.map (fun (k, v) -> (k, Int v)) snap.Obs.snap_counters) );
    ( "spans",
      Arr
        (List.map
           (fun s ->
             Obj
               [
                 ("name", Str s.Obs.span_name);
                 ("calls", Int s.Obs.calls);
                 ("total_ms", Float (s.Obs.total_s *. 1000.));
                 ("max_ms", Float (s.Obs.max_s *. 1000.));
               ])
           snap.Obs.snap_spans) );
  ]

let metrics_text srv ~connections =
  let cs = Cache.stats srv.deps.Handler.cache in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "mode         %s\n" (mode_name (mode srv)));
  Buffer.add_string b
    (Printf.sprintf "workers      %d/%d live\n"
       (Atomic.get srv.live_workers) srv.cfg.workers);
  Buffer.add_string b
    (Printf.sprintf "queue        %d/%d queued\n" (Admission.depth srv.queue)
       (Admission.capacity srv.queue));
  Buffer.add_string b (Printf.sprintf "connections  %d\n" connections);
  Buffer.add_string b
    (Printf.sprintf "cache        %d/%d entries, %d hit(s), %d miss(es), %d evicted\n"
       cs.Cache.size cs.Cache.capacity cs.Cache.hits cs.Cache.misses
       cs.Cache.evictions);
  Buffer.add_string b
    (Printf.sprintf "sessions     %d\n" (Session.count srv.deps.Handler.sessions));
  Buffer.add_string b (Obs.summary ());
  Buffer.contents b

let metrics_reply srv ~connections ~id ~body =
  match str_member "format" body with
  | Some "text" ->
    reply ~id ~verb:"metrics" "ok"
      ~extra:[ ("text", Str (metrics_text srv ~connections)) ]
  | _ -> reply ~id ~verb:"metrics" "ok" ~extra:(metrics_fields srv ~connections)

(* ---- request admission ---------------------------------------------------- *)

let admit srv conn (req : Proto.request) =
  match mode srv with
  | Metrics_only ->
    Obs.incr "serve.rejected";
    send conn
      (error_reply ~id:req.id ~verb:req.verb ~status:"degraded"
         "service degraded to metrics-only (workers lost or crash budget spent)")
  | Full | Reduced | Sequential ->
    if conn.in_flight >= srv.cfg.client_cap then begin
      Obs.incr "serve.rejected";
      send conn
        (error_reply ~id:req.id ~verb:req.verb ~status:"client-cap"
           (Printf.sprintf "client already has %d request(s) in flight (cap %d)"
              conn.in_flight srv.cfg.client_cap)
           ~extra:[ ("retry_after_ms", Int 25) ])
    end
    else begin
      let now = now srv in
      let deadline_ms =
        match int_member "deadline_ms" req.body with
        | Some d when d > 0 -> min d srv.cfg.max_deadline_ms
        | _ -> srv.cfg.default_deadline_ms
      in
      let deadline_s = float_of_int deadline_ms /. 1000. in
      let cancel = Cancel.make ~deadline_s ~clock:srv.cfg.io.Chaos.Io.clock () in
      let job =
        {
          jconn = conn.key;
          jid = req.id;
          jreq = req;
          jcancel = cancel;
          jclient = conn.client;
          jdeadline = now +. deadline_s;
          jenqueued = now;
        }
      in
      match Admission.try_enqueue srv.queue job with
      | Admission.Admitted _ ->
        Obs.incr "serve.admitted";
        conn.in_flight <- conn.in_flight + 1;
        Hashtbl.replace conn.cancels req.id cancel
      | Admission.Rejected { depth; retry_after_ms } ->
        Obs.incr "serve.rejected";
        send conn
          (error_reply ~id:req.id ~verb:req.verb ~status:"overloaded"
             (Printf.sprintf "admission queue full (%d queued)" depth)
             ~extra:
               [
                 ("retry_after_ms", Int retry_after_ms);
                 ("queue_depth", Int depth);
               ])
      | Admission.Closed ->
        send conn
          (error_reply ~id:req.id ~verb:req.verb ~status:"shutting-down"
             "daemon is shutting down")
    end

let handle_request srv conns conn (req : Proto.request) =
  Obs.incr "serve.requests";
  if not conn.handshaken then
    match req.verb with
    | "hello" -> (
      match int_member "proto_version" req.body with
      | Some v when v = Proto.proto_version ->
        (match str_member "client" req.body with
        | Some c when c <> "" -> conn.client <- c
        | _ -> ());
        conn.handshaken <- true;
        send conn (hello_reply ~id:req.id ~server:server_name)
      | Some v ->
        send conn
          (error_reply ~id:req.id ~verb:"hello" ~status:"bad-request"
             (Printf.sprintf "protocol version mismatch: client %d, server %d"
                v Proto.proto_version));
        conn.closing <- true
      | None ->
        send conn
          (error_reply ~id:req.id ~verb:"hello" ~status:"bad-request"
             "hello must carry an integer proto_version");
        conn.closing <- true)
    | v ->
      send conn
        (error_reply ~id:req.id ~verb:v ~status:"bad-request"
           "handshake required: the first frame must be a hello");
      conn.closing <- true
  else
    match req.verb with
    | "hello" -> send conn (hello_reply ~id:req.id ~server:server_name)
    | "metrics" ->
      send conn
        (metrics_reply srv ~connections:(Hashtbl.length conns) ~id:req.id
           ~body:req.body)
    | _ -> admit srv conn req

let handle_payload srv conns conn payload =
  match parse_request payload with
  | Error e ->
    Obs.incr "serve.bad_frames";
    send conn (error_reply ~id:0 ~verb:"?" ~status:"bad-request" e)
  | Ok req -> handle_request srv conns conn req

let read_buf = Bytes.create 65536

let handle_readable srv conns conn =
  match srv.cfg.io.Chaos.Io.read conn.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> drop_conn conns conn ~reason:"eof"
  | n ->
    conn.last_activity <- now srv;
    feed conn.dec read_buf n;
    let rec drain () =
      match next conn.dec with
      | Ok None -> ()
      | Ok (Some payload) ->
        handle_payload srv conns conn payload;
        if not conn.closing then drain ()
      | Error e ->
        Obs.incr "serve.bad_frames";
        send conn (error_reply ~id:0 ~verb:"?" ~status:"bad-request" e);
        conn.closing <- true
    in
    drain ();
    (* The frame-read deadline clock: starts when bytes of an incomplete
       frame are first seen, clears the moment the decoder holds nothing. *)
    if conn.closing || not (Proto.pending conn.dec) then conn.frame_started <- None
    else if conn.frame_started = None then conn.frame_started <- Some conn.last_activity
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) ->
    drop_conn conns conn ~reason:"read error"

let drain_completions srv conns =
  (try
     while Unix.read srv.wake_r read_buf 0 (Bytes.length read_buf) > 0 do
       ()
     done
   with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ());
  let pending = Queue.create () in
  Mutex.lock srv.comp_lock;
  Queue.transfer srv.completions pending;
  Mutex.unlock srv.comp_lock;
  Queue.iter
    (fun c ->
      match Hashtbl.find_opt conns c.cconn with
      | None -> ()  (* the client left; its reply has no audience *)
      | Some conn ->
        conn.in_flight <- max 0 (conn.in_flight - 1);
        Hashtbl.remove conn.cancels c.cid;
        conn.last_activity <- now srv;
        send conn c.creply)
    pending

(* ---- listeners ------------------------------------------------------------ *)

let listen_unix path =
  if Sys.file_exists path then begin
    (* A leftover socket file from a killed daemon must not block restart,
       but a live daemon must. Probe by connecting. *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> false
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then failwith (path ^ ": a daemon is already listening")
    else Unix.unlink path
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let accept_conn srv conns next_key lfd =
  match Unix.accept lfd with
  | fd, addr ->
    Unix.set_nonblock fd;
    incr next_key;
    let key = !next_key in
    let peer =
      match addr with
      | Unix.ADDR_UNIX _ -> "unix"
      | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    in
    let conn =
      {
        fd;
        key;
        peer;
        dec = decoder ();
        outq = Queue.create ();
        out_off = 0;
        client = Printf.sprintf "anon-%d" key;
        handshaken = false;
        in_flight = 0;
        last_activity = now srv;
        frame_started = None;
        closing = false;
        cancels = Hashtbl.create 4;
      }
    in
    Hashtbl.replace conns key conn;
    Obs.incr "serve.connections"
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* ---- main loop ------------------------------------------------------------ *)

let register_counters () =
  List.iter
    (fun c -> Obs.incr ~by:0 ("serve." ^ c))
    [
      "connections";
      "requests";
      "admitted";
      "rejected";
      "completed";
      "timeouts";
      "crashes";
      "workers_lost";
      "bad_frames";
      "frame_timeouts";
      "cache_hits";
      "cache_misses";
      "sessions_opened";
      "reaped_connections";
      "reaped_sessions";
    ]

let shutdown srv conns listeners workers =
  Admission.close srv.queue;
  (* In-flight work must not pin shutdown: expire every live deadline so
     cooperative checkpoints release their domains promptly. *)
  Hashtbl.iter
    (fun _ conn ->
      Hashtbl.iter
        (fun _ tok -> Cancel.cancel ~reason:"server shutting down" tok)
        conn.cancels)
    conns;
  List.iter
    (fun job ->
      push_completion srv
        {
          cconn = job.jconn;
          cid = job.jid;
          creply =
            error_reply ~id:job.jid ~verb:job.jreq.verb ~status:"shutting-down"
              "daemon is shutting down";
        })
    (Admission.drain srv.queue);
  List.iter Domain.join workers;
  drain_completions srv conns;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  (* Best-effort flush of the goodbyes, bounded so a dead peer cannot hang
     the exit. Real time on purpose: a chaos-skewed clock must not stretch
     the shutdown window. *)
  let give_up = Unix.gettimeofday () +. 2.0 in
  let rec flush_all () =
    let waiting =
      Hashtbl.fold
        (fun _ c acc -> if pending_output c then c :: acc else acc)
        conns []
    in
    if waiting <> [] && Unix.gettimeofday () < give_up then begin
      (match
         Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.1
       with
      | _, ws, _ ->
        List.iter
          (fun fd ->
            match
              Hashtbl.fold
                (fun _ c acc -> if c.fd = fd then Some c else acc)
                conns None
            with
            | Some c -> flush_conn srv conns c
            | None -> ())
          ws
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      flush_all ()
    end
  in
  flush_all ();
  Hashtbl.iter
    (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  (try Unix.unlink srv.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ())

let serve srv listeners =
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 32 in
  let next_key = ref 0 in
  let workers =
    List.init srv.cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop srv))
  in
  let last_sweep = ref (now srv) in
  let rec loop () =
    if Atomic.get srv.stop then shutdown srv conns listeners workers
    else begin
      let conn_fds = Hashtbl.fold (fun _ c acc -> c.fd :: acc) conns [] in
      let rds = (srv.wake_r :: listeners) @ conn_fds in
      let wrs =
        Hashtbl.fold
          (fun _ c acc -> if pending_output c then c.fd :: acc else acc)
          conns []
      in
      (match Unix.select rds wrs [] 1.0 with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, writable, _ ->
        if List.mem srv.wake_r readable then drain_completions srv conns;
        List.iter
          (fun lfd ->
            if List.mem lfd readable then accept_conn srv conns next_key lfd)
          listeners;
        let by_fd fd =
          Hashtbl.fold
            (fun _ c acc -> if c.fd = fd then Some c else acc)
            conns None
        in
        List.iter
          (fun fd ->
            if fd <> srv.wake_r && not (List.mem fd listeners) then
              match by_fd fd with
              | Some conn -> handle_readable srv conns conn
              | None -> ())
          readable;
        List.iter
          (fun fd ->
            match by_fd fd with
            | Some conn -> flush_conn srv conns conn
            | None -> ())
          writable);
      (* Completions may have landed while we were busy; pick them up even
         if the wake byte raced the select call. *)
      drain_completions srv conns;
      Hashtbl.iter (fun _ c -> if pending_output c then flush_conn srv conns c) conns;
      let now = now srv in
      if Float.abs (now -. !last_sweep) >= 1.0 then begin
        last_sweep := now;
        (* Slow-loris defence: a connection that has held a partial frame
           longer than the frame deadline is answered bad-request and
           closed — it must not pin a slot until the (much longer) idle
           reaper fires. Runs before the idle sweep so the reply is queued
           while the connection is still live. *)
        let stuck =
          Hashtbl.fold
            (fun _ c acc ->
              match c.frame_started with
              | Some t0 when (not c.closing) && now -. t0 > srv.cfg.frame_deadline_s ->
                c :: acc
              | _ -> acc)
            conns []
        in
        List.iter
          (fun c ->
            Obs.incr "serve.frame_timeouts";
            send c
              (error_reply ~id:0 ~verb:"?" ~status:"bad-request"
                 (Printf.sprintf "frame not completed within %.0f s"
                    srv.cfg.frame_deadline_s));
            c.frame_started <- None;
            c.closing <- true)
          stuck;
        let idle =
          Hashtbl.fold
            (fun _ c acc ->
              if
                c.in_flight = 0
                && (not (pending_output c))
                && now -. c.last_activity > srv.cfg.idle_timeout_s
              then c :: acc
              else acc)
            conns []
        in
        List.iter
          (fun c ->
            Obs.incr "serve.reaped_connections";
            drop_conn conns c ~reason:"idle")
          idle;
        let reaped = Session.reap_idle srv.deps.Handler.sessions ~now in
        if reaped > 0 then Obs.incr ~by:reaped "serve.reaped_sessions"
      end;
      loop ()
    end
  in
  loop ()

let run ?stop cfg =
  if cfg.workers < 1 then Error "serve: need at least one worker"
  else if cfg.queue_capacity < 0 then Error "serve: negative queue capacity"
  else begin
    if not (Obs.enabled ()) then Obs.enable ();
    register_counters ();
    match
      let unix_fd = listen_unix cfg.socket in
      let listeners =
        match cfg.tcp_port with
        | None -> [ unix_fd ]
        | Some p -> (
          match listen_tcp p with
          | tcp -> [ unix_fd; tcp ]
          | exception e ->
            (try Unix.close unix_fd with Unix.Unix_error _ -> ());
            (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
            raise e)
      in
      listeners
    with
    | exception Failure e -> Error e
    | exception Unix.Unix_error (err, fn, arg) ->
      Error
        (Printf.sprintf "serve: %s(%s): %s" fn arg (Unix.error_message err))
    | listeners ->
      (* An embedded daemon (tests, [ermes chaos]) stays quiet: its stderr
         belongs to the harness running it. *)
      if stop = None then
        Printf.eprintf "ermes serve: listening on %s%s\n%!" cfg.socket
          (match cfg.tcp_port with
          | None -> ""
          | Some p -> Printf.sprintf " and 127.0.0.1:%d" p);
      let wake_r, wake_w = Unix.pipe () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      let srv =
        {
          cfg;
          deps =
            {
              Handler.cache = Cache.create ~capacity:cfg.cache_capacity;
              sessions =
                Session.create_table ~max_per_client:cfg.session_cap
                  ~ttl_s:cfg.session_ttl_s ~clock:cfg.io.Chaos.Io.clock ();
              rounds = cfg.rounds;
            };
          queue = Admission.create ~capacity:cfg.queue_capacity;
          comp_lock = Mutex.create ();
          completions = Queue.create ();
          wake_r;
          wake_w;
          live_workers = Atomic.make cfg.workers;
          crashes = Atomic.make 0;
          stop = (match stop with Some s -> s | None -> Atomic.make false);
          started = cfg.io.Chaos.Io.clock ();
        }
      in
      (* With an external [stop] handle the caller owns lifecycle (an
         embedded daemon — e.g. under an [ermes chaos] campaign) and the
         process's signal dispositions are not ours to change; SIGPIPE
         stays ignored either way, dead peers are an I/O error, not a
         signal. *)
      (match stop with
      | Some _ -> ()
      | None ->
        let request_stop _ = Atomic.set srv.stop true in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop));
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      serve srv listeners;
      (try Unix.close wake_r with Unix.Unix_error _ -> ());
      (try Unix.close wake_w with Unix.Unix_error _ -> ());
      Ok ()
  end
