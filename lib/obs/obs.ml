(* A single nullable sink, registered globally. Disabled mode pays one
   atomic read and one branch per event; enabled mode serialises every
   recording under one mutex so worker domains can emit safely, and readers
   (a live metrics endpoint polling mid-campaign) take the same mutex, so a
   snapshot is internally consistent even while writers keep counting. *)

type event = { ev_name : string; tid : int; t0 : float; t1 : float }

(* Per-name span aggregate, updated as each span is recorded. *)
type agg = { mutable calls : int; mutable total : float; mutable max : float }

(* Retained events live in fixed-size chunks of parallel arrays: the times
   stay unboxed and nothing is copied as the store grows, so an event costs
   4 words where a list of [event] records cost 12. *)
let chunk_size = 4096

type chunk = { names : string array; tids : int array; times : float array (* t0, t1 *) }

type sink = {
  lock : Mutex.t;
  counters : (string, int) Hashtbl.t;
  spans : (string, agg) Hashtbl.t;
  mutable chunks : chunk list; (* newest first; the head is filling *)
  mutable n_events : int;
  epoch : float;
}

(* Keep pathological runs (a fuzzer spinning for hours) from eating the
   heap: past the cap we keep counting spans in [span_stats] via the
   aggregate table but stop retaining individual events. *)
let max_events = 1_000_000

let clock = ref Unix.gettimeofday
let set_clock f = clock := f

(* The publication point is an [Atomic]: domains other than the installer
   must observe a fully initialised sink (a plain [ref] would be a data race
   under the OCaml 5 memory model, with no ordering guarantee on the record
   fields behind it). *)
let sink : sink option Atomic.t = Atomic.make None

let enabled () = Option.is_some (Atomic.get sink)

let enable () =
  Atomic.set sink
    (Some
       {
         lock = Mutex.create ();
         counters = Hashtbl.create 64;
         spans = Hashtbl.create 16;
         chunks = [];
         n_events = 0;
         epoch = !clock ();
       })

let disable () = Atomic.set sink None

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let incr ?(by = 1) name =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
    locked s (fun () ->
        let v = Option.value ~default:0 (Hashtbl.find_opt s.counters name) in
        Hashtbl.replace s.counters name (v + by))

let counter name =
  match Atomic.get sink with
  | None -> 0
  | Some s ->
    locked s (fun () -> Option.value ~default:0 (Hashtbl.find_opt s.counters name))

let counters () =
  match Atomic.get sink with
  | None -> []
  | Some s ->
    locked s (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.counters [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let record s name tid t0 t1 =
  let d = t1 -. t0 in
  locked s (fun () ->
      (match Hashtbl.find_opt s.spans name with
      | Some a ->
        a.calls <- a.calls + 1;
        a.total <- a.total +. d;
        a.max <- Float.max a.max d
      | None -> Hashtbl.replace s.spans name { calls = 1; total = d; max = d });
      if s.n_events < max_events then begin
        let i = s.n_events mod chunk_size in
        if i = 0 then
          s.chunks <-
            {
              names = Array.make chunk_size "";
              tids = Array.make chunk_size 0;
              times = Array.make (2 * chunk_size) 0.;
            }
            :: s.chunks;
        let c = List.hd s.chunks in
        c.names.(i) <- name;
        c.tids.(i) <- tid;
        c.times.(2 * i) <- t0;
        c.times.((2 * i) + 1) <- t1;
        s.n_events <- s.n_events + 1
      end)

let span name f =
  match Atomic.get sink with
  | None -> f ()
  | Some s ->
    let t0 = !clock () in
    Fun.protect
      ~finally:(fun () -> record s name (Domain.self () :> int) t0 (!clock ()))
      f

(* The retained events, newest first. Called under the sink's lock. *)
let events s =
  let chunks = Array.of_list (List.rev s.chunks) in
  let acc = ref [] in
  for j = 0 to s.n_events - 1 do
    let c = chunks.(j / chunk_size) and i = j mod chunk_size in
    let t0 = c.times.(2 * i) and t1 = c.times.((2 * i) + 1) in
    acc := { ev_name = c.names.(i); tid = c.tids.(i); t0; t1 } :: !acc
  done;
  !acc

type span_stat = { span_name : string; calls : int; total_s : float; max_s : float }

type snapshot = { snap_counters : (string * int) list; snap_spans : span_stat list }

(* Counters and span aggregates are read under one lock acquisition, so the
   two halves agree with each other even while worker domains keep
   recording: every span present is counted, none is half-applied. *)
let snapshot () =
  match Atomic.get sink with
  | None -> { snap_counters = []; snap_spans = [] }
  | Some s ->
    let cs, spans =
      locked s (fun () ->
          ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.counters [],
            Hashtbl.fold
              (fun span_name (a : agg) acc ->
                { span_name; calls = a.calls; total_s = a.total; max_s = a.max } :: acc)
              s.spans [] ))
    in
    {
      snap_counters = List.sort (fun (a, _) (b, _) -> String.compare a b) cs;
      snap_spans = List.sort (fun a b -> String.compare a.span_name b.span_name) spans;
    }

let span_stats () = (snapshot ()).snap_spans

let summary () =
  let buf = Buffer.create 1024 in
  let snap = snapshot () in
  let cs = snap.snap_counters in
  Buffer.add_string buf "== counters ==\n";
  if cs = [] then Buffer.add_string buf "(none)\n"
  else begin
    let w =
      List.fold_left (fun acc (k, _) -> Stdlib.max acc (String.length k)) 0 cs
    in
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%-*s %d\n" w k v))
      cs
  end;
  let ss = snap.snap_spans in
  Buffer.add_string buf "== spans ==\n";
  if ss = [] then Buffer.add_string buf "(none)\n"
  else begin
    let w =
      List.fold_left (fun acc s -> Stdlib.max acc (String.length s.span_name)) 0 ss
    in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %8s %12s %12s\n" w "span" "calls" "total-ms" "max-ms");
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s %8d %12.3f %12.3f\n" w s.span_name s.calls
             (1000. *. s.total_s) (1000. *. s.max_s)))
      ss
  end;
  Buffer.contents buf

(* -- Chrome trace-event JSON ---------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_trace () =
  match Atomic.get sink with
  | None -> "{\"traceEvents\":[]}\n"
  | Some s ->
    (* One lock acquisition for events, counters and the epoch together:
       the exported trace is a consistent cut even mid-campaign. *)
    let events, cs, epoch =
      locked s (fun () ->
          ( events s,
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.counters []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b),
            s.epoch ))
    in
    let events =
      List.sort (fun a b -> Float.compare a.t0 b.t0) events
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let emit item =
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf "\n";
      Buffer.add_string buf item
    in
    let us t = (t -. epoch) *. 1e6 in
    List.iter
      (fun ev ->
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f}"
             (json_escape ev.ev_name) ev.tid (us ev.t0)
             (Float.max 0. (us ev.t1 -. us ev.t0))))
      events;
    List.iter
      (fun (k, v) ->
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"args\":{\"value\":%d}}"
             (json_escape k) (us (!clock ())) v))
      cs;
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

let write_chrome_trace file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))
