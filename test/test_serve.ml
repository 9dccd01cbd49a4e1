(* The serving layer, minus the sockets: wire codec, admission queue, warm
   cache, and incremental sessions.

   Anchor properties: the codec's canonical rendering is a fixpoint of
   parse∘print; the admission queue admits exactly [capacity] items beyond
   the consumers and computes its retry hints deterministically; a session
   re-analysis agrees with a fresh analysis of the same design on every
   path (warm, rebuilt, fresh). The daemon end-to-end (real sockets, real
   worker domains) is exercised by test/serve.t and the CI serve-smoke
   job. *)

module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module Perf = Ermes_core.Perf
module Ratio = Ermes_tmg.Ratio
module Incremental = Ermes_core.Incremental
module Supervise = Ermes_runtime.Supervise
module Cancel = Supervise.Cancel
module Proto = Ermes_serve.Proto
module Admission = Ermes_serve.Admission
module Cache = Ermes_serve.Cache
module Session = Ermes_serve.Session
module Server = Ermes_serve.Server
module Client = Ermes_serve.Client
module Handler = Ermes_serve.Handler
module Batch = Ermes_runtime.Batch
module Motivating = Ermes_support.Motivating

let contains = Astring_contains.contains

(* ---- JSON codec ----------------------------------------------------------- *)

(* A bounded random JSON document. Strings draw from printables plus the
   characters the escaper must handle; floats stay finite. *)
let json_gen =
  QCheck2.Gen.(
    let str_g =
      map
        (fun cs -> String.concat "" cs)
        (list_size (int_range 0 12)
           (oneofl [ "a"; "\""; "\\"; "\n"; "\t"; "/"; "é"; " "; "{"; "0" ]))
    in
    let scalar =
      oneof
        [
          return Proto.Null;
          map (fun b -> Proto.Bool b) bool;
          map (fun i -> Proto.Int i) (int_range (-1_000_000) 1_000_000);
          map (fun f -> Proto.Float f) (float_range (-1e9) 1e9);
          map (fun s -> Proto.Str s) str_g;
        ]
    in
    let rec doc depth =
      if depth = 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun xs -> Proto.Arr xs) (list_size (int_range 0 4) (doc (depth - 1)));
            map
              (fun kvs -> Proto.Obj kvs)
              (list_size (int_range 0 4) (pair str_g (doc (depth - 1))));
          ]
    in
    doc 3)

(* Canonical rendering is a fixpoint: parse it back, print again, get the
   same bytes. (Structural equality would be too strong for floats — the
   fixpoint is the actual contract the cache and the tests rely on.) *)
let prop_codec_fixpoint j =
  let s = Proto.to_string j in
  match Proto.of_string s with
  | Error e -> QCheck2.Test.fail_reportf "reparse failed on %s: %s" s e
  | Ok j' -> String.equal s (Proto.to_string j')

let test_codec_fixpoint =
  Helpers.qtest ~count:500 "to_string is a parse fixpoint" json_gen
    prop_codec_fixpoint

(* Non-float documents round-trip structurally, not just textually. *)
let rec no_floats = function
  | Proto.Float _ -> false
  | Proto.Arr xs -> List.for_all no_floats xs
  | Proto.Obj kvs -> List.for_all (fun (_, v) -> no_floats v) kvs
  | _ -> true

let prop_codec_structural j =
  QCheck2.assume (no_floats j);
  match Proto.of_string (Proto.to_string j) with
  | Ok j' -> j = j'
  | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s" e

let test_codec_structural =
  Helpers.qtest ~count:500 "non-float documents round-trip structurally"
    json_gen prop_codec_structural

let test_codec_rejects_nonfinite () =
  List.iter
    (fun f ->
      match Proto.to_string (Proto.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "rendered non-finite float as %s" s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_codec_parse_errors () =
  List.iter
    (fun s ->
      match Proto.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* Proto.of_string on a document that is one string, as it stood when its
   string decoder copied one byte at a time: the reference the run-blitting
   decoder must match, value and error text alike. *)
let per_byte_string_document text =
  let n = String.length text in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let parse_string () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then failwith "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then failwith "unterminated escape";
        let e = text.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then failwith "truncated \\u escape";
          let hex = String.sub text !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x100 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> failwith "non-latin1 \\u escape unsupported"
          | None -> failwith "bad \\u escape")
        | c -> failwith (Printf.sprintf "bad escape \\%c" c));
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  match
    skip_ws ();
    if !pos >= n || text.[!pos] <> '"' then invalid_arg "not a string document";
    incr pos;
    let s = parse_string () in
    skip_ws ();
    if !pos <> n then failwith "trailing garbage";
    s
  with
  | s -> Ok (Proto.Str s)
  | exception Failure m -> Error m

(* String documents built from pieces that hit every branch of the string
   decoder: plain runs, quotes, each escape, \u with good and bad hex,
   high and control bytes; closed or not, with or without trailing bytes.
   Half are canonical renderings of random strings. *)
let string_document_gen =
  QCheck2.Gen.(
    let piece =
      oneof
        [
          string_size ~gen:(char_range 'a' 'z') (int_range 1 20);
          oneofl
            [ "\""; "\\"; "\\\""; "\\\\"; "\\/"; "\\n"; "\\t"; "\\r"; "\\b"; "\\f"; "\\q";
              "\\u00e9"; "\\u0041"; "\\u20ac"; "\\u00_4"; "\\uzz12"; "\\u12"; "\\u";
              "\xe9"; "\x01"; " "; "\n"; "{"; "é" ];
        ]
    in
    let raw =
      map
        (fun (lead, pieces, close, tail) ->
          lead ^ "\"" ^ String.concat "" pieces ^ (if close then "\"" else "") ^ tail)
        (quad (oneofl [ ""; " "; "\n\t" ]) (list_size (int_range 0 12) piece) bool
           (oneofl [ ""; " "; "\r\n"; "x"; ",1"; "\"" ]))
    in
    let canonical =
      map (fun s -> Proto.to_string (Proto.Str s)) (string_size ~gen:char (int_range 0 40))
    in
    oneof [ raw; canonical ])

let prop_string_decoder_matches_per_byte text =
  Proto.of_string text = per_byte_string_document text

let test_string_decoder =
  Helpers.qtest ~count:2000 "string decoder equals the per-byte reference"
    string_document_gen prop_string_decoder_matches_per_byte

(* Frames fed to the decoder in arbitrary chunk sizes come back whole and
   in order. *)
let prop_decoder_chunking (payloads, cuts) =
  let payloads = List.map Proto.to_string payloads in
  let stream = String.concat "" (List.map Proto.frame payloads) in
  let dec = Proto.decoder () in
  let out = ref [] in
  let drain () =
    let rec go () =
      match Proto.next dec with
      | Ok (Some p) ->
        out := p :: !out;
        go ()
      | Ok None -> ()
      | Error e -> QCheck2.Test.fail_reportf "decoder error: %s" e
    in
    go ()
  in
  let n = String.length stream in
  let pos = ref 0 in
  List.iter
    (fun cut ->
      if !pos < n then begin
        let len = 1 + (cut mod max 1 (n - !pos)) in
        let len = min len (n - !pos) in
        Proto.feed dec (Bytes.of_string (String.sub stream !pos len)) len;
        pos := !pos + len;
        drain ()
      end)
    cuts;
  if !pos < n then begin
    Proto.feed dec (Bytes.of_string (String.sub stream !pos (n - !pos))) (n - !pos);
    drain ()
  end;
  List.rev !out = payloads && Proto.buffered dec = 0

let test_decoder_chunking =
  Helpers.qtest ~count:300 "decoder reassembles frames across any chunking"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 5) json_gen)
        (list_size (int_range 1 40) (int_range 1 64)))
    prop_decoder_chunking

let test_decoder_poisons_on_bad_prefix () =
  let dec = Proto.decoder () in
  let junk = "not-a-length\n{}" in
  Proto.feed dec (Bytes.of_string junk) (String.length junk);
  (match Proto.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a junk length prefix");
  (* Poisoned: even valid bytes afterwards never produce a frame. *)
  let good = Proto.frame "{}" in
  Proto.feed dec (Bytes.of_string good) (String.length good);
  match Proto.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder recovered after poisoning"

let test_decoder_rejects_oversized () =
  let dec = Proto.decoder () in
  let huge = Printf.sprintf "%d\n" (Proto.max_frame_bytes () + 1) in
  Proto.feed dec (Bytes.of_string huge) (String.length huge);
  match Proto.next dec with
  | Error e ->
    Alcotest.(check bool) "mentions the limit" true (contains e "frame")
  | Ok _ -> Alcotest.fail "accepted an oversized frame length"

let test_parse_request () =
  (match Proto.parse_request {|{"id":7,"verb":"analyze","design":"x"}|} with
  | Ok r ->
    Alcotest.(check int) "id" 7 r.Proto.id;
    Alcotest.(check string) "verb" "analyze" r.Proto.verb
  | Error e -> Alcotest.failf "rejected a valid request: %s" e);
  List.iter
    (fun s ->
      match Proto.parse_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ {|{"verb":"analyze"}|}; {|{"id":1}|}; {|[1,2]|}; {|{"id":"x","verb":"v"}|} ]

let test_status_codes () =
  List.iter
    (fun (status, code) ->
      Alcotest.(check int) status code (Proto.code_of_status status))
    [
      ("ok", 0);
      ("bad-request", 1);
      ("invalid", 1);
      ("findings", 2);
      ("deadlock", 2);
      ("crash", 2);
      ("timeout", 3);
      ("overloaded", 3);
      ("client-cap", 3);
      ("degraded", 3);
      ("shutting-down", 3);
      ("never-heard-of-it", 1);
    ]

(* ---- admission queue ------------------------------------------------------ *)

(* With no consumer, exactly [capacity] items are admitted; every rejection
   carries the deterministic hint for the depth it observed. *)
let prop_admission_bounds (capacity, pushes) =
  let q = Admission.create ~capacity in
  let ok = ref true in
  List.iteri
    (fun i x ->
      match Admission.try_enqueue q x with
      | Admission.Admitted depth ->
        if i >= capacity || depth <> i + 1 then ok := false
      | Admission.Rejected { depth; retry_after_ms } ->
        if i < capacity then ok := false;
        if depth <> capacity then ok := false;
        if retry_after_ms <> Admission.retry_after_ms ~capacity ~depth then
          ok := false
      | Admission.Closed -> ok := false)
    pushes;
  (* FIFO: what was admitted comes out in push order. *)
  let admitted = ref [] in
  Admission.close q;
  let rec drain () =
    match Admission.dequeue q with
    | Some x ->
      admitted := x :: !admitted;
      drain ()
    | None -> ()
  in
  drain ();
  !ok
  && List.rev !admitted
     = List.filteri (fun i _ -> i < capacity) pushes

let test_admission_bounds =
  Helpers.qtest ~count:300 "admission bound + deterministic retry hints"
    QCheck2.Gen.(
      pair (int_range 0 8) (list_size (int_range 0 24) (int_range 0 1000)))
    prop_admission_bounds

let test_retry_hint_formula () =
  Alcotest.(check int) "depth 0" 25 (Admission.retry_after_ms ~capacity:4 ~depth:0);
  Alcotest.(check int) "depth 3" 100 (Admission.retry_after_ms ~capacity:4 ~depth:3);
  Alcotest.(check int) "capped" 5000
    (Admission.retry_after_ms ~capacity:1000 ~depth:999)

let test_admission_close () =
  let q = Admission.create ~capacity:4 in
  (match Admission.try_enqueue q 1 with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "first enqueue refused");
  Admission.close q;
  (match Admission.try_enqueue q 2 with
  | Admission.Closed -> ()
  | _ -> Alcotest.fail "enqueue after close not Closed");
  Alcotest.(check (list int)) "drain returns the backlog" [ 1 ] (Admission.drain q);
  Alcotest.(check bool) "dequeue after close+drain" true
    (Admission.dequeue q = None)

(* A blocked consumer wakes on close, and every item is consumed exactly
   once across two consumer domains. *)
let test_admission_concurrent () =
  let q = Admission.create ~capacity:64 in
  let seen = Atomic.make 0 in
  let consumer () =
    let rec go acc =
      match Admission.dequeue q with
      | Some x -> go (acc + x)
      | None ->
        ignore (Atomic.fetch_and_add seen acc);
        ()
    in
    go 0
  in
  let d1 = Domain.spawn consumer and d2 = Domain.spawn consumer in
  let total = ref 0 in
  for i = 1 to 50 do
    match Admission.try_enqueue q i with
    | Admission.Admitted _ -> total := !total + i
    | Admission.Rejected _ | Admission.Closed -> ()
  done;
  Admission.close q;
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "every admitted item consumed once" !total
    (Atomic.get seen)

(* ---- warm cache ----------------------------------------------------------- *)

let test_cache_bounds_and_stats () =
  let c = Cache.create ~capacity:4 in
  for i = 0 to 9 do
    Cache.add c (string_of_int i) i
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "size bounded" 4 s.Cache.size;
  Alcotest.(check int) "evictions" 6 s.Cache.evictions;
  Alcotest.(check bool) "newest present" true (Cache.find c "9" = Some 9);
  Alcotest.(check bool) "oldest evicted" true (Cache.find c "0" = None);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses

let test_cache_lru_recency () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  ignore (Cache.find c "a");
  Cache.add c "c" 3;
  (* "b" was the least recently used, so it is the victim. *)
  Alcotest.(check bool) "a survives" true (Cache.find c "a" = Some 1);
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "c present" true (Cache.find c "c" = Some 3)

let test_cache_key_is_content_hash () =
  let k1 = Cache.key_of_canonical "system a\n"
  and k2 = Cache.key_of_canonical "system a\n"
  and k3 = Cache.key_of_canonical "system b\n" in
  Alcotest.(check string) "same text, same key" k1 k2;
  Alcotest.(check bool) "different text, different key" true (k1 <> k3)

(* ---- sessions ------------------------------------------------------------- *)

(* Deep copy through the canonical text — exactly what the daemon does when
   a client resubmits a design. *)
let copy_sys sys =
  match Soc_format.parse (Soc_format.print sys) with
  | Ok s -> s
  | Error e -> Alcotest.failf "canonical text did not reparse: %s" e

let session_agrees (o : Session.outcome) sys =
  let fresh = Perf.analyze sys in
  match (o.Session.certified.Incremental.outcome, fresh) with
  | Ok a, Ok b -> Ratio.equal a.Perf.cycle_time b.Perf.cycle_time
  | Error _, Error _ -> true
  | _ -> false

let apply_mutation sys (which, kind, detail) =
  let procs = Array.of_list (System.processes sys) in
  let p = procs.(which mod Array.length procs) in
  match kind mod 3 with
  | 0 ->
    let n = Array.length (System.impls sys p) in
    System.select sys p (detail mod n)
  | 1 -> (
    match System.get_order sys p with
    | a :: b :: rest when detail mod 2 = 0 -> System.set_get_order sys p (b :: a :: rest)
    | _ -> ())
  | _ -> (
    match System.put_order sys p with
    | a :: b :: rest when detail mod 2 = 0 -> System.set_put_order sys p (b :: a :: rest)
    | _ -> ())

let clock = Unix.gettimeofday

let prop_session_equiv (sys, script) =
  let table = Session.create_table ~clock () in
  match Session.open_ table ~client:"t" ~name:"s" (copy_sys sys) with
  | Error e -> QCheck2.Test.fail_reportf "open failed: %s" e
  | Ok first ->
    first.Session.path = Session.Fresh
    && session_agrees first sys
    && List.for_all
         (fun mutation ->
           apply_mutation sys mutation;
           match Session.reanalyze table ~client:"t" ~name:"s" (copy_sys sys) with
           | Error e -> QCheck2.Test.fail_reportf "reanalyze failed: %s" e
           | Ok o ->
             (* Selection and order edits keep the held structure: the warm
                path must serve them, and agree with a fresh analysis. *)
             o.Session.path = Session.Warm && session_agrees o sys)
         script

let mutations_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (triple (int_range 0 1_000_000) (int_range 0 1_000_000) (int_range 0 1_000_000)))

let test_session_equiv =
  Helpers.qtest ~count:60 "session re-analysis == fresh analysis (warm path)"
    QCheck2.Gen.(pair Helpers.feedback_system_gen mutations_gen)
    prop_session_equiv

(* A different structure must take the rebuild path — and still agree. *)
let prop_session_rebuild (sys_a, sys_b) =
  QCheck2.assume
    (Soc_format.print sys_a <> Soc_format.print sys_b);
  let table = Session.create_table ~clock () in
  match Session.open_ table ~client:"t" ~name:"s" (copy_sys sys_a) with
  | Error e -> QCheck2.Test.fail_reportf "open failed: %s" e
  | Ok _ -> (
    match Session.reanalyze table ~client:"t" ~name:"s" (copy_sys sys_b) with
    | Error e -> QCheck2.Test.fail_reportf "reanalyze failed: %s" e
    | Ok o ->
      (* Same shape (a pure selection/order diff) warms; anything else must
         rebuild. Either way the verdict matches a fresh analysis. *)
      session_agrees o sys_b)

let test_session_rebuild =
  Helpers.qtest ~count:40 "session re-analysis == fresh analysis (any path)"
    QCheck2.Gen.(pair Helpers.feedback_system_gen Helpers.dag_system_gen)
    prop_session_rebuild

let test_session_cap_and_close () =
  let table = Session.create_table ~max_per_client:2 ~clock () in
  let sys () = copy_sys (Ermes_support.Motivating.system ()) in
  (match Session.open_ table ~client:"c" ~name:"a" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "open a: %s" e);
  (match Session.open_ table ~client:"c" ~name:"b" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "open b: %s" e);
  (match Session.open_ table ~client:"c" ~name:"c" (sys ()) with
  | Error e -> Alcotest.(check bool) "cap message" true (contains e "cap")
  | Ok _ -> Alcotest.fail "third session admitted past the cap");
  (* Re-opening an existing name replaces, never counts against the cap. *)
  (match Session.open_ table ~client:"c" ~name:"a" (sys ()) with
  | Ok o -> Alcotest.(check bool) "replacement is fresh" true (o.Session.path = Session.Fresh)
  | Error e -> Alcotest.failf "reopen a: %s" e);
  (* Another client has its own budget. *)
  (match Session.open_ table ~client:"d" ~name:"a" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "other client: %s" e);
  Alcotest.(check bool) "close existing" true (Session.close table ~client:"c" ~name:"a");
  Alcotest.(check bool) "close missing" false (Session.close table ~client:"c" ~name:"a");
  Alcotest.(check int) "close_client drops the rest" 1
    (Session.close_client table ~client:"c");
  Alcotest.(check int) "one session left" 1 (Session.count table)

let test_session_reap_idle () =
  let now = ref 0. in
  let table = Session.create_table ~ttl_s:10. ~clock:(fun () -> !now) () in
  let sys () = copy_sys (Ermes_support.Motivating.system ()) in
  ignore (Session.open_ table ~client:"c" ~name:"old" (sys ()));
  now := 100.;
  ignore (Session.open_ table ~client:"c" ~name:"new" (sys ()));
  Alcotest.(check int) "reaps only the stale one" 1
    (Session.reap_idle table ~now:!now);
  Alcotest.(check int) "survivor" 1 (Session.count table);
  (match Session.reanalyze table ~client:"c" ~name:"new" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "survivor unusable: %s" e);
  match Session.reanalyze table ~client:"c" ~name:"old" (sys ()) with
  | Error e -> Alcotest.(check bool) "names the session" true (contains e "old")
  | Ok _ -> Alcotest.fail "reaped session still served"

(* ---- deadline classification ---------------------------------------------- *)

(* An expired token surfaces as Timed_out from Supervise.attempt — the
   taxonomy the daemon's replies are built on — and is never retried. *)
let test_deadline_classified_timed_out () =
  let now = ref 0. in
  let token = Cancel.make ~deadline_s:5. ~clock:(fun () -> !now) () in
  let attempts = ref 0 in
  let outcome =
    Supervise.attempt
      ~policy:{ Supervise.default_policy with Supervise.clock = (fun () -> !now) }
      (fun () ->
        incr attempts;
        now := 10.;
        Cancel.check token;
        "unreachable")
  in
  (match outcome with
  | Supervise.Timed_out { attempts = a; _ } -> Alcotest.(check int) "attempts" 1 a
  | _ -> Alcotest.fail "expired deadline not classified Timed_out");
  Alcotest.(check int) "no retry" 1 !attempts

let test_explicit_cancel_classified_timed_out () =
  let token = Cancel.make () in
  Cancel.cancel ~reason:"client disconnected" token;
  match Supervise.attempt (fun () -> Cancel.check token) with
  | Supervise.Timed_out _ -> ()
  | _ -> Alcotest.fail "explicit cancel not classified Timed_out"

(* ---- the batch verb ------------------------------------------------------- *)

(* The daemon's batch verb and [ermes batch] give every job the same verdict:
   each action on a healthy, a deadlocking, an unparsable and a self-loop
   design, inline for the verb and from files for [Batch.run]. *)
let test_batch_verb_agrees () =
  let designs =
    [
      ("healthy", Soc_format.print (Motivating.suboptimal ()));
      ("deadlocking", Soc_format.print (Motivating.deadlocking ()));
      ("unparsable", "this is not a soc file\n");
      ( "self-loop",
        "system selfloop\nprocess a impl only latency 1 area 0.1\n\
         process b impl only latency 2 area 0.1\nchannel ab a b latency 1\n\
         channel bb b b latency 1\n" );
    ]
  in
  let cases =
    List.concat_map
      (fun (d, text) -> List.map (fun a -> (d, text, a)) Batch.[ Analyze; Lint; Simulate ])
      designs
  in
  let files =
    List.map
      (fun (_, text, _) ->
        let path = Filename.temp_file "ermes_serve" ".soc" in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
        path)
      cases
  in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove files) @@ fun () ->
  let report =
    Batch.run ~rounds:64
      (List.map2
         (fun file (_, _, action) -> { Batch.file; action; inject = Batch.No_inject })
         files cases)
  in
  let deps =
    {
      Handler.cache = Cache.create ~capacity:4;
      sessions = Session.create_table ~clock:Unix.gettimeofday ();
      rounds = 64;
    }
  in
  let jobs =
    List.map
      (fun (_, text, a) ->
        Proto.Obj [ ("action", Proto.Str (Batch.action_name a)); ("design", Proto.Str text) ])
      cases
  in
  let body = Proto.Obj [ ("jobs", Proto.Arr jobs) ] in
  let reply =
    Handler.execute deps ~cancel:(Cancel.make ()) ~attempts:(ref 0) ~client:"t"
      { Proto.id = 1; verb = "batch"; body }
  in
  let items =
    match Proto.member "jobs" reply with
    | Some (Proto.Arr items) -> items
    | _ -> Alcotest.failf "no jobs in %s" (Proto.to_string reply)
  in
  Alcotest.(check int) "one item a job" (List.length cases) (List.length items);
  List.iter2
    (fun ((d, _, a), item) (jr : Batch.job_report) ->
      let a = Batch.action_name a in
      let want =
        match jr.Batch.status with
        | Batch.Job_ok detail -> ("ok", None, detail)
        | Batch.Job_failed { category; detail } -> ("failed", Some category, detail)
        | s -> Alcotest.failf "%s %s: Batch.run says %s" a d (Batch.status_name s)
      in
      let field k = Option.value ~default:"" (Proto.str_member k item) in
      Alcotest.(check (triple string (option string) string))
        (Printf.sprintf "%s on the %s design" a d)
        want
        (field "status", Proto.str_member "category" item, field "detail"))
    (List.combine cases items) report.Batch.results

(* A session reply carries the cold analyze verdict's fields, for a live and
   a deadlocking design alike; only the per-verb bookkeeping differs. *)
let test_session_reply_matches_cold () =
  let deps =
    {
      Handler.cache = Cache.create ~capacity:4;
      sessions = Session.create_table ~clock:Unix.gettimeofday ();
      rounds = 64;
    }
  in
  let call verb body =
    match
      Handler.execute deps ~cancel:(Cancel.make ()) ~attempts:(ref 0) ~client:"t"
        { Proto.id = 1; verb; body = Proto.Obj body }
    with
    | Proto.Obj fields ->
      List.filter
        (fun (k, _) ->
          not (List.mem k [ "verb"; "session"; "path"; "edits"; "design_hash"; "cached" ]))
        fields
    | j -> Alcotest.failf "%s: not an object: %s" verb (Proto.to_string j)
  in
  List.iter
    (fun (name, sys) ->
      let design = ("design", Proto.Str (Soc_format.print sys)) in
      let cold = call "analyze" [ design ] in
      let session = call "session-open" [ design; ("session", Proto.Str name) ] in
      Alcotest.(check string)
        (name ^ ": session-open reply")
        (Proto.to_string (Proto.Obj cold))
        (Proto.to_string (Proto.Obj session)))
    [ ("live", Motivating.suboptimal ()); ("deadlocking", Motivating.deadlocking ()) ]

(* ---- frame-read deadline --------------------------------------------------- *)

(* [Proto.pending] is what the server's slow-loris deadline keys off: true
   exactly while a frame is partially buffered on a healthy decoder. *)
let test_proto_pending () =
  let d = Proto.decoder () in
  let feed s = Proto.feed d (Bytes.of_string s) (String.length s) in
  Alcotest.(check bool) "fresh" false (Proto.pending d);
  feed "5";
  Alcotest.(check bool) "partial length prefix" true (Proto.pending d);
  feed "\nab";
  (match Proto.next d with Ok None -> () | _ -> Alcotest.fail "frame early");
  Alcotest.(check bool) "partial payload" true (Proto.pending d);
  feed "cde";
  (match Proto.next d with
  | Ok (Some "abcde") -> ()
  | _ -> Alcotest.fail "frame not decoded");
  Alcotest.(check bool) "drained" false (Proto.pending d);
  feed "bogus!\n";
  (match Proto.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad prefix not poisoned");
  Alcotest.(check bool) "poisoned is not pending" false (Proto.pending d)

(* The daemon end to end, embedded via [?stop]: a slow-loris connection
   holding a half-frame open is answered bad-request and closed within the
   frame deadline — long before the idle reaper — while a well-behaved
   connection on the same daemon keeps being served. *)
let test_frame_deadline_end_to_end () =
  let dir = Filename.temp_file "ermes_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let stop = Atomic.make false in
  let cfg =
    {
      (Server.default_config ~socket) with
      Server.workers = 1;
      frame_deadline_s = 0.5;
    }
  in
  let dom = Domain.spawn (fun () -> Server.run ~stop cfg) in
  let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e in
  let connect retries = ok "connect" (Client.connect ~retries ~timeout_s:20. socket) in
  let send c payload = ok "send" (Client.send c payload) in
  let recv c =
    match Client.recv c with
    | Ok p -> p
    | Error (Client.Bad_frame e) -> Alcotest.failf "bad frame from daemon: %s" e
    | Error Client.Closed -> Alcotest.fail "connection closed before a reply"
    | Error Client.Timed_out -> Alcotest.fail "no reply within 20 s"
    | Error (Client.Io e) -> Alcotest.failf "recv: %s" e
  in
  let status payload =
    match Proto.of_string payload with
    | Ok j -> Proto.str_member "status" j
    | Error e -> Alcotest.failf "unparseable reply: %s" e
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join dom : (unit, string) result);
      (try Sys.remove socket with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let loris = connect 100 in
      ok "send" (Client.send_raw loris "64\n{\"half");
      let good = connect 5 in
      send good (Proto.to_string (Proto.hello_request ~client:"t"));
      Alcotest.(check (option string)) "hello ok" (Some "ok") (status (recv good));
      let reply = recv loris in
      Alcotest.(check (option string)) "loris cut with bad-request"
        (Some "bad-request") (status reply);
      (match Proto.of_string reply with
      | Ok j ->
        Alcotest.(check bool) "names the frame deadline" true
          (match Proto.str_member "error" j with
          | Some e -> contains e "frame"
          | None -> false)
      | Error e -> Alcotest.fail e);
      (let rec eof () = match Client.recv loris with Ok _ -> eof () | Error _ -> () in
       eof ());
      send good
        (Proto.to_string
           (Proto.Obj [ ("id", Proto.Int 1); ("verb", Proto.Str "ping") ]));
      Alcotest.(check (option string)) "good client still served" (Some "ok")
        (status (recv good));
      Client.close loris;
      Client.close good)

(* Every way a daemon can fail a client comes back as a value, which is what
   lets [ermes call] and the chaos campaign word and exit on each their own
   way: a missing socket, a peer that never answers, a peer that sends a
   malformed frame, a peer that hangs up. *)
let test_client_failures () =
  let dir = Filename.temp_file "ermes_client" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "c.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      (try Sys.remove path with Sys_error _ -> ());
      Unix.rmdir dir)
    (fun () ->
      Alcotest.(check bool) "missing socket" true
        (Result.is_error (Client.connect ~timeout_s:1. path));
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 4;
      (* [f client peer]: the client's connection and the accepted end *)
      let with_peer f =
        match Client.connect ~timeout_s:0.2 path with
        | Error e -> Alcotest.failf "connect: %s" e
        | Ok c ->
          let peer, _ = Unix.accept listener in
          Fun.protect
            ~finally:(fun () ->
              Client.close c;
              Unix.close peer)
            (fun () -> f c peer)
      in
      let failure = function
        | Ok p -> "reply " ^ p
        | Error Client.Closed -> "closed"
        | Error Client.Timed_out -> "timed out"
        | Error (Client.Bad_frame _) -> "bad frame"
        | Error (Client.Io e) -> "io " ^ e
      in
      with_peer (fun c _ ->
          Alcotest.(check string) "silent peer" "timed out" (failure (Client.recv c)));
      with_peer (fun c peer ->
          ignore (Unix.write_substring peer "bogus!\n" 0 7);
          Alcotest.(check string) "garbage" "bad frame" (failure (Client.recv c)));
      with_peer (fun c peer ->
          ignore (Unix.write_substring peer "5\nhel" 0 5);
          Unix.shutdown peer Unix.SHUTDOWN_SEND;
          Alcotest.(check string) "hang-up mid-frame" "closed" (failure (Client.recv c))))

(* ---- registration ---------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          test_codec_fixpoint;
          test_codec_structural;
          Alcotest.test_case "rejects non-finite floats" `Quick
            test_codec_rejects_nonfinite;
          Alcotest.test_case "parse errors" `Quick test_codec_parse_errors;
          test_string_decoder;
          test_decoder_chunking;
          Alcotest.test_case "poisons on bad prefix" `Quick
            test_decoder_poisons_on_bad_prefix;
          Alcotest.test_case "rejects oversized frames" `Quick
            test_decoder_rejects_oversized;
          Alcotest.test_case "parse_request" `Quick test_parse_request;
          Alcotest.test_case "status → exit-code map" `Quick test_status_codes;
        ] );
      ( "admission",
        [
          test_admission_bounds;
          Alcotest.test_case "retry hint formula" `Quick test_retry_hint_formula;
          Alcotest.test_case "close semantics" `Quick test_admission_close;
          Alcotest.test_case "concurrent consumers" `Quick
            test_admission_concurrent;
        ] );
      ( "cache",
        [
          Alcotest.test_case "bounds and stats" `Quick test_cache_bounds_and_stats;
          Alcotest.test_case "LRU respects recency" `Quick test_cache_lru_recency;
          Alcotest.test_case "content-hash keys" `Quick
            test_cache_key_is_content_hash;
        ] );
      ( "session",
        [
          test_session_equiv;
          test_session_rebuild;
          Alcotest.test_case "session reply matches cold analyze" `Quick
            test_session_reply_matches_cold;
          Alcotest.test_case "per-client cap, close, replace" `Quick
            test_session_cap_and_close;
          Alcotest.test_case "idle reap" `Quick test_session_reap_idle;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expiry classified Timed_out, no retry" `Quick
            test_deadline_classified_timed_out;
          Alcotest.test_case "explicit cancel classified Timed_out" `Quick
            test_explicit_cancel_classified_timed_out;
        ] );
      ( "frame deadline",
        [
          Alcotest.test_case "Proto.pending" `Quick test_proto_pending;
          Alcotest.test_case "slow-loris cut, good client served" `Quick
            test_frame_deadline_end_to_end;
        ] );
      ("client", [ Alcotest.test_case "failures are values" `Quick test_client_failures ]);
      ("batch", [ Alcotest.test_case "verb agrees with Batch.run" `Quick test_batch_verb_agrees ]);
    ]
