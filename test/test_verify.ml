(* The certificate checker as the last line of defense.

   Two directions are under test. Soundness of the toolchain: every
   certificate assembled from a solver outcome — cold, warm, or mid-way
   through an incremental session — must pass the independent checker.
   Skepticism of the checker: a certificate that was accepted must be
   rejected again after perturbing a single node potential on the witness
   cycle or substituting a single witness edge; a checker that cannot tell
   the difference proves nothing. *)

module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio
module Csr = Ermes_tmg.Csr
module Liveness = Ermes_tmg.Liveness
module System = Ermes_slm.System
module To_tmg = Ermes_slm.To_tmg
module Motivating = Ermes_support.Motivating
module Perf = Ermes_core.Perf
module Incremental = Ermes_core.Incremental
module Verify = Ermes_verify.Verify
module Lint = Ermes_core.Lint

(* Every check reads a fresh freeze of the net as it stands now. *)
let accepted tmg cert =
  match Verify.check_csr (Csr.of_tmg tmg) cert with
  | Ok () -> true
  | Error v ->
    Format.eprintf "unexpected rejection: %a@." Verify.pp_violation v;
    false

let rejected tmg cert = Result.is_error (Verify.check_csr (Csr.of_tmg tmg) cert)

(* Each solver's certificate, assembled on its own freeze. *)
let howard tmg = Verify.of_howard_csr (Csr.of_tmg tmg) (Csr.cycle_time tmg)

let lawler tmg =
  let g = Csr.of_tmg tmg in
  Verify.of_certified g (Csr.lawler_certified g)

(* Karp solves the unit-token problem: put the net on a unit marking. *)
let karp_unit tmg =
  List.iter (fun p -> Tmg.set_tokens tmg p 1) (Tmg.places tmg);
  let g = Csr.of_tmg tmg in
  Verify.of_certified g (Csr.karp_unit_certified g)

(* Like Helpers.build_tmg but without the make-it-live fixup, so deadlocked
   markings stay deadlocked and the Deadlocked/Live paths both get
   exercised. *)
let build_raw_tmg (delays, ring_tokens, chords) =
  let tmg = Tmg.create () in
  let ts = List.map (fun d -> Tmg.add_transition tmg ~delay:d ()) delays in
  let arr = Array.of_list ts in
  let n = Array.length arr in
  List.iteri
    (fun i tokens ->
      ignore (Tmg.add_place tmg ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens ()))
    ring_tokens;
  List.iter
    (fun (s, d, tokens) -> ignore (Tmg.add_place tmg ~src:arr.(s) ~dst:arr.(d) ~tokens ()))
    chords;
  tmg

let raw_tmg_gen = QCheck2.Gen.map build_raw_tmg Helpers.random_tmg_gen

(* ---- soundness: solver outputs check out -------------------------------- *)

let prop_howard_certified tmg = accepted tmg (howard tmg)
let prop_lawler_certified tmg = accepted tmg (lawler tmg)
let prop_karp_certified tmg = accepted tmg (karp_unit tmg)

let prop_liveness_certified tmg = accepted tmg (Verify.of_liveness tmg)

(* The verdicts of the certificates must match the solvers, not merely
   check out: a Bounded certificate on a deadlocked net would be caught by
   the ranks, but make sure the constructors picked the right variant. *)
let prop_certificate_variant tmg =
  let cert = howard tmg in
  match (cert, Liveness.find_dead_cycle tmg) with
  | Verify.Deadlocked _, Some _ -> accepted tmg cert
  | (Verify.Bounded _ | Verify.Acyclic _), None -> accepted tmg cert
  | _ -> false

(* ---- soundness under warm starts and incremental edits ------------------ *)

(* Mutate a system through a session, certifying after every step. The warm
   solver state and the in-place TMG edits must never leak into the proof:
   the certificate is always checked against the raw current net. *)
let prop_incremental_certified (sys, script) =
  let session = Incremental.create sys in
  List.for_all
    (fun (kind, which, detail) ->
      let procs = Array.of_list (System.processes sys) in
      let p = procs.(which mod Array.length procs) in
      (match kind mod 3 with
      | 0 ->
        let n = Array.length (System.impls sys p) in
        System.select sys p (detail mod n)
      | 1 ->
        (match System.get_order sys p with
        | a :: b :: rest -> System.set_get_order sys p (b :: a :: rest)
        | _ -> ())
      | _ -> (
        match System.put_order sys p with
        | a :: b :: rest -> System.set_put_order sys p (b :: a :: rest)
        | _ -> ()));
      let c = Incremental.analyze_certified session in
      let tmg = (Incremental.mapping session).To_tmg.tmg in
      c.Incremental.checked = Ok ()
      && accepted tmg c.Incremental.certificate
      &&
      (* The certified verdict and the plain outcome must agree. *)
      match (c.Incremental.outcome, c.Incremental.certificate) with
      | Ok a, Verify.Bounded b -> Ratio.equal a.Perf.cycle_time b.ratio
      | Error (Perf.Deadlock _), Verify.Deadlocked _ -> true
      | Error Perf.No_cycle, Verify.Acyclic _ -> true
      | _ -> false)
    script

let mutations_gen =
  QCheck2.Gen.(
    list_size (int_range 4 10)
      (triple (int_range 0 1_000_000) (int_range 0 1_000_000) (int_range 0 1_000_000)))

(* ---- skepticism: perturbed certificates are rejected --------------------- *)

(* Every arc of the witness cycle is tight at the optimum (the feasibility
   slacks around it sum to zero), so bumping the potential of any witness
   arc's source breaks that arc's inequality — unless the arc is a
   self-loop, whose inequality cancels the potential. Holds for every
   solver's certificate, so the source is part of the input. *)
let certificate_source_gen = QCheck2.Gen.oneofl [ howard; lawler; karp_unit ]

let prop_perturbed_potential_rejected (certify, tmg) =
  match certify tmg with
  | Verify.Bounded b as cert -> (
    if not (accepted tmg cert) then false
    else
      let non_loop =
        List.find_opt (fun p -> Tmg.place_src tmg p <> Tmg.place_dst tmg p) b.witness
      in
      match non_loop with
      | None -> true (* all-self-loop witness: potentials cancel, skip *)
      | Some p ->
        let potentials = Array.copy b.potentials in
        potentials.(Tmg.place_src tmg p) <- potentials.(Tmg.place_src tmg p) + 1;
        rejected tmg (Verify.Bounded { b with potentials }))
  | _ -> true (* acyclic or deadlocked: no potentials to perturb *)

(* Substituting one witness edge with any place of different endpoints must
   break the closed walk (or, for a one-place witness, the closure), so the
   checker has to notice. *)
let prop_perturbed_edge_rejected tmg =
  match howard tmg with
  | Verify.Bounded b as cert -> (
    if not (accepted tmg cert) then false
    else
      match b.witness with
      | [] -> false (* an accepted Bounded certificate cannot be empty *)
      | w0 :: rest ->
        let breaks p' =
          if rest = [] then Tmg.place_src tmg p' <> Tmg.place_dst tmg p'
          else
            Tmg.place_src tmg p' <> Tmg.place_src tmg w0
            || Tmg.place_dst tmg p' <> Tmg.place_dst tmg w0
        in
        (match List.find_opt breaks (Tmg.places tmg) with
        | None -> true (* degenerate net: every place parallels the witness *)
        | Some p' -> rejected tmg (Verify.Bounded { b with witness = p' :: rest })))
  | _ -> true

(* And the liveness half: claiming Live with the ranks of a deadlocked net
   (all zeros) must be rejected whenever a token-free cycle exists. *)
let prop_fake_live_rejected tmg =
  match Liveness.find_dead_cycle tmg with
  | None -> true
  | Some _ ->
    rejected tmg (Verify.Live { ranks = Array.make (Tmg.transition_count tmg) 0 })

(* ---- hand-built rejections for each obligation --------------------------- *)

let test_checker_obligations () =
  let sys = Motivating.optimal () in
  let tmg = (To_tmg.build sys).To_tmg.tmg in
  match howard tmg with
  | Verify.Bounded b ->
    Alcotest.(check bool) "pristine accepted" true (accepted tmg (Verify.Bounded b));
    (* wrong ratio *)
    let wrong = Ratio.add b.ratio (Ratio.of_int 1) in
    Alcotest.(check bool) "wrong ratio rejected" true
      (rejected tmg (Verify.Bounded { b with ratio = wrong }));
    (* truncated witness *)
    Alcotest.(check bool) "truncated witness rejected" true
      (rejected tmg (Verify.Bounded { b with witness = List.tl b.witness }));
    (* empty witness *)
    Alcotest.(check bool) "empty witness rejected" true
      (rejected tmg (Verify.Bounded { b with witness = [] }));
    (* short potential vector *)
    Alcotest.(check bool) "short potentials rejected" true
      (rejected tmg (Verify.Bounded { b with potentials = [||] }));
    (* broken liveness ranks *)
    Alcotest.(check bool) "constant ranks rejected" true
      (rejected tmg
         (Verify.Bounded { b with ranks = Array.make (Array.length b.ranks) 7 }))
  | _ -> Alcotest.fail "motivating system should be bounded"

let test_deadlock_certificate () =
  let sys = Motivating.deadlocking () in
  let tmg = (To_tmg.build sys).To_tmg.tmg in
  (match Verify.of_liveness tmg with
  | Verify.Deadlocked { cycle } as cert ->
    Alcotest.(check bool) "dead cycle accepted" true (accepted tmg cert);
    (* a marked place disqualifies the witness *)
    (match cycle with
    | p :: _ ->
      let saved = Tmg.tokens tmg p in
      Tmg.set_tokens tmg p 1;
      Alcotest.(check bool) "marked witness rejected" true (rejected tmg cert);
      Tmg.set_tokens tmg p saved
    | [] -> Alcotest.fail "empty dead cycle");
    Alcotest.(check bool) "empty dead cycle rejected" true
      (rejected tmg (Verify.Deadlocked { cycle = [] }))
  | _ -> Alcotest.fail "deadlocked system should yield Deadlocked");
  (* Lawler's Deadlock verdict carries its witness. *)
  Alcotest.(check bool) "lawler deadlock certified" true (accepted tmg (lawler tmg))

(* ---- lint ---------------------------------------------------------------- *)

let deadlock_soc =
  "system dead\n\
   process src impl only latency 1 area 0.0\n\
   process a impl only latency 2 area 0.0\n\
   process b impl only latency 3 area 0.0\n\
   process snk impl only latency 1 area 0.0\n\
   channel i src a latency 1\n\
   channel f a b latency 1\n\
   channel g b a latency 1\n\
   channel o b snk latency 1\n"

let suboptimal_soc = Ermes_slm.Soc_format.print (Motivating.suboptimal ())

let test_lint_deadlock () =
  match Lint.lint_string deadlock_soc with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "one error" 1 (Lint.errors r);
    (match r.Lint.diagnostics with
    | [ d ] ->
      Alcotest.(check string) "code" "E107" d.Lint.code;
      Alcotest.(check bool) "witness printed" true
        (Astring_contains.contains d.Lint.message "token-free cycle")
    | _ -> Alcotest.fail "expected exactly one diagnostic")

let test_lint_clean_optimal () =
  match Lint.lint_string (Ermes_slm.Soc_format.print (Motivating.optimal ())) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "no errors" 0 (Lint.errors r);
    Alcotest.(check int) "no warnings" 0 (Lint.warnings r);
    Alcotest.(check bool) "semantics ran" true r.Lint.checked_semantics

let test_lint_serialization_warning () =
  match Lint.lint_string suboptimal_soc with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "no errors" 0 (Lint.errors r);
    Alcotest.(check bool) "warns" true (Lint.warnings r > 0);
    Alcotest.(check bool) "codes are serialization warnings" true
      (List.for_all
         (fun d -> d.Lint.code = "W201" || d.Lint.code = "W202")
         r.Lint.diagnostics)

(* [to_json r] read back by the daemon's JSON parser carries every field of
   [r]: the lint verb embeds exactly this string in its replies. *)
let lint_json_matches (r : Lint.report) =
  let module Proto = Ermes_serve.Proto in
  let diag_matches (d : Lint.diagnostic) = function
    | Proto.Obj
        [
          ("code", Proto.Str code);
          ("severity", Proto.Str severity);
          ("line", Proto.Int line);
          ("col", Proto.Int col);
          ("message", Proto.Str message);
        ] ->
      code = d.code
      && severity = (match d.severity with Lint.Error -> "error" | Lint.Warning -> "warning")
      && line = d.line && col = d.col && message = d.message
    | _ -> false
  in
  match Proto.of_string (Lint.to_json r) with
  | Ok
      (Proto.Obj
        [
          ("file", Proto.Str file);
          ("checked_semantics", Proto.Bool checked);
          ("errors", Proto.Int errors);
          ("warnings", Proto.Int warnings);
          ("diagnostics", Proto.Arr diags);
        ]) ->
    file = r.file && checked = r.checked_semantics && errors = Lint.errors r
    && warnings = Lint.warnings r
    && List.length diags = List.length r.diagnostics
    && List.for_all2 diag_matches r.diagnostics diags
  | Ok _ | Error _ -> false

let test_lint_json_roundtrip () =
  List.iter
    (fun text ->
      match Lint.lint_string ~file:"case.soc" text with
      | Error _ -> () (* invalid-input cases carry no report to round-trip *)
      | Ok r -> Alcotest.(check bool) "roundtrip" true (lint_json_matches r))
    [
      deadlock_soc;
      suboptimal_soc;
      Ermes_slm.Soc_format.print (Motivating.optimal ());
      (* every declaration-pass code at once, with quotes in messages *)
      "system broken\n\
       process p impl only latency 1 area 0.0\n\
       process p impl only latency 1 area 0.0\n\
       process lonely impl only latency 1 area 0.0\n\
       channel self p p latency 1\n\
       channel dup p q latency 1\n\
       channel dup p p latency 1 fifo 0\n";
    ]

let prop_lint_json_roundtrip sys =
  match Lint.lint_string (Ermes_slm.Soc_format.print sys) with
  | Error _ -> true
  | Ok r -> lint_json_matches r

(* The serialization warnings by exhaustion: every adjacent gets/puts swap
   applied to a copy of the system and analyzed cold, each strict
   improvement rendered in lint's message text at the process's
   declaration. Lint must report exactly these W201/W202 lines. *)
let reference_swap_warnings text sys =
  let decl = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      match String.split_on_char ' ' line with
      | "process" :: name :: _ -> Hashtbl.replace decl name (i + 1, 9)
      | _ -> ())
    (String.split_on_char '\n' text);
  match Perf.analyze sys with
  | Error _ -> []
  | Ok base ->
    let base_ct = base.Perf.cycle_time in
    let swaps p code keyword order set_order =
      let order = Array.of_list (order sys p) in
      List.filter_map
        (fun i ->
          let swapped = Array.copy order in
          swapped.(i) <- order.(i + 1);
          swapped.(i + 1) <- order.(i);
          let copy = System.copy sys in
          set_order copy p (Array.to_list swapped);
          match Perf.analyze copy with
          | Ok a when Ratio.(a.Perf.cycle_time < base_ct) ->
            let name = System.process_name sys p in
            let line, col = Hashtbl.find decl name in
            Some
              ( line,
                col,
                code,
                Printf.sprintf
                  "process %s: swapping adjacent %s of %s and %s improves the cycle time %s -> %s"
                  name keyword
                  (System.channel_name sys order.(i))
                  (System.channel_name sys order.(i + 1))
                  (Ratio.to_string base_ct)
                  (Ratio.to_string a.Perf.cycle_time) )
          | _ -> None)
        (List.init (max 0 (Array.length order - 1)) Fun.id)
    in
    List.sort compare
      (List.concat_map
         (fun p ->
           swaps p "W201" "gets" System.get_order System.set_get_order
           @ swaps p "W202" "puts" System.put_order System.set_put_order)
         (System.processes sys))

let prop_lint_swaps_match_reference sys =
  let text = Ermes_slm.Soc_format.print sys in
  match (Lint.lint_string text, Ermes_slm.Soc_format.parse text) with
  | Ok r, Ok parsed ->
    let linted =
      List.filter_map
        (fun (d : Lint.diagnostic) ->
          if d.code = "W201" || d.code = "W202" then
            Some (d.line, d.col, d.code, d.message)
          else None)
        r.Lint.diagnostics
    in
    let expected = reference_swap_warnings text parsed in
    if linted = expected then true
    else
      QCheck2.Test.fail_reportf "lint: %d warning(s), reference: %d\n%s" (List.length linted)
        (List.length expected) text
  | Error e, _ | _, Error e -> QCheck2.Test.fail_reportf "lint or parse failed: %s" e

(* Fuzz cases mix FIFO, multi-rate and handshake channels with permuted
   (sometimes deadlocking) orders; Generate's designs are larger
   rendezvous pipelines with feedback under conservative orders. *)
let fuzz_case_gen =
  QCheck2.Gen.map
    (fun seed ->
      fst (Ermes_fault.Fuzz.gen_case (Ermes_synth.Prng.create ~seed) ~max_processes:12))
    QCheck2.Gen.(int_range 1 1_000_000)

let generated_design_gen =
  QCheck2.Gen.map
    (fun (processes, extra, seed) ->
      Ermes_synth.Generate.scaled ~seed ~processes ~channels:(processes + extra) ())
    QCheck2.Gen.(triple (int_range 12 40) (int_range 4 30) (int_range 1 1_000_000))

(* ---- runner -------------------------------------------------------------- *)

let () =
  Alcotest.run "verify"
    [
      ( "soundness",
        [
          Helpers.qtest ~count:300 "howard certified (live nets)"
            Helpers.live_tmg_arbitrary prop_howard_certified;
          Helpers.qtest ~count:300 "howard certified (raw nets)" raw_tmg_gen
            prop_howard_certified;
          Helpers.qtest ~count:200 "lawler certified" raw_tmg_gen prop_lawler_certified;
          Helpers.qtest ~count:200 "karp certified (unit tokens)" raw_tmg_gen
            prop_karp_certified;
          Helpers.qtest ~count:300 "liveness certified" raw_tmg_gen
            prop_liveness_certified;
          Helpers.qtest ~count:200 "constructor picks the right variant" raw_tmg_gen
            prop_certificate_variant;
        ] );
      ( "warm-and-incremental",
        [
          Helpers.qtest ~count:60 "session certificates (feedback systems)"
            QCheck2.Gen.(pair Helpers.feedback_system_gen mutations_gen)
            prop_incremental_certified;
          Helpers.qtest ~count:40 "session certificates (DAG systems)"
            QCheck2.Gen.(pair Helpers.dag_system_gen mutations_gen)
            prop_incremental_certified;
        ] );
      ( "skepticism",
        [
          Helpers.qtest ~count:300 "perturbed potential rejected"
            QCheck2.Gen.(pair certificate_source_gen Helpers.live_tmg_arbitrary)
            prop_perturbed_potential_rejected;
          Helpers.qtest ~count:300 "perturbed witness edge rejected"
            Helpers.live_tmg_arbitrary prop_perturbed_edge_rejected;
          Helpers.qtest ~count:300 "fake live-ranks rejected" raw_tmg_gen
            prop_fake_live_rejected;
          Alcotest.test_case "each obligation" `Quick test_checker_obligations;
          Alcotest.test_case "deadlock witness" `Quick test_deadlock_certificate;
        ] );
      ( "lint",
        [
          Alcotest.test_case "deadlock diagnosed" `Quick test_lint_deadlock;
          Alcotest.test_case "optimal order is clean" `Quick test_lint_clean_optimal;
          Alcotest.test_case "suboptimal order warns" `Quick
            test_lint_serialization_warning;
          Alcotest.test_case "json roundtrip" `Quick test_lint_json_roundtrip;
          Helpers.qtest ~count:60 "json roundtrip (random systems)"
            Helpers.dag_system_gen prop_lint_json_roundtrip;
          Helpers.qtest ~count:150 "fuzz cases: swaps match reference"
            fuzz_case_gen prop_lint_swaps_match_reference;
          Helpers.qtest ~count:40 "generated: swaps match reference"
            generated_design_gen prop_lint_swaps_match_reference;
        ] );
    ]
