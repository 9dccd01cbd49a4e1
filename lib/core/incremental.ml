module System = Ermes_slm.System
module To_tmg = Ermes_slm.To_tmg
module Tmg = Ermes_tmg.Tmg
module Csr = Ermes_tmg.Csr
module Ratio = Ermes_tmg.Ratio
module Obs = Ermes_obs.Obs

let log_src = Logs.Src.create "ermes.incremental" ~doc:"incremental analysis sessions"

module Log = (val Logs.src_log log_src)

type stats = {
  mutable analyses : int;
  mutable probes : int;
  mutable delay_edits : int;
  mutable rethreads : int;
  mutable marking_edits : int;
  mutable rebuilds : int;
}

type t = {
  sys : System.t;
  mutable mapping : To_tmg.mapping;
  mutable solver : Csr.solver;
  lat : int array;
  gets : System.channel list array;
  puts : System.channel list array;
  kinds : System.channel_kind array;
  stats : stats;
}

let snapshot sess =
  let sys = sess.sys in
  for p = 0 to System.process_count sys - 1 do
    sess.lat.(p) <- System.latency sys p;
    sess.gets.(p) <- System.get_order sys p;
    sess.puts.(p) <- System.put_order sys p
  done;
  for c = 0 to System.channel_count sys - 1 do
    sess.kinds.(c) <- System.channel_kind sys c
  done

let create sys =
  List.iter
    (fun c -> Obs.incr ~by:0 ("incremental." ^ c))
    [ "analyses"; "probes"; "delay_edits"; "rethreads"; "marking_edits"; "rebuilds" ];
  let np = System.process_count sys and nc = System.channel_count sys in
  let mapping = To_tmg.build sys in
  let sess =
    {
      sys;
      mapping;
      solver = Csr.make_solver mapping.To_tmg.tmg;
      lat = Array.make (max np 1) 0;
      gets = Array.make (max np 1) [];
      puts = Array.make (max np 1) [];
      kinds = Array.make (max nc 1) System.Rendezvous;
      stats =
        {
          analyses = 0;
          probes = 0;
          delay_edits = 0;
          rethreads = 0;
          marking_edits = 0;
          rebuilds = 0;
        };
    }
  in
  snapshot sess;
  sess

let system sess = sess.sys
let stats sess = sess.stats
let mapping sess = sess.mapping

(* Diff the cached shadow state against the live system and translate each
   difference into the cheapest TMG edit: a selection change is a delay
   write per compute instance, an order change rewires one process chain, a
   depth-only change on a buffered channel is a token write per credit place
   (when {!To_tmg.absorb_depth_edit} proves the gadget structure unchanged —
   always, at unit rates), and a [Handshake] hold change is a delay write
   per ack transition. Anything that alters the transition set or the
   gadget wiring (kind changes, rate changes, unabsorbable depth changes)
   falls back to a full rebuild. Callers mutate the System freely between
   analyses; no notification protocol is needed. *)
let sync sess =
  let sys = sess.sys in
  let structural = ref false in
  let depth_edits = ref [] and hold_edits = ref [] in
  for c = System.channel_count sys - 1 downto 0 do
    let k = System.channel_kind sys c in
    if k <> sess.kinds.(c) then
      match (sess.kinds.(c), k) with
      | System.Fifo _, System.Fifo _ -> depth_edits := c :: !depth_edits
      | ( System.Multi_rate { produce; consume; depth = _ },
          System.Multi_rate { produce = p'; consume = c'; depth = _ } )
        when produce = p' && consume = c' ->
        depth_edits := c :: !depth_edits
      | System.Handshake _, System.Handshake { hold } ->
        hold_edits := (c, hold) :: !hold_edits
      | _, _ -> structural := true
  done;
  (* Depth edits are attempted before deciding on a rebuild: an edit the
     gadget cannot absorb (a credit-place source moves at true multi-rates)
     escalates to the same full rebuild a kind change causes. *)
  if not !structural then begin
    let m = sess.mapping in
    List.iter
      (fun c ->
        if To_tmg.absorb_depth_edit m sys c then begin
          sess.kinds.(c) <- System.channel_kind sys c;
          sess.stats.marking_edits <- sess.stats.marking_edits + 1;
          Obs.incr "incremental.marking_edits";
          Log.debug (fun f ->
              f "sync: depth of %s changed (marking edit)" (System.channel_name sys c))
        end
        else structural := true)
      !depth_edits
  end;
  if !structural then begin
    Log.debug (fun m -> m "sync: channel transition set changed, full rebuild");
    sess.mapping <- To_tmg.build sys;
    sess.solver <- Csr.make_solver sess.mapping.To_tmg.tmg;
    sess.stats.rebuilds <- sess.stats.rebuilds + 1;
    Obs.incr "incremental.rebuilds";
    snapshot sess
  end
  else begin
    let m = sess.mapping in
    List.iter
      (fun (c, hold) ->
        Array.iter
          (fun a -> Tmg.set_delay m.To_tmg.tmg a hold)
          m.To_tmg.channel_ack.(c);
        sess.kinds.(c) <- System.Handshake { hold };
        sess.stats.delay_edits <- sess.stats.delay_edits + 1;
        Obs.incr "incremental.delay_edits";
        Log.debug (fun f ->
            f "sync: hold of %s -> %d (delay edit)" (System.channel_name sys c) hold))
      !hold_edits;
    for p = 0 to System.process_count sys - 1 do
      let l = System.latency sys p in
      if l <> sess.lat.(p) then begin
        Array.iter
          (fun t -> Tmg.set_delay m.To_tmg.tmg t l)
          m.To_tmg.compute_transition.(p);
        sess.lat.(p) <- l;
        sess.stats.delay_edits <- sess.stats.delay_edits + 1;
        Obs.incr "incremental.delay_edits"
      end;
      let g = System.get_order sys p and q = System.put_order sys p in
      if g <> sess.gets.(p) || q <> sess.puts.(p) then begin
        To_tmg.rethread m sys p;
        sess.gets.(p) <- g;
        sess.puts.(p) <- q;
        sess.stats.rethreads <- sess.stats.rethreads + 1;
        Obs.incr "incremental.rethreads"
      end
    done
  end

let analyze sess =
  sync sess;
  sess.stats.analyses <- sess.stats.analyses + 1;
  Obs.incr "incremental.analyses";
  Perf.of_howard sess.mapping (Csr.solve sess.solver)

type certified = {
  outcome : (Perf.analysis, Perf.failure) result;
  certificate : Ermes_verify.Verify.t;
  checked : (unit, Ermes_verify.Verify.violation) result;
}

let analyze_certified sess =
  sync sess;
  sess.stats.analyses <- sess.stats.analyses + 1;
  Obs.incr "incremental.analyses";
  Obs.incr "incremental.certified";
  let raw = Csr.solve sess.solver in
  (* The checker reads a fresh freeze of the current net, never the warm
     solver's arrays; the certificate's rank vectors come off the same
     freeze. *)
  let fresh = Csr.of_tmg sess.mapping.To_tmg.tmg in
  let certificate, checked =
    Obs.span "verify.certify" (fun () ->
        let c = Ermes_verify.Verify.of_howard_csr fresh raw in
        (c, Ermes_verify.Verify.check_csr fresh c))
  in
  { outcome = Perf.of_howard sess.mapping raw; certificate; checked }

let analyze_exn sess =
  match analyze sess with
  | Ok a -> a
  | Error f ->
    Format.kasprintf failwith "Incremental.analyze_exn: %a"
      (Perf.pp_failure sess.sys) f

let cycle_time_opt sess =
  match analyze sess with Ok a -> Some a.Perf.cycle_time | Error _ -> None

type probe =
  | Slow_process of System.process * int
  | Jitter_channel of System.channel * int

(* Transient delay overrides with Fault.apply's accumulate-then-clamp
   semantics: deltas on the same component sum; a process latency clamps at
   0, a channel latency at 1. Only the producer-side (entry) transition
   carries the channel latency, for rendezvous and FIFO channels alike. *)
let probe sess probes =
  sync sess;
  let sys = sess.sys and m = sess.mapping in
  let tmg = m.To_tmg.tmg in
  let deltas = Hashtbl.create 8 in
  let bump key d =
    Hashtbl.replace deltas key (d + Option.value ~default:0 (Hashtbl.find_opt deltas key))
  in
  List.iter
    (function
      | Slow_process (p, d) -> bump (`P p) d
      | Jitter_channel (c, d) -> bump (`C c) d)
    probes;
  let saved =
    Hashtbl.fold
      (fun key delta acc ->
        let ts, faulted =
          match key with
          | `P p ->
            (m.To_tmg.compute_transition.(p), max 0 (System.latency sys p + delta))
          | `C c ->
            (m.To_tmg.channel_entry.(c), max 1 (System.channel_latency sys c + delta))
        in
        Array.fold_left
          (fun acc t ->
            let before = Tmg.delay tmg t in
            Tmg.set_delay tmg t faulted;
            (t, before) :: acc)
          acc ts)
      deltas []
  in
  sess.stats.analyses <- sess.stats.analyses + 1;
  sess.stats.probes <- sess.stats.probes + 1;
  Obs.incr "incremental.analyses";
  Obs.incr "incremental.probes";
  let outcome = Csr.solve sess.solver in
  List.iter (fun (t, before) -> Tmg.set_delay tmg t before) saved;
  Perf.of_howard m outcome
