(** The chaos campaign behind [ermes chaos] (DESIGN.md §16): draw a seeded
    fault plan per wave and target, run the target's workload under the
    injected I/O, and check its standing invariant. A violated wave is
    shrunk to a minimal failing plan with the fuzzer's minimizer.

    The invariants, one per target:
    - [Journal] — whatever faults fire, loading the on-disk journal yields
      a CRC-valid prefix of the records appended so far, or a clean
      [Error]; never an exception, never records out of order or from the
      future.
    - [Fuzz], [Dse] — a checkpointed campaign under chaos returns the same
      result as the uninterrupted reference (degrading checkpointing if it
      must), and resuming with healthy I/O from whatever the chaos run left
      on disk reproduces both the result and the journal, byte for byte.
    - [Batch] — driven by a skewed clock, the batch engine still accounts
      for every job and stays inside its 0/2/3 exit-code contract.
    - [Serve] — under EINTR storms and clock skew on its socket loop, an
      embedded daemon answers the handshake, gives queued requests
      well-formed replies, answers a slow-loris half-frame [bad-request]
      and closes it within the frame deadline, keeps [metrics] available,
      and shuts down cleanly. *)

module Chaos = Ermes_chaos.Chaos

type target = Journal | Fuzz | Dse | Batch | Serve

val name : target -> string
(** ["journal"], ["fuzz"], ["dse"], ["batch"], ["serve"]. *)

val parse_targets : string -> (target list, string) result
(** A comma-separated target list, as given to [ermes chaos --target]:
    names in the order given, or every target (journal, fuzz, dse, batch,
    serve) when the list names [all]. [Error] names the first unknown
    target, or says that the list is empty. *)

val kinds : target -> Chaos.kind list
(** The fault kinds a target's plans are drawn from. *)

val check : dir:string -> seed:int -> target -> Chaos.plan -> (unit, string) result
(** Run the target's workload under [plan] and check its invariant. [seed]
    picks the workload (the fuzz and DSE configurations, the batch jobs);
    [dir] is a scratch directory the check may fill. [Error] describes the
    violation. *)

val with_tmpdir : (string -> 'a) -> 'a
(** [with_tmpdir f] runs [f] on a fresh private directory under the
    system's temporary directory and removes it, with its contents,
    afterwards. *)

type violation = {
  target : target;
  original : Chaos.plan;  (** the plan that first failed *)
  minimal : Chaos.plan;  (** shrunk: faults dropped, then halved *)
  message : string;  (** the violation under [minimal] *)
}

val run :
  ?plan:Chaos.plan ->
  report:(wave:int -> target -> Chaos.plan -> (unit, string) result -> unit) ->
  seed:int ->
  waves:int ->
  target list ->
  violation option
(** [run ~report ~seed ~waves targets] checks every target in every wave
    1..[waves], in one {!with_tmpdir} directory. Wave [w] draws target
    number [i] (0-based, in [targets] order) its plan from
    [Chaos.derive seed (w*8 + i)]; [plan] replaces every drawn plan.
    [report] hears each check as it completes. The campaign stops at the
    first violation and returns it shrunk with
    [Shrink.minimize ~step:Chaos.halve]. *)

val replay : violation -> string
(** The command line that replays the shrunk plan. *)

val repro : seed:int -> violation -> string
(** The text of a repro file: seed, target, both plans, the violation and
    the {!replay} line. *)
