(** Journal-backed checkpointing for the three long campaigns.

    This module owns the record codecs and wires a {!Journal} into the
    engines' plain [?checkpoint]/[?resume] callbacks — the engines
    themselves ({!Ermes_fault.Fuzz}, {!Ermes_core.Explore},
    {!Ermes_core.Oracle}) know nothing about files.

    Every wrapper follows the same shape: with [resume = true] and an
    existing journal at [path], the journal is loaded and validated (kind
    and a campaign-configuration [meta] fingerprint must match — resuming a
    fuzz journal into a DSE run, or into a fuzz run with a different seed,
    is an error, not silent garbage); then a {e fresh} journal is started at
    [path] and the campaign runs with both hooks installed. Completed work
    units replay from the loaded records (skipping the expensive part) and
    every unit — replayed or fresh — is re-appended in deterministic order,
    so after a resumed run the journal, like the report, is byte-identical
    to an uninterrupted run's.

    Undecodable records degrade safely: the unit is recomputed (the
    campaigns are deterministic, so the outcome is the same). For the
    sequential DSE history only the longest decodable prefix is replayed.

    Journal I/O failures degrade safely too: the first [Unix.Unix_error]
    (e.g. a persistent [ENOSPC]) or [Sys_error] out of the journal disables
    checkpointing for the rest of the run — one stderr warning, one bump of
    the [runtime.checkpoint.disabled] obs counter — and the campaign
    continues to its normal report instead of crashing mid-wave. The [?io]
    parameter threads an {!Ermes_chaos.Chaos.Io} into the journal so the
    chaos layer can exercise exactly that path. *)

module System = Ermes_slm.System
module Explore = Ermes_core.Explore
module Oracle = Ermes_core.Oracle
module Fuzz = Ermes_fault.Fuzz

(** {1 Fuzz campaigns} *)

val encode_fuzz_case : case:int -> System.t -> Fuzz.case_outcome -> string
val decode_fuzz_case : System.t -> string -> (int * Fuzz.case_outcome) option
(** Exposed for the test suite. Fault specs resolve names against the
    case's own (regenerated) system. *)

val fuzz_run :
  ?io:Ermes_chaos.Chaos.Io.t ->
  ?log:(string -> unit) ->
  ?jobs:int ->
  path:string ->
  resume:bool ->
  Fuzz.config ->
  (Fuzz.summary, string) result
(** {!Fuzz.run} with a checkpoint journal at [path]. [Error] only on a
    journal that exists but cannot be resumed (wrong kind, wrong
    configuration, damaged header); a missing journal with [resume = true]
    just starts fresh, so crash-recovery loops can pass [--resume]
    unconditionally. *)

(** {1 Design-space exploration} *)

val encode_dse_snapshot : Explore.snapshot -> string
val decode_dse_snapshot : string -> Explore.snapshot option
(** Exposed for the test suite. *)

val dse_run :
  ?io:Ermes_chaos.Chaos.Io.t ->
  ?max_iterations:int ->
  ?reorder:bool ->
  ?area_budget:float ->
  path:string ->
  resume:bool ->
  tct:int ->
  System.t ->
  (Explore.trace, string) result
(** {!Explore.run} with a checkpoint journal at [path]. The meta fingerprint
    covers the initial system (the CRC-32 of its canonical [.soc] print) and
    every parameter
    that shapes the trace. *)

(** {1 Oracle search} *)

val encode_oracle_slice : slice:int -> Oracle.slice_outcome -> string
val decode_oracle_slice : string -> (int * Oracle.slice_outcome) option
(** Exposed for the test suite. *)

val oracle_search :
  ?io:Ermes_chaos.Chaos.Io.t ->
  ?limit:int ->
  ?jobs:int ->
  path:string ->
  resume:bool ->
  System.t ->
  (Oracle.result option, string) result
(** {!Oracle.search} with a checkpoint journal at [path]. The enumeration's
    slicing depends on the system alone, so a journal written under one job
    count resumes under any other.
    @raise Invalid_argument as {!Oracle.search} does when the combination
    count exceeds [limit]. *)
