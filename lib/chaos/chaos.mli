(** Deterministic I/O chaos: a seeded fault-plan interpreter over a pluggable
    I/O interface.

    The stack's crash-safety claims (journal atomicity, daemon resilience)
    are only as good as their behaviour at the OS boundary — ENOSPC mid-write,
    a short write, an EINTR storm, a rename that never lands or lands torn, a
    clock that jumps. This module makes those conditions {e injectable and
    replayable}: every module that touches the outside world goes through an
    {!Io.t} record of hooks (the {!Io.passthrough} default is the bare
    syscalls), and an {!injector} wraps any [Io.t] with a {!plan} — a finite
    schedule of faults keyed to the Nth write / rename / clock call. A plan
    is either written by hand (its {!parse_spec} grammar) or drawn from a
    splitmix64 stream by {!gen}, so a failure reproduces from
    [(seed, plan)] alone; no wall clock, no randomness at injection time.

    See DESIGN.md §16 for the invariants the [ermes chaos] campaign checks
    on top of this module. *)

module Io : sig
  type t = {
    write : Unix.file_descr -> string -> int -> int -> int;
        (** [write fd s off len] — semantics of [Unix.write_substring]:
            returns the number of bytes written, may be short, may raise
            [Unix.Unix_error]. *)
    read : Unix.file_descr -> bytes -> int -> int -> int;
        (** Semantics of [Unix.read]. *)
    rename : string -> string -> unit;  (** Semantics of [Sys.rename]. *)
    fsync : Unix.file_descr -> unit;  (** Semantics of [Unix.fsync]. *)
    clock : unit -> float;  (** Semantics of [Unix.gettimeofday]. *)
  }

  val passthrough : t
  (** The bare syscalls, no interception. Overhead over calling them
      directly is one record-field load per operation (benched in the
      [chaos] section: [chaos.*_overhead_x]). *)
end

(** {1 Fault plans} *)

type fault =
  | Write_enospc of { op : int }
      (** The [op]-th write raises [ENOSPC] (and keeps raising for every
          later write: disks do not un-fill themselves mid-campaign). *)
  | Write_short of { op : int; bytes : int }
      (** The [op]-th write persists at most [bytes] bytes — callers must
          cope with short writes, as POSIX always allowed. *)
  | Write_eintr of { op : int; times : int }
      (** The [op]-th write raises [EINTR] [times] times before
          succeeding. *)
  | Read_eintr of { op : int; times : int }
      (** The [op]-th read raises [EINTR] [times] times before
          succeeding. *)
  | Rename_skip of { op : int }
      (** The [op]-th rename is silently dropped — models the window where
          the data reached the tmp file but the publish never happened
          (power loss before the metadata journal commits). *)
  | Rename_torn of { op : int }
      (** The [op]-th rename leaves {e both} files: the destination receives
          only the first half of the source's bytes and the source survives —
          a non-atomic replace on a filesystem that tears. *)
  | Clock_skew of { op : int; skew_s : float }
      (** From the [op]-th clock reading on, the clock is offset by
          [skew_s] seconds (cumulative across multiple skew faults). *)

type plan = fault list
(** Faults of the same family are keyed to that family's own 1-based
    operation counter; an empty plan injects nothing. *)

val to_spec : plan -> string
(** One comma-separated token per fault — [enospc@N], [short:K@N],
    [eintr:T@N], [eintr-read:T@N], [rename-skip@N], [rename-torn@N],
    [skew:S@N] — and ["none"] for the empty plan. Round-trips through
    {!parse_spec}. *)

val parse_spec : string -> (plan, string) result

type kind =
  | Enospc
  | Short
  | Weintr
  | Reintr
  | Skip
  | Torn
  | Skew

val file_kinds : kind list
(** Faults meaningful against file I/O (journal persistence): every kind
    except [Reintr]. *)

val socket_kinds : kind list
(** Faults a daemon's socket loop must survive: [Weintr], [Reintr],
    [Skew]. *)

val gen : seed:int -> kinds:kind list -> plan
(** Draw a small plan (1–3 faults, ops within the first dozen operations)
    from a splitmix64 stream — the same [seed] and [kinds] always produce
    the same plan. [kinds] must be non-empty. *)

val derive : int -> int -> int
(** [derive seed i] — a deterministic per-wave sub-seed (splitmix64 of the
    pair), so campaign wave [i] replays in isolation. *)

val halve : fault -> fault option
(** One magnitude-shrinking step ([bytes], [times], [skew_s] halved; [None]
    when the fault is already minimal) — the [reduce] argument for
    {!Ermes_fault.Shrink.minimize}-style minimizers. *)

(** {1 Interpretation} *)

type injector

val injector : ?base:Io.t -> plan -> injector
(** A fresh interpreter state over [base] (default {!Io.passthrough}).
    Thread-safe: hook calls may come from multiple domains; the injection
    decisions are serialized under a mutex. Obs counters (when the sink is
    enabled): [chaos.injected] plus one [chaos.injected.<kind>] per
    family. *)

val io : injector -> Io.t
(** The wrapped hooks carrying the plan's faults. *)

val injected_count : injector -> int
