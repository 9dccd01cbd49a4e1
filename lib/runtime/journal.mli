(** Crash-safe checkpoint journal for long campaigns.

    A journal records {e completed work units} (one opaque string payload per
    record) so an interrupted campaign — even one killed with SIGKILL — can
    resume where it stopped. Durability comes from never mutating the live
    file in place: every write renders the {e whole} journal (versioned
    header + all records, each with its own CRC-32) into [FILE.tmp], fsyncs
    it, atomically renames it over [FILE], and fsyncs the containing
    directory (best-effort). At any instant the on-disk file is a complete,
    self-consistent journal — a kill can only lose the record being written,
    never corrupt what was already persisted — and the fsync pair extends
    the guarantee to power loss, not just SIGKILL.

    All file operations go through an {!Ermes_chaos.Chaos.Io} record
    (default: the bare syscalls), so the chaos layer can inject ENOSPC,
    short writes, EINTR storms and torn renames; the write loop already
    retries EINTR and continues short writes. An injected (or real) I/O
    failure surfaces from {!start}/{!append} as [Unix.Unix_error] or
    [Sys_error], after a failed write or fsync has removed [FILE.tmp] —
    {!Checkpoint} degrades to checkpoint-disabled on it rather than crashing
    a campaign.

    The format is line-oriented text. Header:
    [ermes-journal 1 <kind> <meta> <crc32>] where [kind] names the campaign
    type ([fuzz], [dse], [oracle]), [meta] is a percent-escaped
    configuration fingerprint that {!load}ers validate before replaying, and
    the CRC covers the preceding fields. Records: [r <crc32> <payload>]
    with the payload percent-escaped and the CRC computed over the raw
    payload. {!load} stops at the first damaged record and reports how many
    trailing lines it ignored, so an externally-truncated file degrades to a
    shorter valid prefix instead of an error.

    Obs counters: [runtime.checkpoint.writes] (one per {!append}),
    [runtime.checkpoint.replays] (one per record handed back by {!load}). *)

val crc32 : string -> int
(** IEEE 802.3 CRC-32 (the zlib/PNG polynomial), as a non-negative int.
    [crc32 "123456789" = 0xCBF43926]. *)

val escape : string -> string
(** Percent-escape into a single space-free token: ['%'], whitespace and
    control bytes become [%XX]. The empty string renders as ["%"]. *)

val unescape : string -> string
(** Inverse of {!escape} (malformed escapes are kept verbatim). *)

type t

val start : ?io:Ermes_chaos.Chaos.Io.t -> ?meta:string -> kind:string -> string -> t
(** [start ~kind file] creates (or truncates) the journal at [file] and
    persists its header. [meta] is an arbitrary configuration fingerprint
    (escaped for you). [io] (default {!Ermes_chaos.Chaos.Io.passthrough})
    is used for every persistence of this journal. *)

val append : t -> string -> unit
(** Append one record payload (any bytes) and persist the whole journal
    atomically. Raises [Unix.Unix_error] (e.g. [ENOSPC]) or [Sys_error] on
    an I/O failure; the published file still holds the previous complete
    journal. *)

val path : t -> string
val records : t -> string list
(** Payloads appended so far, oldest first. *)

type loaded = {
  kind : string;
  meta : string;
  entries : string list;  (** record payloads, oldest first *)
  torn : int;  (** trailing lines ignored after the first damaged record *)
}

val load : string -> (loaded, string) result
(** Read a journal back. [Error] on an unreadable file, a missing or
    CRC-damaged header, or an unsupported version — a damaged {e record}
    only truncates (see [torn]). *)
