(** Textual system descriptions (the [.soc] format).

    A line-oriented format used by the [ermes] command-line tool. Tokens are
    whitespace-separated; [#] starts a comment that runs to end of line;
    blank lines are ignored. Directives:

    {v
    system NAME
    process NAME [puts_first] impl TAG latency INT area FLOAT [impl ...]...
    select PROCESS INDEX
    channel NAME SRC DST latency INT [fifo INT | rate INT/INT fifo INT | handshake INT]
    gets PROCESS CH CH ...     # permutation of PROCESS's input channels
    puts PROCESS CH CH ...     # permutation of PROCESS's output channels
    v}

    The channel tail selects the kind: nothing for a rendezvous, [fifo D]
    for a depth-[D] FIFO, [rate P/C fifo D] for an SDF-style multi-rate
    buffer ([P] items deposited per put, [C] removed per get), and
    [handshake K] for a valid/ready handshake whose consumer holds data [K]
    cycles before acking. Channel latency must be ≥ 1.

    Directives may appear in any order as long as every name is declared
    before it is referenced (the printer emits processes, then channels, then
    selections and orders, which always satisfies this). *)

type limits = {
  max_bytes : int;  (** whole-description byte ceiling *)
  max_token : int;  (** single-token byte ceiling *)
}
(** Resource limits guarding the parser against hostile input sizes: an
    over-limit description or token is rejected with a proper error instead
    of being allocated, tabulated and echoed back unbounded. *)

val default_limits : unit -> limits
(** 8 MB / 4096 bytes, overridable through the [ERMES_MAX_SOC_BYTES] and
    [ERMES_MAX_SOC_TOKEN] environment variables (non-positive or unparseable
    overrides are ignored). Re-read on every call. *)

val tokenize : string -> (string * int) list
(** [tokenize line] splits one line into its whitespace-separated tokens,
    each paired with its 1-based start column; [#] comments are stripped.
    This is the exact lexer [parse] uses — exposed so the lint pass
    ([Ermes_core.Lint]) can diagnose declaration-level mistakes in files
    the strict parser rejects, then hand the same lines to
    {!parse_tokens}. *)

exception Parse_error of int * string
(** [(column, message)] — raised by {!parse_kind_tokens}; internal to
    {!parse}, which collects it into its error listing. *)

val parse_kind_tokens :
  (string * int) list -> (System.channel_kind * int) option
(** [parse_kind_tokens rest] parses the channel-kind tail of a [channel]
    directive from [tokenize]d tokens (everything after the latency value):
    [None] for an empty tail (rendezvous), otherwise the kind and the column
    of its parameter token. Performs no semantic validation — pair it with
    {!System.validate_kind}. Shared with the linter so the two can never
    drift. @raise Parse_error on a malformed tail. *)

val parse : ?limits:limits -> string -> (System.t, string) result
(** [parse text] builds a system, or returns an error message. Every error
    names the offending line {e and column}; independent errors on different
    lines are all collected in one pass and joined with newlines, so a
    malformed file reports everything wrong with it at once. Inputs over
    [limits] (default {!default_limits}) are rejected up front: the whole
    text by total size, and every token by length (at its line and
    column). *)

val parse_tokens : limits -> (string * int) list list -> (System.t, string) result
(** [parse_tokens limits lines] is {!parse} on a text already split at
    ['\n'] and {!tokenize}d line by line: the same system or the same error
    listing, without lexing the text again. The byte ceiling is the
    caller's to check, before tokenizing; the token ceiling is checked
    here. *)

val parse_file : ?limits:limits -> string -> (System.t, string) result
(** Like {!parse}; an over-limit file is rejected from its on-disk size,
    before its contents are read into memory. *)

(** Where a description comes from: a file path, or the text itself. *)
type source = File of string | Text of string

val load : source -> (System.t, string) result
(** Parse, then {!System.validate}: the one front door of the CLI, the
    batch runner and the daemon. A validation error reads
    ["invalid system: ..."]. *)

val print : System.t -> string
(** Canonical rendering; [parse (print sys)] reconstructs an identical
    system (same ids, names, latencies, areas, selections, orders). *)

val write_file : string -> System.t -> unit
