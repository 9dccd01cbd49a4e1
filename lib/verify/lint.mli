(** Static diagnostics for [.soc] system descriptions ([ermes lint]).

    The linter runs two passes:

    - a {e declaration pass} over the raw token stream
      ({!Ermes_slm.Soc_format.tokenize}), which works even on files the
      strict parser rejects and catches name/shape mistakes at their exact
      line and column;
    - a {e semantic pass} on the parsed system (only when the file parses,
      validates, and the declaration pass found no errors), which builds the
      TMG and proves or refutes deadlock freedom, then probes statement
      orders for serialization warnings.

    Diagnostic codes are stable; tools may match on them:

    {v
    E101  channel endpoints do not name two distinct processes (self-loop)
    E102  undeclared or duplicate name (process or channel)
    E103  direction mismatch: gets/puts lists a channel the process does
          not read/write
    E104  arity mismatch: a gets/puts order is not a permutation of the
          process's input/output channels (missing or repeated channel)
    E105  structural defect: isolated process, or the system fails
          validation (no source, no sink, not on a source-to-sink path)
    E106  non-positive FIFO depth
    E107  statically proven deadlock: a token-free cycle exists (the
          witness channels and processes are printed)
    E108  resource limit: the input (or a single token) exceeds the
          configured byte ceiling ({!Ermes_slm.Soc_format.default_limits};
          ERMES_MAX_SOC_BYTES / ERMES_MAX_SOC_TOKEN)
    E109  invalid channel-kind parameters: malformed kind tail, multi-rate
          produce/consume out of range or depth below max(produce, consume),
          negative handshake hold ({!Ermes_slm.System.validate_kind})
    E110  inconsistent multi-rate weights: the SDF balance equations admit
          no common period, or the rate unfolding would be unreasonably
          large ({!Ermes_slm.System.repetition_vector})
    E111  non-positive channel latency
    W201  serialization warning: swapping two adjacent gets strictly
          improves the cycle time
    W202  serialization warning: swapping two adjacent puts strictly
          improves the cycle time
    W203  multi-rate depth below produce + consume - gcd(produce, consume):
          the buffer may deadlock the channel or throttle its rates
    v}

    Exit-code contract (implemented by the CLI): 0 when the report is clean
    (or warnings-only under [--warnings-ok]), 1 when the input is invalid
    beyond linting (unreadable file, or a parse failure no diagnostic
    explains), 2 when any error diagnostic was produced (warnings also exit
    2 unless [--warnings-ok]). *)

type severity = Error | Warning

type diagnostic = {
  code : string;  (** stable code, ["E101"] .. ["W203"] *)
  severity : severity;
  line : int;  (** 1-based; 0 for whole-system diagnostics *)
  col : int;  (** 1-based; 0 for whole-system diagnostics *)
  message : string;
}

type report = {
  file : string;
  diagnostics : diagnostic list;
      (** sorted by line, then column, then code *)
  checked_semantics : bool;
      (** whether the semantic pass (deadlock proof, serialization probes)
          ran — false when declaration errors or a parse failure made the
          system unavailable *)
}

val lint_string : ?file:string -> string -> (report, string) result
(** [lint_string text] lints a description. [Error msg] means the input is
    invalid beyond linting (a parse failure not explained by any
    diagnostic); callers should exit 1. *)

val lint_file : string -> (report, string) result
(** Like {!lint_string}, reading [path]. An unreadable file is [Error]. *)

val errors : report -> int
val warnings : report -> int

val pp_text : Format.formatter -> report -> unit
(** One line per diagnostic ([FILE:LINE:COL: CODE severity: message]),
    followed by a summary line. *)

val to_json : report -> string
(** Canonical single-line JSON:
    [{"file":...,"checked_semantics":...,"errors":N,"warnings":N,
    "diagnostics":[{"code":...,"severity":...,"line":N,"col":N,
    "message":...}]}]. *)
