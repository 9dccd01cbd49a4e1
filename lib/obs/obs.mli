(** Lightweight observability: named counters, wall-clock spans, and two
    exporters — a Chrome trace-event JSON ([chrome://tracing], [about:tracing]
    or {{:https://ui.perfetto.dev}Perfetto} can load it) and a plain-text
    summary table.

    The layer is {e off by default}: a single globally
    registered nullable sink keeps the disabled-mode cost of every event to
    one atomic read and one branch, so instrumentation can stay in the hot
    modules permanently. Enabling installs a fresh sink (published through
    an [Atomic], so other domains observe it fully initialised); all
    recording is guarded by one mutex, so counters and spans may be emitted
    from worker domains (events carry the domain id as the trace [tid]) and
    read concurrently with writers via {!snapshot}.

    Determinism: instrumentation never feeds back into any analysis — with
    the sink on or off, every ERMES result is bit-identical. Counter {e
    values} for the algorithmic layers (Howard, Incremental, Sim) are
    deterministic for a given input; per-domain counters emitted by
    {!Ermes_parallel.Parallel} and all span durations depend on scheduling
    and the host clock. *)

val set_clock : (unit -> float) -> unit
(** Install the time source (seconds, as a float). The default is
    [Unix.gettimeofday], wall time, so every entry point that enables the
    sink records wall-clock spans; tests install fake clocks. *)

val enable : unit -> unit
(** Install a fresh sink (discarding any previously collected data). *)

val disable : unit -> unit
(** Remove the sink; subsequent events cost one branch and record nothing. *)

val enabled : unit -> bool

(** {1 Counters} *)

val incr : ?by:int -> string -> unit
(** [incr name] adds [by] (default 1) to the named counter, creating it at 0
    first. [incr ~by:0 name] registers the counter so it appears in exports
    even if never bumped — instrumented modules use it to declare their
    counter set up front. No-op when disabled. *)

val counter : string -> int
(** Current value; 0 when absent or disabled. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and records its wall-clock interval. Nestable;
    exception-safe (the interval is recorded even if [f] raises). When
    disabled, [span name f] is [f ()] plus one branch. *)

type span_stat = {
  span_name : string;
  calls : int;
  total_s : float;  (** summed duration, seconds *)
  max_s : float;  (** longest single call, seconds *)
}

val span_stats : unit -> span_stat list
(** Aggregated per-name statistics, sorted by name. They count every span
    recorded since {!enable}, including those past {!max_events}. *)

val max_events : int
(** How many individual span events a sink retains for {!chrome_trace}
    (10{^6}); later spans still count in {!span_stats}. *)

(** {1 Snapshots}

    Readers that poll a {e live} sink — a metrics endpoint answering while
    worker domains keep counting — need the counter table and the span
    aggregates to agree with each other. {!snapshot} captures both under a
    single lock acquisition; {!summary} and {!chrome_trace} are built on the
    same consistent cut. *)

type snapshot = {
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_spans : span_stat list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** A consistent view of all counters and span aggregates: both halves are
    read under one lock acquisition, so concurrent writers can never be
    half-reflected. Empty when disabled. Safe to call from any domain at any
    rate; cost is O(counters + span names). *)

(** {1 Exporters} *)

val summary : unit -> string
(** Plain-text table: counters (sorted by name, exact values) followed by
    span aggregates (calls, total and max milliseconds). *)

val chrome_trace : unit -> string
(** The collected data as Chrome trace-event JSON: one ["X"] (complete)
    event per span occurrence, with microsecond timestamps relative to
    [enable] time and the recording domain as [tid], plus one ["C"]
    (counter) event per counter holding its final value. *)

val write_chrome_trace : string -> unit
(** [write_chrome_trace file] writes {!chrome_trace} to [file]. *)

val json_escape : string -> string
(** The body of a JSON string literal holding [s]: quote, backslash and
    control characters escaped, every other byte verbatim. Every JSON
    writer in ermes (traces, lint and batch reports, daemon frames) uses
    it. *)
