(** Warm-result cache keyed by design hash.

    The cache key is the MD5 digest of the {e canonical} design text — the
    [Soc_format.print] of the parsed system — so two texts differing only in
    whitespace, comments or formatting share an entry, while any change to a
    latency, selection, order or channel kind produces a new key (see
    DESIGN.md §12 for the exact definition).

    Entries store the finished reply fragment of a certified analysis
    together with its certificate description and the independent checker's
    verdict, so a warm answer remains self-auditing: the client sees the
    same certificate fields whether the answer was computed or replayed.
    Entries are immutable; eviction is least-recently-used at a fixed
    capacity. All operations are mutex-guarded — any worker domain may
    consult or fill the cache. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val key_of_canonical : string -> string
(** MD5 hex digest of the canonical design text. *)

val find : 'a t -> string -> 'a option
(** Lookup; bumps recency and the hit counter on success, the miss counter
    otherwise. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or refresh) an entry, evicting the least recently used one when
    full. *)

type stats = { size : int; capacity : int; hits : int; misses : int; evictions : int }

val stats : 'a t -> stats
