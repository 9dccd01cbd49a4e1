(** Minimal binary min-heap keyed by integer time, used by the simulator's
    event queue. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> int -> 'a -> unit
val pop_min : 'a t -> (int * 'a) option
(** Removes and returns the entry with the smallest key (ties in insertion
    order are not guaranteed). *)
