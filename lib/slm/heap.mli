(** Minimal binary min-heap keyed by integer time, used by the simulator's
    event queue. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val push : 'a t -> int -> 'a -> unit
val pop_min : 'a t -> (int * 'a) option
(** Removes and returns the entry with the smallest key (ties in insertion
    order are not guaranteed). *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [iter f h] applies [f key v] to every entry in the heap's internal
    layout order — the order that, with the keys, decides how later ties
    pop. *)
