(** Growable arrays.

    A tiny dynamic-array substrate used throughout the project (OCaml 5.1
    predates [Dynarray] in the standard library). Elements are stored densely
    in insertion order; indices are stable. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element. @raise Invalid_argument if out of range. *)

val set : 'a t -> int -> 'a -> unit
(** [set v i x] replaces the [i]-th element. @raise Invalid_argument if out of
    range. *)

val push : 'a t -> 'a -> int
(** [push v x] appends [x] and returns its index. *)

val pop : 'a t -> 'a option
(** [pop v] removes and returns the last element, if any. *)

val last : 'a t -> 'a option

val clear : 'a t -> unit
(** [clear v] removes all elements (capacity is retained). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val to_array : 'a t -> 'a array

val map : ('a -> 'b) -> 'a t -> 'b t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** [sort cmp v] sorts [v] in place according to [cmp]. *)
