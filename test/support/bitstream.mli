(** Bit-level I/O for the entropy coder. *)

module Writer : sig
  type t

  val create : unit -> t
  val put_bit : t -> int -> unit
  (** @raise Invalid_argument unless 0 or 1. *)

  val put_bits : t -> width:int -> int -> unit
  (** Writes [width] bits, most significant first.
      @raise Invalid_argument if the value does not fit in [width] bits or
      [width] is not in 1..30. *)

  val bit_length : t -> int
  val to_bytes : t -> Bytes.t
  (** Padded with zero bits to a byte boundary. *)
end

module Reader : sig
  type t

  val of_bytes : Bytes.t -> t
  val of_writer : Writer.t -> t
  (** Reads exactly the bits written (no padding visible). *)

  val bits_remaining : t -> int

  val get_bit : t -> int
  (** @raise Invalid_argument past the end. *)

  val get_bits : t -> width:int -> int
end
