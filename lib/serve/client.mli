(** A frame-level client of [ermes serve]: connect to the unix socket, send
    {!Proto} frames, read reply payloads back.

    The client speaks frames, not verbs: building requests and judging
    replies stays with the caller ([ermes call], the chaos campaign's serve
    target, the tests). Every failure comes back as a value, so each caller
    keeps its own wording and exit code. *)

type t

type failure =
  | Closed  (** the daemon closed the connection before a whole frame *)
  | Timed_out  (** nothing arrived within the receive timeout *)
  | Bad_frame of string  (** a malformed or oversized frame prefix *)
  | Io of string  (** any other socket error, as [Unix.error_message] *)

val connect : ?retries:int -> timeout_s:float -> string -> (t, string) result
(** [connect ~timeout_s path] opens a connection to the daemon listening on
    [path]. A refused connection is retried [retries] more times (default
    0), 50 ms apart — for a daemon that is still starting. [timeout_s]
    bounds every wait in {!recv}. [Error] carries the last connect error's
    [Unix.error_message]. *)

val send : t -> string -> (unit, string) result
(** [send c payload] writes [Proto.frame payload] whole. [Error] carries the
    [Unix.error_message]. *)

val send_raw : t -> string -> (unit, string) result
(** Writes the bytes as they are, unframed — for tests of what the daemon
    does with a half-sent frame. *)

val recv : t -> (string, failure) result
(** The next reply payload. Reads interrupted by [EINTR] are retried. *)

val close : t -> unit
(** Closes the socket; errors are ignored. *)
