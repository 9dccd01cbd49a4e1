type t = { fd : Unix.file_descr; dec : Proto.decoder; buf : Bytes.t }

type failure = Closed | Timed_out | Bad_frame of string | Io of string

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let connect ?(retries = 0) ~timeout_s path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
      Ok { fd; dec = Proto.decoder (); buf = Bytes.create 65536 }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if tries = 0 then Error (Unix.error_message e)
      else begin
        Unix.sleepf 0.05;
        go (tries - 1)
      end
  in
  go retries

let send_raw c s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  match go 0 with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let send c payload = send_raw c (Proto.frame payload)

let rec recv c =
  match Proto.next c.dec with
  | Ok (Some payload) -> Ok payload
  | Error e -> Error (Bad_frame e)
  | Ok None -> (
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | 0 -> Error Closed
    | n ->
      Proto.feed c.dec c.buf n;
      recv c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error Timed_out
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e)))
