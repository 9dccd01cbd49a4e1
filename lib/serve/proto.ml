let proto_version = 1

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ---- emitter ------------------------------------------------------------- *)

let float_to_string f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg "Proto.to_string: NaN/inf is not JSON"
  else
    (* A forced decimal point (or exponent) makes the parser read the value
       back as a float, keeping round-trips type-stable. *)
    let s = Printf.sprintf "%.12g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then s
    else s ^ ".0"

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_to_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Ermes_obs.Obs.json_escape s);
      Buffer.add_char b '"'
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (Ermes_obs.Obs.json_escape k);
          Buffer.add_string b "\":";
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---- parser -------------------------------------------------------------- *)

exception Bad of string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> raise (Bad (Printf.sprintf "expected %C at byte %d, got %C" c !pos d))
    | None -> raise (Bad (Printf.sprintf "expected %C at end of input" c))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    (* Each run of bytes up to the next quote or backslash is one blit. *)
    let rec go () =
      let start = !pos in
      let stop = ref start in
      while !stop < n && match text.[!stop] with '"' | '\\' -> false | _ -> true do
        incr stop
      done;
      Buffer.add_substring buf text start (!stop - start);
      pos := !stop;
      if !pos >= n then raise (Bad "unterminated string");
      let c = text.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | _ (* a backslash *) ->
        if !pos >= n then raise (Bad "unterminated escape");
        let e = text.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then raise (Bad "truncated \\u escape");
          let hex = String.sub text !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x100 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> raise (Bad "non-latin1 \\u escape unsupported")
          | None -> raise (Bad "bad \\u escape"))
        | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
        go ()
    in
    go ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      v
    end
    else raise (Bad "bad literal")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> raise (Bad "expected ',' or '}' in object")
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> raise (Bad "expected ',' or ']' in array")
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      if peek () = Some '-' then advance ();
      let digits () =
        while !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false do
          advance ()
        done
      in
      digits ();
      let is_float = ref false in
      if peek () = Some '.' then begin
        is_float := true;
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      let token = String.sub text start (!pos - start) in
      if !is_float then
        match float_of_string_opt token with
        | Some f -> Float f
        | None -> raise (Bad ("bad number " ^ token))
      else (
        match int_of_string_opt token with
        | Some i -> Int i
        | None -> raise (Bad ("bad number " ^ token)))
    | Some c -> raise (Bad (Printf.sprintf "unexpected %C" c))
    | None -> raise (Bad "unexpected end of input")
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let str_member key v =
  match member key v with Some (Str s) -> Some s | _ -> None

let int_member key v = match member key v with Some (Int i) -> Some i | _ -> None

let bool_member key v =
  match member key v with Some (Bool b) -> Some b | _ -> None

(* ---- framing ------------------------------------------------------------- *)

let default_max_frame = 16 * 1024 * 1024

let max_frame_bytes () =
  match Sys.getenv_opt "ERMES_MAX_FRAME_BYTES" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> default_max_frame)
  | None -> default_max_frame

let frame payload =
  let n = String.length payload in
  if n > max_frame_bytes () then
    invalid_arg
      (Printf.sprintf "Proto.frame: payload of %d bytes exceeds the %d-byte frame limit"
         n (max_frame_bytes ()));
  Printf.sprintf "%d\n%s" n payload

(* The decoder accumulates raw bytes and peels frames. The length prefix is
   parsed before any payload is retained, so a hostile peer cannot make the
   daemon buffer more than [max_frame_bytes] + one prefix line. *)
type decoder = {
  buf : Buffer.t;
  mutable expecting : int option;  (** payload length once the prefix parsed *)
  mutable poisoned : string option;
}

let decoder () = { buf = Buffer.create 512; expecting = None; poisoned = None }

let feed d bytes n = Buffer.add_subbytes d.buf bytes 0 n

let buffered d = Buffer.length d.buf

let pending d =
  d.poisoned = None && (d.expecting <> None || Buffer.length d.buf > 0)

(* Drop the first [k] bytes of the buffer. *)
let consume d k =
  let s = Buffer.contents d.buf in
  Buffer.clear d.buf;
  Buffer.add_substring d.buf s k (String.length s - k)

let next d =
  match d.poisoned with
  | Some e -> Error e
  | None -> (
    let poison e =
      d.poisoned <- Some e;
      Error e
    in
    match d.expecting with
    | None -> (
      let s = Buffer.contents d.buf in
      match String.index_opt s '\n' with
      | None ->
        (* No prefix yet; a prefix longer than the digits of the frame limit
           is already hostile. *)
        if String.length s > 24 then poison "oversized frame length prefix"
        else Ok None
      | Some nl -> (
        let prefix = String.sub s 0 nl in
        match int_of_string_opt (String.trim prefix) with
        | Some len when len >= 0 && len <= max_frame_bytes () ->
          consume d (nl + 1);
          d.expecting <- Some len;
          Ok None
        | Some len -> poison (Printf.sprintf "frame of %d bytes exceeds the limit" len)
        | None -> poison (Printf.sprintf "bad frame length prefix %S" prefix)))
    | Some len ->
      if Buffer.length d.buf < len then Ok None
      else begin
        let s = Buffer.contents d.buf in
        let payload = String.sub s 0 len in
        consume d len;
        d.expecting <- None;
        Ok (Some payload)
      end)

(* [next] consumes at most one state transition per call; drive it until a
   frame or a genuine need for more bytes. *)
let next d =
  let rec go () =
    let before = (d.expecting, Buffer.length d.buf) in
    match next d with
    | Ok None when (d.expecting, Buffer.length d.buf) <> before -> go ()
    | r -> r
  in
  go ()

(* ---- requests and replies ------------------------------------------------ *)

type request = { id : int; verb : string; body : json }

let parse_request payload =
  match of_string payload with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok body -> (
    match (int_member "id" body, str_member "verb" body) with
    | Some id, Some verb -> Ok { id; verb; body }
    | None, _ -> Error "request is missing an integer \"id\""
    | _, None -> Error "request is missing a string \"verb\"")

let code_of_status = function
  | "ok" -> 0
  | "bad-request" | "invalid" -> 1
  | "findings" | "deadlock" | "crash" -> 2
  | "timeout" | "overloaded" | "client-cap" | "degraded" | "shutting-down" -> 3
  | _ -> 1

let reply ?(extra = []) ~id ~verb status =
  Obj
    ([
       ("id", Int id);
       ("verb", Str verb);
       ("status", Str status);
       ("code", Int (code_of_status status));
     ]
    @ extra)

let error_reply ?(extra = []) ~id ~verb ~status msg =
  reply ~extra:(("error", Str msg) :: extra) ~id ~verb status

let hello_request ~client =
  Obj
    [
      ("id", Int 0);
      ("verb", Str "hello");
      ("proto_version", Int proto_version);
      ("client", Str client);
    ]

let hello_reply ~id ~server =
  reply
    ~extra:[ ("proto_version", Int proto_version); ("server", Str server) ]
    ~id ~verb:"hello" "ok"
