module Obs = Ermes_obs.Obs

type limits = { max_bytes : int; max_token : int }

(* Hard ceilings against hostile inputs. Overridable per call and through the
   environment, so operators can raise them without a rebuild; a non-positive
   or unparseable override falls back to the default. *)
let builtin_limits = { max_bytes = 8_000_000; max_token = 4_096 }

let env_limit name fallback =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> fallback

let default_limits () =
  {
    max_bytes = env_limit "ERMES_MAX_SOC_BYTES" builtin_limits.max_bytes;
    max_token = env_limit "ERMES_MAX_SOC_TOKEN" builtin_limits.max_token;
  }

let is_sep ch = ch = ' ' || ch = '\t'

(* Directive keywords (and the generator's usual implementation tag) come
   back as these shared strings, so a token is copied out of the text only
   when it is a name or a number. *)
let rec same text i kw c =
  c = String.length kw || (Char.equal kw.[c] text.[i + c] && same text i kw (c + 1))

let is text i len kw = String.length kw = len && same text i kw 0

let token text i len =
  let pick kw = if is text i len kw then kw else String.sub text i len in
  match text.[i] with
  | 'a' -> pick "area"
  | 'c' -> pick "channel"
  | 'f' -> pick "fifo"
  | 'g' -> pick "gets"
  | 'h' -> pick "handshake"
  | 'i' -> pick "impl"
  | 'l' -> pick "latency"
  | 'o' -> pick "only"
  | 'p' ->
    if is text i len "process" then "process"
    else if is text i len "puts" then "puts"
    else pick "puts_first"
  | 'r' -> pick "rate"
  | 's' -> if is text i len "system" then "system" else pick "select"
  | _ -> String.sub text i len

(* The tokens of the line [text.[start .. stop - 1]], up to a [#] comment,
   each paired with its 1-based start column, so errors can point at the
   offending token rather than just its line. The line is scanned in place,
   right to left, so the list comes out in order. *)
let line_tokens text start stop =
  let stop =
    let rec comment k = if k = stop || text.[k] = '#' then k else comment (k + 1) in
    comment start
  in
  let rec scan j acc =
    if j <= start then acc
    else if is_sep text.[j - 1] then scan (j - 1) acc
    else begin
      let i = ref (j - 1) in
      while !i > start && not (is_sep text.[!i - 1]) do
        decr i
      done;
      scan !i ((token text !i (j - !i), !i - start + 1) :: acc)
    end
  in
  scan stop []

let tokenize line = line_tokens line 0 (String.length line)

exception Parse_error of int * string  (* column, message *)

let fail col fmt = Printf.ksprintf (fun s -> raise (Parse_error (col, s))) fmt

let int_of col what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail col "%s: expected integer, got %S" what s

let float_of col what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail col "%s: expected number, got %S" what s

(* [impl TAG latency INT area FLOAT]+ *)
let rec parse_impls dcol acc = function
  | [] ->
    if acc = [] then fail dcol "process needs at least one 'impl'";
    List.rev acc
  | ("impl", _) :: (tag, _) :: ("latency", _) :: (l, lcol) :: ("area", _) :: (a, acol) :: rest
    ->
    let impl =
      { System.tag; latency = int_of lcol "latency" l; area = float_of acol "area" a }
    in
    parse_impls dcol (impl :: acc) rest
  | (tok, col) :: _ -> fail col "expected 'impl TAG latency INT area FLOAT', got %S" tok

let kind_usage =
  "usage: channel NAME SRC DST latency INT [fifo INT | rate INT/INT fifo INT | \
   handshake INT]"

(* The channel-kind tail of a [channel] directive. Returns the kind and the
   column of its parameter token (where a validation error should point), or
   [None] for the default rendezvous kind. Shared with the linter, which
   re-runs it on the raw token stream to produce position-accurate
   diagnostics even when the strict parse fails elsewhere.
   @raise Parse_error on a malformed tail. *)
let parse_kind_tokens rest =
  match rest with
  | [] -> None
  | [ ("fifo", _); (k, kcol) ] -> Some (System.Fifo (int_of kcol "fifo" k), kcol)
  | [ ("rate", _); (pc, rcol); ("fifo", _); (k, kcol) ] ->
    let produce, consume =
      match String.index_opt pc '/' with
      | Some i ->
        let p = String.sub pc 0 i in
        let c = String.sub pc (i + 1) (String.length pc - i - 1) in
        (int_of rcol "rate produce" p, int_of (rcol + i + 1) "rate consume" c)
      | None -> fail rcol "rate: expected PRODUCE/CONSUME, got %S" pc
    in
    Some (System.Multi_rate { produce; consume; depth = int_of kcol "fifo" k }, rcol)
  | [ ("handshake", _); (k, kcol) ] ->
    Some (System.Handshake { hold = int_of kcol "handshake" k }, kcol)
  | (_, col) :: _ -> fail col "%s" kind_usage

let find_process sys col name =
  match System.find_process sys name with
  | Some p -> p
  | None -> fail col "unknown process %S" name

let find_channel sys col name =
  match System.find_channel sys name with
  | Some c -> c
  | None -> fail col "unknown channel %S" name

let check_size limits text =
  if String.length text > limits.max_bytes then
    Error
      (Printf.sprintf
         "input is %d bytes, over the %d-byte limit (raise ERMES_MAX_SOC_BYTES \
          to accept larger descriptions)"
         (String.length text) limits.max_bytes)
  else Ok ()

(* Reject pathological tokens before any directive logic sees them: a single
   multi-megabyte "name" would otherwise be copied into tables, error
   messages and the canonical printer unbounded. *)
let check_tokens limits toks =
  List.iter
    (fun (tok, col) ->
      if String.length tok > limits.max_token then
        fail col "token is %d bytes, over the %d-byte limit (ERMES_MAX_SOC_TOKEN)"
          (String.length tok) limits.max_token)
    toks;
  toks

(* The directive interpreter behind {!parse} and {!parse_tokens}:
   [iter_lines f] calls [f lineno tokens] on every line in order. *)
let interpret limits iter_lines =
  let sys = ref None in
  (* Whether a real [system] directive was seen ([sys] may hold a placeholder
     installed after an error, so that the remaining directives can still be
     checked and all independent errors reported in one pass). *)
  let declared = ref false in
  let get_sys col =
    match !sys with
    | Some s -> s
    | None -> fail col "the first directive must be 'system NAME'"
  in
  let handle toks =
    match toks with
    | [] -> ()
    | [ ("system", dcol); (name, _) ] ->
      if !declared then fail dcol "duplicate 'system' directive"
      else begin
        declared := true;
        match !sys with
        | None -> sys := Some (System.create ~name ())
        | Some _ ->
          (* Directives before this point were checked against a placeholder;
             restart with the real system (their errors are already recorded). *)
          sys := Some (System.create ~name ())
      end
    | ("system", col) :: _ -> fail col "usage: system NAME"
    | ("process", dcol) :: (name, ncol) :: rest ->
      let s = get_sys dcol in
      let phase, rest =
        match rest with
        | ("puts_first", _) :: rest -> (System.Puts_first, rest)
        | rest -> (System.Gets_first, rest)
      in
      let impls = parse_impls dcol [] rest in
      (try ignore (System.add_process s ~phase ~impls name)
       with Invalid_argument m -> fail ncol "%s" m)
    | [ ("select", dcol); (pname, pcol); (idx, icol) ] ->
      let s = get_sys dcol in
      let p = find_process s pcol pname in
      (try System.select s p (int_of icol "select" idx)
       with Invalid_argument m -> fail icol "%s" m)
    | ("channel", dcol) :: (name, ncol) :: (src, scol) :: (dst, tcol) :: ("latency", _)
      :: (l, lcol) :: rest ->
      let s = get_sys dcol in
      let src = find_process s scol src and dst = find_process s tcol dst in
      let latency = int_of lcol "latency" l in
      if latency < 1 then fail lcol "latency must be >= 1, got %d" latency;
      let c =
        try System.add_channel s ~name ~src ~dst ~latency
        with Invalid_argument m -> fail ncol "%s" m
      in
      (match parse_kind_tokens rest with
       | None -> ()
       | Some (kind, pcol) -> (
         (* Validate first so the diagnostic carries the bare message, not
            the [set_channel_kind] exception prefix (same text as lint). *)
         match System.validate_kind kind with
         | Error m -> fail pcol "%s" m
         | Ok () -> System.set_channel_kind s c kind))
    | ("channel", dcol) :: _ -> fail dcol "%s" kind_usage
    | ("gets", dcol) :: (pname, pcol) :: chs ->
      let s = get_sys dcol in
      let p = find_process s pcol pname in
      let order = List.map (fun (ch, col) -> find_channel s col ch) chs in
      (try System.set_get_order s p order
       with Invalid_argument m -> fail pcol "%s" m)
    | ("puts", dcol) :: (pname, pcol) :: chs ->
      let s = get_sys dcol in
      let p = find_process s pcol pname in
      let order = List.map (fun (ch, col) -> find_channel s col ch) chs in
      (try System.set_put_order s p order
       with Invalid_argument m -> fail pcol "%s" m)
    | (tok, col) :: _ -> fail col "unknown directive %S" tok
  in
  let errors = ref [] in
  iter_lines (fun lineno toks ->
      match handle (check_tokens limits toks) with
      | () -> ()
      | exception Parse_error (col, msg) ->
        errors := Printf.sprintf "line %d, col %d: %s" lineno col msg :: !errors;
        (* Install a placeholder so the remaining lines can still be checked
           when the description never opened a system. *)
        if !sys = None then sys := Some (System.create ~name:"(invalid)" ()));
  match (List.rev !errors, !sys) with
  | [], Some s when !declared -> Ok s
  | [], _ -> Error "empty description: missing 'system NAME'"
  | errs, _ -> Error (String.concat "\n" errs)

let parse ?limits text =
  Obs.span "soc_format.parse" @@ fun () ->
  let limits = match limits with Some l -> l | None -> default_limits () in
  match check_size limits text with
  | Error e -> Error e
  | Ok () ->
    let len = String.length text in
    interpret limits (fun f ->
        (* Line by line, in place: [start] is where line [lineno] begins. *)
        let rec lines start lineno =
          let stop = Option.value ~default:len (String.index_from_opt text start '\n') in
          f lineno (line_tokens text start stop);
          if stop < len then lines (stop + 1) (lineno + 1)
        in
        lines 0 1)

let parse_tokens limits lines =
  Obs.span "soc_format.parse" @@ fun () ->
  interpret limits (fun f -> List.iteri (fun i toks -> f (i + 1) toks) lines)

let parse_file ?limits path =
  let limits = match limits with Some l -> l | None -> default_limits () in
  (* Stat before reading: an over-limit file is rejected without ever
     allocating its contents. *)
  match In_channel.with_open_bin path In_channel.length with
  | exception Sys_error m -> Error m
  | len when len > Int64.of_int limits.max_bytes ->
    Error
      (Printf.sprintf
         "file is %Ld bytes, over the %d-byte limit (raise ERMES_MAX_SOC_BYTES \
          to accept larger descriptions)"
         len limits.max_bytes)
  | _ -> (
    match In_channel.with_open_text path In_channel.input_all with
    | text -> parse ~limits text
    | exception Sys_error m -> Error m)

type source = File of string | Text of string

let load source =
  match (match source with File path -> parse_file path | Text text -> parse text) with
  | Error e -> Error e
  | Ok sys -> (
    match System.validate sys with
    | Ok () -> Ok sys
    | Error e -> Error ("invalid system: " ^ e))

(* The primitive Printf's [%.9g] ends in: the same bytes, without
   interpreting a format per area. *)
external format_float : string -> float -> string = "caml_format_float"

(* Printf-free: the daemon prints every design it is sent to key its cache,
   and the text is also every journal's fingerprint, so the bytes are
   pinned (test_slm holds them to a Printf copy). *)
let print sys =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf and char = Buffer.add_char buf in
  let int i = add (string_of_int i) in
  add "system ";
  add (System.name sys);
  char '\n';
  List.iter
    (fun p ->
      add "process ";
      add (System.process_name sys p);
      (match System.phase sys p with
       | System.Puts_first -> add " puts_first"
       | System.Gets_first -> ());
      Array.iter
        (fun (i : System.impl) ->
          add " impl ";
          add i.tag;
          add " latency ";
          int i.latency;
          add " area ";
          add (format_float "%.9g" i.area))
        (System.impls sys p);
      char '\n')
    (System.processes sys);
  List.iter
    (fun c ->
      add "channel ";
      add (System.channel_name sys c);
      char ' ';
      add (System.process_name sys (System.channel_src sys c));
      char ' ';
      add (System.process_name sys (System.channel_dst sys c));
      add " latency ";
      int (System.channel_latency sys c);
      (match System.channel_kind sys c with
       | System.Rendezvous -> ()
       | k ->
         char ' ';
         add (System.string_of_kind k));
      char '\n')
    (System.channels sys);
  let order keyword p = function
    | [] -> ()
    | channels ->
      add keyword;
      add (System.process_name sys p);
      List.iter
        (fun c ->
          char ' ';
          add (System.channel_name sys c))
        channels;
      char '\n'
  in
  List.iter
    (fun p ->
      if System.selected sys p <> 0 then begin
        add "select ";
        add (System.process_name sys p);
        char ' ';
        int (System.selected sys p);
        char '\n'
      end;
      order "gets " p (System.get_order sys p);
      order "puts " p (System.put_order sys p))
    (System.processes sys);
  Buffer.contents buf

let write_file path sys = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (print sys))
