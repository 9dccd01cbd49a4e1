module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module To_tmg = Ermes_slm.To_tmg
module Tmg = Ermes_tmg.Tmg
module Csr = Ermes_tmg.Csr
module Liveness = Ermes_tmg.Liveness
module Ratio = Ermes_tmg.Ratio
module Obs = Ermes_obs.Obs

type severity = Error | Warning

type diagnostic = {
  code : string;
  severity : severity;
  line : int;
  col : int;
  message : string;
}

type report = {
  file : string;
  diagnostics : diagnostic list;
  checked_semantics : bool;
}

let errors r =
  List.length (List.filter (fun d -> d.severity = Error) r.diagnostics)

let warnings r =
  List.length (List.filter (fun d -> d.severity = Warning) r.diagnostics)

let compare_diag a b =
  let c = compare a.line b.line in
  if c <> 0 then c
  else
    let c = compare a.col b.col in
    if c <> 0 then c
    else
      let c = compare a.code b.code in
      if c <> 0 then c else compare a.message b.message

(* Every pass adds its findings to one list; the report sorts them. *)
let emit diags code severity line col fmt =
  Printf.ksprintf
    (fun message -> diags := { code; severity; line; col; message } :: !diags)
    fmt

(* ------------------------------------------------------------------ *)
(* Declaration pass: three sweeps over the raw token stream, so every
   name/shape mistake is reported at its exact position even when the strict
   parser gives up on the file. *)
(* ------------------------------------------------------------------ *)

type decl_tables = {
  proc_pos : (string, int * int) Hashtbl.t;  (* name -> decl line, col *)
  chan_pos : (string, int * int) Hashtbl.t;
  chan_ends : (string, string * string) Hashtbl.t;  (* name -> src, dst *)
  ins : (string, string list) Hashtbl.t;  (* process -> input channel names *)
  outs : (string, string list) Hashtbl.t;  (* process -> output channel names *)
}

let declaration_pass diags lines =
  let emit code = emit diags code in
  let t =
    {
      proc_pos = Hashtbl.create 16;
      chan_pos = Hashtbl.create 16;
      chan_ends = Hashtbl.create 16;
      ins = Hashtbl.create 16;
      outs = Hashtbl.create 16;
    }
  in
  let append tbl key v =
    Hashtbl.replace tbl key ((try Hashtbl.find tbl key with Not_found -> []) @ [ v ])
  in
  (* Sweep 1: process declarations. *)
  List.iteri
    (fun i toks ->
      let line = i + 1 in
      match toks with
      | ("process", _) :: (name, ncol) :: _ ->
        if Hashtbl.mem t.proc_pos name then
          emit "E102" Error line ncol "duplicate process %S" name
        else Hashtbl.replace t.proc_pos name (line, ncol)
      | _ -> ())
    lines;
  (* Sweep 2: channel declarations (endpoints may name any process in the
     file, wherever it is declared). *)
  List.iteri
    (fun i toks ->
      let line = i + 1 in
      match toks with
      | ("channel", _) :: (name, ncol) :: (src, scol) :: (dst, dcol) :: rest ->
        let src_ok = Hashtbl.mem t.proc_pos src in
        let dst_ok = Hashtbl.mem t.proc_pos dst in
        if not src_ok then
          emit "E102" Error line scol "channel %S: undeclared process %S" name src;
        if not dst_ok then
          emit "E102" Error line dcol "channel %S: undeclared process %S" name dst;
        if src_ok && dst_ok && src = dst then
          emit "E101" Error line ncol
            "channel %S must connect two distinct processes, both ends are %S" name
            src;
        if Hashtbl.mem t.chan_pos name then
          emit "E102" Error line ncol "duplicate channel %S" name
        else begin
          Hashtbl.replace t.chan_pos name (line, ncol);
          Hashtbl.replace t.chan_ends name (src, dst);
          if src_ok then append t.outs src name;
          if dst_ok then append t.ins dst name
        end;
        (* Latency and kind parameters, through the same helpers the strict
           parser and [System.set_channel_kind] use — the checks cannot
           drift. E106 keeps its historical meaning (bad FIFO depth); other
           kinds report under E109; a throughput-limiting multi-rate depth
           is W203. *)
        (match rest with
         | ("latency", _) :: (l, lcol) :: tail ->
           (match int_of_string_opt l with
            | Some v when v < 1 ->
              emit "E111" Error line lcol "channel %S: latency must be >= 1, got %d"
                name v
            | _ -> ());
           (match Soc_format.parse_kind_tokens tail with
            | exception Soc_format.Parse_error (col, msg) ->
              emit "E109" Error line col "channel %S: %s" name msg
            | None -> ()
            | Some (kind, pcol) -> (
              match System.validate_kind kind with
              | Error msg -> (
                match kind with
                | System.Fifo d ->
                  emit "E106" Error line pcol "channel %S: %s, got %d" name msg d
                | _ -> emit "E109" Error line pcol "channel %S: %s" name msg)
              | Ok () -> (
                match kind with
                | System.Multi_rate { produce; consume; depth } ->
                  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
                  let safe = produce + consume - gcd produce consume in
                  if depth < safe then
                    emit "W203" Warning line pcol
                      "channel %S: depth %d is below produce + consume - \
                       gcd = %d and may deadlock or throttle the rates"
                      name depth safe
                | _ -> ())))
         | _ -> ())
      | _ -> ())
    lines;
  (* Sweep 3: references (select / gets / puts). *)
  let check_order line keyword code_dir ~listed ~expected pname =
    (* direction: every listed channel must be an [expected] channel of the
       process; arity: the list must be a permutation of [expected]. *)
    let all_known = ref true in
    List.iter
      (fun (ch, col) ->
        if not (Hashtbl.mem t.chan_pos ch) then begin
          all_known := false;
          emit "E102" Error line col "%s %s: undeclared channel %S" keyword pname ch
        end
        else if not (List.mem ch expected) then begin
          all_known := false;
          let src, dst = Hashtbl.find t.chan_ends ch in
          emit code_dir Error line col
            "%s %s: channel %S does not %s %s (it connects %s -> %s)" keyword pname
            ch
            (if keyword = "gets" then "feed" else "leave")
            pname src dst
        end)
      listed;
    if !all_known then begin
      let names = List.map fst listed in
      let missing = List.filter (fun c -> not (List.mem c names)) expected in
      let repeated =
        List.sort_uniq compare
          (List.filter (fun c -> List.length (List.filter (( = ) c) names) > 1) names)
      in
      if missing <> [] || repeated <> [] then begin
        let parts = [] in
        let parts =
          if missing = [] then parts
          else Printf.sprintf "missing %s" (String.concat ", " missing) :: parts
        in
        let parts =
          if repeated = [] then parts
          else Printf.sprintf "repeated %s" (String.concat ", " repeated) :: parts
        in
        let col = match listed with (_, c) :: _ -> c | [] -> 1 in
        emit "E104" Error line col
          "%s %s: not a permutation of the process's %s channels (%s)" keyword pname
          (if keyword = "gets" then "input" else "output")
          (String.concat "; " (List.rev parts))
      end
    end
  in
  List.iteri
    (fun i toks ->
      let line = i + 1 in
      match toks with
      | [ ("select", _); (pname, pcol); _ ] ->
        if not (Hashtbl.mem t.proc_pos pname) then
          emit "E102" Error line pcol "select: undeclared process %S" pname
      | ("gets", _) :: (pname, pcol) :: chs ->
        if not (Hashtbl.mem t.proc_pos pname) then
          emit "E102" Error line pcol "gets: undeclared process %S" pname
        else
          check_order line "gets" "E103" ~listed:chs
            ~expected:(try Hashtbl.find t.ins pname with Not_found -> [])
            pname
      | ("puts", _) :: (pname, pcol) :: chs ->
        if not (Hashtbl.mem t.proc_pos pname) then
          emit "E102" Error line pcol "puts: undeclared process %S" pname
        else
          check_order line "puts" "E103" ~listed:chs
            ~expected:(try Hashtbl.find t.outs pname with Not_found -> [])
            pname
      | _ -> ())
    lines;
  (* Isolated processes: declared but touched by no channel. *)
  Hashtbl.iter
    (fun name (line, col) ->
      if
        (not (Hashtbl.mem t.ins name))
        && not (Hashtbl.mem t.outs name)
      then
        emit "E105" Error line col "process %S has no channels (isolated)" name)
    t.proc_pos;
  t.proc_pos

(* ------------------------------------------------------------------ *)
(* Semantic pass: deadlock proof + serialization probes on the parsed
   system. *)
(* ------------------------------------------------------------------ *)

let semantic_pass diags sys proc_pos =
  let emit code = emit diags code in
  match System.repetition_vector sys with
  | Error msg ->
    (* Inconsistent multi-rate weights: no common period, no unfolding, no
       TMG — its own code, distinct from the structural E105. *)
    emit "E110" Error 0 0 "%s" msg
  | Ok _ ->
  match System.validate sys with
  | Error msg -> emit "E105" Error 0 0 "invalid system structure: %s" msg
  | Ok () ->
    let mapping = To_tmg.build sys in
    let tmg = mapping.To_tmg.tmg in
    (* One warm solver gives the verdict and serves every probe: its deadlock
       witness is the token-free cycle the pointer liveness pass reports. *)
    let solver = Csr.make_solver tmg in
    (match Csr.solve solver with
    | Error (Csr.Deadlock dead) ->
      let places =
        String.concat " "
          (List.map (Tmg.place_name tmg) dead.Liveness.dead_places)
      in
      let procs =
        To_tmg.processes_on_cycle mapping dead.Liveness.dead_transitions
        |> List.map (System.process_name sys)
      in
      let chans =
        To_tmg.channels_on_cycle mapping dead.Liveness.dead_transitions
        |> List.map (System.channel_name sys)
      in
      emit "E107" Error 0 0
        "statically proven deadlock: token-free cycle [%s] (processes: %s; channels: %s)"
        places
        (String.concat " " procs)
        (String.concat " " chans)
    | Error Csr.No_cycle -> ()  (* acyclic: no probes *)
    | Ok base ->
      (* Live: one swap sweep that keeps nothing reports every adjacent
         statement swap that strictly lowers the cycle time. *)
      let base_ct = base.Csr.cycle_time in
      ignore
        (Order.sweep mapping solver sys ~base ~budget:max_int
           ~keep:(fun (s : Order.swap) r ->
             let name = System.process_name sys s.process in
             let line, col = try Hashtbl.find proc_pos name with Not_found -> (0, 0) in
             let code, keyword =
               match s.side with `Gets -> ("W201", "gets") | `Puts -> ("W202", "puts")
             in
             emit code Warning line col
               "process %s: swapping adjacent %s of %s and %s improves the cycle time %s -> %s"
               name keyword
               (System.channel_name sys s.first)
               (System.channel_name sys s.second)
               (Ratio.to_string base_ct)
               (Ratio.to_string r.Csr.cycle_time);
             false)))

(* ------------------------------------------------------------------ *)

let lint_string ?(file = "<stdin>") text =
  let limits = Soc_format.default_limits () in
  let diags = ref [] in
  let report checked_semantics =
    Ok { file; diagnostics = List.sort compare_diag !diags; checked_semantics }
  in
  if String.length text > limits.Soc_format.max_bytes then begin
    (* Over the byte ceiling: diagnose and stop — tokenizing would build the
       very allocations the limit exists to prevent. *)
    emit diags "E108" Error 0 0
      "input is %d bytes, over the %d-byte limit (raise \
       ERMES_MAX_SOC_BYTES to lint larger descriptions)"
      (String.length text) limits.Soc_format.max_bytes;
    report false
  end
  else
    let lines = List.map Soc_format.tokenize (String.split_on_char '\n' text) in
    List.iteri
      (fun i toks ->
        List.iter
          (fun (tok, col) ->
            if String.length tok > limits.Soc_format.max_token then
              emit diags "E108" Error (i + 1) col
                "token is %d bytes, over the %d-byte limit (ERMES_MAX_SOC_TOKEN)"
                (String.length tok) limits.Soc_format.max_token)
          toks)
      lines;
    let proc_pos = declaration_pass diags lines in
    if List.exists (fun d -> d.severity = Error) !diags then report false
    else
      match Soc_format.parse_tokens limits lines with
      | Stdlib.Error msg ->
        (* The strict parser rejected the file and no diagnostic explains
           why: the input is invalid beyond linting. *)
        Stdlib.Error msg
      | Stdlib.Ok sys ->
        semantic_pass diags sys proc_pos;
        report true

let lint_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> lint_string ~file:path text
  | exception Sys_error m -> Stdlib.Error m

(* ------------------------------------------------------------------ *)
(* Output. *)
(* ------------------------------------------------------------------ *)

let pp_text ppf r =
  List.iter
    (fun d ->
      let sev = match d.severity with Error -> "error" | Warning -> "warning" in
      if d.line = 0 then
        Format.fprintf ppf "%s: %s %s: %s@." r.file d.code sev d.message
      else
        Format.fprintf ppf "%s:%d:%d: %s %s: %s@." r.file d.line d.col d.code sev
          d.message)
    r.diagnostics;
  Format.fprintf ppf "%s: %d error(s), %d warning(s)@." r.file (errors r)
    (warnings r)

let to_json r =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\"file\":\"%s\",\"checked_semantics\":%b,\"errors\":%d,\"warnings\":%d,\"diagnostics\":["
    (Obs.json_escape r.file) r.checked_semantics (errors r) (warnings r);
  List.iteri
    (fun i d ->
      if i > 0 then pf ",";
      pf "{\"code\":\"%s\",\"severity\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
        (Obs.json_escape d.code)
        (match d.severity with Error -> "error" | Warning -> "warning")
        d.line d.col (Obs.json_escape d.message))
    r.diagnostics;
  pf "]}";
  Buffer.contents buf
