module Obs = Ermes_obs.Obs

(* ---- the pluggable I/O boundary ------------------------------------------ *)

module Io = struct
  type t = {
    write : Unix.file_descr -> string -> int -> int -> int;
    read : Unix.file_descr -> bytes -> int -> int -> int;
    rename : string -> string -> unit;
    fsync : Unix.file_descr -> unit;
    clock : unit -> float;
  }

  let passthrough =
    {
      write = Unix.write_substring;
      read = Unix.read;
      rename = Sys.rename;
      fsync = Unix.fsync;
      clock = Unix.gettimeofday;
    }
end

(* ---- fault plans ---------------------------------------------------------- *)

type fault =
  | Write_enospc of { op : int }
  | Write_short of { op : int; bytes : int }
  | Write_eintr of { op : int; times : int }
  | Read_eintr of { op : int; times : int }
  | Rename_skip of { op : int }
  | Rename_torn of { op : int }
  | Clock_skew of { op : int; skew_s : float }

type plan = fault list

let fault_spec = function
  | Write_enospc { op } -> Printf.sprintf "enospc@%d" op
  | Write_short { op; bytes } -> Printf.sprintf "short:%d@%d" bytes op
  | Write_eintr { op; times } -> Printf.sprintf "eintr:%d@%d" times op
  | Read_eintr { op; times } -> Printf.sprintf "eintr-read:%d@%d" times op
  | Rename_skip { op } -> Printf.sprintf "rename-skip@%d" op
  | Rename_torn { op } -> Printf.sprintf "rename-torn@%d" op
  | Clock_skew { op; skew_s } -> Printf.sprintf "skew:%g@%d" skew_s op

let to_spec = function
  | [] -> "none"
  | plan -> String.concat "," (List.map fault_spec plan)

let parse_fault tok =
  let fail () = Error (Printf.sprintf "bad fault %S" tok) in
  match String.index_opt tok '@' with
  | None -> fail ()
  | Some at -> (
    let head = String.sub tok 0 at in
    let op_s = String.sub tok (at + 1) (String.length tok - at - 1) in
    match int_of_string_opt op_s with
    | None -> fail ()
    | Some op when op < 1 -> fail ()
    | Some op -> (
      let name, arg =
        match String.index_opt head ':' with
        | None -> (head, None)
        | Some c ->
          ( String.sub head 0 c,
            Some (String.sub head (c + 1) (String.length head - c - 1)) )
      in
      match (name, arg) with
      | "enospc", None -> Ok (Write_enospc { op })
      | "short", Some k -> (
        match int_of_string_opt k with
        | Some bytes when bytes >= 1 -> Ok (Write_short { op; bytes })
        | _ -> fail ())
      | "eintr", Some t -> (
        match int_of_string_opt t with
        | Some times when times >= 1 -> Ok (Write_eintr { op; times })
        | _ -> fail ())
      | "eintr-read", Some t -> (
        match int_of_string_opt t with
        | Some times when times >= 1 -> Ok (Read_eintr { op; times })
        | _ -> fail ())
      | "rename-skip", None -> Ok (Rename_skip { op })
      | "rename-torn", None -> Ok (Rename_torn { op })
      | "skew", Some s -> (
        match float_of_string_opt s with
        | Some skew_s when Float.is_finite skew_s && skew_s <> 0. ->
          Ok (Clock_skew { op; skew_s })
        | _ -> fail ())
      | _ -> fail ()))

let parse_spec s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok []
  else
    let toks = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | t :: tl -> (
        match parse_fault (String.trim t) with
        | Ok f -> go (f :: acc) tl
        | Error e -> Error e)
    in
    go [] toks

(* ---- seeded generation ---------------------------------------------------- *)

(* splitmix64 — the same stream discipline as Ermes_synth.Prng, duplicated
   here so the chaos layer stays a leaf dependency (obs + unix only). *)
type rng = { mutable state : int64 }

let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int_range rng ~lo ~hi =
  let span = hi - lo + 1 in
  let v = Int64.to_int (Int64.logand (next64 rng) 0x3FFFFFFFFFFFFFFFL) in
  lo + (v mod span)

let derive seed i =
  let rng = { state = Int64.of_int seed } in
  let _ = next64 rng in
  let rng = { state = Int64.add rng.state (Int64.of_int ((2 * i) + 1)) } in
  Int64.to_int (Int64.logand (next64 rng) 0x3FFFFFFFFFFFFFFFL)

type kind = Enospc | Short | Weintr | Reintr | Skip | Torn | Skew

let file_kinds = [ Enospc; Short; Weintr; Skip; Torn; Skew ]
let socket_kinds = [ Weintr; Reintr; Skew ]

let gen ~seed ~kinds =
  if kinds = [] then invalid_arg "Chaos.gen: empty kinds";
  let kinds = Array.of_list kinds in
  let rng = { state = Int64.of_int seed } in
  let n = int_range rng ~lo:1 ~hi:3 in
  List.init n (fun _ ->
      let op = int_range rng ~lo:1 ~hi:12 in
      match kinds.(int_range rng ~lo:0 ~hi:(Array.length kinds - 1)) with
      | Enospc -> Write_enospc { op }
      | Short -> Write_short { op; bytes = int_range rng ~lo:1 ~hi:16 }
      | Weintr -> Write_eintr { op; times = int_range rng ~lo:1 ~hi:5 }
      | Reintr -> Read_eintr { op; times = int_range rng ~lo:1 ~hi:5 }
      | Skip -> Rename_skip { op }
      | Torn -> Rename_torn { op }
      | Skew ->
        let mag = int_range rng ~lo:1 ~hi:40 in
        let sign = if int_range rng ~lo:0 ~hi:3 = 0 then -1 else 1 in
        Clock_skew { op; skew_s = float_of_int (sign * mag) })

let halve = function
  | Write_short { op; bytes } when bytes > 1 -> Some (Write_short { op; bytes = bytes / 2 })
  | Write_eintr { op; times } when times > 1 -> Some (Write_eintr { op; times = times / 2 })
  | Read_eintr { op; times } when times > 1 -> Some (Read_eintr { op; times = times / 2 })
  | Clock_skew { op; skew_s } when Float.abs skew_s > 1. ->
    Some (Clock_skew { op; skew_s = skew_s /. 2. })
  | _ -> None

(* ---- the interpreter ------------------------------------------------------ *)

(* Per-family 1-based operation counters; each fault consumes against its own
   family. EINTR storms hold the counter still while they fire — the caller's
   retry of the same logical operation meets a decremented storm, then the
   real syscall. All decisions happen under one mutex so hooks may be called
   from worker domains; the underlying syscall runs outside the lock. *)

type injector = {
  base : Io.t;
  lock : Mutex.t;
  mutable writes : int;
  mutable reads : int;
  mutable renames : int;
  mutable clocks : int;
  mutable skew : float;
  mutable eintr_left : (fault * int) list;  (* per-storm remaining raises *)
  mutable enospc : bool;  (* a full disk stays full *)
  mutable injections : int;
  plan : plan;
}

let register_counters =
  lazy
    (List.iter
       (fun c -> Obs.incr ~by:0 ("chaos.injected" ^ c))
       [ ""; ".enospc"; ".short"; ".eintr"; ".rename"; ".skew" ])

let injector ?(base = Io.passthrough) plan =
  Lazy.force register_counters;
  {
    base;
    lock = Mutex.create ();
    writes = 0;
    reads = 0;
    renames = 0;
    clocks = 0;
    skew = 0.;
    eintr_left = List.filter_map (function
        | (Write_eintr { times; _ } | Read_eintr { times; _ }) as f -> Some (f, times)
        | _ -> None)
        plan;
    enospc = false;
    injections = 0;
    plan;
  }

let record t ~counter =
  Obs.incr "chaos.injected";
  Obs.incr ("chaos.injected." ^ counter);
  t.injections <- t.injections + 1

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* What (if anything) to inject for the next write of [len] bytes. The
   operation counter advances only when the write is not absorbed by an
   EINTR storm, so the caller's retry targets the same logical op. *)
type write_action = W_pass | W_short of int | W_enospc | W_eintr

let next_write t =
  locked t @@ fun () ->
  if t.enospc then begin
    record t ~counter:"enospc";
    W_enospc
  end
  else begin
    let op = t.writes + 1 in
    let storm =
      List.exists
        (fun (f, left) ->
          match f with Write_eintr { op = o; _ } -> o = op && left > 0 | _ -> false)
        t.eintr_left
    in
    if storm then begin
      t.eintr_left <-
        List.map
          (fun (f, left) ->
            match f with
            | Write_eintr { op = o; _ } when o = op -> (f, left - 1)
            | _ -> (f, left))
          t.eintr_left;
      record t ~counter:"eintr";
      W_eintr
    end
    else begin
      t.writes <- op;
      let enospc = List.exists (function Write_enospc { op = o } -> o = op | _ -> false) t.plan in
      if enospc then begin
        t.enospc <- true;
        record t ~counter:"enospc";
        W_enospc
      end
      else
        match
          List.find_map
            (function Write_short { op = o; bytes } when o = op -> Some bytes | _ -> None)
            t.plan
        with
        | Some bytes ->
          record t ~counter:"short";
          W_short bytes
        | None -> W_pass
    end
  end

let next_read t =
  locked t @@ fun () ->
  let op = t.reads + 1 in
  let storm =
    List.exists
      (fun (f, left) ->
        match f with Read_eintr { op = o; _ } -> o = op && left > 0 | _ -> false)
      t.eintr_left
  in
  if storm then begin
    t.eintr_left <-
      List.map
        (fun (f, left) ->
          match f with
          | Read_eintr { op = o; _ } when o = op -> (f, left - 1)
          | _ -> (f, left))
      t.eintr_left;
    record t ~counter:"eintr";
    true
  end
  else begin
    t.reads <- op;
    false
  end

type rename_action = R_pass | R_skip | R_torn

let next_rename t =
  locked t @@ fun () ->
  let op = t.renames + 1 in
  t.renames <- op;
  if List.exists (function Rename_skip { op = o } -> o = op | _ -> false) t.plan then begin
    record t ~counter:"rename";
    R_skip
  end
  else if List.exists (function Rename_torn { op = o } -> o = op | _ -> false) t.plan then begin
    record t ~counter:"rename";
    R_torn
  end
  else R_pass

let next_clock t =
  locked t @@ fun () ->
  let op = t.clocks + 1 in
  t.clocks <- op;
  List.iter
    (function
      | Clock_skew { op = o; skew_s } when o = op ->
        t.skew <- t.skew +. skew_s;
        record t ~counter:"skew"
      | _ -> ())
    t.plan;
  t.skew

let enospc_error fn = Unix.Unix_error (Unix.ENOSPC, fn, "chaos")
let eintr_error fn = Unix.Unix_error (Unix.EINTR, fn, "chaos")

let io t =
  {
    Io.write =
      (fun fd s off len ->
        match next_write t with
        | W_pass -> t.base.Io.write fd s off len
        | W_eintr -> raise (eintr_error "write")
        | W_enospc -> raise (enospc_error "write")
        | W_short bytes ->
          let n = min bytes len in
          (* Persist the truncated prefix for real: a short write is not a
             failed write, the first n bytes did land. *)
          let written = t.base.Io.write fd s off n in
          min written n);
    read =
      (fun fd buf off len ->
        if next_read t then raise (eintr_error "read") else t.base.Io.read fd buf off len);
    rename =
      (fun src dst ->
        match next_rename t with
        | R_pass -> t.base.Io.rename src dst
        | R_skip -> ()
        | R_torn ->
          (* A non-atomic replace caught mid-flight: the destination holds
             only the first half of the source and the source survives. *)
          let data =
            try In_channel.with_open_bin src In_channel.input_all with Sys_error _ -> ""
          in
          let half = String.sub data 0 (String.length data / 2) in
          Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc half));
    fsync = t.base.Io.fsync;
    clock =
      (fun () ->
        let skew = next_clock t in
        t.base.Io.clock () +. skew);
  }

let injected_count t = locked t @@ fun () -> t.injections
