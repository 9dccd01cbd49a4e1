module Obs = Ermes_obs.Obs
module Chaos = Ermes_chaos.Chaos

(* ---- CRC-32 (IEEE 802.3 / zlib polynomial, table-driven) ---------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xffffffff

(* ---- single-token percent escaping -------------------------------------- *)

let escape s =
  if s = "" then "%"
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if c = '%' || Char.code c <= 0x20 || Char.code c >= 0x7f then
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let unescape s =
  if s = "%" then ""
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '%' && !i + 2 < n then
         match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
         | Some code ->
           Buffer.add_char buf (Char.chr code);
           i := !i + 2
         | None -> Buffer.add_char buf s.[!i]
       else Buffer.add_char buf s.[!i]);
      incr i
    done;
    Buffer.contents buf
  end

(* ---- the journal --------------------------------------------------------- *)

let magic = "ermes-journal"
let version = 1

type t = {
  path : string;
  header : string;  (* the full header line, CRC included *)
  mutable entries_rev : string list;
  mutable count : int;
  io : Chaos.Io.t;
}

let render j =
  let buf = Buffer.create (256 + (64 * j.count)) in
  Buffer.add_string buf j.header;
  Buffer.add_char buf '\n';
  List.iter
    (fun payload ->
      Buffer.add_string buf
        (Printf.sprintf "r %08x %s\n" (crc32 payload) (escape payload)))
    (List.rev j.entries_rev);
  Buffer.contents buf

(* A full write through the Io hooks: retries EINTR, continues after short
   writes. A zero-byte write on a regular file is a broken Io — surface it
   as the disk-full condition it behaves like rather than spinning. *)
let write_all io fd data =
  let len = String.length data in
  let off = ref 0 in
  while !off < len do
    match io.Chaos.Io.write fd data !off (len - !off) with
    | 0 -> raise (Unix.Unix_error (Unix.ENOSPC, "write", "zero-byte write"))
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Durability on the directory too: the rename itself is only on disk once
   the containing directory's metadata is. Best-effort — some filesystems
   refuse fsync on a directory fd, and that must not fail a checkpoint. *)
let fsync_dir io dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd ->
    (try io.Chaos.Io.fsync fd with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Crash safety: render the complete journal into a sibling tmp file, fsync
   it, atomically rename it over the live path, then fsync the directory. A
   SIGKILL at any point leaves either the previous complete journal or the
   new one — never a torn half-write at the published name — and the fsyncs
   extend that guarantee to power loss: the data is on the platter before
   the name points at it. *)
let persist j =
  let tmp = j.path ^ ".tmp" in
  let data = render j in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  (match
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         write_all j.io fd data;
         j.io.Chaos.Io.fsync fd)
   with
   | () -> ()
   | exception e ->
     (* A partial temp file must not outlive the failed write. *)
     let bt = Printexc.get_raw_backtrace () in
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     Printexc.raise_with_backtrace e bt);
  j.io.Chaos.Io.rename tmp j.path;
  fsync_dir j.io (Filename.dirname j.path)

let header_line ~kind ~meta =
  let prefix = Printf.sprintf "%s %d %s %s" magic version (escape kind) (escape meta) in
  Printf.sprintf "%s %08x" prefix (crc32 prefix)

let start ?(io = Chaos.Io.passthrough) ?(meta = "") ~kind path =
  let j = { path; header = header_line ~kind ~meta; entries_rev = []; count = 0; io } in
  persist j;
  j

let append j payload =
  j.entries_rev <- payload :: j.entries_rev;
  j.count <- j.count + 1;
  persist j;
  Obs.incr "runtime.checkpoint.writes"

let path j = j.path
let records j = List.rev j.entries_rev

type loaded = { kind : string; meta : string; entries : string list; torn : int }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
    let lines = String.split_on_char '\n' text in
    let lines = List.filter (fun l -> l <> "") lines in
    match lines with
    | [] -> Error (path ^ ": empty journal")
    | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ m; v; kind_esc; meta_esc; crc_hex ] when m = magic -> (
        let prefix = Printf.sprintf "%s %s %s %s" m v kind_esc meta_esc in
        match (int_of_string_opt v, int_of_string_opt ("0x" ^ crc_hex)) with
        | Some v, _ when v <> version ->
          Error (Printf.sprintf "%s: unsupported journal version %d" path v)
        | Some _, Some crc when crc = crc32 prefix ->
          (* Records: stop at the first damaged line — an externally
             truncated or corrupted tail degrades to a valid prefix. *)
          let rec scan acc = function
            | [] -> (List.rev acc, 0)
            | line :: tl -> (
              match String.split_on_char ' ' line with
              | [ "r"; crc_hex; payload_esc ] -> (
                let payload = unescape payload_esc in
                match int_of_string_opt ("0x" ^ crc_hex) with
                | Some crc when crc = crc32 payload -> scan (payload :: acc) tl
                | _ -> (List.rev acc, 1 + List.length tl))
              | _ -> (List.rev acc, 1 + List.length tl))
          in
          let entries, torn = scan [] rest in
          Obs.incr ~by:(List.length entries) "runtime.checkpoint.replays";
          Ok { kind = unescape kind_esc; meta = unescape meta_esc; entries; torn }
        | _, _ -> Error (path ^ ": journal header failed its CRC check")
        )
      | _ -> Error (path ^ ": not an ermes journal (bad header)")))
