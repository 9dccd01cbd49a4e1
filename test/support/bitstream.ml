module Vec = Ermes_digraph.Vec

module Writer = struct
  type t = { bits : int Vec.t }

  let create () = { bits = Vec.create () }

  let put_bit w b =
    if b <> 0 && b <> 1 then invalid_arg "Bitstream.put_bit: not a bit";
    ignore (Vec.push w.bits b)

  let put_bits w ~width v =
    if width < 1 || width > 30 then invalid_arg "Bitstream.put_bits: width out of range";
    if v < 0 || v >= 1 lsl width then
      invalid_arg (Printf.sprintf "Bitstream.put_bits: %d does not fit in %d bits" v width);
    for i = width - 1 downto 0 do
      put_bit w ((v lsr i) land 1)
    done

  let bit_length w = Vec.length w.bits

  let to_bytes w =
    let n = Vec.length w.bits in
    let bytes = Bytes.make ((n + 7) / 8) '\000' in
    Vec.iteri
      (fun i b ->
        if b = 1 then begin
          let byte = i / 8 and off = 7 - (i mod 8) in
          Bytes.set bytes byte
            (Char.chr (Char.code (Bytes.get bytes byte) lor (1 lsl off)))
        end)
      w.bits;
    bytes
end

module Reader = struct
  type t = { data : Bytes.t; length : int; mutable pos : int }

  let of_bytes data = { data; length = 8 * Bytes.length data; pos = 0 }

  let of_writer w = { data = Writer.to_bytes w; length = Writer.bit_length w; pos = 0 }

  let bits_remaining r = r.length - r.pos

  let get_bit r =
    if r.pos >= r.length then invalid_arg "Bitstream.get_bit: past end of stream";
    let byte = Char.code (Bytes.get r.data (r.pos / 8)) in
    let bit = (byte lsr (7 - (r.pos mod 8))) land 1 in
    r.pos <- r.pos + 1;
    bit

  let get_bits r ~width =
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor get_bit r
    done;
    !v
end
