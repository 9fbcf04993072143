exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

(* CRC-32, IEEE 802.3 polynomial (reflected: 0xEDB88320), over native
   ints: a 32-bit value fits an OCaml int, so no step boxes an [Int32].
   Table [k] (entries [256 * k ..]) advances a byte's remainder through
   [k] more zero bytes, so one step folds four bytes in (slicing-by-4);
   table 0 alone is the byte-at-a-time table. *)
let crc_tables =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to 1023 do
    let p = t.(n - 256) in
    t.(n) <- (p lsr 8) lxor t.(p land 0xFF)
  done;
  t

(* The checksum of [s.[pos .. pos + len - 1]]; callers keep the range
   inside [s]. *)
let crc_range s pos len =
  let t = crc_tables and stop = pos + len in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref 0xFFFFFFFF and i = ref pos in
  while !i + 4 <= stop do
    let j = !i in
    let w =
      !c
      lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t (768 + (w land 0xFF))
      lxor Array.unsafe_get t (512 + ((w lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((w lsr 16) land 0xFF))
      lxor Array.unsafe_get t (w lsr 24);
    i := j + 4
  done;
  for j = !i to stop - 1 do
    c := Array.unsafe_get t ((!c lxor byte j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc_range s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Writers *)

(* LEB128 over the raw bit pattern: [lsr] zero-fills, so a "negative"
   [n] (a zig-zagged large magnitude whose top bit is set) encodes as
   an unsigned word and round-trips exactly. *)
let add_bits buf n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let add_varint buf n =
  if n < 0 then invalid_arg "Codec.add_varint: negative";
  add_bits buf n

let add_int buf n =
  (* Zig-zag: the sign lands in bit 0 so small magnitudes stay short. *)
  add_bits buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

let add_value buf (v : Relalg.Value.t) =
  match v with
  | Relalg.Value.Null -> Buffer.add_char buf '\000'
  | Relalg.Value.Bool false -> Buffer.add_char buf '\001'
  | Relalg.Value.Bool true -> Buffer.add_char buf '\002'
  | Relalg.Value.Int i ->
      Buffer.add_char buf '\003';
      add_int buf i
  | Relalg.Value.Float f ->
      Buffer.add_char buf '\004';
      add_float buf f
  | Relalg.Value.Str s ->
      Buffer.add_char buf '\005';
      add_string buf s

let add_tuple buf (row : Relalg.Relation.tuple) =
  add_varint buf (Array.length row);
  Array.iter (add_value buf) row

let add_delta buf (d : Relalg.Relation.Delta.t) =
  let adds = Relalg.Relation.Delta.adds d
  and dels = Relalg.Relation.Delta.dels d in
  add_varint buf (List.length adds);
  List.iter (add_tuple buf) adds;
  add_varint buf (List.length dels);
  List.iter (add_tuple buf) dels

(* ------------------------------------------------------------------ *)
(* Readers *)

type reader = { buf : string; mutable pos : int }

let reader ?(pos = 0) buf = { buf; pos }
let pos r = r.pos
let at_end r = r.pos >= String.length r.buf

let byte r =
  if r.pos >= String.length r.buf then corrupt "unexpected end of input";
  let c = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_varint r =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint too long";
    let b = byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_int r =
  let z = read_varint r in
  (z lsr 1) lxor (-(z land 1))

let read_string r =
  let n = read_varint r in
  if n < 0 || r.pos + n > String.length r.buf then
    corrupt "string length %d runs past end" n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let read_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_value r =
  match byte r with
  | 0 -> Relalg.Value.Null
  | 1 -> Relalg.Value.Bool false
  | 2 -> Relalg.Value.Bool true
  | 3 -> Relalg.Value.Int (read_int r)
  | 4 -> Relalg.Value.Float (read_float r)
  | 5 -> Relalg.Value.Str (read_string r)
  | tag -> corrupt "unknown value tag %d" tag

let read_tuple r =
  let n = read_varint r in
  (* Each value is at least one byte, so a plausibility bound on [n]
     keeps a corrupt count from allocating a huge array. *)
  if n < 0 || n > String.length r.buf - r.pos then
    corrupt "tuple arity %d implausible" n;
  Array.init n (fun _ -> read_value r)

let read_tuples r =
  let n = read_varint r in
  if n < 0 || n > String.length r.buf - r.pos then
    corrupt "tuple count %d implausible" n;
  List.init n (fun _ -> read_tuple r)

let read_delta r =
  let adds = read_tuples r in
  let dels = read_tuples r in
  Relalg.Relation.Delta.make ~adds ~dels ()

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame_overhead = 8

let le32 n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xFF))

let get_le32 s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let frame payload =
  le32 (String.length payload) ^ le32 (crc32 payload) ^ payload

type frame_result = Frame of string * int | End | Torn of string

(* The checksum is taken where the payload lies in [s]: only a frame
   that checks out is copied. *)
let read_frame s pos =
  let len = String.length s in
  if pos >= len then End
  else if pos + frame_overhead > len then Torn "truncated frame header"
  else
    let plen = get_le32 s pos in
    let crc = get_le32 s (pos + 4) in
    let start = pos + frame_overhead in
    if plen < 0 || plen > len - start then
      Torn (Printf.sprintf "frame length %d runs past end of input" plen)
    else if crc_range s start plen <> crc then Torn "frame checksum mismatch"
    else Frame (String.sub s start plen, start + plen)
