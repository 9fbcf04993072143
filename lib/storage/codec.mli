(** Binary serialisation for the durability layer: compact encodings of
    {!Relalg.Value.t}, tuples and {!Relalg.Relation.Delta.t}, plus a
    length-prefixed, CRC-checksummed frame format shared by the
    write-ahead log ({!Wal}) and checkpoint files ({!Snapshot}).

    Writers append to a [Buffer.t]; readers consume a cursor over an
    immutable string and raise {!Corrupt} on any malformed input, so a
    caller can treat "decoded without an exception" as "the checksum
    and every interior length field were consistent".

    Integers use LEB128 varints (zig-zag for signed values), floats are
    the 8 IEEE-754 bytes little-endian, strings are length-prefixed
    bytes — the encoding is byte-deterministic, so equal values always
    produce equal frames and CRCs. *)

exception Corrupt of string
(** Raised by every [read_*] function on truncated or malformed input. *)

val crc32 : string -> int
(** CRC-32 (the IEEE 802.3 polynomial, as used by zip/png) of a whole
    string, in [\[0, 0xFFFFFFFF\]]: [crc32 "123456789"] is
    [0xCBF43926]. *)

(** {2 Writers} *)

val add_varint : Buffer.t -> int -> unit
(** Non-negative LEB128. Raises [Invalid_argument] on negatives. *)

val add_int : Buffer.t -> int -> unit
(** Zig-zag LEB128: any OCaml [int], small magnitudes stay short. *)

val add_string : Buffer.t -> string -> unit
val add_value : Buffer.t -> Relalg.Value.t -> unit
val add_delta : Buffer.t -> Relalg.Relation.Delta.t -> unit

(** {2 Readers} *)

type reader
(** A cursor over an in-memory string. *)

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val at_end : reader -> bool

val read_varint : reader -> int
val read_int : reader -> int
val read_string : reader -> string
val read_value : reader -> Relalg.Value.t
val read_delta : reader -> Relalg.Relation.Delta.t

(** {2 Framing}

    A frame is [length (4 bytes LE) | crc32 of payload (4 bytes LE) |
    payload].  The length covers the payload only, so a reader can skip
    a frame without decoding it, and a torn write is detectable as
    either a short header, a length running past the end of the file,
    or a checksum mismatch. *)

val frame : string -> string
(** [frame payload] is the framed encoding of [payload]. *)

val frame_overhead : int
(** Bytes added by {!frame} (the 8-byte header). *)

type frame_result =
  | Frame of string * int
      (** [(payload, next)] — a valid frame; [next] is the offset just
          past it. *)
  | End  (** The offset sits exactly at the end of the input. *)
  | Torn of string
      (** Trailing bytes that do not form a complete valid frame — a
          truncated or corrupt tail.  The message says why. *)

val read_frame : string -> int -> frame_result
(** [read_frame s pos] attempts to decode one frame at [pos]. *)
