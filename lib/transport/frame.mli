(** Length-framed wire discipline for real-socket transports.

    Every payload travels as one {e frame}:

    {v
      +----------------+------+--------------------------+
      | length (u32 BE)| flag |  body (length - 1 bytes) |
      +----------------+------+--------------------------+
    v}

    [length] counts the flag byte plus the body, so the smallest legal
    frame is 5 bytes on the wire (an empty body).  The flag byte names
    the body's {!mode}: [Raw] bodies are the bytes as given; the
    [Compressed], [Signed] and [Encrypted] modes are {e reserved} — the
    framing carries them today, but {!encode} refuses to produce them
    and a conforming endpoint rejects them on receipt (see
    {!Unsupported_mode}).  This mirrors the dft wire discipline: the
    one-byte header is the hot-toggle point for compression and
    signing without a framing change.

    Decoding is incremental: a {!decoder} accepts arbitrarily chunked
    byte arrivals (1-byte reads, split length prefixes, several frames
    in one read) and yields exactly the frames whose bytes
    have fully arrived.  A torn tail — a partial length prefix or a
    frame cut short — is silently retained until its remaining bytes
    arrive, so a prefix of a valid stream always decodes to the clean
    prefix of its frames, the same tolerance the durable store's WAL
    decoder gives a torn log tail. *)

type mode = Raw | Compressed | Signed | Encrypted

val mode_to_byte : mode -> int

val mode_of_byte : int -> mode option

val pp_mode : mode Fmt.t

(** Raised by {!encode} for a reserved (non-[Raw]) mode, and by a
    conforming endpoint on receiving one.  The registered printer names
    both the mode and its flag byte (e.g.
    ["Frame.Unsupported_mode(compressed, flag byte 0x01)"]), so a
    rejection log line identifies exactly which reserved flag was
    seen. *)
exception Unsupported_mode of mode

(** Raised by decoding on a flag byte outside the defined modes, or a
    length field exceeding {!val-max_frame} (a corrupt or hostile
    stream — framing cannot resynchronise, so the connection must be
    dropped). *)
exception Corrupt of string

(** Frames larger than this (flag + body bytes) are rejected by both
    {!encode} and the decoder: a length prefix beyond it means a
    corrupt stream, not a large message. *)
val max_frame : int

(** [encode ~mode body] is the frame's full wire image.
    @raise Unsupported_mode on the reserved modes. *)
val encode : ?mode:mode -> string -> string

(** [write_header ~mode b off ~body_len] writes the {!overhead}-byte
    header of a frame whose body is [body_len] bytes at [off] in [b], so
    a sender can build header and body in one buffer.
    @raise Unsupported_mode on the reserved modes.
    @raise Corrupt if the frame would exceed {!val-max_frame}. *)
val write_header : ?mode:mode -> bytes -> int -> body_len:int -> unit

(** Bytes of framing overhead per frame (the length prefix plus the
    flag byte). *)
val overhead : int

(** [decode_exact s] decodes a string holding exactly one frame.
    @raise Corrupt if [s] is not exactly one well-formed frame. *)
val decode_exact : string -> mode * string

type decoder

val decoder : unit -> decoder

(** Append a chunk of received bytes ([off]/[len] defaulting to the
    whole string).  Raises nothing: corruption is only detected when a
    complete header is inspected, by {!next}. *)
val feed : decoder -> ?off:int -> ?len:int -> string -> unit

(** Pop the next complete frame, or [None] if the buffered bytes end in
    (at most) a torn tail.
    @raise Corrupt on a bad flag byte or oversized length. *)
val next : decoder -> (mode * string) option

(** Buffered bytes not yet consumed by {!next} — the torn tail. *)
val pending : decoder -> int

(** Discard everything buffered, torn tail included.  Required whenever
    the underlying byte stream is abandoned (connection loss): the next
    connection restarts the stream from a frame boundary, so bytes from
    the dead stream must not prefix it. *)
val reset : decoder -> unit
