(** Low-level binary wire encoding.

    The pickle combinators ({!Pickle}) are built on this reader/writer
    pair.  Integers use LEB128 variable-length encoding with zigzag for
    signed values; fixed-width values are little-endian.  Decoding
    failures raise {!Error} with a position and message, never a generic
    exception.

    Writers can be checked out of a module-level pool so that steady-state
    encoding reuses already-grown buffers instead of allocating; readers
    can decode a slice of a larger payload in place, without copying it
    out first. *)

exception Error of { pos : int; msg : string }

val error : pos:int -> string -> 'a

(** {2 Fixed-size encoding}

    For callers that size a buffer up front and fill it in place. *)

(** Bytes {!Writer.uvarint} spends on [n].  Requires [n >= 0]. *)
val uvarint_size : int -> int

(** [put_uvarint b off n] writes [n] as unsigned LEB128 at [off] and
    returns the offset just past it.  Requires [n >= 0]. *)
val put_uvarint : bytes -> int -> int -> int

(** Bytes {!Writer.string} spends on [s]. *)
val string_size : string -> int

(** [put_string b off s] writes [s] as {!Writer.string} does (its length
    as a uvarint, then its bytes) at [off] and returns the offset just
    past it. *)
val put_string : bytes -> int -> string -> int

module Writer : sig
  type t

  val create : ?initial_size:int -> unit -> t

  (** Bytes written so far. *)
  val length : t -> int

  (** Snapshot of the bytes written so far.  The writer stays usable; the
      returned bytes are a fresh copy owned by the caller. *)
  val to_bytes : t -> bytes

  (** [blit w off dst dst_off len] copies [len] written bytes starting
      at [off] into [dst] at [dst_off], with no intermediate copy. *)
  val blit : t -> int -> bytes -> int -> int -> unit

  (** {2 Pooling}

      [checkout]/[return] recycle writers through a bounded {e
      per-domain} pool (domain-local storage, so concurrent engines
      neither contend nor race).  A returned writer is cleared;
      oversized buffers are dropped rather than retained.  Never use a
      writer after returning it, and never return it on a different
      domain than the one that checked it out. *)

  val checkout : unit -> t

  val return : t -> unit

  (** [with_pooled f] checks a writer out, runs [f] on it, and returns it
      to the pool even if [f] raises. *)
  val with_pooled : (t -> 'a) -> 'a

  (** [(hits, misses)] on the calling domain since start (or its last
      {!reset_pool_stats}): checkouts served from the pool vs. fresh
      allocations. *)
  val pool_stats : unit -> int * int

  val reset_pool_stats : unit -> unit

  val byte : t -> int -> unit

  (** Unsigned LEB128. Requires a non-negative argument. *)
  val uvarint : t -> int -> unit

  (** Zigzag-encoded signed LEB128. *)
  val varint : t -> int -> unit

  val int32 : t -> int32 -> unit

  val int64 : t -> int64 -> unit

  (** Unsigned 32-bit value, 4 bytes {e big}-endian — network byte
      order, for socket framing headers.  Requires [0 <= v < 2^32]. *)
  val u32_be : t -> int -> unit

  (** IEEE-754 double, 8 bytes little-endian. *)
  val float : t -> float -> unit

  (** Length-prefixed byte string. *)
  val string : t -> string -> unit

  (** Raw bytes, no length prefix. *)
  val raw : t -> string -> unit
end

module Reader : sig
  type t

  (** [of_string ?off ?len s] reads the slice [off, off+len) of [s]
      (default: all of [s]) without copying it.  Positions reported by
      {!pos} and {!Error} are relative to [off].
      @raise Invalid_argument if the slice is out of bounds. *)
  val of_string : ?off:int -> ?len:int -> string -> t

  (** Like {!of_string} over a byte buffer.  The caller must not mutate
      [data] while the reader is in use. *)
  val of_bytes : ?off:int -> ?len:int -> bytes -> t

  val pos : t -> int

  (** Bytes remaining. *)
  val remaining : t -> int

  (** True when all input is consumed. *)
  val at_end : t -> bool

  val byte : t -> int

  val uvarint : t -> int

  val varint : t -> int

  val int32 : t -> int32

  val int64 : t -> int64

  (** Unsigned 32-bit value, 4 bytes big-endian (see
      {!Writer.u32_be}). *)
  val u32_be : t -> int

  val float : t -> float

  val string : t -> string

  (** [raw r n] reads exactly [n] bytes. *)
  val raw : t -> int -> string

  (** [skip r n] advances past [n] bytes without copying them. *)
  val skip : t -> int -> unit

  (** Fail with a positioned {!Error}. *)
  val fail : t -> string -> 'a
end
