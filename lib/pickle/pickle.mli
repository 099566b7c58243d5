(** Typed pickle combinators — the Network Objects marshalling substrate.

    Modula-3 Network Objects marshals method arguments and results with
    "pickles", a general-purpose binary serialiser driven by runtime type
    information.  OCaml has no runtime reflection, so stubs are built from
    first-class codec values instead: a [('a) t] knows how to write and
    read an ['a].  Codecs compose with products, sums, containers and
    fixpoints, and can be made {e contextual} with {!custom} — which is how
    the runtime injects wireRep marshalling (with its transient-dirty side
    effects) into argument pickles.

    Top-level pickles carry a magic number and a codec fingerprint so that
    mismatched stubs fail loudly rather than misparse. *)

type 'a t

(** {1 Running codecs} *)

(** Encode without any header (for embedding in other messages). *)
val encode : 'a t -> 'a -> string

(** Decode a headerless encoding.  Fails with {!Wire.Error} if the input
    is malformed or has trailing bytes. *)
val decode : 'a t -> string -> 'a

(** [decode_slice c s ~off ~len] decodes the slice [off, off+len) of [s]
    in place, without copying it out first.  Error positions are relative
    to [off]. *)
val decode_slice : 'a t -> string -> off:int -> len:int -> 'a

(** Encode with the versioned pickle header (magic, version, fingerprint). *)
val pickle : 'a t -> 'a -> string

(** Decode a headered pickle, checking magic, version and fingerprint. *)
val unpickle : 'a t -> string -> 'a

(** A short human-readable structure descriptor, e.g. ["(pair int string)"].
    Hashed into the header fingerprint. *)
val describe : 'a t -> string

(** {1 Primitives} *)

val unit : unit t

val bool : bool t

val char : char t

(** Zigzag varint; efficient for small magnitudes of either sign. *)
val int : int t

val int32 : int32 t

val int64 : int64 t

val float : float t

val string : string t

val bytes : bytes t

(** {1 Containers} *)

val option : 'a t -> 'a option t

(** [list c] and [array c]: a count, then the elements.  A count
    larger than the bytes left to decode raises {!Wire.Error} before any
    element is read.  Elements must therefore occupy at least one byte:
    a zero-width element codec (such as {!unit}) is unsupported, and a
    non-empty list of it does not decode. *)
val list : 'a t -> 'a list t

val array : 'a t -> 'a array t

val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t

val result : 'a t -> 'e t -> ('a, 'e) Stdlib.result t

(** {1 Structure} *)

(** Bijective mapping: build a codec for ['b] out of one for ['a]. *)
val map : ?name:string -> ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

(** One arm of a sum type: [case tag name codec inject project] where
    [project] returns [Some payload] exactly on values of this arm. *)
type 'a case

val case : int -> string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case

(** [sum name cases] dispatches on the first case whose projection
    matches (writing) or on the wire tag (reading).  Tags must be unique;
    raises [Invalid_argument] otherwise. *)
val sum : string -> 'a case list -> 'a t

(** Codec fixpoint for recursive types. *)
val fix : ('a t -> 'a t) -> 'a t

(** Escape hatch for contextual codecs (used by the runtime for network
    object references).  [write] and [read] may perform side effects. *)
val custom :
  name:string ->
  write:(Wire.Writer.t -> 'a -> unit) ->
  read:(Wire.Reader.t -> 'a) ->
  'a t

(** {1 Low-level embedding} *)

val write : 'a t -> Wire.Writer.t -> 'a -> unit

val read : 'a t -> Wire.Reader.t -> 'a

(** Fingerprint of the structure descriptor (FNV-1a 64). *)
val fingerprint : 'a t -> int64
