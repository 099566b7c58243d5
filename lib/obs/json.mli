(** Minimal deterministic JSON emitter.

    The observability exporters ({!Trace}, {!Metrics}) and the bench
    harness need machine-readable output, but the repository carries no
    JSON dependency.  This module covers exactly the emission side:
    building a document and rendering it to a string.  Rendering is
    deterministic — identical documents always produce identical bytes —
    which is what lets trace files serve as byte-for-byte test oracles.

    Non-finite floats render as [null] (JSON has no NaN/infinity). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val to_buf : Buffer.t -> t -> unit

(** Escape and quote a string (used by the streaming exporters). *)
val quote : Buffer.t -> string -> unit

(** Parse a complete JSON document.  Covers everything the emitter
    produces plus the standard string escapes; numbers become [Int] when
    exact and [Float] otherwise.  On failure the error carries the byte
    offset of the problem. *)
val of_string : string -> (t, string) result

(** [member k j] is the value bound to [k] when [j] is an object. *)
val member : string -> t -> t option
