(** The pluggable transport signature.

    The runtime speaks to the world through exactly this surface: send
    a message ({!send}), register a per-space delivery handler, and
    (for harnesses) inject faults and read traffic accounting.
    Everything above it — marshalling, the writer pool, epoch stamps,
    retries and backoff — is backend-independent, so the same runtime
    runs over the deterministic simulated network
    ({!Transport_sim.of_net}) or over real Unix/TCP sockets ({!Tcp});
    faults come from one decorator stacked on either ({!Faulty}).

    Contracts every backend must honour:

    - {b Fresh fiber per delivery.}  The handler installed with
      {!set_handler} is invoked in a freshly spawned fiber of the
      driving scheduler; handlers may block.
    - {b Accounting per message.}  Every {!send} is one payload:
      [stats.sent]/[stats.bytes] count the payloads handed to the
      backend, and [delivered]/[dropped]/{!stats_by_kind} count
      messages, fault events included.  Batching several messages into
      one [write] is a backend's business below this count ({!Tcp}'s
      gathered write).  A message {!Faulty} drops at its send gate
      never reaches the backend, so it counts in [dropped] but not in
      [sent], [bytes] or {!stats_by_kind}.
    - {b At-most-once, unordered.}  A transport may drop, delay or
      reorder; it must not corrupt or invent messages.  Duplication
      only happens where a fault model injects it.  The protocol layers
      above recover loss via sequence-numbered idempotent retries and
      epoch-stamped packets, so a backend that silently drops while a
      peer is unreachable (e.g. {!Tcp} past its reconnect queue bound)
      stays within the runtime's fault envelope. *)

type addr = int

(** See {!Netobj_net.Net.handler}: the message body is the slice
    [off, off+len) of [payload]. *)
type handler =
  src:addr -> kind:string -> payload:string -> off:int -> len:int -> unit

type stats = {
  sent : int;  (** payloads handed to the backend, one per message *)
  delivered : int;  (** messages handed to handlers *)
  dropped : int;  (** messages lost, all causes *)
  dropped_src_crashed : int;
  dropped_dst_crashed : int;
  duplicated : int;
  bytes : int;  (** payload bytes (excluding backend framing) *)
  reconnects : int;
      (** connection (re-)establishment attempts after a failure — 0 on
          backends with no connection state *)
}

val zero_stats : stats

(** Fault-injection hooks.  {!Faulty} implements them, as a decorator
    over any backend; bare backends ({!Transport_sim.of_net}, {!Tcp})
    reject them (see {!no_faults}).  The sim engine's default transport
    is already decorated; stack the decorator on a custom backend to
    drive a nemesis against it.  (The domains engine's hub keeps its own
    crash flags and nothing else.) *)
type faults = {
  f_crash : addr -> unit;
  f_restore : addr -> unit;
  f_is_crashed : addr -> bool;
  f_set_partitioned : addr -> addr -> bool -> unit;
  f_partitioned : addr -> addr -> bool;
  f_heal_all : unit -> unit;
  f_set_burst :
    src:addr ->
    dst:addr ->
    loss:float option ->
    dup:float option ->
    until:float ->
    unit;
  f_set_latency_spike : src:addr -> dst:addr -> factor:float -> until:float -> unit;
  f_set_filter : (src:addr -> dst:addr -> kind:string -> bool) option -> unit;
}

type t = {
  t_name : string;  (** backend identifier, e.g. ["sim"], ["tcp"] *)
  t_send : src:addr -> dst:addr -> kind:string -> string -> unit;
  t_post : src:addr -> dst:addr -> kind:string -> string -> unit;
      (** the same as [t_send] in every constructor *)
  t_flush : unit -> unit;
      (** a no-op in every constructor.  Nothing in the library calls
          [t_post] or [t_flush]; they remain only because the call
          benchmark's probe ([perfbench/probe.ml]) sets them. *)
  t_set_handler : addr -> handler -> unit;
  t_connect : addr -> unit;
      (** pre-establish the link to a peer (no-op where meaningless) *)
  t_pump : timeout:float -> int;
      (** drive real I/O for up to [timeout] {e wall-clock} seconds
          (negative: until something is ready); returns the number of
          messages dispatched.  Over sockets one pump writes
          what it can, then waits for and dispatches what arrived, so
          on loopback a message written by a pump is dispatched by that
          same pump; a pump that wrote does not wait.  Returns 0
          immediately on backends whose delivery rides the virtual
          clock. *)
  t_close : unit -> unit;
  t_stats : unit -> stats;
  t_stats_by_kind : unit -> (string * (int * int)) list;
  t_reset_stats : unit -> unit;
  t_faults : faults;
}

(** {1 Call-through helpers} — so call sites read like the old [Net]
    module calls. *)

val send : t -> src:addr -> dst:addr -> kind:string -> string -> unit

val set_handler : t -> addr -> handler -> unit

val connect : t -> addr -> unit

val pump : t -> timeout:float -> int

val close : t -> unit

val stats : t -> stats

val stats_by_kind : t -> (string * (int * int)) list

val reset_stats : t -> unit

val crash : t -> addr -> unit

val restore : t -> addr -> unit

val is_crashed : t -> addr -> bool

val set_partitioned : t -> addr -> addr -> bool -> unit

val partitioned : t -> addr -> addr -> bool

val heal_all : t -> unit

(** [set_burst t ~src ~dst ?loss ?dup ~until ()] drops ([loss]) or
    duplicates ([dup]) each message on the directed edge [src -> dst]
    with the given probability until virtual time [until]
    ([infinity]: for the rest of the run).  Loss and duplication are
    separate windows: an axis not given is left as it is, so a dup
    burst never shortens or cancels an overlapping loss burst.  A later
    setting on the same axis and edge replaces the earlier one, level
    and window both. *)
val set_burst :
  t -> src:addr -> dst:addr -> ?loss:float -> ?dup:float -> until:float -> unit -> unit

val set_latency_spike : t -> src:addr -> dst:addr -> factor:float -> until:float -> unit

val set_filter : t -> (src:addr -> dst:addr -> kind:string -> bool) option -> unit

(** A {!faults} whose mutating hooks raise [Invalid_argument] (wrap the
    backend in {!Faulty} instead) and whose predicates answer "no
    fault". *)
val no_faults : name:string -> faults
