(** Real Unix/TCP transport backend.

    One {!t} drives any number of local spaces from a single thread:
    each address listed in [serving] gets its own listening socket, and
    each remote destination gets one outgoing connection, established
    lazily and re-established after failures with capped exponential
    backoff.  All sockets are nonblocking; {!Transport.pump} runs one
    [select] round (up to the given wall-clock timeout), accepts,
    reads, reassembles frames across arbitrary packet boundaries, and
    dispatches each submessage in a fresh scheduler fiber.

    On the wire every payload is a {!Frame}: [u32 BE length], a mode
    flag byte ([Raw] today), then a body of
    [uvarint src · uvarint dst · uvarint count ·
    count × (string kind · string payload)] — a direct send is a
    frame with [count = 1]; coalesced outboxes ride as one frame with
    the constituent count, mirroring the simulated network's logical
    vs physical accounting.

    Each pump writes a peer's queued frames with one [write]: they are
    gathered into one reused 64 KiB buffer, and a frame too big to fit
    goes out from its own string.  A read pass on a socket ends at the first
    short read; [select] is level-triggered, so the rest is seen on the
    next pump.

    Loss semantics: a frame that was only partially written when a
    connection broke is retransmitted in full on the next connection
    (the receiver discarded the torn tail) and a frame wholly written is
    never resent — the in-flight buffer rewinds to a frame boundary —
    so no duplicate can arise from reconnection.  Frames queued beyond
    the per-peer bound ([8 MiB]) while a peer is unreachable, and
    frames not wholly written when the transport is closed, are
    dropped and counted.
    The bare backend has no fault hooks ({!Transport.no_faults}) —
    wrap it in {!Faulty} to aim a nemesis at real sockets. *)

type endpoint = { host : string; port : int }

type t

(** [create ~sched ~serving ~endpoints ()] binds a listener for every
    address in [serving] at its endpoint from [endpoints] (port [0]
    binds an ephemeral port — read it back with {!bound_port}).
    Remote addresses are reached through [endpoints]; an address with
    no entry is still reachable once it dials us — the connection a
    frame arrives on becomes the return route to its source, so pure
    clients need no listener at all.  Raises [Unix.Unix_error] if a
    bind fails — callers that must degrade gracefully (no loopback
    available) catch it and skip. *)
val create :
  sched:Netobj_sched.Sched.t ->
  serving:Transport.addr list ->
  endpoints:(Transport.addr * endpoint) list ->
  unit ->
  t

val transport : t -> Transport.t

(** Actual port of the listener serving [addr] (after port-0 binds). *)
val bound_port : t -> Transport.addr -> int
