(** Real Unix/TCP transport backend.

    One {!t} drives any number of local spaces from a single thread:
    each address listed in [serving] gets its own listening socket, and
    each remote destination gets one outgoing connection, established
    lazily and re-established after failures with capped exponential
    backoff.  All sockets are nonblocking.  {!Transport.pump} writes
    the drained peers, runs one [select] round (up to the given
    wall-clock timeout), accepts and reads, then writes the peers that
    became writable.  One read pass covers every established socket,
    accepted or dialled; each has its own frame decoder, which
    reassembles frames across arbitrary packet boundaries and dies with
    its socket.  Each message is dispatched in a fresh scheduler
    fiber.
    A body that does not parse whole is acted on not at all: it closes
    its connection like a corrupt frame header does.

    On the wire every message is one {!Frame}: [u32 BE length], the
    flag byte [0x00], then a body of
    [uvarint src · uvarint dst · string kind · string payload] with
    nothing after it.  Batching happens below the frame, in the
    gathered write.

    A send queues the message unframed.  Each pump writes a peer's
    queue with one [write]: the frames are built in place, header and
    body, in the peer's one reused write buffer, as many as fit in
    64 KiB; a larger frame goes alone through the same buffer, which
    grows to fit it.  Reads land straight in the frame decoder's
    buffer.  A peer whose earlier bytes are all on
    the wire (drained) writes before the [select], so on loopback the
    same [select] sees them readable and one pump carries a message from
    sender to receiver; a pump that wrote polls instead of waiting.  A
    peer with bytes still in flight waits for [select] to report it
    writable, after its read pass.  A read pass on a socket ends at the
    first short read; [select] is level-triggered, so the rest is seen
    on the next pump.

    Loss semantics: a frame that was only partially written when a
    connection broke is retransmitted in full on the next connection
    (the receiver discarded the torn tail) and a frame wholly written is
    never resent — the in-flight buffer rewinds to a frame boundary —
    so no duplicate can arise from reconnection.  Frames wholly written
    into a connection that then dies may be lost, never duplicated; that
    window includes a FIN that arrives between pumps, before a drained
    peer's next write.  Frames queued beyond the per-peer bound
    ([8 MiB]) while a peer is unreachable, and frames not wholly
    written when the transport is closed, are dropped and counted.
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
