(** Fault injection: the one place crashes, partitions, drop filters,
    loss/duplication bursts and latency spikes come from.

    Every fault-capable transport is a {!Transport} backend behind these
    gates.  The send gate drops crashed-source, crashed-destination,
    partitioned and filtered messages and draws burst loss/duplication
    before the backend sees the message; the receive gate, run in the
    backend's delivery fiber just before the user handler, drops a
    message whose destination crashed, source crashed or pair
    partitioned while it was in flight.  Drops are attributed per
    logical message in the combined {!Transport.stats} and, with
    observability on, emitted as ["drop"] trace instants (reason
    [src-crashed], [dst-crashed], [partitioned], [filtered] or [loss])
    and the [net.dropped], [net.dropped.src_crashed],
    [net.dropped.dst_crashed] and [net.duplicated] metrics.

    The gates cannot re-order the wire, but from the runtime's point of
    view every nemesis operation behaves the same over the simulated
    network and over real sockets. *)

(** [wrap ~sched ~seed base] gates an opaque backend (e.g.
    {!Tcp.transport}): burst draws come from a generator seeded with
    [seed], and a latency spike stalls each delivery on the edge for
    [factor] milliseconds of virtual time before the receive gate runs. *)
val wrap :
  sched:Netobj_sched.Sched.t -> seed:int64 -> Transport.t -> Transport.t

(** [of_net ~sched net] gates {!Transport_sim.of_net}[ net], the sim
    engine's default transport.  Burst draws come from the network's own
    generator ({!Netobj_net.Net.rng}), interleaved with its latency
    draws in traffic order, and a latency spike scales the edge's
    latency model ({!Netobj_net.Net.set_latency_spike}) instead of
    stalling — so a seed fixes the whole run. *)
val of_net : sched:Netobj_sched.Sched.t -> Netobj_net.Net.t -> Transport.t
