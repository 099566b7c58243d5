(** The simulated network, re-homed behind the {!Transport} signature.

    [of_net net] delegates every operation to the given
    {!Netobj_net.Net.t}: delivery rides the virtual clock (so
    {!Transport.pump} is a constant 0) and the accounting is the
    network's own.  Like bare {!Tcp} it has no fault hooks
    ({!Transport.no_faults}): crashes, partitions, filters and bursts
    come from the {!Faulty} gates stacked on top ({!Faulty.of_net} is the
    sim engine's default stack).  The wrapper holds no state — callers
    that keep the underlying [Net.t] (e.g. the model checker's
    delivery-choice hook, or tests asserting [Net.stats]) observe
    exactly what flows through the transport. *)

val of_net : Netobj_net.Net.t -> Transport.t
