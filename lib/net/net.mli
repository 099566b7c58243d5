(** Simulated point-to-point network between spaces.

    The distributed-GC specification is written over asynchronous
    point-to-point channels that are reliable, non-duplicating and
    unordered ("bags of messages"); its §5.1 variant orders them (FIFO).
    This network models exactly that much: one {!edge_config} per
    network picks the order ({!Bag} or {!Fifo}) and the latency model,
    so the same runtime can run over the spec's baseline network or over
    FIFO channels.

    It is a channel model only: it neither loses nor duplicates.
    Loss and duplication (the §6 fault-tolerance adversary), crashed or
    unreachable processes and drop filters are injected one layer up, by
    the {!Netobj_transport.Faulty} gates that every runtime transport
    (simulated or TCP) sits behind; on the simulated network those gates
    draw from this network's {!rng} and forward latency spikes to
    {!set_latency_spike}, so a seed fixes the whole run.

    Delivery is driven by the {!Netobj_sched} virtual clock: each message
    is assigned a latency from the edge's model and handed to the
    destination's handler in a fresh fiber (modelling the RPC runtime
    forking a server thread per incoming packet).  Every message travels
    as its own payload ({!send}). *)

(** Space address (process identifier). *)
type addr = int

type latency =
  | Constant of float
  | Uniform of float * float
      (** uniform in [\[lo, hi\]] — with [Bag] semantics this reorders
          messages, which is exactly what the spec's bag channels allow *)

type semantics =
  | Bag  (** arbitrary reordering (spec default) *)
  | Fifo  (** per-edge order preserved (for the §5.1 variant) *)

type edge_config = { semantics : semantics; latency : latency }

val default_edge : edge_config

(** Reliable-but-reordering network, the specification's baseline. *)
val bag_edge : ?lo:float -> ?hi:float -> unit -> edge_config

val fifo_edge : ?latency:float -> unit -> edge_config

type t

(** A message handler.  [payload] is the delivered buffer; the message
    body is the slice [off, off+len) — decode it in place (e.g. with
    {!Netobj_pickle.Pickle.decode_slice}) rather than copying it out.
    This network's slice covers the whole payload; a backend that
    receives framed bytes ({!Netobj_transport.Tcp}) points it into the
    frame body. *)
type handler =
  src:addr -> kind:string -> payload:string -> off:int -> len:int -> unit

(** [create ~sched ~seed ?edge ()] builds a network whose every edge
    follows [edge] (default {!default_edge}) and whose latencies are
    drawn deterministically from [seed]. *)
val create :
  sched:Netobj_sched.Sched.t -> seed:int64 -> ?edge:edge_config -> unit -> t

(** Install the message handler for a space.  The handler is invoked in a
    fresh fiber per delivery. *)
val set_handler : t -> addr -> handler -> unit

(** [send t ~src ~dst ~kind payload] queues a message.  [kind] is an
    accounting label (e.g. ["dirty"], ["call"]); it does not affect
    delivery. Messages to unregistered destinations are counted as
    dropped. *)
val send : t -> src:addr -> dst:addr -> kind:string -> string -> unit

(** [set_latency_spike t ~src ~dst ~factor ~until] multiplies latencies
    drawn for the directed edge by [factor] until virtual time [until].
    A later call for the same edge overwrites the window. *)
val set_latency_spike : t -> src:addr -> dst:addr -> factor:float -> until:float -> unit

(** The seeded generator behind every latency draw.  Fault gates
    layered over this network draw their loss and duplication from it
    too, so those draws interleave with the latency draws in traffic
    order. *)
val rng : t -> Netobj_util.Rng.t

(** {1 Controlled delivery order (model checking)}

    [set_delivery_choice t ~slots choose] turns every {!Bag}-edge
    delivery into an explicit choice point instead of a random latency
    draw: [choose ~label ~n:slots] picks a slot [k] and the message
    arrives after [(k+1) * base] where [base] is the edge's constant (or
    mean uniform) latency.  A later send in a low slot can overtake an
    earlier send in a high slot — the reordering Bag semantics allows —
    while equal deadlines tie and fall to the scheduler's same-instant
    timer choice.  [label] identifies the edge and message kind
    (["deliver:src>dst:kind"]).  The chooser is consulted only when the
    edge already has a message in flight — a lone message has nothing to
    reorder against, so branching on its slot would multiply schedules
    without changing any observable order.  Fifo edges are unaffected.
    The fault gates over this network ({!Netobj_transport.Faulty.of_net})
    still draw their loss and duplication from {!rng}. *)
val set_delivery_choice :
  t -> ?slots:int -> (label:string -> n:int -> int) -> unit

(** {1 Accounting}

    Every count is per message: [sent]/[bytes] and {!stats_by_kind}
    count what {!send} was handed, [delivered] and [dropped] what
    became of it. *)

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** arrived at an address with no handler *)
  bytes : int;
}

val stats : t -> stats

(** Per-[kind] (messages, bytes) sent. *)
val stats_by_kind : t -> (string * (int * int)) list

val reset_stats : t -> unit
