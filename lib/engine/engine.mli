(** The execution-engine interface.

    Everything the runtime needs from "how code runs" — fibers, timers
    and the virtual clock ({!Netobj_sched.Sched}), the simulated network
    with its delivery-choice hooks ({!Netobj_net.Net}), and the message
    transport ({!Netobj_transport.Transport}) — is bundled into
    {!shard}s handed out by an engine.  The runtime itself stays
    engine-agnostic: every space belongs to exactly one shard and all of
    its blocking operations, demons and timers live on that shard's
    scheduler, so the same protocol code runs single-domain and
    deterministic ({!Engine_sim}) or sharded across OCaml 5 domains
    ({!Engine_domains}) without change.

    Discipline a multi-shard engine relies on (trivially true with one
    shard):

    - {b Space affinity.}  A fiber that blocks as space [s] (remote
      calls, lookups, sleeps) must run on [s]'s shard — spawn it with
      {!Netobj_core.Runtime.spawn_at}.  Cross-space interaction goes
      through the transport, never through another shard's scheduler.
    - {b Quiescent control plane.}  Construction, crash/restart/recover,
      oracles ([check_*], [global_collect]) and direct inspection of
      another space's tables happen while {!run} is not executing — the
      engine guarantees a happens-before edge between [run] calls and
      the caller. *)

module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport

(** One execution context: a scheduler (fibers, timers, virtual clock),
    a simulated network (edge shaping, choice hooks; idle when a custom
    transport routes traffic elsewhere) and the transport endpoint the
    shard's spaces send and receive through. *)
type shard = {
  s_id : int;
  s_sched : Sched.t;
  s_net : Net.t;
  s_transport : Transport.t;
}

(** Construction parameters, assembled by {!Netobj_core.Runtime.create}
    from its config.  [p_mk_transport] (the [?transport] config hook) is
    invoked once per shard with that shard's scheduler and network;
    [None] selects each engine's native backend
    ({!Netobj_transport.Faulty.of_net} over the simulated network / the
    inter-domain hub).
    [p_domains] is the requested parallelism; engines without real
    parallelism ignore it. *)
type params = {
  p_seed : int64;
  p_nspaces : int;
  p_policy : Sched.policy;
  p_edge : Net.edge_config;
  p_domains : int;
  p_mk_transport : (Sched.t -> Net.t -> Transport.t) option;
}

module type S = sig
  type t

  val name : string

  (** True when [run] is a pure function of the config seed: schedules,
      clocks and message orders replay identically.  The mc/chaos/replay
      harnesses require a deterministic engine. *)
  val deterministic : bool

  val create : params -> t

  (** All shards, indexed by shard id. *)
  val shards : t -> shard array

  val shard_of_space : t -> int -> shard

  (** Spawn a fiber on the given shard.  Only legal while {!run} is not
      executing, or from a fiber already running on that same shard. *)
  val spawn : t -> shard:int -> ?name:string -> (unit -> unit) -> unit

  (** Drive the system.  With one shard this is exactly
      {!Netobj_sched.Sched.run}; a parallel engine runs every shard (in
      its own domain) until all of them are quiescent at virtual time
      [until] — no ready fiber, no due timer, no undelivered message —
      and returns the total steps executed.  Parallel engines require
      [until] (an open-ended run never quiesces while periodic demons
      re-arm) and make a memory-model happens-before edge between the
      call and its return. *)
  val run : ?max_steps:int -> ?until:float -> t -> int

  (** Release engine resources (joins nothing: domains only live inside
      {!run}).  Transports are closed by their owners, not here. *)
  val close : t -> unit
end

(** An engine module packaged with its state, so the runtime can hold
    "some engine" without a type parameter. *)
type instance = Inst : (module S with type t = 'a) * 'a -> instance

val make : (module S) -> params -> instance

val name : instance -> string

val deterministic : instance -> bool

val shards : instance -> shard array

val shard_of_space : instance -> int -> shard

val spawn : instance -> shard:int -> ?name:string -> (unit -> unit) -> unit

val run : ?max_steps:int -> ?until:float -> instance -> int

val close : instance -> unit
