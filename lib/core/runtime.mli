(** The Network Objects runtime: spaces, surrogates, object tables,
    remote invocation, and the integrated distributed garbage collector.

    A {e space} is a simulated process: it has an object table mapping
    wireReps to local {e concrete objects} (it owns) or {e surrogates}
    (client-side proxies), a set of application roots, a local
    mark-and-sweep collector, a cleaning demon, and — optionally — GC and
    ping demons driven by the virtual clock.

    The distributed collector is Birrell's: the owner keeps a {e dirty
    set} per concrete object, maintained by sequence-numbered
    dirty/clean calls; marshalling a reference creates {e transient
    dirty} pins at the sender until the receiver acknowledges the whole
    message; unmarshalling an unknown reference blocks the receiving
    fiber on a dirty call before the surrogate becomes usable.  A
    concrete object is reclaimed only when it is locally unreachable and
    both its dirty set and the transient pins referencing it are empty.

    All blocking operations ({!invoke_raw}, {!Stub.call}, {!lookup})
    must run inside a fiber of the runtime's scheduler. *)

module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Engine = Netobj_engine.Engine
module Wire = Netobj_pickle.Wire
module Pickle = Netobj_pickle.Pickle

type t

type space

(** A local reference to a network object (concrete or surrogate),
    valid within the space that produced it. *)
type handle

(** Why a call failed, one constructor per outcome (the paper's
    [NetObj.Error] and its failure atoms):
    - [Dangling_handle]: the caller no longer holds a surrogate for the
      handle (it was collected, or dropped when its owner restarted or
      lost the object in a recovery); re-import it with {!lookup};
    - [Surrogate_cleaning]: the surrogate is being cleaned up;
    - [Registration_failed]: registering a surrogate (the dirty call
      made on import or while decoding a reference) failed: the owner
      refused it, or the owner's or this space's incarnation was reset;
    - [Caller_crashed]: the calling space is crashed;
    - [Caller_restarted]: the calling space was restarted
      ([recovering = false], {!restart}) or recovered ([true],
      {!recover}) while the call was pending;
    - [Shed]: the owner's inflight gate ([max_inflight]) shed every one
      of [attempts] attempts;
    - [No_such_object]: the owner has no such object;
    - [No_such_method]: the object has no method of that name;
    - [No_binding]: {!lookup} found no binding for the name;
    - [Dirty_timeout]: a dirty call exceeded [dirty_timeout];
    - [No_reply]: no reply came within the call's attempts, timeout and
      deadline ([timeout] and [deadline] as configured for the call,
      [deadline] relative to its start);
    - [Undecodable_reply]: the reply did not decode with the method's
      result codec ([msg] is the decoder's message); the references it
      had decoded are unpinned and the reply acknowledged;
    - [Raised]: decoding the arguments at the owner, awaiting their
      registrations, or the method body raised; the text is the
      exception's, so a failed nested call arrives as text. *)
type failure =
  | Dangling_handle
  | Surrogate_cleaning
  | Registration_failed
  | Caller_crashed
  | Caller_restarted of { recovering : bool }
  | Shed of { meth : string; owner : int; attempts : int }
  | No_such_object of Wirerep.t
  | No_such_method of string
  | No_binding of string
  | Dirty_timeout
  | No_reply of {
      meth : string;
      attempts : int;
      elapsed : float;
      timeout : float option;
      deadline : float option;
    }
  | Undecodable_reply of { meth : string; msg : string }
  | Raised of string

(** The one exception a failed call raises: every blocking operation
    ({!invoke_raw}, {!Stub.call}, {!lookup}) reports its failure
    through it. *)
exception Call_failed of failure

(** The failure as text, e.g. [call incr: no reply after 3 attempts,
    0.150s elapsed (timeout 0.050s, deadline none)]. *)
val pp_failure : failure Fmt.t

(** Runtime configuration.  The type is abstract: build one with the
    {!config} constructor (defaults are the fault-free baseline —
    reliable reordering network, no demons, no timeouts) and derive
    variants with {!override}.  New knobs can then be added without
    breaking any call site. *)
type config

(** [config ~nspaces ()] with every knob optional:
    - [seed] drives all randomness (default [1L]);
    - [policy] is the scheduling policy (default {!Sched.Fifo});
    - [edge] is every simulated network edge's order and latency
      (default {!Net.bag_edge}); loss and duplication are faults,
      armed through {!transport} ({!Netobj_transport.Transport.set_burst});
    - [gc_period] runs each space's local GC periodically;
    - [ping_period] makes owners ping clients in their dirty sets, and
      [lease_misses] (default 3) is how many missed pings evict a client;
    - [call_timeout] / [dirty_timeout] bound remote calls and surrogate
      creation; [clean_retry] re-sends unacknowledged clean calls and
      [dirty_retry] does the same for unacknowledged dirty calls (both
      idempotent thanks to sequence numbers);
    - [call_retries] (default 0) arms automatic retransmission of
      remote calls: each attempt's [call_timeout] window doubles as the
      retransmission timer (growing with the [backoff] schedule below),
      and owners keep a bounded per-client reply cache so a
      retransmitted call replays the recorded reply instead of
      re-executing — at-most-once execution under retries;
    - [deadline] bounds every call end-to-end: the remaining budget
      travels in the call envelope, nested and third-party calls made
      while serving clamp to it, and an owner whose budget runs out
      before the method body runs skips it and sends no reply (the
      caller, whose deadline came one transit earlier, has already
      failed with [No_reply]);
    - [max_inflight] bounds concurrently executing calls per space: an
      owner at the gate sheds new calls O(1) with an explicit busy
      reply, which callers treat as retryable-with-backoff.  Setting
      any of these three also makes an abandoning caller send a cancel
      so the owner releases the reply's transient pins immediately;
      see {!call_stats} and [README § Call semantics];
    - [backoff] (≥ 1, default 1 = fixed interval) grows each retry
      interval geometrically, capped at [backoff_cap] seconds, and
      [backoff_jitter] (in [\[0,1)]) scales each delay by a random factor
      in [\[1-j/2, 1+j/2)] drawn from a dedicated stream — retries stay
      deterministic per seed without synchronising across spaces;
    - [lease_grace] keeps pinging a client for that many extra seconds
      after it exceeds [lease_misses] before evicting it, so a healed
      partition shorter than the grace period costs no eviction;
    - [pin_timeout] drops a message's transient dirty pins if no
      copy_ack arrived after that long (TR §2.2's conservative timeout
      for lost acks); it must comfortably exceed latency + [call_timeout]
      so a merely-late ack never races the release;
    - [bug_lookup_leak] reintroduces the historical {!lookup} bug (the
      agent root released only on the success path, so a failed call
      strands the agent surrogate and its dirty entry forever) as a
      known-bug target for the model checker's schedules-to-first-bug
      benchmark.  Never set it outside that benchmark;
    - [bug_ping_ack_replay] reintroduces the historical ping-ack bug
      (acks matched neither nonce nor epoch, so a duplicated or delayed
      ack kept renewing a partitioned client's lease) as a regression
      target.  Never set it outside those tests;
    - [bug_no_dedup] disables the at-most-once reply cache while
      leaving retries armed — every retransmission re-executes the
      method, the exact bug the cache exists to prevent — as a
      known-bug target for the model checker's call-retry scenario.
      Never set it outside that scenario;
    - [durable] attaches a {!Netobj_store.Store} to every space: each
      logs its GC-relevant transitions (exports, dirty-set changes,
      roots, leases) write-ahead, making {!recover} available after a
      {!crash}; [fsync_delay] is the store's group-commit window
      (virtual seconds, default 0.02) and [snapshot_period] takes a
      compacting snapshot that often;
    - [recover_grace] (default 2.0) is the post-recovery window during
      which the collector stands down and recovered dirty entries are
      conservatively retained while clients re-assert them;
    - [cycle_period] runs each space's distributed cycle detector
      periodically (default off): suspects that stayed
      dirty-kept-but-unreachable for 0.75 seconds get a trial deletion
      — see {!cycle_collect} for the protocol;
    - [bug_skip_confirm] deliberately breaks the detector by committing
      trial closures without the confirm round, as a known-bug target
      for the model checker.  Never set it outside that scenario;
    - [transport] swaps the message transport: given a shard's
      scheduler and its simulated network (invoked once per shard), it
      returns the {!Netobj_transport.Transport.t} that shard's protocol
      traffic rides (default: each engine's native backend —
      {!Netobj_transport.Faulty.of_net} on the sim engine, the
      inter-domain hub on the domains engine).  Real backends need
      their I/O pumped — see {!transport} and {!Netobj_transport.Tcp};
    - [engine] swaps the execution engine, exactly as [transport] swaps
      the wire: {!Netobj_engine.Engine_sim} (default) is the
      deterministic single-domain world, {!Netobj_engine.Engine_domains}
      shards spaces across up to [domains] (default 4) OCaml domains —
      see {!Netobj_engine.Engine} for the affinity discipline
      ({!spawn_at}) that multi-shard execution requires. *)
val config :
  ?seed:int64 ->
  ?policy:Sched.policy ->
  ?edge:Net.edge_config ->
  ?gc_period:float ->
  ?ping_period:float ->
  ?lease_misses:int ->
  ?call_timeout:float ->
  ?call_retries:int ->
  ?deadline:float ->
  ?max_inflight:int ->
  ?dirty_timeout:float ->
  ?clean_retry:float ->
  ?dirty_retry:float ->
  ?backoff:float ->
  ?backoff_cap:float ->
  ?backoff_jitter:float ->
  ?lease_grace:float ->
  ?pin_timeout:float ->
  ?bug_lookup_leak:bool ->
  ?bug_ping_ack_replay:bool ->
  ?bug_no_dedup:bool ->
  ?durable:bool ->
  ?fsync_delay:float ->
  ?snapshot_period:float ->
  ?recover_grace:float ->
  ?cycle_period:float ->
  ?bug_skip_confirm:bool ->
  ?transport:(Sched.t -> Net.t -> Netobj_transport.Transport.t) ->
  ?engine:(module Engine.S) ->
  ?domains:int ->
  nspaces:int ->
  unit ->
  config

(** Derive a config overriding any subset of the rebindable knobs — the
    single builder for config variants ([override ~seed:7L cfg],
    [override ~policy:(Sched.Random s) ~edge:(Net.fifo_edge ()) cfg],
    ...). *)
val override :
  ?seed:int64 ->
  ?policy:Sched.policy ->
  ?edge:Net.edge_config ->
  ?transport:(Sched.t -> Net.t -> Netobj_transport.Transport.t) ->
  ?engine:(module Engine.S) ->
  ?domains:int ->
  config ->
  config

val config_nspaces : config -> int

val config_seed : config -> int64

(** Advisory cross-knob sanity checks, as human-readable warnings.
    Today's single check makes the transient-pin constraint explicit:
    [pin_timeout] must exceed one-way latency plus the whole
    [call_timeout]/retry window, or a merely-late copy_ack races the
    conservative pin release.  Empty when nothing is suspect (or the
    relevant knobs are unset). *)
val config_warnings : config -> string list

val create : config -> t

(** Shard 0's scheduler: with the sim engine, {e the} scheduler; with a
    multi-shard engine, only the first shard's (use {!spawn_at} to
    reach the others). *)
val sched : t -> Sched.t

(** Shard 0's transport.  Harness fault operations ({!crash} and
    friends) go through each shard's fault hooks, which
    {!Netobj_transport.Faulty} implements: the sim engine's default
    transport already sits behind it, and a custom backend (e.g. TCP)
    must be wrapped in it before the chaos machinery can drive it. *)
val transport : t -> Netobj_transport.Transport.t

(** The engine's identifier: ["sim"], ["domains"], ... *)
val engine_name : t -> string

(** How many shards the engine created (1 on sim; [min nspaces domains]
    on the domains engine). *)
val nshards : t -> int

val space : t -> int -> space

val space_id : space -> int

val spaces : t -> space list

(** Drive the system (see {!Engine.S.run}: on the sim engine exactly
    {!Sched.run}; on the domains engine one parallel episode to
    quiescence at [until], which is then required). *)
val run : ?max_steps:int -> ?until:float -> t -> int

(** Spawn a fiber (application code) on shard 0 — blocking calls are
    only legal inside a fiber. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Spawn a fiber on the shard owning [space].  Under a multi-shard
    engine every fiber that blocks as a space (calls, lookups, sleeps)
    must run on that space's shard; [spawn_at] is how application
    workloads satisfy that.  Equivalent to {!spawn} on the sim
    engine. *)
val spawn_at : t -> space:int -> ?name:string -> (unit -> unit) -> unit

(** {1 Objects and the local heap} *)

(** An untyped method implementation (see {!Stub} for the typed layer).

    A method runs in three phases: (1) decode the arguments from the
    reader — this runs under the receiving marshal context and must not
    block; (2) compute — the [unit ->] stage, free to block and make
    nested remote calls; (3) encode the result into the writer — under
    the reply's marshal context, must not block.  The runtime awaits the
    dirty registrations triggered by phase 1 before running phase 2, so
    the implementation only ever sees usable references. *)
type meth

val meth :
  string -> (space -> Wire.Reader.t -> unit -> Wire.Writer.t -> unit) -> meth

(** Allocate a concrete network object owned by this space.  The handle
    is rooted; {!release} it when the application no longer needs it
    locally.  Under a durable configuration, [tag] names the factory
    ({!register_factory}) that re-instantiates the method suite at
    {!recover}; untagged objects recover with no methods (their
    identity, dirty set and heap edges survive, calls raise). *)
val allocate : ?tag:string -> space -> meths:meth list -> handle

(** Root an additional reference to the handle (reference-counted). *)
val retain : space -> handle -> unit

(** Drop one application root.  The object may become collectable. *)
val release : space -> handle -> unit

(** [link parent child] records a heap edge: [child] is reachable from
    [parent] for the local collector. *)
val link : space -> parent:handle -> child:handle -> unit

val unlink : space -> parent:handle -> child:handle -> unit

val wirerep : handle -> Wirerep.t

val pp_handle : handle Fmt.t

(** {1 Invocation} *)

(** [invoke_raw sp h ~meth ~encode ~decode] performs a remote (or local,
    if [sp] owns [h]) method invocation.  [encode] writes the pickled
    arguments under the sending marshal context (handles written through
    {!handle_codec} are pinned transiently); [decode] reads the reply
    under the receiving context (handles read are dirty-registered and
    become rooted — {!release} them when done). *)
val invoke_raw :
  space ->
  handle ->
  meth:string ->
  encode:(Wire.Writer.t -> unit) ->
  decode:(Wire.Reader.t -> 'r) ->
  'r

(** Codec for handles embedded in arguments/results.  Only usable inside
    an {!invoke_raw} encode/decode callback (or a method handler); using
    it elsewhere raises [Failure]. *)
val handle_codec : handle Pickle.t

(** {1 Garbage collection} *)

(** Run this space's local mark-and-sweep now. *)
val collect : space -> unit

(** Run every space's collector. *)
val collect_all : t -> unit

(** Stop-the-world {e complete} collection — the hybrid complement the
    paper calls for, since reference listing alone cannot reclaim
    distributed cycles.  Traces the whole system from every space's
    application roots and transmission pins (ignoring dirty sets, which
    is exactly what lets it cross cycles), then reclaims every unreached
    concrete object and drops the now-dangling surrogate entries and
    dirty-set state everywhere.  Returns the number of concrete objects
    reclaimed.  Must run on a quiescent system (no calls in progress);
    in a real deployment this corresponds to a coordinated global
    tracing phase. *)
val global_collect : t -> int

(** One synchronous pass of the distributed cycle detector at this
    space, driven to completion: every concrete that is currently
    dirty-kept-but-locally-unreachable (no ageing) gets a {e trial
    deletion}.  A trial computes the backward closure of the suspect by
    probing owners and dirty-set members (stateless responders answer
    from local reachability plus per-wireRep {e touch counters}), then
    re-probes everything and commits only on byte-identical reports
    under unchanged epochs — any live report, vanished entry, counter
    movement or epoch bump aborts conservatively.  Commits are
    fire-and-forget and defensively rechecked by each owner, so late or
    duplicated commits are harmless.  Returns the number of objects
    committed for reclamation.  Must run inside a fiber (it blocks on
    probe replies); the [cycle_period] knob runs the same logic as a
    background demon.  Detector state is soft: it survives nothing and
    trusts nothing across an epoch bump. *)
val cycle_collect : space -> int

(** Does this space's table still hold an entry for the wireRep? *)
val resident : space -> Wirerep.t -> bool

(** The dirty set of a concrete object owned by this space.  Raises if
    not the owner or not resident. *)
val dirty_set : space -> handle -> int list

(** Surrogate count in this space's table. *)
val surrogate_count : space -> int

(** One human-readable line per surrogate in this space's table —
    wireRep, state ([Creating]/[Usable]/[Cleaning]), root and pin counts.
    For diagnosing liveness failures: a surrogate that refuses to drain
    shows here with whatever is keeping it alive. *)
val surrogate_summary : space -> string list

(** Number of local collections this space has run. *)
val collections : space -> int

(** Objects reclaimed by this space's collector so far. *)
val reclaimed : space -> int

(** {1 Name service (agent)} *)

(** Publish a handle under a name at this space's agent. *)
val publish : space -> string -> handle -> unit

(** Remove a binding; the object loses the agent's heap reference (it may
    become collectable if nothing else holds it). *)
val unpublish : space -> string -> unit

(** [lookup sp ~at name] imports the named object from space [at]'s
    agent.  The returned handle is rooted; {!release} it when done.
    Fails with [Call_failed (No_binding name)] if the name is unknown. *)
val lookup : space -> at:int -> string -> handle

(** {2 Sharded namespace}

    Every space runs a well-known agent; sharding statically partitions
    the namespace across all of them by name hash, so publish/lookup
    storms spread over every owner instead of serialising on one. *)

(** The home space of a name: a pure function of the name and the space
    count, identical at every space. *)
val agent_home : t -> string -> int

(** Publish under the name's home agent (local fast path when this
    space is the home). *)
val publish_sharded : space -> string -> handle -> unit

(** [lookup_sharded sp name] is [lookup sp ~at:(agent_home rt name) name]. *)
val lookup_sharded : space -> string -> handle

(** {1 Failure injection} *)

(** Crash a space: it stops sending, receiving and running demons. *)
val crash : t -> int -> unit

(** Restart a crashed space as a fresh incarnation: empty object table,
    no roots, pins or pending calls, a new agent, and an incarnation
    epoch one higher than before.  Every packet is stamped with the
    sender's epoch and its view of the receiver's ({!Proto.packet}), so
    peers reject mail from (or addressed to) the old incarnation,
    discover the restart from the stamp, evict the old incarnation from
    their dirty sets and drop their now-dead surrogates — retained
    handles for them fail with [Dangling_handle] until re-imported via
    {!lookup}.  Raises [Invalid_argument] if the space is not crashed. *)
val restart : t -> int -> unit

(** The space's incarnation epoch: 0 at creation, +1 per {!restart} or
    {!recover}. *)
val epoch : space -> int

(** {1 Durability and recovery} *)

(** Recover a crashed durable space as the {e same logical incarnation}:
    replay its snapshot and log suffix (object table, dirty sets with
    their idempotence watermarks, roots, transient pins, bindings,
    peer-epoch knowledge), bump the epoch for packet freshness while
    keeping the continuity floor ({!cont}) so peers reconcile instead of
    forgetting, then run the reassert handshake: clients re-assert dirty
    for surviving surrogates with fresh idempotent sequence numbers
    while the owner conservatively retains recovered entries — and the
    collector stands down — until the [recover_grace] window closes.
    Raises [Invalid_argument] if the space is not crashed or the runtime
    is not durable. *)
val recover : t -> int -> unit

(** The continuity floor: the oldest epoch whose state this incarnation
    still carries.  Equals {!epoch} after an amnesia {!restart}; stays
    put across {!recover}.  Carried in every packet so peers can tell
    "forget me" from "reconcile with me". *)
val cont : space -> int

(** Whether the space carries a durable store. *)
val durable : space -> bool

(** Register a method-suite factory for {!allocate}'s [tag]; consulted
    when {!recover} re-instantiates concrete objects. *)
val register_factory : t -> string -> (unit -> meth list) -> unit

(** Arm (or clear, with [None]) the disk fault applied at space [i]'s
    next crash (see {!Netobj_store.Store.fault}).  Raises
    [Invalid_argument] if the space is not durable. *)
val set_disk_fault : t -> int -> Netobj_store.Store.fault option -> unit

(** Bytes in the space's durable log (0 when not durable). *)
val log_size : space -> int

(** Take a compacting snapshot now (no-op when not durable). *)
val force_snapshot : space -> unit

(** Recovered (or recovery-marked) dirty entries still awaiting
    re-confirmation by their client. *)
val unconfirmed_count : space -> int

(** {1 Introspection} *)

type gc_stats = {
  dirty_calls : int;
  clean_calls : int;
  copy_acks : int;
  pings : int;
  evictions : int;  (** dirty-set entries dropped by lease expiry *)
  epoch_rejections : int;
      (** packets dropped for carrying a stale incarnation epoch *)
  retries : int;  (** dirty/clean calls re-sent after an unacked wait *)
  stale_acks : int;
      (** ping acks dropped for failing the nonce/epoch match: duplicated,
          delayed past their window, or minted against a dead epoch *)
}

val gc_stats : space -> gc_stats

(** Entries (own concretes with this client in their dirty set) covered
    by the client's aggregated lease here — exactly what one
    ping/ping_ack pair renews, and what an eviction walks. *)
val lease_entries : space -> int -> int

(** Cross-check the incrementally maintained per-client lease and
    dirty-kept aggregates against a from-scratch fold over the object
    table; returns discrepancies.  Also wired into
    {!check_consistency}. *)
val lease_check : space -> string list

(** Cycle-detector counters for this space: trials opened as
    coordinator, conservative aborts, and objects reclaimed {e here} by
    cycle commits (counted at the owner). *)
type cycle_stats = { trials : int; aborts : int; collected : int }

val cycle_stats : space -> cycle_stats

(** Call-reliability counters for this space.  Client side: [c_retried]
    attempts beyond each call's first.  Owner side: [c_deduped]
    retransmissions answered from the reply cache (or dropped against a
    still-executing call) instead of re-executed, [c_shed] calls
    rejected O(1) at the [max_inflight] admission gate, [c_cancelled]
    calls settled by a caller's cancel, [c_expired] calls whose
    deadline ran out before the method body, and [c_executed] method
    bodies actually run — the at-most-once witness: under retries,
    [c_executed] never exceeds the number of distinct calls sent. *)
type call_stats = {
  c_retried : int;
  c_deduped : int;
  c_shed : int;
  c_cancelled : int;
  c_expired : int;
  c_executed : int;
}

val call_stats : space -> call_stats

(** Cross-validation against the formal specification: on a {e quiescent}
    system (no messages in flight, no fibers mid-call) check the runtime
    analogues of the paper's safety lemmas and report violations:

    - Lemma 9: a [Usable] surrogate at space [p] implies [p] is in the
      owner's dirty set for that object;
    - Definition 12: a surrogate in any state implies the concrete object
      is still resident at its owner;
    - conversely (liveness at quiescence): every dirty-set entry is
      matched by a surrogate entry at that client;
    - no transient pins survive quiescence (every message was acked);
    - registration/cleanup states ([Creating]/[Cleaning]) do not exist at
      quiescence.

    Call it only after {!run} returned with no runnable work; results are
    meaningless mid-protocol. *)
val check_consistency : t -> string list

(** Per-step analogue of the paper's central safety claim, sound {e
    mid-protocol} (unlike {!check_consistency}): a [Usable] surrogate
    implies the owner still holds the concrete object (Definition 12)
    with the client in its dirty set (Lemma 9).  [Creating]/[Cleaning]
    surrogates are legal transients and are skipped, as are owners that
    restarted or evicted a lease.  This is the invariant a model checker
    evaluates at every choice point. *)
val check_safety : t -> string list

(** Hash of the protocol-relevant state: object tables, surrogate
    states, dirty sets, root/pin counts, epochs, plus the scheduler's
    pending work ({!Sched.pending_fingerprint}).  Monotone counters
    (sequence numbers, ids, stats) are excluded so equivalent states
    collide.  Used for model-checker state deduplication; collisions are
    possible, so treat pruning on it as heuristic. *)
val state_fingerprint : t -> int
