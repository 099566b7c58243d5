(** The inter-domain message hub: the native transport of
    {!Engine_domains}.

    One hub is shared by every shard of a runtime; each shard holds a
    {!view} — a {!Netobj_transport.Transport.t} whose send enqueues into
    the destination shard's mutex-guarded mailbox and whose [pump]
    drains the {e owning} shard's mailbox, invoking each message's
    handler in a fresh fiber of that shard's scheduler (the transport
    delivery contract).  Messages are reliable, unordered across
    mailboxes, at-most-once; there is no virtual-clock latency — a
    message is deliverable as soon as the destination shard next pumps.

    Fault surface: only [crash]/[restore]/[is_crashed] are implemented
    (a crashed space drops its traffic at both ends, like every other
    backend); partitions, bursts and spikes require the deterministic
    sim engine and raise [Invalid_argument].  Crash flags are read
    without the mailbox locks on the send path, so flips should happen
    between {!Engine.S.run} episodes (the runtime's control-plane
    discipline) — a racing reader sees at worst a message that was
    already in flight when the crash landed. *)

module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport

type t

(** [create ~nspaces ~nshards ~shard_of_space] — [shard_of_space] must
    be total on [0 .. nspaces-1]. *)
val create :
  nspaces:int -> nshards:int -> shard_of_space:(int -> int) -> unit -> t

(** The transport endpoint for one shard; [sched] is where delivery
    fibers are spawned.  Call once per shard. *)
val view : t -> shard:int -> sched:Sched.t -> Transport.t

(** {2 Blocking and wakeups}

    The engine parks idle workers on per-worker monitors instead of
    polling, so a cross-domain handoff costs a futex wake rather than a
    sleep quantum.  The hub supplies the lock-level pieces the engine's
    park/probe protocol needs; the monitors themselves live in the
    engine (a worker may own several shards).

    Wakes are {e deferred}: an enqueue never signals directly (waking a
    parked destination mid-batch invites wake-up preemption — the OS
    switches to the woken domain at once and every message becomes a
    context switch).  Instead the sending shard records a wake debt,
    which its drive loop settles with {!flush_wakes} once per work
    iteration; a whole batch of messages then costs one wake.  A worker
    must always flush its shards' debts before blocking.

    [set_wake_hook] registers a callback run on {e every} enqueue,
    {e while holding the destination shard's mailbox lock}; its return
    value decides whether a wake debt is recorded.  The engine's hook
    atomically clears the destination worker's parked flag and asks for
    a wake only when the flag was set — so "parked and all mailboxes
    empty" can be read race-free, and a destination that is already
    awake costs nothing.  The hook must not take locks. *)
val set_wake_hook : t -> (int -> bool) -> unit

(** [set_waker t f] — [f shard] settles one wake debt by signalling
    whatever worker owns [shard]; called by {!flush_wakes} with no
    mailbox lock held. *)
val set_waker : t -> (int -> unit) -> unit

(** Settle every wake debt recorded by this shard's sends since the
    last flush.  Call from the owning worker's domain only. *)
val flush_wakes : t -> shard:int -> unit

(** Mailbox lock, exposed so a worker can verify several of its
    mailboxes empty while holding all their locks (the parked-flag
    publication step).  Lock in increasing shard order. *)
val lock_mailbox : t -> shard:int -> unit

val unlock_mailbox : t -> shard:int -> unit

(** Is the shard's mailbox non-empty?  Call with the lock held. *)
val has_mail : t -> shard:int -> bool
