(** Deterministic chaos harness: nemesis fault injection against the
    full runtime, with safety and liveness oracles.

    A run builds a hardened runtime (periodic GC and ping demons, lease
    grace, retry backoff, transient-pin timeout, epoch-stamped packets),
    populates every space with published counters and an {e orphan
    factory} (a method that mints an object whose only protection during
    transfer is the reply's transient dirty pin — the narrowest window
    the protocol defends), then interleaves three kinds of fibers on the
    virtual clock:

    - {e mutators}, one per space, executing a seeded
      {!Netobj_dgc.Workload.churn_ops} stream mapped onto real imports,
      remote calls, and releases, tolerating timeouts and errors;
    - a {e nemesis} applying a fault schedule: partitions (healed after a
      window), crash + restart, loss and duplication bursts, latency
      spikes;
    - a {e checker} continuously asserting the safety oracle.

    When the schedule ends the harness heals all partitions, restarts
    every crashed space, lets mutators release what they hold, and drives
    the clock until the system drains back to ground truth: no protocol
    invariant violated ({!Netobj_core.Runtime.check_consistency}), no
    surrogate (hence no dirty entry) anywhere, every minted object
    reclaimed by its owner.

    Everything — schedule, workload, network, retry jitter — derives
    from the seed, so a failing run replays exactly.

    {2 Oracles}

    {e Safety} (checked continuously): while an object's owner is up in
    the incarnation that minted it and some client incarnation holds a
    reference, the object must be resident at the owner; and an operation
    on such a reference must never fail with a remote error.  Lease
    eviction cannot legitimately fire because the schedule generator
    keeps every pair's connectivity-fault windows shorter than the lease
    ((misses + 1) × ping period + grace) and separated by a cooldown.

    {e Survival} (checked after each {!fault.Crash_recover}): every
    object whose owner crashed while some live client held a reference
    must still be resident after the owner recovers from its durable
    store — regardless of armed disk faults, because the runtime's
    commit-before-externalize barrier means a reference a peer holds
    implies a durable export record.

    {e Liveness} (checked at quiescence): the drain oracle above, within
    a bounded virtual-time budget.  Under durable mixes the holder
    ground truth is lineage-aware: an amnesia restart invalidates a
    holder record (the heap died), a durable recovery does not (the
    roots were recovered with the image and are still released by the
    mutator's teardown). *)

type fault =
  | Partition of { a : int; b : int; duration : float }
      (** sever both directions between [a] and [b], heal after
          [duration] *)
  | Crash of { victim : int; downtime : float }
      (** crash the space, {!Netobj_core.Runtime.restart} it (fresh
          incarnation with amnesia, bumped epoch) after [downtime] *)
  | Crash_recover of { victim : int; downtime : float }
      (** crash the space, {!Netobj_core.Runtime.recover} it from its
          durable store after [downtime]; applied only when the space is
          durable.  Triggers the survival oracle after the recovery. *)
  | Disk_fault of { victim : int; fault : Netobj_store.Store.fault }
      (** arm a disk fault on the victim's store: shapes what the next
          crash loses (torn tail, lost unsynced suffix) or slows fsync.
          Ignored when the space is not durable. *)
  | Loss_burst of { src : int; dst : int; loss : float; duration : float }
  | Dup_burst of { src : int; dst : int; dup : float; duration : float }
  | Latency_spike of { src : int; dst : int; factor : float; duration : float }
  | Call_storm of { victim : int; callers : int; duration : float }
      (** overload, not connectivity: [callers] extra fibers hammer one
          of the victim's published counters in a tight loop for
          [duration], driving its inflight admission gate
          ([max_inflight]) into shedding while the ordinary mutators
          keep running.  When a run's mix or scripted schedule
          contains storms the harness arms the call-reliability plane
          (bounded inflight gate, retries); shed operations count under
          the ["sheds"] fault key and are never safety violations —
          the owner rejects them before decoding the target *)

type event = { at : float; fault : fault }

val pp_fault : fault Fmt.t

val pp_event : event Fmt.t

(** A fault schedule as JSON (the nemesis a model-checker counterexample
    records). *)
val events_to_json : event list -> Netobj_obs.Json.t

(** How many faults of each kind a random schedule contains.  When
    [crash_recovers] or [disk_faults] is nonzero (or a scripted schedule
    contains those faults), {!run} builds the runtime with durable
    spaces and quiesces still-crashed spaces with
    {!Netobj_core.Runtime.recover} instead of restart. *)
type mix = {
  partitions : int;
  crashes : int;
  crash_recovers : int;
  disk_faults : int;
  loss_bursts : int;
  dup_bursts : int;
  spikes : int;
  storms : int;  (** call storms; nonzero arms the reliability plane *)
}

val default_mix : mix

(** Generate a seeded random schedule over [\[0.6, duration\]].
    Connectivity-threatening faults (partitions, loss bursts, crashes)
    respect per-pair and per-space cooldowns so the lease never
    legitimately evicts a live client; a fault that cannot be placed is
    silently dropped. *)
val random_schedule :
  seed:int64 -> spaces:int -> duration:float -> mix -> event list

type cfg = {
  seed : int64;
  spaces : int;  (** at least 2 *)
  duration : float;  (** chaos phase length, virtual seconds *)
  objects : int;  (** published counters per space *)
  events : int;  (** churn operations per mutator *)
  cycles : int;
      (** cross-space reference cycles minted per space (0 = none).  When
          positive, a per-space cycler churns two-node cross-space cycles
          through the node factories, the runtime's cycle detector demon
          is armed ([cycle_period]), the cycles become ground-truth
          orphans for the drain oracle (every isolated cycle must be
          reclaimed) and mint counts appear under the ["cycles"] fault
          key.  Strictly additive: at 0, runs replay byte-identically to
          builds without the cycle workload. *)
  mix : mix;
  drain_limit : float;  (** post-heal convergence budget *)
  backoff : float;  (** retry backoff multiplier (≥ 1) *)
  backoff_cap : float;
  backoff_jitter : float;
}

(** Three spaces, 20 virtual seconds, the default mix, exponential
    backoff 2× capped at 2 s with 20 % jitter. *)
val default : cfg

type report = {
  r_seed : int64;
  r_spaces : int;
  r_end_time : float;  (** virtual clock at the end of the run *)
  r_faults : (string * int) list;
      (** applied faults by kind, in a fixed order, plus the counts
          ["sheds"], ["cycles"] and ["undecodable_replies"] (calls whose
          reply did not decode with their result codec: with no
          adversary that corrupts bytes, each is another call's reply,
          so a correct run has none); kinds that never happened are
          left out *)
  r_ops_ok : int;
  r_ops_timeout : int;
  r_ops_error : int;
  r_orphans : int;  (** objects minted through the factories *)
  r_retries : int;  (** dirty/clean retransmissions, all spaces *)
  r_epoch_rejections : int;
  r_evictions : int;
  r_safety : string list;  (** safety-oracle violations, oldest first *)
  r_liveness : string list;  (** what failed to drain, [] if converged *)
  r_drain_time : float option;
      (** virtual seconds from quiesce to convergence, [None] if the
          drain limit expired first *)
}

val survived : report -> bool

(** The report's numbers: seed, faults, ops, protocol counters and the
    drain time, one line each. *)
val pp_report : report Fmt.t

(** The verdict through the scenario kit: one [FAIL: safety: ...] or
    [FAIL: liveness: ...] line per problem, then [result: SURVIVED] or
    [result: FAILED] ({!Scenario.finish}); returns the exit code. *)
val finish : report -> int

(** Run the harness.  [schedule] overrides the seeded random schedule
    (for scripted scenarios); it must respect the same reachability
    constraints as {!random_schedule} or the lease may legitimately evict
    a live client and trip the safety oracle.  The harness also bumps
    [chaos.*] counters in {!Netobj_obs.Metrics.global}. *)
val run : ?schedule:event list -> cfg -> report
