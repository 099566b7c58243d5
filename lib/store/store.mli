(** Simulated durable medium: an append-only write-ahead log plus an
    atomically-replaced snapshot, with an explicit fsync barrier model
    and injectable disk faults.

    The store is a *disk*, not a process: it survives {!crash} of the
    space that owns it.  Appended records first land in a volatile
    write cache; a group-commit fsync timer (a named {!Sched.timer}, so
    a model checker sees fsync-vs-crash as an explorable choice point)
    migrates them to the durable log after [fsync_delay] seconds of
    virtual time.  {!barrier} registers a callback that runs once
    everything appended so far is durable — the hook the runtime uses
    to implement commit-before-externalize (a reply or ack carrying
    state leaves only after the records backing it are on disk).

    Record framing is [uvarint length | payload | uvarint fnv1a32],
    decoded tolerantly: a truncated or corrupt tail decodes to a clean
    "torn" count, never an exception. *)

type t

(** Injectable disk fault, applied at the next {!crash} (one-shot;
    [Slow_fsync] additionally lingers as extra latency on every fsync
    of the recovered incarnation). *)
type fault =
  | Torn_tail  (** unsynced suffix lost, plus a torn fragment of its
                   first record remains on disk *)
  | Lost_suffix  (** unsynced suffix lost entirely *)
  | Slow_fsync of float  (** disk survives intact but every later
                             fsync takes this much extra time *)

(** [create ~sched ~id ()] makes an empty store.  [fsync_delay] is the
    group-commit window (virtual seconds, default [0.02]); [id] labels
    the fsync timer ["store-fsync-<id>"] for traces and the model
    checker. *)
val create :
  sched:Netobj_sched.Sched.t -> ?fsync_delay:float -> id:int -> unit -> t

(** Append one record to the volatile write cache and arm (or join)
    the pending group commit. *)
val append : t -> string -> unit

(** [barrier t k] runs [k] once every record appended so far is
    durable: immediately if the cache is clean, otherwise when the
    in-flight fsync completes.  Callbacks are dropped on {!crash}. *)
val barrier : t -> (unit -> unit) -> unit

(** Force everything appended so far durable right now (no delay) —
    the recovery path uses this to harden the epoch bump before the
    space goes back online. *)
val sync : t -> unit

(** Arm or clear the fault injected at the next crash. *)
val set_fault : t -> fault option -> unit

val fault : t -> fault option

(** The owning space died.  Pending barrier callbacks are discarded;
    the write cache is resolved per the armed fault: intact by default
    (the kindest disk), truncated under [Lost_suffix], truncated with
    a torn fragment under [Torn_tail].  The fault is consumed. *)
val crash : t -> unit

(** Atomically replace the snapshot, truncate the log, and absorb the
    write cache (snapshot supersedes it); pending barriers run. *)
val snapshot : t -> string -> unit

(** [(snapshot, records, torn)] read back from the durable state.
    [torn] counts trailing records that were cut short or failed their
    checksum; they are dropped, not raised. *)
val recover : t -> string option * string list * int

(** Count [n] whole records that {!recover} returned but the reader
    could not decode (the metric [store.records_skipped], beside
    [store.records_replayed] and [store.torn_records]). *)
val note_skipped : int -> unit

(** Format the disk: amnesia restart. *)
val wipe : t -> unit

(** Bytes in the durable log (excludes snapshot and write cache). *)
val log_size : t -> int

(** Records sitting in the volatile write cache. *)
val pending : t -> int

(** Pure tolerant decoder over raw log bytes: [(records, torn)].
    Exposed for property tests. *)
val decode_log : string -> string list * int

(** Frame one record as the store would. Exposed for property tests. *)
val frame : string -> string
