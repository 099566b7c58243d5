(** Cooperative fibers with a virtual clock.

    Network Objects assumes a threads-and-RPC world: a thread blocks while
    its dirty call is outstanding, the transmitter blocks until the
    receiver acknowledges, demons run in the background.  This module
    reproduces that structure inside one OCaml process using effect
    handlers: fibers are cheap, block on {!Ivar}s/{!Mailbox}es/{!sleep},
    and are interleaved under a configurable policy — deterministic FIFO
    for reproducible tests, or seeded-random to hunt race windows.

    Time is virtual: {!sleep} registers a timer and the clock jumps to the
    next deadline when all fibers are blocked, so a simulated 30-second
    lease expiry costs microseconds of wall clock.

    Blocking operations ({!sleep}, [Ivar.read], [Mailbox.recv]) must be
    called from inside a fiber (i.e. under {!run}); calling them outside
    raises [Effect.Unhandled]. *)

type t

(** What a {!Controlled} choice point ranges over. *)
type choice_kind =
  | Fiber  (** which ready fiber runs next *)
  | Timer  (** which of several timers due at the same instant fires next *)

(** [choose ~kind labels] picks the index of the alternative to run.
    Invoked only when at least two alternatives exist; [labels.(i)] is the
    fiber name (or ["name#seq"] for timers) of alternative [i].  Must
    return an index in [\[0, Array.length labels)]. *)
type chooser = kind:choice_kind -> string array -> int

(** Scheduling policy for ready fibers. *)
type policy =
  | Fifo  (** run in enqueue order: deterministic baseline *)
  | Random of int64
      (** pick a uniformly random ready fiber: adversarial interleavings.
          Each draw is a pure function of (seed, choice-point index),
          never of the ready queue's internal layout, so a recorded
          schedule replays identically. *)
  | Controlled of chooser
      (** every nondeterministic point (≥ 2 ready fibers, or ≥ 2 timers
          due at the same instant) is surfaced to the callback, which
          dictates the schedule: the hook a model checker drives. *)

val create : ?policy:policy -> unit -> t

(** Register a fiber.  It starts running only under {!run}. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Current virtual time, in seconds. *)
val now : t -> float

(** Block the calling fiber for [dt] seconds of virtual time. *)
val sleep : t -> float -> unit

(** Reschedule the calling fiber behind other ready fibers. *)
val yield : t -> unit

(** [timer t dt f] runs [f] at virtual time [now t +. dt] (outside any
    fiber; [f] should only wake fibers or mutate state).  [name] labels
    the timer at {!Controlled} choice points and in traces. *)
val timer : t -> ?name:string -> float -> (unit -> unit) -> unit

(** Like {!timer} but returns a cancel thunk.  A cancelled timer never
    fires and — unlike an ignored one — does not hold {!run} back from
    quiescing: dead entries are skipped without advancing the clock.
    Cancelling after the timer fired (or twice) is a no-op. *)
val timer_cancel : t -> ?name:string -> float -> (unit -> unit) -> unit -> unit

(** Low-level: park the calling fiber and hand the wakeup thunk to the
    callback.  The thunk must be called at most once. *)
val suspend : ((unit -> unit) -> unit) -> unit

(** Run until no fiber is runnable and no timer is pending, or until
    [max_steps] fiber resumptions, or until the clock passes [until].
    Returns the number of steps taken. *)
val run : ?max_steps:int -> ?until:float -> t -> int

(** Fibers spawned and not yet finished (running, ready or blocked). *)
val alive : t -> int

(** Hash of the pending work: ready-fiber labels in queue order plus live
    timers as (deadline − now, name) sets.  Timer sequence numbers and
    the absolute clock are excluded, so two executions with the same work
    outstanding relative to now fingerprint equal — the scheduler's
    contribution to a model checker's state-hash deduplication. *)
val pending_fingerprint : t -> int

(** Fibers blocked with no pending wakeup after {!run} returned: a
    deadlock indicator. *)
val stalled : t -> int

(** Uncaught exceptions from fibers, most recent first, with fiber name. *)
val failures : t -> (string * exn) list

(** Fiber-local storage.

    Each fiber owns a small store created at {!spawn}, carried across
    every suspension/resumption of that fiber, and discarded with it.
    Reads and writes address the {e currently running} fiber's store;
    outside any fiber (timer callbacks, before {!run}) they address a
    root store that fibers never see.  The runtime uses this to
    propagate per-call context — the remaining deadline budget of the
    call a fiber is serving — into nested blocking calls without
    threading it through every signature. *)
module Fls : sig
  type 'a key

  (** Mint a fresh typed key.  Keys are intended to be created once at
      module initialisation. *)
  val key : unit -> 'a key

  (** The current fiber's binding for [key], if any. *)
  val get : t -> 'a key -> 'a option

  (** Set ([Some]) or clear ([None]) the current fiber's binding. *)
  val set : t -> 'a key -> 'a option -> unit
end

(** Write-once synchronisation cell. *)
module Ivar : sig
  type 'a var

  val create : unit -> 'a var

  (** Fill the cell and wake all readers; raises [Invalid_argument] if
      already filled. *)
  val fill : 'a var -> 'a -> unit

  val is_filled : 'a var -> bool

  (** Block until filled, then return the value. *)
  val read : 'a var -> 'a

  val peek : 'a var -> 'a option

  (** Run a callback when the cell is filled (immediately if already). *)
  val on_fill : 'a var -> (unit -> unit) -> unit
end

(** [read_timeout t iv ~timeout] blocks until [iv] is filled or [timeout]
    seconds of virtual time elapse; [None] on timeout. *)
val read_timeout : t -> 'a Ivar.var -> timeout:float -> 'a option

(** Unbounded FIFO mailbox between fibers. *)
module Mailbox : sig
  type 'a mb

  val create : unit -> 'a mb

  (** Never blocks. *)
  val send : 'a mb -> 'a -> unit

  (** Block until a message is available. *)
  val recv : 'a mb -> 'a

  (** Non-blocking receive. *)
  val try_recv : 'a mb -> 'a option

  val length : 'a mb -> int
end
