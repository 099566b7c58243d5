(** The scenario kit: the objects, drivers and oracles every harness
    shares — the CLI narratives, the bench tables, the model checker and
    the tests.  Each piece exists once here so that every harness checks
    the same specification: no premature collection, and after a drain
    no surrogate left anywhere.

    {2 Objects} *)

module R = Netobj_core.Runtime

(** [incr n] adds [n] and returns the new value. *)
val m_incr : (int, int) Netobj_core.Stub.rmeth

(** [get ()] returns the current value. *)
val m_get : (unit, int) Netobj_core.Stub.rmeth

(** The counter's method suite over [value] (a fresh cell by default).
    A durable caller registers it as a factory. *)
val counter_meths : ?value:int ref -> unit -> R.meth list

(** Allocate a counter ({!m_incr}, {!m_get}) in a space. *)
val counter : ?tag:string -> ?value:int ref -> R.space -> R.handle

(** [set_peer h] links [h] under the node in the node's own heap. *)
val m_set_peer : (R.handle, unit) Netobj_core.Stub.rmeth

(** Allocate a node: an object whose only method is {!m_set_peer}. *)
val node : ?tag:string -> R.space -> R.handle

(** [ring rt ~nodes] allocates [nodes] nodes round-robin over the spaces
    of [rt], publishes node [i] as ["node<i>"], and spawns a fiber
    ["linker-<i>"] that looks node [i+1 mod nodes] up from node [i]'s
    space and links it under node [i]: once [rt] runs, a ring that
    crosses the wire.  Returns each node with its space. *)
val ring : R.t -> nodes:int -> (R.space * R.handle) array

(** [all ()] returns every object behind a registry. *)
val m_all : (unit, R.handle list) Netobj_core.Stub.rmeth

(** [range (off, len)] returns objects [off .. off+len-1]. *)
val m_range : (int * int, R.handle list) Netobj_core.Stub.rmeth

(** [registry sp n] allocates [n] method-less objects in [sp] and a
    registry object serving them through {!m_all} and {!m_range};
    returns the registry and the objects. *)
val registry : R.space -> int -> R.handle * R.handle array

(** {2 The drain oracle} *)

(** Surrogates left in every space of [rt]. *)
val surrogates : R.t -> int

(** [drain rt] collects and runs [rt] until nothing is pending: up to
    [rounds] (8) rounds of {!R.collect_all} followed by a run of
    [horizon] virtual seconds (to quiescence when absent), each round
    only while [pending ()] holds (default: a surrogate is left
    somewhere).  Surrogate cleans are scheduled by the local collector's
    sweep, so each round clears one level of a reference chain.
    [~quiesce:true] first runs [rt] to quiescence, for a caller whose
    fibers have not run yet. *)
val drain :
  ?quiesce:bool ->
  ?rounds:int ->
  ?horizon:float ->
  ?pending:(unit -> bool) ->
  R.t ->
  unit

(** One line per fiber that died with an exception. *)
val fiber_problems : R.t -> string list

(** The drain oracle, for a world that was drained: fiber deaths, then
    every space's undrained surrogates with a summary line for each,
    then {!R.check_consistency}'s violations.  [[]] means clean. *)
val drain_problems : R.t -> string list

(** {!R.check_safety}'s violations (Definition 12 and Lemma 9), each
    prefixed ["safety: "]. *)
val safety_problems : R.t -> string list

(** {2 The verdict} *)

type verdict

val verdict : unit -> verdict

(** Print ["FAIL: "] and the message, and mark the verdict failed. *)
val fail : verdict -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** {!fail} once per problem. *)
val report : verdict -> string list -> unit

(** Print ["result: SURVIVED"] or ["result: FAILED"]; the exit code
    (0 or 1). *)
val finish : verdict -> int

(** {2 Real sockets} *)

(** A loopback port that was free when asked. *)
val free_port : unit -> int

(** Wait up to [timeout] wall-clock seconds for a listener on a
    loopback port; [true] once one accepts. *)
val wait_port : int -> timeout:float -> bool

(** [drive rt ~deadline ~stop] interleaves short virtual-time slices
    (fibers, timers, call timeouts) with socket pumping of at most
    [pump] (5 ms) until [stop ()] or the wall clock passes [deadline].
    The virtual clock only moves to timer deadlines, so when both clocks
    stall (fibers parked on calls, no traffic) a no-op timer nudges it:
    that is what turns wall-clock waiting into virtual-clock timeouts. *)
val drive :
  ?pump:float -> R.t -> deadline:float -> stop:(unit -> bool) -> unit

(** {2 The storm} *)

type storm = {
  sent : int;  (** calls that returned *)
  counted : int;  (** the counters' sum, read back after the drain *)
  wall : float;  (** wall-clock seconds until every mutator finished *)
  drained : bool;  (** every counter's dirty set emptied *)
  problems : string list;  (** the accounting oracle's complaints *)
}

(** [storm ~seed ~calls rt] publishes a counter ["cnt-<i>"] in every
    space and runs [fibers] (1) mutators per space.  Each looks up every
    other space's counter, then draws [calls] targets uniformly at
    random and increments the counter drawn (a draw of its own space is
    skipped), releases, and collects.  The storm runs in one-second
    virtual slices under wall-clock caps, waits for the counters' dirty
    sets to drain, and reads every counter back.  The accounting oracle
    holds when the storm converged, the sets drained, the reads
    finished and the counters sum to the calls sent. *)
val storm : ?fibers:int -> seed:int -> calls:int -> R.t -> storm
