(** The runtime's wire protocol: one envelope per network message.

    Remote invocations are a [Call]/[Reply] pair; both may embed
    wireReps in their payloads, so each carries a message identifier
    that the receiver acknowledges with [Copy_ack] once unmarshalling
    (including any dirty calls it triggered) has completed — releasing
    the sender's transient dirty entries for that message.

    [Dirty]/[Clean] calls carry the client's per-object sequence number
    (TR 116 §2: "an incoming operation will be performed only if its
    sequence number exceeds this value"), making retries and reordered
    duplicates idempotent; [strong] cleans additionally cancel a dirty
    call presumed lost (TR §2.3).  [Ping]/[Ping_ack] implement the
    owner-driven liveness probe of TR §2.4. *)

(** Message identifier for transient-dirty accounting: minting space and
    a per-space sequence number. *)
type msg_id = { origin : int; seq : int }

(** One space's answer about one cycle-trial target (see
    [Dgc.Cycles]): [Cr_live] — reachable here from roots/pins, or in a
    transient surrogate state, or the space is inside its recovery
    moratorium; [Cr_gone] — no table entry; [Cr_quiet] — unreachable,
    carrying the target's local {e touch counter} (bumped on every
    root/pin/dirty/table mutation, so the confirm round can detect any
    movement), the owner-side dirty set (sorted, empty in surrogate
    reports) and the locally-unreachable concretes with a slot path to
    the target (they join the trial's closure). *)
type cycle_report =
  | Cr_live
  | Cr_gone
  | Cr_quiet of { touch : int; dirty : int list; ancestors : Wirerep.t list }

val cycle_report_codec : cycle_report Netobj_pickle.Pickle.t

val pp_cycle_report : cycle_report Fmt.t

val msg_id_codec : msg_id Netobj_pickle.Pickle.t

val pp_msg_id : msg_id Fmt.t

(** Why a call produced no result: the owner's verdict in a [Reply]'s
    error arm.  [V_no_object]: the target is not in the owner's table;
    [V_no_method]: the object has no such method; [V_shed]: the owner's
    inflight admission gate ([max_inflight]) shed the call without
    decoding or executing anything, and callers retry it with backoff;
    [V_expired]: the call's deadline budget ran out at the owner before
    the method body ran, nothing was executed and the caller does not
    retry; [V_raised]: decoding the arguments, awaiting their
    registrations or the method body raised, and this is the
    exception's text (a failed nested call included). *)
type verdict =
  | V_no_object
  | V_no_method
  | V_shed
  | V_expired
  | V_raised of string

type envelope =
  | Call of {
      call_id : int;
      msg_id : msg_id;
      needs_ack : bool;
          (** false when the arguments carried no references: the
              receiver then sends no copy_ack at all (ack elision) *)
      target : Wirerep.t;
      meth : string;
      args : string;  (** pickled under the caller's marshal context *)
      deadline : float;
          (** remaining deadline budget in seconds at send time; [0.]
              means none.  Carried as a relative duration, not an
              absolute time, so it stays meaningful between processes
              with independent clocks; the callee clamps its own remote
              work (nested calls) to this budget and rejects the call
              with {!V_expired} if the budget runs out before the
              method body runs *)
    }
  | Reply of {
      call_id : int;
      msg_id : msg_id;
      needs_ack : bool;  (** as for calls, but for the result payload *)
      result : (string, verdict) result;
          (** pickled result, or the owner's verdict *)
    }
  | Copy_ack of { msg_id : msg_id }
  | Dirty of { wr : Wirerep.t; seq : int }
  | Dirty_ack of { wr : Wirerep.t; ok : bool }
  | Clean of { wr : Wirerep.t; seq : int; strong : bool }
  | Clean_ack of { wr : Wirerep.t }
  | Clean_batch of { items : (Wirerep.t * int) list }
      (** several clean calls to the same owner in one message — the
          batching optimisation the TR's cleaning demon enables *)
  | Clean_batch_ack of { wrs : Wirerep.t list }
  | Ping of { nonce : int }
  | Ping_ack of { nonce : int }
  | Recover of { nonce : int }
      (** broadcast by a freshly recovered space so idle peers learn of
          the new epoch without waiting for ordinary traffic; all the
          information is in the packet header, the body is a nonce *)
  | Reassert of { items : (Wirerep.t * int) list }
      (** reconciliation handshake: a client re-asserts dirty, with
          fresh idempotent sequence numbers, for every usable surrogate
          whose owner (or the client itself) just recovered *)
  | Reassert_ack of { ok : Wirerep.t list; gone : Wirerep.t list }
      (** the owner's answer: [ok] survived recovery and are pinned by
          the re-asserted dirty entries; [gone] did not (their records
          were lost with the unsynced log tail) and the client must
          drop the surrogates *)
  | Cycle_probe of { probe_id : int; confirm : bool; targets : Wirerep.t list }
      (** ask a space to report on each target (owner or surrogate
          side); [confirm] marks the second, must-match round.  The
          responder is stateless — all trial state lives at the
          coordinator *)
  | Cycle_reply of {
      probe_id : int;
      epoch : int;
      reports : (Wirerep.t * cycle_report) list;
    }
      (** the responder's answers, stamped with its incarnation epoch so
          the coordinator can abort a trial that spans a recovery *)
  | Cycle_commit of { wrs : Wirerep.t list }
      (** fire-and-forget: reclaim these confirmed-garbage concretes.
          The owner rechecks locally before acting, so a stale commit
          (late, duplicated, or crossing an epoch bump) is harmless *)
  | Cancel of { call_id : int; msg_id : msg_id }
      (** the caller abandoned call [call_id] (attempt timeout with no
          retries left, deadline exhausted).  [msg_id] identifies the
          original call message.  The callee drops any reply-cache
          entry, suppresses an in-flight execution's reply, and
          releases the reply's transient pins immediately instead of
          waiting for the pin timeout.  Fire-and-forget and idempotent:
          a late or duplicated cancel finds nothing to do *)

val codec : envelope Netobj_pickle.Pickle.t

(** What actually crosses the wire: the envelope stamped with the
    sender's incarnation epoch and the sender's view of the receiver's
    epoch.  Both start at 0 and bump on [Runtime.restart], so a space
    that never restarts pays two one-byte varints per message.  The
    receiver drops packets whose [src_epoch] is older than the epoch it
    has already seen from that peer (a stale incarnation talking) and
    packets whose [dst_epoch] is older than its own (mail addressed to
    its previous incarnation).

    [src_cont] is the sender's continuity floor — the oldest epoch whose
    state this incarnation still carries.  An amnesia restart raises it
    to the new epoch (the classic PR-3 behaviour: peers forget
    everything about the previous incarnation); a durable recovery
    ([Runtime.recover]) bumps [src_epoch] for packet freshness but keeps
    the floor, telling peers "same logical space, reconcile instead of
    forget". *)
type packet = {
  src_epoch : int;
  src_cont : int;
  dst_epoch : int;
  env : envelope;
}

val packet_codec : packet Netobj_pickle.Pickle.t

(** Accounting label for {!Netobj_net.Net.send}. *)
val kind : envelope -> string

val pp : envelope Fmt.t
