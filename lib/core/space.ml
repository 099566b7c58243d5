(* Shared by every plane of the runtime: configuration, the space and
   runtime records, metrics, and the table, pin, root, lease and WAL
   helpers.  Private to the library; Runtime is the public surface. *)

module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Engine = Netobj_engine.Engine
module Wire = Netobj_pickle.Wire
module Pickle = Netobj_pickle.Pickle
module Rng = Netobj_util.Rng
module Itbl = Netobj_util.Itbl
module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace
module Metrics = Netobj_obs.Metrics
module Store = Netobj_store.Store

(* Pre-registered instruments: the hot-path cost when enabled is a field
   mutation, and when disabled a single branch. *)
let m_dirty = Metrics.counter Metrics.global "runtime.dirty"

let m_clean = Metrics.counter Metrics.global "runtime.clean"

let m_copy_ack = Metrics.counter Metrics.global "runtime.copy_ack"

let m_ping = Metrics.counter Metrics.global "runtime.ping"

let m_evict = Metrics.counter Metrics.global "runtime.evict"

let m_calls = Metrics.counter Metrics.global "runtime.calls"

let m_collections = Metrics.counter Metrics.global "runtime.collections"

let m_reclaimed = Metrics.counter Metrics.global "runtime.reclaimed"

let g_dirty_entries = Metrics.gauge Metrics.global "runtime.dirty_entries"

let g_pool_hits = Metrics.gauge Metrics.global "pickle.pool_hits"

let g_pool_misses = Metrics.gauge Metrics.global "pickle.pool_misses"

let m_epoch_rejected = Metrics.counter Metrics.global "runtime.epoch_rejected"

let m_retry = Metrics.counter Metrics.global "runtime.retries"

let m_restart = Metrics.counter Metrics.global "runtime.restarts"

let h_gc_pause = Metrics.histogram Metrics.global "runtime.gc_pause_us"

let h_gc_reclaimed = Metrics.histogram Metrics.global "runtime.gc_reclaimed"

let m_recover = Metrics.counter Metrics.global "runtime.recoveries"

let m_reassert = Metrics.counter Metrics.global "runtime.reasserts"

let m_cycle_trials = Metrics.counter Metrics.global "runtime.cycle_trials"

let m_cycle_aborts = Metrics.counter Metrics.global "runtime.cycle_aborts"

let m_cycle_collected =
  Metrics.counter Metrics.global "runtime.cycle_collected"

let h_recover_us = Metrics.histogram Metrics.global "runtime.recover_us"

(* Call reliability plane (deadlines / at-most-once retries /
   cancellation / shedding).  Counter names are part of the public
   observability surface — see the "Call semantics" section of the
   README. *)
let m_call_retried = Metrics.counter Metrics.global "calls.retried"

let m_call_deduped = Metrics.counter Metrics.global "calls.deduped"

let m_call_shed = Metrics.counter Metrics.global "calls.shed"

let m_call_cancelled = Metrics.counter Metrics.global "calls.cancelled"

let m_deadline_expired =
  Metrics.counter Metrics.global "deadline.expired_server_side"

(* Track the global dirty-entry population as a delta at each mutation
   site; meaningful for runs where observability was enabled throughout
   (Obs.enable zeroes the gauge). *)
let obs_gauge_add g d =
  if Obs.on () then Metrics.set_gauge g (Metrics.gauge_value g +. d)

(* Async-span correlation ids.  Registration (dirty) and cleanup (clean)
   round trips for the same surrogate get distinct ids via the low bit;
   RPC spans live in their own category ("rpc"), keyed by the caller's
   call_id, so the owner-side "serve" span nests inside the caller's
   "call" span in a Chrome rendering. *)
let obs_wr_id ~client (wr : Wirerep.t) =
  2 * ((((client * 8191) + wr.Wirerep.space) * 524287) + wr.Wirerep.index)

let obs_call_span_id ~client call_id = (client * 1_048_573) + call_id

let obs_msg_span_id (id : Proto.msg_id) =
  (id.Proto.origin * 2_097_143) + id.Proto.seq

let obs_wr_args (wr : Wirerep.t) =
  [ ("owner", Trace.I wr.Wirerep.space); ("index", Trace.I wr.Wirerep.index) ]

let src_log = Logs.Src.create "netobj.runtime" ~doc:"Network Objects runtime"

module Log = (val Logs.src_log src_log)

(* Why a call failed: one constructor per outcome, with its payload.
   See runtime.mli. *)
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

exception Call_failed of failure

let pp_failure ppf = function
  | Dangling_handle -> Fmt.string ppf "dangling handle (surrogate collected)"
  | Surrogate_cleaning -> Fmt.string ppf "surrogate is being cleaned up"
  | Registration_failed -> Fmt.string ppf "surrogate registration failed"
  | Caller_crashed -> Fmt.string ppf "calling space has crashed"
  | Caller_restarted { recovering } ->
      Fmt.string ppf
        (if recovering then "space recovering" else "space restarted")
  | Shed { meth; owner; attempts } ->
      Fmt.pf ppf "call %s: shed by busy owner %d (%d attempt%s)" meth owner
        attempts
        (if attempts = 1 then "" else "s")
  | No_such_object wr -> Fmt.pf ppf "no such object %a" Wirerep.pp wr
  | No_such_method name -> Fmt.pf ppf "no method %s" name
  | No_binding name -> Fmt.pf ppf "lookup: no binding for %s" name
  | Dirty_timeout -> Fmt.string ppf "dirty call timed out"
  | No_reply { meth; attempts; elapsed; timeout; deadline } ->
      let secs = function Some d -> Fmt.str "%.3fs" d | None -> "none" in
      Fmt.pf ppf
        "call %s: no reply after %d attempt%s, %.3fs elapsed (timeout %s, \
         deadline %s)"
        meth attempts
        (if attempts = 1 then "" else "s")
        elapsed (secs timeout) (secs deadline)
  | Undecodable_reply { meth; msg } ->
      Fmt.pf ppf "call %s: undecodable reply: %s" meth msg
  | Raised text -> Fmt.string ppf text

let () =
  Printexc.register_printer (function
    | Call_failed f -> Some (Fmt.str "Call_failed(%a)" pp_failure f)
    | _ -> None)

type handle = { wr : Wirerep.t }

(* Remaining-deadline propagation: the fiber-local binding holds the
   absolute instant (virtual clock) past which this fiber's call chain
   must stop doing remote work.  A serve fiber is given the incoming
   call's budget here, so any nested or third-party call the method
   body makes clamps to it without threading an argument through every
   signature. *)
let deadline_key : float Sched.Fls.key = Sched.Fls.key ()

type config = {
  nspaces : int;
  seed : int64;
  policy : Sched.policy;
  edge : Net.edge_config;
  gc_period : float option;
  ping_period : float option;
  lease_misses : int;
  call_timeout : float option;
  call_retries : int;
  deadline : float option;
  max_inflight : int option;
  dirty_timeout : float option;
  clean_retry : float option;
  dirty_retry : float option;
  backoff : float;
  backoff_cap : float;
  backoff_jitter : float;
  lease_grace : float;
  pin_timeout : float option;
  bug_lookup_leak : bool;
  bug_ping_ack_replay : bool;
  bug_no_dedup : bool;
  durable : bool;
  fsync_delay : float;
  snapshot_period : float option;
  recover_grace : float;
  cycle_period : float option;
  bug_skip_confirm : bool;
  transport : (Sched.t -> Net.t -> Transport.t) option;
  engine : (module Engine.S) option;
  domains : int;
}

let config ?(seed = 1L) ?(policy = Sched.Fifo) ?(edge = Net.bag_edge ())
    ?gc_period ?ping_period ?(lease_misses = 3) ?call_timeout
    ?(call_retries = 0) ?deadline ?max_inflight ?dirty_timeout
    ?clean_retry ?dirty_retry ?(backoff = 1.0) ?(backoff_cap = infinity)
    ?(backoff_jitter = 0.0) ?(lease_grace = 0.0) ?pin_timeout
    ?(bug_lookup_leak = false)
    ?(bug_ping_ack_replay = false) ?(bug_no_dedup = false)
    ?(durable = false) ?(fsync_delay = 0.02)
    ?snapshot_period
    ?(recover_grace = 2.0) ?cycle_period
    ?(bug_skip_confirm = false) ?transport ?engine ?(domains = 4) ~nspaces () =
  if backoff < 1.0 then invalid_arg "Runtime.config: backoff must be >= 1";
  if call_retries < 0 then
    invalid_arg "Runtime.config: call_retries must be >= 0";
  (match deadline with
  | Some d when d <= 0.0 ->
      invalid_arg "Runtime.config: deadline must be > 0"
  | Some _ | None -> ());
  (match max_inflight with
  | Some n when n < 1 -> invalid_arg "Runtime.config: max_inflight must be >= 1"
  | Some _ | None -> ());
  if backoff_jitter < 0.0 || backoff_jitter >= 1.0 then
    invalid_arg "Runtime.config: backoff_jitter must be in [0, 1)";
  if fsync_delay < 0.0 then
    invalid_arg "Runtime.config: fsync_delay must be >= 0";
  if recover_grace < 0.0 then
    invalid_arg "Runtime.config: recover_grace must be >= 0";
  if domains < 1 then invalid_arg "Runtime.config: domains must be >= 1";
  {
    nspaces;
    seed;
    policy;
    edge;
    gc_period;
    ping_period;
    lease_misses;
    call_timeout;
    call_retries;
    deadline;
    max_inflight;
    dirty_timeout;
    clean_retry;
    dirty_retry;
    backoff;
    backoff_cap;
    backoff_jitter;
    lease_grace;
    pin_timeout;
    bug_lookup_leak;
    bug_ping_ack_replay;
    bug_no_dedup;
    durable;
    fsync_delay;
    snapshot_period;
    recover_grace;
    cycle_period;
    bug_skip_confirm;
    transport;
    engine;
    domains;
  }

(* The one builder: derive a variant config by overriding any subset of
   the rebindable knobs. *)
let override ?seed ?policy ?edge ?transport ?engine ?domains cfg =
  let upd v = function Some x -> x | None -> v in
  {
    cfg with
    seed = upd cfg.seed seed;
    policy = upd cfg.policy policy;
    edge = upd cfg.edge edge;
    transport = (match transport with Some f -> Some f | None -> cfg.transport);
    engine = (match engine with Some e -> Some e | None -> cfg.engine);
    domains = upd cfg.domains domains;
  }

let config_nspaces cfg = cfg.nspaces

let config_seed cfg = cfg.seed

(* Cross-knob sanity checks that are advisory rather than hard errors.
   The central one makes explicit the constraint [encode_with_pins]
   states in prose: the conservative transient-pin timeout must exceed
   any window during which the copy_ack may legitimately still be in
   flight — one-way latency plus the whole call timeout/retry schedule —
   or a merely-late ack races the release. *)
let config_warnings (cfg : config) =
  let warnings = ref [] in
  (match (cfg.pin_timeout, cfg.call_timeout) with
  | Some pt, Some ct ->
      let lat =
        match cfg.edge.Net.latency with
        | Net.Constant d -> d
        | Net.Uniform (_, hi) -> hi
      in
      (* Upper bound of the in-flight window: every attempt's timeout
         (jitter at its worst) summed over the retry schedule. *)
      let window = ref 0.0 in
      for k = 0 to cfg.call_retries do
        let d =
          Float.min (ct *. (cfg.backoff ** float_of_int k)) cfg.backoff_cap
        in
        window := !window +. (d *. (1.0 +. (cfg.backoff_jitter /. 2.0)))
      done;
      if pt <= lat +. !window then
        warnings :=
          Printf.sprintf
            "pin_timeout %.3fs does not exceed the in-flight window \
             (latency %.3fs + call timeout/retry window %.3fs): a \
             merely-late copy_ack can race the conservative pin release"
            pt lat !window
          :: !warnings
  | (Some _ | None), _ -> ());
  List.rev !warnings

type gc_stats = {
  dirty_calls : int;
  clean_calls : int;
  copy_acks : int;
  pings : int;
  evictions : int;
  epoch_rejections : int;
  retries : int;
  stale_acks : int;
}

type cycle_stats = { trials : int; aborts : int; collected : int }

type call_stats = {
  c_retried : int;  (* client side: attempts beyond the first *)
  c_deduped : int;  (* owner side: retransmissions answered from state *)
  c_shed : int;  (* owner side: calls rejected at the admission gate *)
  c_cancelled : int;  (* owner side: calls settled by a [Cancel] *)
  c_expired : int;  (* owner side: deadline ran out before the body *)
  c_executed : int;  (* owner side: method bodies actually run *)
}

(* One remote call's settlement, as the caller's parked fiber sees it:
   the owner's reply (its message id, whether it wants a copy_ack, the
   pickled result or the owner's verdict), or the failure a reset of
   the caller's own incarnation settled it with. *)
type call_outcome =
  (Proto.msg_id * bool * (Wire.slice, Proto.verdict) result, failure) result

(* Owner-side at-most-once state for one client.  A settled call keeps
   its full reply envelope so a retransmission is answered by replaying
   the identical message (same reply msg_id — the client's duplicate
   copy_acks are idempotent) instead of re-executing the method.
   Bounded FIFO: beyond [reply_cache_cap] settled calls the oldest
   entry is dropped — by then the caller's retry window is long over.
   Soft state, dropped wholesale with the client's lease aggregate. *)
type reply_cache = {
  rc_replies : (int, Proto.envelope) Hashtbl.t;  (* call_id -> Reply *)
  rc_order : int Queue.t;  (* insertion order, for FIFO eviction *)
}

let reply_cache_cap = 128

(* A call currently executing at the owner; [if_cancelled] set by an
   incoming [Cancel] makes the eventual completion release its pins
   and swallow the reply. *)
type inflight = { mutable if_cancelled : bool }

(* Surrogate life cycle, mirroring the formal rec_T states:
   absent = ⊥, Creating = nil, Usable = OK, Cleaning with [resurrect =
   None] = ccit, with [Some _] = ccitnil. *)
type cleaning = {
  mutable resurrect : bool Sched.Ivar.var option;
  (* cancels the armed clean-retry timer; run as soon as the owner's ack
     arrives so a retry can never fire after the state left Cleaning *)
  mutable retry_cancel : (unit -> unit) option;
}

type sentry =
  | Creating of bool Sched.Ivar.var  (* filled with registration success *)
  | Usable of { mutable clean_scheduled : bool }
  | Cleaning of cleaning

type meth = {
  m_name : string;
  (* phase 1 (marshal context): decode args; returns the compute thunk;
     phase 2 (no context, may block): compute; returns the encoder to run
     under the reply's marshal context. *)
  m_run : space -> Wire.Reader.t -> unit -> Wire.Writer.t -> unit;
}

and cobj = {
  c_wr : Wirerep.t;
  c_tag : string;  (* method-suite factory key for durable recovery *)
  c_meths : (string * meth) list;
  mutable c_slots : Wirerep.t list;  (* heap edges for the local GC *)
  c_dirty : Itbl.t;  (* the dirty set: client space -> 1 *)
  c_last_seq : Itbl.t;  (* per-client op sequence numbers *)
}

and entry = Concrete of cobj | Surrogate of sentry ref

(* Aggregated lease state for one client at this owner.  [l_sent] /
   [l_acked] are the last ping nonce sent to and acknowledged by the
   client (epoch folded into the high bits, see [lease_nonce]);
   [l_objs] is the set of own-object indexes whose dirty set contains
   the client, so eviction and diagnostics are O(entries held by this
   client), not O(table). *)
and lease = { mutable l_sent : int; mutable l_acked : int; l_objs : Itbl.t }

and space = {
  id : int;
  rt : t;
  shard : Engine.shard;  (* the execution context this space is pinned to *)
  table : entry Wirerep.Tbl.t;
  mutable next_index : int;
  mutable next_msg : int;
  mutable next_call : int;
  roots : Itbl.t;  (* Wirerep.key -> root count *)
  pins : Itbl.t;  (* Wirerep.key -> pin count *)
  (* outgoing messages whose embedded references are transiently pinned
     until the receiver's copy_ack *)
  tdirty : (Proto.msg_id, Wirerep.t list) Hashtbl.t;
  pending_calls : (int, call_outcome Sched.Ivar.var) Hashtbl.t;
  clean_mb : Wirerep.t Sched.Mailbox.mb;
  seqno : Itbl.t;  (* Wirerep.key -> client-side dirty/clean sequence number *)
  bindings : (string, Wirerep.t) Hashtbl.t;  (* agent name table *)
  (* per-client lease aggregate (TR 116): one heartbeat per (client,
     owner) pair renews every entry the client holds here, and eviction
     walks only the client's own entries.  Maintained incrementally at
     dirty/clean/evict time — never by scanning the object table. *)
  lease : (int, lease) Hashtbl.t;  (* client space -> aggregate *)
  (* own-concrete indexes whose dirty set is nonempty: the incremental
     feed for GC marking and cycle-suspect nomination *)
  dirty_kept : Itbl.t;
  mutable next_ping : int;  (* ping sequence, monotone within an epoch *)
  (* client -> virtual time its lease first expired; eviction waits a
     further [lease_grace] seconds so a healed partition keeps the lease *)
  suspect_since : (int, float) Hashtbl.t;
  mutable epoch : int;  (* incarnation number, bumped by restart *)
  mutable cont : int;
  (* continuity floor: the oldest epoch whose state this incarnation
     still carries.  Amnesia restarts raise it to the new epoch; durable
     recovery keeps it, and every outgoing packet carries it so peers
     can tell "forget me" from "reconcile with me". *)
  peer_epoch : (int, int) Hashtbl.t;  (* highest epoch seen per peer *)
  mutable store : Store.t option;  (* the durable medium, when configured *)
  (* recovered (or recovery-marked) dirty entries not yet re-confirmed by
     their client; dropped when the grace window closes *)
  unconfirmed : (Wirerep.t * int, unit) Hashtbl.t;
  (* peers we owe a reassert handshake; the ivar fills on reassert_ack *)
  pending_reassert : (int, unit Sched.Ivar.var) Hashtbl.t;
  mutable recover_until : float;
  (* the collector may not reclaim before this instant: the grace window
     during which conservative recovered state must survive *)
  mutable crashed : bool;
  mutable n_collections : int;
  mutable n_reclaimed : int;
  mutable s_dirty : int;
  mutable s_clean : int;
  mutable s_copy_ack : int;
  mutable s_ping : int;
  mutable s_evict : int;
  mutable s_epoch_rejected : int;
  mutable s_retries : int;
  mutable s_stale_acks : int;
  (* --- call reliability plane (soft state, armed only when any of
     call_retries / deadline / max_inflight is configured; with none
     set, none of this is ever touched and the call path is
     byte-identical to the classic one) --- *)
  reply_cache : (int, reply_cache) Hashtbl.t;  (* client -> its cache *)
  inflight : (int * int, inflight) Hashtbl.t;  (* (client, call_id) *)
  mutable inflight_count : int;
  mutable s_call_retried : int;
  mutable s_call_deduped : int;
  mutable s_call_shed : int;
  mutable s_call_cancelled : int;
  mutable s_call_expired : int;
  mutable s_call_executed : int;
  (* --- cycle detector (soft state: never persisted, rebuilt at will) ---
     [touch] is the per-wireRep mutation counter the confirm phase
     compares: bumped on every root/pin/dirty/table change, never reset
     within an incarnation (reuse would re-open the ABA window a moved
     reference needs to dodge both probe rounds), cleared only by
     restart/recover where the epoch bump aborts in-flight trials. *)
  touch : Itbl.t;  (* Wirerep.key -> mutation counter *)
  (* suspect -> virtual time it was first seen dirty-kept-but-unreachable;
     trials start only after [cycle_age] seconds of continuous suspicion *)
  cycle_suspect_since : float Wirerep.Tbl.t;
  (* probe_id -> ivar filled by the matching Cycle_reply *)
  pending_cycles :
    (int, (int * (Wirerep.t * Proto.cycle_report) list) Sched.Ivar.var)
    Hashtbl.t;
  mutable next_probe : int;
  mutable s_cycle_trials : int;
  mutable s_cycle_aborts : int;
  mutable s_cycle_collected : int;
}

and t = {
  config : config;
  engine : Engine.instance;
  shards : Engine.shard array;
  (* jitter for backoff'd retries: one seeded stream per shard, so
     retries on different domains never contend (or share draws) *)
  retry_rngs : Rng.t array;
  mutable space_arr : space array;
  (* tag -> method suite, consulted when recovery re-instantiates the
     concrete objects found in the snapshot and log *)
  factories : (string, unit -> meth list) Hashtbl.t;
}

(* Every space is pinned to one shard: all of its fibers, timers and
   transport traffic go through that shard's world. *)
let ssched sp = sp.shard.Engine.s_sched

let stransport sp = sp.shard.Engine.s_transport

let sretry_rng sp = sp.rt.retry_rngs.(sp.shard.Engine.s_id)

(* --- marshal contexts ---------------------------------------------------

   Contexts are only live during non-yielding encode/decode extents, so a
   domain-local stack is safe under the cooperative scheduler (fibers of
   one domain never interleave inside an extent; other domains have
   their own stack). *)

(* A decode's state, newest first: every reference read (each pinned
   once), the registrations to await, and the surrogates it created,
   whose dirty calls go out together when the decode ends. *)
type dec = {
  dsp : space;
  mutable d_acquired : Wirerep.t list;
  mutable d_pending : bool Sched.Ivar.var list;
  mutable d_fresh : (Wirerep.t * bool Sched.Ivar.var) list;
}

type ctx = Enc of { esp : space; e_pinned : Wirerep.t list ref } | Dec of dec

let ctx_stack_key : ctx list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_ctx c f =
  let ctx_stack = Domain.DLS.get ctx_stack_key in
  ctx_stack := c :: !ctx_stack;
  Fun.protect ~finally:(fun () -> ctx_stack := List.tl !ctx_stack) f

(* --- pin / root bookkeeping --------------------------------------------- *)

let bump tbl wr =
  let k = Wirerep.key wr in
  Itbl.replace tbl k (Itbl.find tbl k ~default:0 + 1)

let unbump tbl wr =
  let k = Wirerep.key wr in
  let n = Itbl.find tbl k ~default:0 - 1 in
  if n <= 0 then Itbl.remove tbl k else Itbl.replace tbl k n

(* Append one WAL record when the space is durable.  Records land in
   the store's volatile write cache; [send_env] barriers the few
   messages that externalize state on the group commit, so nothing a
   peer can observe precedes its own durability. *)
let wal sp r =
  match sp.store with
  | None -> ()
  | Some st -> Store.append st (Pickle.encode Wal.record_codec r)

(* Bump the wireRep's local mutation counter (see the [touch] field).
   Entries are never removed within an incarnation: a remove/re-add
   would restart the count and re-open the ABA window the cycle
   detector's confirm phase closes. *)
let bump_touch sp wr =
  let k = Wirerep.key wr in
  Itbl.replace sp.touch k (Itbl.find sp.touch k ~default:0 + 1)

(* --- lease / dirty-set aggregates ---------------------------------------

   Ping nonces are [epoch lsl 32 lor seq] with [seq] drawn from the
   space-wide [next_ping] counter (starting at 1, so the nonce-0
   epoch-teach ping from [handle_packet] can never match a lease).
   Folding the epoch in means an ack minted before a restart can never
   renew a post-restart lease even though the restarted owner's seq
   counter begins again at 1. *)

let nonce_seq n = n land 0xFFFF_FFFF

let nonce_epoch n = n lsr 32

let lease_nonce sp seq = (sp.epoch lsl 32) lor seq

let lease_of sp client =
  match Hashtbl.find_opt sp.lease client with
  | Some l -> l
  | None ->
      let n = lease_nonce sp (sp.next_ping - 1) in
      let l = { l_sent = n; l_acked = n; l_objs = Itbl.create () } in
      Hashtbl.add sp.lease client l;
      l

(* Add [client] to concrete [c]'s dirty set, incrementally maintaining
   the per-client lease aggregate and the [dirty_kept] feed.  Returns
   [true] when the entry is new (caller owns gauges / WAL). *)
let dirty_add sp c client =
  if Itbl.mem c.c_dirty client then false
  else begin
    Itbl.replace c.c_dirty client 1;
    if Itbl.length c.c_dirty = 1 then
      Itbl.replace sp.dirty_kept c.c_wr.Wirerep.index 1;
    Itbl.replace (lease_of sp client).l_objs c.c_wr.Wirerep.index 1;
    true
  end

let dirty_remove sp c client =
  if not (Itbl.mem c.c_dirty client) then false
  else begin
    Itbl.remove c.c_dirty client;
    if Itbl.length c.c_dirty = 0 then
      Itbl.remove sp.dirty_kept c.c_wr.Wirerep.index;
    (match Hashtbl.find_opt sp.lease client with
    | Some l ->
        Itbl.remove l.l_objs c.c_wr.Wirerep.index;
        if Itbl.length l.l_objs = 0 then Hashtbl.remove sp.lease client
    | None -> ());
    true
  end

(* Deduct every aggregate contribution of [c] before its table entry is
   dropped or overwritten (global collect, cycle commit, log replay). *)
let forget_concrete_dirty sp c =
  Itbl.iter
    (fun client _ ->
      match Hashtbl.find_opt sp.lease client with
      | Some l ->
          Itbl.remove l.l_objs c.c_wr.Wirerep.index;
          if Itbl.length l.l_objs = 0 then Hashtbl.remove sp.lease client
      | None -> ())
    c.c_dirty;
  if Itbl.length c.c_dirty > 0 then
    Itbl.remove sp.dirty_kept c.c_wr.Wirerep.index

let pin sp wr =
  bump_touch sp wr;
  bump sp.pins wr

let unpin sp wr =
  bump_touch sp wr;
  unbump sp.pins wr

let root sp wr =
  bump_touch sp wr;
  bump sp.roots wr;
  wal sp (Wal.Root { wr; delta = 1 })

let unroot sp wr =
  bump_touch sp wr;
  unbump sp.roots wr;
  wal sp (Wal.Root { wr; delta = -1 })

(* --- basics -------------------------------------------------------------- *)

let space rt i = rt.space_arr.(i)

let spaces rt = Array.to_list rt.space_arr

let space_id sp = sp.id

(* Shard 0's world: with the sim engine this is *the* scheduler and
   transport; with a parallel engine these accessors keep meaning "the
   first shard" for compatibility (the model checker, chaos and the CLI
   only drive the sim engine). *)
let sched rt = rt.shards.(0).Engine.s_sched

let transport rt = rt.shards.(0).Engine.s_transport

let engine_name rt = Engine.name rt.engine

let nshards rt = Array.length rt.shards

let run ?max_steps ?until rt =
  let steps = Engine.run ?max_steps ?until rt.engine in
  (* Snapshot writer-pool effectiveness so metrics dumps show how much of
     the marshalling traffic reused buffers (this domain's pool). *)
  if Obs.on () then begin
    let hits, misses = Wire.Writer.pool_stats () in
    Metrics.set_gauge g_pool_hits (float_of_int hits);
    Metrics.set_gauge g_pool_misses (float_of_int misses)
  end;
  steps

let spawn rt ?name f = Engine.spawn rt.engine ~shard:0 ?name f

(* Pin a fiber to the shard owning [space]: required for any fiber that
   blocks as that space under a multi-shard engine. *)
let spawn_at rt ~space:i ?name f =
  Engine.spawn rt.engine ~shard:(space rt i).shard.Engine.s_id ?name f

let wirerep h = h.wr

let pp_handle ppf h = Wirerep.pp ppf h.wr

let meth m_name f = { m_name; m_run = f }

let fresh_msg_id sp =
  let seq = sp.next_msg in
  sp.next_msg <- sp.next_msg + 1;
  { Proto.origin = sp.id; seq }

let next_seqno sp wr =
  let k = Wirerep.key wr in
  let n = Itbl.find sp.seqno k ~default:0 + 1 in
  Itbl.replace sp.seqno k n;
  wal sp (Wal.Seqno { wr; n });
  n

(* Every envelope is stamped with our incarnation epoch and the
   destination epoch we know of (see Proto.packet). *)
let send_env sp ~dst env =
  let send () =
    let packet =
      {
        Proto.src_epoch = sp.epoch;
        src_cont = sp.cont;
        dst_epoch =
          Option.value ~default:0 (Hashtbl.find_opt sp.peer_epoch dst);
        env;
      }
    in
    let payload = Pickle.encode Proto.packet_codec packet in
    Transport.send (stransport sp) ~src:sp.id ~dst ~kind:(Proto.kind env)
      payload
  in
  (* Commit-before-externalize: a message that makes state observable —
     a dirty/reassert acknowledgement, or a call/reply whose payload
     hands out references (and whose pin records must survive a crash)
     — leaves only after the WAL records behind it are durable.  A
     crash can then lose only state no peer has seen. *)
  let externalizes =
    match env with
    | Proto.Call { needs_ack = true; _ }
    | Proto.Reply { needs_ack = true; _ }
    | Proto.Dirty_ack _ | Proto.Reassert_ack _ ->
        true
    | _ -> false
  in
  match sp.store with
  | Some st when externalizes ->
      let gen = sp.epoch in
      Store.barrier st (fun () ->
          if (not sp.crashed) && sp.epoch = gen then send ())
  | Some _ | None -> send ()

(* Acknowledge message [msg_id] from [dst] (§3.2 copy_ack): its
   references are registered, so the sender may drop the pins. *)
let send_copy_ack sp ~dst msg_id =
  sp.s_copy_ack <- sp.s_copy_ack + 1;
  if Obs.on () then begin
    Metrics.incr m_copy_ack;
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:[ ("dst", Trace.I dst) ]
      "copy_ack"
  end;
  send_env sp ~dst (Proto.Copy_ack { msg_id })

(* --- retry backoff --------------------------------------------------------

   TR §2.3 repeats unacknowledged dirty and clean calls until they
   succeed.  The delay before attempt [n] is
   [base * backoff^n], capped at [backoff_cap], then smeared by the
   seeded jitter factor so a fleet of retries does not stampede in
   lock-step.  [backoff = 1] (default) keeps the historical
   fixed-interval behaviour. *)
let retry_delay sp ~attempt ~base =
  let d = base *. (sp.rt.config.backoff ** float_of_int attempt) in
  let d = Float.min d sp.rt.config.backoff_cap in
  let j = sp.rt.config.backoff_jitter in
  if j <= 0.0 then d
  else d *. (1.0 -. (j /. 2.0) +. (j *. Rng.float (sretry_rng sp)))

let count_retry sp label wr =
  sp.s_retries <- sp.s_retries + 1;
  if Obs.on () then begin
    Metrics.incr m_retry;
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id ~args:(obs_wr_args wr)
      label
  end

let find_concrete sp wr =
  match Wirerep.Tbl.find_opt sp.table wr with
  | Some (Concrete c) -> Some c
  | Some (Surrogate _) | None -> None

(* --- allocation, roots, heap edges ---------------------------------------- *)

let allocate ?(tag = "") sp ~meths =
  let index = sp.next_index in
  sp.next_index <- sp.next_index + 1;
  let wr = Wirerep.v ~space:sp.id ~index in
  let c =
    {
      c_wr = wr;
      c_tag = tag;
      c_meths = List.map (fun m -> (m.m_name, m)) meths;
      c_slots = [];
      c_dirty = Itbl.create ();
      c_last_seq = Itbl.create ();
    }
  in
  Wirerep.Tbl.add sp.table wr (Concrete c);
  wal sp (Wal.Export { wr; tag });
  root sp wr;
  { wr }

let retain sp h = root sp h.wr

let release sp h = unroot sp h.wr

let link sp ~parent ~child =
  match Wirerep.Tbl.find_opt sp.table parent.wr with
  | Some (Concrete c) ->
      c.c_slots <- child.wr :: c.c_slots;
      wal sp (Wal.Link { parent = parent.wr; child = child.wr; add = true })
  | Some (Surrogate _) | None ->
      invalid_arg "Runtime.link: parent is not a local concrete object"

(* Drop the first occurrence of [x]: heap slots are a multiset. *)
let rec remove_one x = function
  | [] -> []
  | y :: rest -> if Wirerep.equal x y then rest else y :: remove_one x rest

let unlink sp ~parent ~child =
  match Wirerep.Tbl.find_opt sp.table parent.wr with
  | Some (Concrete c) ->
      c.c_slots <- remove_one child.wr c.c_slots;
      wal sp (Wal.Link { parent = parent.wr; child = child.wr; add = false })
  | Some (Surrogate _) | None ->
      invalid_arg "Runtime.unlink: parent is not a local concrete object"

(* The well-known agent at index 0 of a fresh or wiped space, built
   through its registered factory exactly as recovery re-instantiates
   any other object. *)
let allocate_agent sp =
  let meths = (Hashtbl.find sp.rt.factories "agent") () in
  let agent = allocate sp ~tag:"agent" ~meths in
  assert (agent.wr.Wirerep.index = 0)

(* The agent's own heap slots keep published objects locally reachable;
   rebinding a name unlinks the object it previously kept alive.
   [agent_bind_nolog] is the raw state change, shared with recovery
   replay (which must not re-append the records it is replaying). *)
let agent_slots sp f =
  match find_concrete sp (Wirerep.v ~space:sp.id ~index:0) with
  | Some agent -> agent.c_slots <- f agent.c_slots
  | None -> ()

let agent_bind_nolog sp name wr =
  agent_slots sp (fun slots ->
      match Hashtbl.find_opt sp.bindings name with
      | Some old -> wr :: remove_one old slots
      | None -> wr :: slots);
  Hashtbl.replace sp.bindings name wr

let unbind_nolog sp name =
  match Hashtbl.find_opt sp.bindings name with
  | None -> ()
  | Some old ->
      agent_slots sp (remove_one old);
      Hashtbl.remove sp.bindings name
