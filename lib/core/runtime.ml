module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Engine = Netobj_engine.Engine
module Engine_sim = Netobj_engine.Engine_sim
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

exception Remote_error of string

exception Timeout of string

let () =
  Printexc.register_printer (function
    | Remote_error m -> Some (Printf.sprintf "Remote_error(%s)" m)
    | Timeout m -> Some (Printf.sprintf "Timeout(%s)" m)
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
  clean_batch : float option;
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
    ?(backoff_jitter = 0.0) ?(lease_grace = 0.0) ?pin_timeout ?clean_batch
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
    clean_batch;
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

(* One remote call's settlement, as observed by the caller's parked
   fiber: the reply itself, or one of the explicit rejections the
   reliability plane introduces. *)
type call_outcome =
  | O_reply of Proto.msg_id * bool * (string, string) result
  | O_busy  (* shed at the owner's admission gate: retryable *)
  | O_expired  (* rejected server-side: deadline budget exhausted *)

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

(* Any of the plane's knobs arms it; default configurations keep the
   classic wire behaviour exactly (no cancel traffic, no reply caching,
   no admission bookkeeping) so pinned traces stay stable. *)
let reliability_on sp =
  let c = sp.rt.config in
  c.call_retries > 0 || c.deadline <> None || c.max_inflight <> None

let count_call_retry sp =
  sp.s_call_retried <- sp.s_call_retried + 1;
  if Obs.on () then Metrics.incr m_call_retried

(* --- marshal contexts ---------------------------------------------------

   Contexts are only live during non-yielding encode/decode extents, so a
   domain-local stack is safe under the cooperative scheduler (fibers of
   one domain never interleave inside an extent; other domains have
   their own stack). *)

type ctx =
  | Enc of { esp : space; e_pinned : Wirerep.t list ref }
  | Dec of {
      dsp : space;
      d_acquired : Wirerep.t list ref;
      d_pending : bool Sched.Ivar.var list ref;
    }

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

(* Shard 0's world: with the sim engine this is *the* scheduler,
   network and transport; with a parallel engine these accessors keep
   meaning "the first shard" for compatibility (the model checker,
   chaos and the CLI only drive the sim engine). *)
let sched rt = rt.shards.(0).Engine.s_sched

let net rt = rt.shards.(0).Engine.s_net

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

(* --- surrogate registration (the dirty protocol, client side) ----------- *)

let send_dirty sp wr =
  sp.s_dirty <- sp.s_dirty + 1;
  if Obs.on () then begin
    Metrics.incr m_dirty;
    Trace.async_begin (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~id:(obs_wr_id ~client:sp.id wr)
      ~args:(obs_wr_args wr) "dirty"
  end;
  send_env sp ~dst:wr.Wirerep.space (Proto.Dirty { wr; seq = next_seqno sp wr })

(* Send the dirty call and, when dirty retries are configured, keep
   resending (same sequence number: the owner acks idempotently) until
   the registration ivar fills.  The cancel hooks onto the ivar so an ack
   stops the pending timer outright instead of leaving it to fire as a
   no-op and delay quiescence. *)
let send_dirty_retrying sp wr iv =
  send_dirty sp wr;
  match sp.rt.config.dirty_retry with
  | None -> ()
  | Some base ->
      let gen = sp.epoch in
      let rec arm attempt =
        let cancel =
          Sched.timer_cancel (ssched sp)
            (retry_delay sp ~attempt ~base)
            (fun () ->
              if (not sp.crashed) && sp.epoch = gen
                 && not (Sched.Ivar.is_filled iv)
              then
                match Wirerep.Tbl.find_opt sp.table wr with
                | Some (Surrogate st) -> (
                    match !st with
                    | Creating iv' when iv' == iv ->
                        count_retry sp "dirty_retry" wr;
                        send_env sp ~dst:wr.Wirerep.space
                          (Proto.Dirty
                             {
                               wr;
                               seq = Itbl.find sp.seqno (Wirerep.key wr) ~default:0;
                             });
                        arm (attempt + 1)
                    | Creating _ | Usable _ | Cleaning _ -> ())
                | Some (Concrete _) | None -> ())
        in
        Sched.Ivar.on_fill iv (fun () -> cancel ())
      in
      arm 0

let obs_begin_clean sp wr =
  if Obs.on () then begin
    Metrics.incr m_clean;
    Trace.async_begin (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~id:(obs_wr_id ~client:sp.id wr + 1)
      ~args:(obs_wr_args wr) "clean"
  end

let send_clean sp wr ~strong =
  sp.s_clean <- sp.s_clean + 1;
  obs_begin_clean sp wr;
  send_env sp ~dst:wr.Wirerep.space
    (Proto.Clean { wr; seq = next_seqno sp wr; strong })

(* Ensure a table entry exists for a reference just read from a message,
   returning the registration event to await (if any).  Mirrors the
   receive_copy rule: ⊥ -> nil (dirty call), OK cancels a scheduled
   clean, ccit -> ccitnil. *)
let acquire_surrogate sp wr =
  match Wirerep.Tbl.find_opt sp.table wr with
  | Some (Concrete _) -> None
  | Some (Surrogate st) -> (
      match !st with
      | Creating iv -> Some iv
      | Usable u ->
          u.clean_scheduled <- false;
          None
      | Cleaning cl -> (
          match cl.resurrect with
          | Some iv -> Some iv
          | None ->
              let iv = Sched.Ivar.create () in
              cl.resurrect <- Some iv;
              Some iv))
  | None ->
      let iv = Sched.Ivar.create () in
      Wirerep.Tbl.add sp.table wr (Surrogate (ref (Creating iv)));
      send_dirty_retrying sp wr iv;
      Some iv

(* --- the handle codec ---------------------------------------------------- *)

let handle_codec =
  let write w h =
    (match !(Domain.DLS.get ctx_stack_key) with
    | Enc { esp; e_pinned } :: _ ->
        pin esp h.wr;
        e_pinned := h.wr :: !e_pinned
    | Dec _ :: _ | [] ->
        failwith "handle_codec: no enclosing marshal (encode) context");
    Pickle.write Wirerep.codec w h.wr
  in
  let read r =
    let wr = Pickle.read Wirerep.codec r in
    (match !(Domain.DLS.get ctx_stack_key) with
    | Dec { dsp; d_acquired; d_pending } :: _ ->
        (* Pin immediately so an interleaved local GC cannot sweep the
           entry while registration completes. *)
        pin dsp wr;
        d_acquired := wr :: !d_acquired;
        (match acquire_surrogate dsp wr with
        | Some iv -> d_pending := iv :: !d_pending
        | None -> ())
    | Enc _ :: _ | [] ->
        failwith "handle_codec: no enclosing marshal (decode) context");
    { wr }
  in
  Pickle.custom ~name:"handle"
    ~write:(fun w h -> write w h)
    ~read:(fun r -> read r)

let release_pins_for sp msg_id =
  match Hashtbl.find_opt sp.tdirty msg_id with
  | None -> ()
  | Some wrs ->
      Hashtbl.remove sp.tdirty msg_id;
      wal sp (Wal.Unpins msg_id.Proto.seq);
      if Obs.on () then
        Trace.async_end (Obs.trace ()) ~cat:"gc" ~space:sp.id
          ~id:(obs_msg_span_id msg_id) "pins";
      List.iter (unpin sp) wrs

(* Encode a payload under a fresh message id; embedded handles become
   transient pins attached to that id.  Returns whether any reference was
   embedded (an ack-free message needs no transient entry at all). *)
let encode_with_pins sp f =
  let msg_id = fresh_msg_id sp in
  let pinned = ref [] in
  let payload =
    Wire.Writer.with_pooled (fun w ->
        with_ctx (Enc { esp = sp; e_pinned = pinned }) (fun () -> f w);
        Bytes.unsafe_to_string (Wire.Writer.to_bytes w))
  in
  let has_refs = !pinned <> [] in
  if has_refs then begin
    Hashtbl.replace sp.tdirty msg_id !pinned;
    wal sp (Wal.Pins { msg = msg_id.Proto.seq; wrs = !pinned });
    (* The transient-pin lifetime: begins when references are embedded in
       an outgoing message, ends at the receiver's copy_ack. *)
    if Obs.on () then
      Trace.async_begin (Obs.trace ()) ~cat:"gc" ~space:sp.id
        ~id:(obs_msg_span_id msg_id)
        ~args:[ ("refs", Trace.I (List.length !pinned)) ]
        "pins";
    (* TR §2.2: transient entries are "removed by a conservative timeout"
       when the ack is lost with the message or the receiver.  The timeout
       must exceed any in-flight window (latency + call timeout + retry),
       so an ack that is merely late never races it.  Release is
       idempotent, so no cancellation is needed when the ack does arrive;
       the epoch guard keeps a timer armed before a restart from touching
       the reincarnation's reused message ids. *)
    match sp.rt.config.pin_timeout with
    | None -> ()
    | Some dt ->
        let gen = sp.epoch in
        Sched.timer (ssched sp) dt (fun () ->
            if sp.epoch = gen then release_pins_for sp msg_id)
  end;
  (msg_id, has_refs, payload)

(* Decode a payload; returns the value, the acquired references (already
   pinned once each) and the registrations to await. *)
let decode_with_acquire sp payload f =
  let acquired = ref [] in
  let pending = ref [] in
  let r = Wire.Reader.of_string payload in
  let v =
    with_ctx (Dec { dsp = sp; d_acquired = acquired; d_pending = pending })
      (fun () -> f r)
  in
  (v, !acquired, !pending)

(* Block until every registration triggered by a decode has completed.
   This is the spec's suspended deserialisation; with a configured
   dirty_timeout it raises [Timeout] instead of waiting forever. *)
let await_registrations sp pending =
  List.iter
    (fun iv ->
      let ok =
        match sp.rt.config.dirty_timeout with
        | None -> Sched.Ivar.read iv
        | Some dt -> (
            match Sched.read_timeout (ssched sp) iv ~timeout:dt with
            | Some ok -> ok
            | None -> raise (Timeout "dirty call"))
      in
      if not ok then raise (Remote_error "object no longer available at owner"))
    pending

(* --- local GC ------------------------------------------------------------ *)

(* Local reachability from the roots and the transient pins.  With
   [~dirty_kept:true] (the collector's view) concrete objects held
   remotely are roots too: their dirty set or a transient pin elsewhere
   keeps them and everything they reference alive.  Fed by the
   incrementally maintained [dirty_kept] aggregate, not a table scan.
   Without it (the cycle detector's "live here"), a concrete kept only
   by its dirty set is exactly a cycle suspect, not evidence of life —
   remote interest is established by probing the dirty-set members
   instead. *)
let mark sp ~dirty_kept =
  let marked = Itbl.create ~size:64 () in
  let rec visit wr =
    let k = Wirerep.key wr in
    if not (Itbl.mem marked k) then begin
      Itbl.replace marked k 1;
      match Wirerep.Tbl.find_opt sp.table wr with
      | Some (Concrete c) -> List.iter visit c.c_slots
      | Some (Surrogate _) | None -> ()
    end
  in
  Itbl.iter (fun k _ -> visit (Wirerep.of_key k)) sp.roots;
  Itbl.iter (fun k _ -> visit (Wirerep.of_key k)) sp.pins;
  if dirty_kept then
    Itbl.iter
      (fun index _ -> visit (Wirerep.v ~space:sp.id ~index))
      sp.dirty_kept;
  marked

let collect sp =
  (* During the post-recovery grace window the collector must not run:
     recovered dirty entries and pins are conservative (their clients may
     be about to re-assert), so reclaiming against them would break the
     no-premature-collection guarantee the window exists to keep. *)
  if (not sp.crashed) && Sched.now (ssched sp) >= sp.recover_until then begin
    (* Wall-clock pause time goes only into the metrics histogram, never
       into the trace: trace timestamps must stay deterministic. *)
    let t0 = if Obs.on () then Sys.time () else 0.0 in
    sp.n_collections <- sp.n_collections + 1;
    let marked = mark sp ~dirty_kept:true in
    let dead_concrete = ref [] in
    Wirerep.Tbl.iter
      (fun wr entry ->
        let live = Itbl.mem marked (Wirerep.key wr) in
        match entry with
        | Concrete c ->
            if (not live) && Itbl.length c.c_dirty = 0 then
              dead_concrete := wr :: !dead_concrete
        | Surrogate st -> (
            match !st with
            | Usable u ->
                if live then u.clean_scheduled <- false
                else if not u.clean_scheduled then begin
                  (* finalize: schedule a clean call with the demon *)
                  u.clean_scheduled <- true;
                  Sched.Mailbox.send sp.clean_mb wr
                end
            | Creating _ | Cleaning _ -> ()))
      sp.table;
    List.iter
      (fun wr ->
        Wirerep.Tbl.remove sp.table wr;
        bump_touch sp wr;
        wal sp (Wal.Reclaim wr);
        sp.n_reclaimed <- sp.n_reclaimed + 1;
        Log.debug (fun m -> m "space %d reclaimed %a" sp.id Wirerep.pp wr))
      !dead_concrete;
    if Obs.on () then begin
      let ndead = List.length !dead_concrete in
      Metrics.incr m_collections;
      Metrics.add m_reclaimed ndead;
      Metrics.observe h_gc_pause ((Sys.time () -. t0) *. 1e6);
      Metrics.observe h_gc_reclaimed (float_of_int ndead);
      Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
        ~args:[ ("reclaimed", Trace.I ndead) ]
        "collect"
    end
  end

let collect_all rt = Array.iter collect rt.space_arr

(* Global (complete) collection: trace across every space at once.  The
   key difference from the local collector is that dirty sets are NOT
   roots — remote reachability is established by actually following the
   inter-space edges, so an isolated distributed cycle is not retained. *)
let global_collect rt =
  let marked = Itbl.create ~size:256 () in
  let rec visit wr =
    let k = Wirerep.key wr in
    if not (Itbl.mem marked k) then begin
      Itbl.replace marked k 1;
      (* Follow heap edges at the owner. *)
      let owner_sp = rt.space_arr.(wr.Wirerep.space) in
      match Wirerep.Tbl.find_opt owner_sp.table wr with
      | Some (Concrete c) -> List.iter visit c.c_slots
      | Some (Surrogate _) | None -> ()
    end
  in
  Array.iter
    (fun sp ->
      if not sp.crashed then begin
        Itbl.iter (fun k _ -> visit (Wirerep.of_key k)) sp.roots;
        Itbl.iter (fun k _ -> visit (Wirerep.of_key k)) sp.pins
      end)
    rt.space_arr;
  (* Sweep: remove unreached concretes, and every table entry (surrogate
     or otherwise) that refers to them. *)
  let reclaimed = ref 0 in
  Array.iter
    (fun sp ->
      let dead = ref [] in
      Wirerep.Tbl.iter
        (fun wr entry ->
          if not (Itbl.mem marked (Wirerep.key wr)) then
            match entry with
            | Concrete c ->
                incr reclaimed;
                forget_concrete_dirty sp c;
                dead := wr :: !dead
            | Surrogate _ -> dead := wr :: !dead)
        sp.table;
      List.iter
        (fun wr ->
          Wirerep.Tbl.remove sp.table wr;
          sp.n_reclaimed <- sp.n_reclaimed + 1)
        !dead)
    rt.space_arr;
  !reclaimed

(* --- cleaning demon ------------------------------------------------------ *)

(* TR §2.3: an unacknowledged clean is repeated until it succeeds
   (sequence numbers make the repeats idempotent), with capped
   exponential backoff between attempts.  The pending timer's cancel is
   stored on the Cleaning state so the owner's ack stops the cycle
   immediately — a cancelled retry can neither fire after the state left
   Cleaning nor hold the scheduler back from quiescing. *)
let schedule_clean_retry sp cl wr =
  match sp.rt.config.clean_retry with
  | None -> ()
  | Some base ->
      let rec arm attempt =
        cl.retry_cancel <-
          Some
            (Sched.timer_cancel (ssched sp)
               (retry_delay sp ~attempt ~base)
               (fun () ->
                 if not sp.crashed then
                   match Wirerep.Tbl.find_opt sp.table wr with
                   | Some (Surrogate st) -> (
                       match !st with
                       | Cleaning cl' when cl' == cl ->
                           sp.s_clean <- sp.s_clean + 1;
                           count_retry sp "clean_retry" wr;
                           if Obs.on () then Metrics.incr m_clean;
                           send_env sp ~dst:wr.Wirerep.space
                             (Proto.Clean
                                {
                                  wr;
                                  seq =
                                    Itbl.find sp.seqno (Wirerep.key wr)
                                      ~default:0;
                                  strong = false;
                                });
                           arm (attempt + 1)
                       | Cleaning _ | Creating _ | Usable _ -> ())
                   | Some (Concrete _) | None -> ()))
      in
      arm 0

(* Transition a scheduled surrogate to Cleaning and return its new
   Cleaning state, unless a fresh copy cancelled the clean meanwhile
   (the Note 4 cancellation). *)
let begin_clean sp wr =
  match Wirerep.Tbl.find_opt sp.table wr with
  | Some (Surrogate st) -> (
      match !st with
      | Usable u when u.clean_scheduled ->
          let cl = { resurrect = None; retry_cancel = None } in
          st := Cleaning cl;
          Some cl
      | Usable _ | Creating _ | Cleaning _ -> None)
  | Some (Concrete _) | None -> None

(* Batched cleaning demon: gather everything scheduled within the window
   and send one clean_batch per owner.  Each item arms its own retry,
   which repeats it as a single clean; the batch ack cancels them all. *)
let cleaning_demon_batched sp window () =
  let rec loop () =
    let wr0 = Sched.Mailbox.recv sp.clean_mb in
    Sched.sleep (ssched sp) window;
    let rec drain acc =
      match Sched.Mailbox.try_recv sp.clean_mb with
      | Some wr -> drain (wr :: acc)
      | None -> List.rev acc
    in
    let wrs = wr0 :: drain [] in
    if not sp.crashed then begin
      let by_owner = Hashtbl.create 4 in
      List.iter
        (fun wr ->
          match begin_clean sp wr with
          | None -> ()
          | Some cl ->
              let seq = next_seqno sp wr in
              sp.s_clean <- sp.s_clean + 1;
              obs_begin_clean sp wr;
              let owner = wr.Wirerep.space in
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt by_owner owner)
              in
              Hashtbl.replace by_owner owner ((wr, seq, cl) :: prev))
        wrs;
      Hashtbl.iter
        (fun owner items ->
          if Obs.on () then
            Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
              ~args:
                [ ("owner", Trace.I owner); ("n", Trace.I (List.length items)) ]
              "clean_batch";
          send_env sp ~dst:owner
            (Proto.Clean_batch
               { items = List.map (fun (wr, seq, _) -> (wr, seq)) items });
          List.iter (fun (wr, _, cl) -> schedule_clean_retry sp cl wr) items)
        by_owner
    end;
    loop ()
  in
  loop ()

(* Sends the clean call for a surrogate the collector found unreachable,
   unless a fresh copy arrived meanwhile. *)
let cleaning_demon sp () =
  let rec loop () =
    let wr = Sched.Mailbox.recv sp.clean_mb in
    (if not sp.crashed then
       match begin_clean sp wr with
       | Some cl ->
           send_clean sp wr ~strong:false;
           schedule_clean_retry sp cl wr
       | None -> ());
    loop ()
  in
  loop ()

(* --- message handling ----------------------------------------------------- *)

let lookup_meth c name =
  match List.assoc_opt name c.c_meths with
  | Some m -> m
  | None -> raise (Remote_error (Printf.sprintf "no method %s" name))

let find_concrete sp wr =
  match Wirerep.Tbl.find_opt sp.table wr with
  | Some (Concrete c) -> Some c
  | Some (Surrogate _) | None -> None

(* Record a settled call in [client]'s bounded reply cache. *)
let cache_reply sp ~client ~call_id env =
  let rc =
    match Hashtbl.find_opt sp.reply_cache client with
    | Some rc -> rc
    | None ->
        let rc =
          { rc_replies = Hashtbl.create 16; rc_order = Queue.create () }
        in
        Hashtbl.add sp.reply_cache client rc;
        rc
  in
  if not (Hashtbl.mem rc.rc_replies call_id) then begin
    Hashtbl.replace rc.rc_replies call_id env;
    Queue.push call_id rc.rc_order;
    (* FIFO eviction; ids already removed by a cancel leave stale queue
       entries behind, skipped here because removing them is a no-op. *)
    while Hashtbl.length rc.rc_replies > reply_cache_cap do
      Hashtbl.remove rc.rc_replies (Queue.pop rc.rc_order)
    done
  end

(* Serve a call at the owner: decode (phase 1), await registrations, ack
   the copy, compute (phase 2), reply under a fresh encode context.  The
   copy_ack goes back as soon as the arguments' registrations complete;
   a call flagged [needs_ack:false] carried no references and is not
   acknowledged at all. *)
let serve_call sp ~src ~call_id ~msg_id ~needs_ack ~target ~meth_name ~args
    ~deadline =
  let ron = reliability_on sp in
  let ack_now () = if needs_ack then send_copy_ack sp ~dst:src msg_id in
  (* At-most-once: a retransmission of a settled call replays the cached
     reply verbatim (and re-acks the copy — the original ack may have
     been lost along with the reply); one of a still-executing call is
     dropped outright, its reply already owed. *)
  let cached =
    (* [bug_no_dedup] reintroduces retry-without-at-most-once — every
       retransmission re-executes — as a known-bug target for the model
       checker's call-retry scenario.  Never set it outside that. *)
    if (not ron) || sp.rt.config.bug_no_dedup then None
    else
      match Hashtbl.find_opt sp.reply_cache src with
      | None -> None
      | Some rc -> Hashtbl.find_opt rc.rc_replies call_id
  in
  match cached with
  | Some env ->
      sp.s_call_deduped <- sp.s_call_deduped + 1;
      if Obs.on () then Metrics.incr m_call_deduped;
      ack_now ();
      send_env sp ~dst:src env
  | None
    when ron
         && (not sp.rt.config.bug_no_dedup)
         && Hashtbl.mem sp.inflight (src, call_id) ->
      sp.s_call_deduped <- sp.s_call_deduped + 1;
      if Obs.on () then Metrics.incr m_call_deduped
  | None -> (
      match sp.rt.config.max_inflight with
      | Some cap when sp.inflight_count >= cap ->
          (* O(1) shed: nothing decoded, nothing pinned, no state. *)
          sp.s_call_shed <- sp.s_call_shed + 1;
          if Obs.on () then Metrics.incr m_call_shed;
          send_env sp ~dst:src (Proto.Busy { call_id })
      | Some _ | None ->
          let sched = ssched sp in
          let ic = { if_cancelled = false } in
          if ron then begin
            Hashtbl.replace sp.inflight (src, call_id) ic;
            sp.inflight_count <- sp.inflight_count + 1
          end;
          (* The serve fiber inherits the call's remaining budget:
             nested and third-party calls made by the method body clamp
             to it through the fiber-local binding. *)
          let until =
            if deadline > 0. then Some (Sched.now sched +. deadline) else None
          in
          Sched.Fls.set sched deadline_key until;
          let reply result =
            let rmsg_id, rneeds_ack, payload_or_err =
              match result with
              | Ok fill ->
                  let id, has_refs, s = encode_with_pins sp fill in
                  (id, has_refs, Ok s)
              | Error e -> (fresh_msg_id sp, false, Error e)
            in
            let env =
              Proto.Reply
                {
                  call_id;
                  msg_id = rmsg_id;
                  needs_ack = rneeds_ack;
                  result = payload_or_err;
                }
            in
            if ic.if_cancelled then begin
              (* The caller abandoned this call: swallow the reply and
                 release its transient pins now, not at [pin_timeout]. *)
              if rneeds_ack then release_pins_for sp rmsg_id;
              sp.s_call_cancelled <- sp.s_call_cancelled + 1;
              if Obs.on () then Metrics.incr m_call_cancelled
            end
            else begin
              if ron then cache_reply sp ~client:src ~call_id env;
              send_env sp ~dst:src env
            end
          in
          let serve () =
            match find_concrete sp target with
            | None ->
                ack_now ();
                reply (Error (Fmt.str "no such object %a" Wirerep.pp target))
            | Some c -> (
                match
                  let m = lookup_meth c meth_name in
                  decode_with_acquire sp args (fun r -> m.m_run sp r)
                with
                | exception e ->
                    ack_now ();
                    reply (Error (Printexc.to_string e))
                | compute, acquired, pending -> (
                    match await_registrations sp pending with
                    | exception e ->
                        List.iter (unpin sp) acquired;
                        ack_now ();
                        reply (Error (Printexc.to_string e))
                    | () -> (
                        ack_now ();
                        match until with
                        | Some u when Sched.now sched > u ->
                            (* The budget ran out while the arguments'
                               registrations were in flight: reject
                               without burning the method body. *)
                            List.iter (unpin sp) acquired;
                            sp.s_call_expired <- sp.s_call_expired + 1;
                            if Obs.on () then Metrics.incr m_deadline_expired;
                            send_env sp ~dst:src (Proto.Expired { call_id })
                        | Some _ | None -> (
                            sp.s_call_executed <- sp.s_call_executed + 1;
                            (* Phase 2: run the implementation (it may
                               itself block). *)
                            match compute () with
                            | fill ->
                                reply (Ok fill);
                                List.iter (unpin sp) acquired
                            | exception e ->
                                reply (Error (Printexc.to_string e));
                                List.iter (unpin sp) acquired))))
          in
          if ron then begin
            let gen = sp.epoch in
            Fun.protect serve ~finally:(fun () ->
                (* Epoch guard: a restart mid-serve resets the admission
                   state; this completion must not debit the new
                   incarnation's gate.  The identity check keeps a
                   clobbered table entry (double execution under
                   [bug_no_dedup]) owned by its live serve. *)
                if sp.epoch = gen then begin
                  sp.inflight_count <- sp.inflight_count - 1;
                  match Hashtbl.find_opt sp.inflight (src, call_id) with
                  | Some ic' when ic' == ic ->
                      Hashtbl.remove sp.inflight (src, call_id)
                  | Some _ | None -> ()
                end)
          end
          else serve ())

let handle_dirty sp ~src ~wr ~seq =
  match find_concrete sp wr with
  | None ->
      send_env sp ~dst:src (Proto.Dirty_ack { wr; ok = false })
  | Some c ->
      let last = Itbl.find c.c_last_seq src ~default:0 in
      if seq > last then begin
        Itbl.replace c.c_last_seq src seq;
        if dirty_add sp c src then obs_gauge_add g_dirty_entries 1.0;
        bump_touch sp wr;
        wal sp (Wal.Dirty { wr; client = src; seq; add = true })
      end;
      (* Any current-or-fresh dirty call proves the client still holds
         the surrogate: a recovered entry is thereby re-confirmed.  A
         strictly stale duplicate ([seq < last]) proves nothing — it may
         predate a clean. *)
      if seq >= last then Hashtbl.remove sp.unconfirmed (wr, src);
      send_env sp ~dst:src (Proto.Dirty_ack { wr; ok = true })

let apply_clean sp ~src ~wr ~seq =
  Hashtbl.remove sp.unconfirmed (wr, src);
  match find_concrete sp wr with
  | None -> ()
  | Some c ->
      let last = Itbl.find c.c_last_seq src ~default:0 in
      if seq > last then begin
        Itbl.replace c.c_last_seq src seq;
        if dirty_remove sp c src then obs_gauge_add g_dirty_entries (-1.0);
        bump_touch sp wr;
        wal sp (Wal.Dirty { wr; client = src; seq; add = false })
      end

let handle_clean sp ~src ~wr ~seq ~strong =
  ignore strong;
  apply_clean sp ~src ~wr ~seq;
  send_env sp ~dst:src (Proto.Clean_ack { wr })

let handle_dirty_ack sp ~wr ~ok =
  match Wirerep.Tbl.find_opt sp.table wr with
  | Some (Surrogate st) -> (
      match !st with
      | Creating iv ->
          if Obs.on () then
            Trace.async_end (Obs.trace ()) ~cat:"gc" ~space:sp.id
              ~id:(obs_wr_id ~client:sp.id wr)
              ~args:[ ("ok", Trace.I (Bool.to_int ok)) ]
              "dirty";
          if ok then begin
            st := Usable { clean_scheduled = false };
            wal sp (Wal.Surrogate { wr; add = true })
          end
          else begin
            Wirerep.Tbl.remove sp.table wr;
            bump_touch sp wr
          end;
          Sched.Ivar.fill iv ok
      | Usable _ | Cleaning _ -> () (* stale (e.g. duplicated) ack *))
  | Some (Concrete _) | None -> ()

let obs_end_clean sp wr ~resurrected =
  if Obs.on () then
    Trace.async_end (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~id:(obs_wr_id ~client:sp.id wr + 1)
      ~args:[ ("resurrected", Trace.I (Bool.to_int resurrected)) ]
      "clean"

let handle_clean_ack sp ~wr =
  match Wirerep.Tbl.find_opt sp.table wr with
  | Some (Surrogate st) -> (
      match !st with
      | Cleaning ({ resurrect = None; _ } as cl) ->
          (match cl.retry_cancel with Some c -> c () | None -> ());
          obs_end_clean sp wr ~resurrected:false;
          Wirerep.Tbl.remove sp.table wr;
          bump_touch sp wr;
          wal sp (Wal.Surrogate { wr; add = false })
      | Cleaning ({ resurrect = Some iv; _ } as cl) ->
          (match cl.retry_cancel with Some c -> c () | None -> ());
          obs_end_clean sp wr ~resurrected:true;
          (* ccitnil -> nil: a fresh copy arrived during cleanup; start a
             new registration cycle. *)
          st := Creating iv;
          send_dirty_retrying sp wr iv
      | Creating _ | Usable _ -> () (* stale ack *))
  | Some (Concrete _) | None -> ()

let settle_call sp ~call_id outcome =
  match Hashtbl.find_opt sp.pending_calls call_id with
  | None -> () (* timed out and forgotten, or a stale earlier attempt *)
  | Some iv ->
      Hashtbl.remove sp.pending_calls call_id;
      Sched.Ivar.fill iv outcome

let handle_reply sp ~call_id ~msg_id ~needs_ack ~result =
  settle_call sp ~call_id (O_reply (msg_id, needs_ack, result))

(* The caller abandoned [call_id]: drop its cached reply (releasing the
   reply's transient pins) or flag the still-executing instance so its
   completion swallows the reply.  Idempotent; a late or duplicated
   cancel finds nothing to do. *)
let handle_cancel sp ~src ~call_id ~msg_id:_ =
  if reliability_on sp then begin
    (match Hashtbl.find_opt sp.reply_cache src with
    | None -> ()
    | Some rc -> (
        match Hashtbl.find_opt rc.rc_replies call_id with
        | Some (Proto.Reply { msg_id = rmsg; needs_ack; _ }) ->
            Hashtbl.remove rc.rc_replies call_id;
            if needs_ack then release_pins_for sp rmsg;
            sp.s_call_cancelled <- sp.s_call_cancelled + 1;
            if Obs.on () then Metrics.incr m_call_cancelled
        | Some _ | None -> ()));
    match Hashtbl.find_opt sp.inflight (src, call_id) with
    | Some ic ->
        (* counted when the suppressed completion actually happens *)
        ic.if_cancelled <- true
    | None -> ()
  end

(* An ack renews the lease only if it answers a ping this incarnation
   actually has outstanding: the epoch must match and the nonce must lie
   in (l_acked, l_sent].  Anything else — a duplicate from a chaos dup
   burst, a delayed ack surfacing after partition/restart, an ack minted
   against a pre-crash epoch — is dropped, so replayed traffic can no
   longer keep a dead client's lease alive.  [bug_ping_ack_replay]
   resurrects the historical accept-anything behaviour for regression
   demonstrations. *)
let handle_ping_ack sp ~src ~nonce =
  if Obs.on () then
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:[ ("client", Trace.I src) ]
      "ping_ack";
  match Hashtbl.find_opt sp.lease src with
  | None -> ()
  | Some l ->
      if sp.rt.config.bug_ping_ack_replay then begin
        l.l_acked <- l.l_sent;
        Hashtbl.remove sp.suspect_since src
      end
      else if
        nonce_epoch nonce = sp.epoch
        && nonce > l.l_acked
        && nonce <= l.l_sent
      then begin
        l.l_acked <- nonce;
        if l.l_acked = l.l_sent then Hashtbl.remove sp.suspect_since src
      end
      else sp.s_stale_acks <- sp.s_stale_acks + 1

(* --- recovery reconciliation ---------------------------------------------

   When a space recovers (its own [Runtime.recover], or a peer's epoch
   bump with an unchanged continuity floor), the dirty entries involved
   become conservative: retained, but awaiting re-confirmation.  A
   client confirms by re-asserting dirty (fresh idempotent seqnos) for
   every usable surrogate it still holds; entries not confirmed within
   the grace window are dropped as lease evictions. *)

let grace_drop sp pairs =
  List.iter
    (fun ((wr, client) as key) ->
      if Hashtbl.mem sp.unconfirmed key then begin
        Hashtbl.remove sp.unconfirmed key;
        match find_concrete sp wr with
        | Some c when Itbl.mem c.c_dirty client ->
            ignore (dirty_remove sp c client : bool);
            bump_touch sp wr;
            sp.s_evict <- sp.s_evict + 1;
            let last = Itbl.find c.c_last_seq client ~default:0 in
            wal sp (Wal.Dirty { wr; client; seq = last; add = false });
            if Obs.on () then begin
              Metrics.incr m_evict;
              obs_gauge_add g_dirty_entries (-1.0);
              Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
                ~args:(("client", Trace.I client) :: obs_wr_args wr)
                "grace_drop"
            end
        | Some _ | None -> ()
      end)
    pairs

let grace_mark sp pairs =
  if pairs <> [] then begin
    List.iter (fun key -> Hashtbl.replace sp.unconfirmed key ()) pairs;
    let gen = sp.epoch in
    Sched.timer (ssched sp)
      ~name:(Printf.sprintf "grace-%d" sp.id)
      sp.rt.config.recover_grace
      (fun () ->
        if (not sp.crashed) && sp.epoch = gen then grace_drop sp pairs)
  end

(* Owner side of the handshake.  A reassert is authoritative — the
   client is alive and telling us it holds the surrogate — so the entry
   is (re)installed unconditionally; the seqno only advances the
   idempotence watermark. *)
let handle_reassert sp ~src ~items =
  let ok = ref [] and gone = ref [] in
  List.iter
    (fun ((wr : Wirerep.t), seq) ->
      match find_concrete sp wr with
      | None -> gone := wr :: !gone
      | Some c ->
          let last = Itbl.find c.c_last_seq src ~default:0 in
          if seq > last then Itbl.replace c.c_last_seq src seq;
          if dirty_add sp c src then obs_gauge_add g_dirty_entries 1.0;
          bump_touch sp wr;
          wal sp (Wal.Dirty { wr; client = src; seq = max seq last; add = true });
          Hashtbl.remove sp.unconfirmed (wr, src);
          ok := wr :: !ok)
    items;
  if Obs.on () then
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:
        [
          ("client", Trace.I src);
          ("ok", Trace.I (List.length !ok));
          ("gone", Trace.I (List.length !gone));
        ]
      "reassert";
  send_env sp ~dst:src
    (Proto.Reassert_ack { ok = List.rev !ok; gone = List.rev !gone })

(* Client side: [gone] surrogates point at objects whose records were
   lost with the owner's unsynced log tail — drop them like a failed
   registration; later calls through retained handles raise
   [Remote_error] and the holder re-imports. *)
let handle_reassert_ack sp ~src ~ok ~gone =
  ignore ok;
  (match Hashtbl.find_opt sp.pending_reassert src with
  | Some iv ->
      Hashtbl.remove sp.pending_reassert src;
      if not (Sched.Ivar.is_filled iv) then Sched.Ivar.fill iv ()
  | None -> ());
  List.iter
    (fun wr ->
      match Wirerep.Tbl.find_opt sp.table wr with
      | Some (Surrogate st) -> (
          match !st with
          | Usable _ ->
              Wirerep.Tbl.remove sp.table wr;
              bump_touch sp wr;
              wal sp (Wal.Surrogate { wr; add = false });
              Itbl.remove sp.roots (Wirerep.key wr);
              Itbl.remove sp.pins (Wirerep.key wr);
              if Obs.on () then
                Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
                  ~args:(obs_wr_args wr) "reassert_gone"
          | Creating _ | Cleaning _ -> ())
      | Some (Concrete _) | None -> ())
    gone

(* Send one reassert per recovered peer, retrying (same items, same
   seqnos: idempotent) until the ack lands. *)
let schedule_reassert sp peer =
  let items =
    Wirerep.Tbl.fold
      (fun (wr : Wirerep.t) entry acc ->
        match entry with
        | Surrogate st when wr.Wirerep.space = peer -> (
            match !st with
            | Usable _ -> (wr, next_seqno sp wr) :: acc
            | Creating _ | Cleaning _ -> acc)
        | Surrogate _ | Concrete _ -> acc)
      sp.table []
  in
  if items <> [] then begin
    (match Hashtbl.find_opt sp.pending_reassert peer with
    | Some old when not (Sched.Ivar.is_filled old) -> Sched.Ivar.fill old ()
    | Some _ | None -> ());
    let iv = Sched.Ivar.create () in
    Hashtbl.replace sp.pending_reassert peer iv;
    let send () =
      if Obs.on () then Metrics.incr m_reassert;
      send_env sp ~dst:peer (Proto.Reassert { items })
    in
    send ();
    let base = Option.value ~default:0.3 sp.rt.config.clean_retry in
    let gen = sp.epoch in
    let rec arm attempt =
      let cancel =
        Sched.timer_cancel (ssched sp)
          ~name:(Printf.sprintf "reassert-%d" sp.id)
          (retry_delay sp ~attempt ~base)
          (fun () ->
            if
              (not sp.crashed) && sp.epoch = gen
              && not (Sched.Ivar.is_filled iv)
            then begin
              count_retry sp "reassert_retry" (fst (List.hd items));
              send ();
              arm (attempt + 1)
            end)
      in
      Sched.Ivar.on_fill iv (fun () -> cancel ())
    in
    arm 0
  end

(* A peer bumped its epoch but kept its continuity floor: same logical
   space, new incarnation.  Keep everything we know about it — but mark
   our dirty entries held *by* it as awaiting confirmation (its own
   surrogate records may have been lost with the unsynced tail), and
   re-assert dirty for the surrogates we hold *from* it. *)
let note_peer_recovered sp peer =
  Hashtbl.remove sp.suspect_since peer;
  (* The peer just proved liveness: treat every outstanding ping as
     answered (the aggregate equivalent of zeroing a miss counter). *)
  let pairs =
    match Hashtbl.find_opt sp.lease peer with
    | None -> []
    | Some l ->
        l.l_acked <- l.l_sent;
        Itbl.fold
          (fun index _ acc -> (Wirerep.v ~space:sp.id ~index, peer) :: acc)
          l.l_objs []
  in
  grace_mark sp pairs;
  schedule_reassert sp peer;
  if Obs.on () then
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:[ ("peer", Trace.I peer); ("entries", Trace.I (List.length pairs)) ]
      "peer_recovered"

(* --- distributed cycle detection -------------------------------------------

   The reference-listing collector cannot reclaim an isolated
   cross-space cycle: every member's dirty set names the next member,
   so each keeps the others alive forever ([mark ~dirty_kept:true]).
   The detector closes that gap asynchronously with trial deletion
   (see [Dgc.Cycles] for the state machine and the safety argument):

   - a background fiber nominates {e suspects} — concretes that have
     been dirty-kept-but-locally-unreachable for [cycle_age] seconds;
   - a {e trial} computes the backward closure of a suspect by querying
     owners and dirty-set members ([Cycle_probe]/[Cycle_reply]); every
     responder is stateless and answers from [mark ~dirty_kept:false]
     plus the target's local touch counter;
   - when the closure is closed and all-quiet, the {e confirm} round
     re-asks everything and demands identical answers (same touch
     counters, same dirty sets, same ancestors, same epochs);
   - only then does the coordinator send fire-and-forget
     [Cycle_commit]s, and each owner still rechecks locally (resident,
     concrete, unreachable, not in its recovery grace window) before
     reclaiming — so a stale, duplicated or misdirected commit is
     harmless, and [handle_packet]'s epoch stamps already drop commits
     that cross a restart or recovery. *)

let node_of_wr (wr : Wirerep.t) =
  { Netobj_dgc.Cycles.nspace = wr.Wirerep.space; nindex = wr.Wirerep.index }

let wr_of_node (n : Netobj_dgc.Cycles.node) =
  Wirerep.v ~space:n.Netobj_dgc.Cycles.nspace ~index:n.Netobj_dgc.Cycles.nindex

(* One space's answers about a batch of trial targets, computed against
   a single [mark ~dirty_kept:false] pass.  Inside the recovery grace
   window everything reports live: recovered state is conservative and
   reasserts are still in flight, so no verdict derived from it can be
   trusted. *)
let cycle_reports sp targets =
  let in_grace = Sched.now (ssched sp) < sp.recover_until in
  let marked = mark sp ~dirty_kept:false in
  let touch_of wr = Itbl.find sp.touch (Wirerep.key wr) ~default:0 in
  (* Does a locally-unreachable, dirty-kept concrete have a slot path to
     [target]?  Those are the target's local retainers: they join the
     trial's closure as new targets. *)
  let reaches src target =
    let seen = Wirerep.Tbl.create 8 in
    let rec go wr =
      Wirerep.equal wr target
      || (not (Wirerep.Tbl.mem seen wr))
         && begin
              Wirerep.Tbl.add seen wr ();
              match Wirerep.Tbl.find_opt sp.table wr with
              | Some (Concrete c) -> List.exists go c.c_slots
              | Some (Surrogate _) | None -> false
            end
    in
    go src
  in
  let ancestors_of target =
    Wirerep.Tbl.fold
      (fun wr entry acc ->
        match entry with
        | Concrete c
          when (not (Wirerep.equal wr target))
               && (not (Itbl.mem marked (Wirerep.key wr)))
               && Itbl.length c.c_dirty > 0
               && reaches wr target ->
            node_of_wr wr :: acc
        | Concrete _ | Surrogate _ -> acc)
      sp.table []
    |> List.sort Netobj_dgc.Cycles.compare_node
  in
  List.map
    (fun (wr : Wirerep.t) ->
      let rep =
        if in_grace then Proto.Cr_live
        else
          match Wirerep.Tbl.find_opt sp.table wr with
          | None -> Proto.Cr_gone
          | Some _ when Itbl.mem marked (Wirerep.key wr) -> Proto.Cr_live
          | Some (Surrogate st) -> (
              match !st with
              (* Transient states are in the middle of a protocol
                 exchange; treat as live and let the trial retry. *)
              | Creating _ | Cleaning _ -> Proto.Cr_live
              | Usable _ ->
                  Proto.Cr_quiet
                    {
                      touch = touch_of wr;
                      dirty = [];
                      ancestors = List.map wr_of_node (ancestors_of wr);
                    })
          | Some (Concrete c) ->
              let dirty =
                Itbl.fold (fun cl _ acc -> cl :: acc) c.c_dirty []
                |> List.sort compare
              in
              Proto.Cr_quiet
                {
                  touch = touch_of wr;
                  dirty;
                  ancestors = List.map wr_of_node (ancestors_of wr);
                }
      in
      (wr, rep))
    targets

let handle_cycle_probe sp ~src ~probe_id ~confirm ~targets =
  ignore confirm;
  let reports = cycle_reports sp targets in
  send_env sp ~dst:src
    (Proto.Cycle_reply { probe_id; epoch = sp.epoch; reports })

let handle_cycle_reply sp ~probe_id ~epoch ~reports =
  match Hashtbl.find_opt sp.pending_cycles probe_id with
  | Some iv ->
      Hashtbl.remove sp.pending_cycles probe_id;
      if not (Sched.Ivar.is_filled iv) then Sched.Ivar.fill iv (epoch, reports)
  | None -> () (* duplicated or post-abort reply *)

(* Owner side of a commit: trust nothing.  The coordinator proved the
   closure garbage at confirm time, but this message may be late — so
   reclaim only what is still a locally-unreachable resident concrete,
   and never inside the grace window. *)
let handle_cycle_commit sp ~wrs =
  if Sched.now (ssched sp) >= sp.recover_until then begin
    let marked = mark sp ~dirty_kept:false in
    List.iter
      (fun (wr : Wirerep.t) ->
        match Wirerep.Tbl.find_opt sp.table wr with
        | Some (Concrete c) when not (Itbl.mem marked (Wirerep.key wr)) ->
            forget_concrete_dirty sp c;
            Wirerep.Tbl.remove sp.table wr;
            bump_touch sp wr;
            Wirerep.Tbl.remove sp.cycle_suspect_since wr;
            wal sp (Wal.Reclaim wr);
            sp.n_reclaimed <- sp.n_reclaimed + 1;
            sp.s_cycle_collected <- sp.s_cycle_collected + 1;
            if Obs.on () then begin
              Metrics.incr m_cycle_collected;
              Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
                ~args:(obs_wr_args wr) "cycle_reclaim"
            end;
            Log.debug (fun m ->
                m "space %d cycle-reclaimed %a" sp.id Wirerep.pp wr)
        | Some _ | None -> ())
      wrs
  end

let handle_envelope sp ~src env =
  if not sp.crashed then
    match env with
    | Proto.Call { call_id; msg_id; needs_ack; target; meth; args; deadline }
      ->
        let obs_id = obs_call_span_id ~client:src call_id in
        if Obs.on () then
          Trace.async_begin (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
            ~args:[ ("meth", Trace.S meth); ("client", Trace.I src) ]
            "serve";
        serve_call sp ~src ~call_id ~msg_id ~needs_ack ~target
          ~meth_name:meth ~args ~deadline;
        if Obs.on () then
          Trace.async_end (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
            "serve"
    | Proto.Reply { call_id; msg_id; needs_ack; result } ->
        handle_reply sp ~call_id ~msg_id ~needs_ack ~result
    | Proto.Copy_ack { msg_id } -> release_pins_for sp msg_id
    | Proto.Dirty { wr; seq } -> handle_dirty sp ~src ~wr ~seq
    | Proto.Dirty_ack { wr; ok } -> handle_dirty_ack sp ~wr ~ok
    | Proto.Clean { wr; seq; strong } -> handle_clean sp ~src ~wr ~seq ~strong
    | Proto.Clean_ack { wr } -> handle_clean_ack sp ~wr
    | Proto.Clean_batch { items } ->
        List.iter (fun (wr, seq) -> apply_clean sp ~src ~wr ~seq) items;
        send_env sp ~dst:src
          (Proto.Clean_batch_ack { wrs = List.map fst items })
    | Proto.Clean_batch_ack { wrs } ->
        List.iter (fun wr -> handle_clean_ack sp ~wr) wrs
    | Proto.Ping { nonce } -> send_env sp ~dst:src (Proto.Ping_ack { nonce })
    | Proto.Ping_ack { nonce } -> handle_ping_ack sp ~src ~nonce
    | Proto.Recover { nonce = _ } ->
        (* The packet header already did the work: [handle_packet] saw
           the epoch bump with an unchanged continuity floor and ran
           [note_peer_recovered].  The body is just a carrier. *)
        ()
    | Proto.Reassert { items } -> handle_reassert sp ~src ~items
    | Proto.Reassert_ack { ok; gone } -> handle_reassert_ack sp ~src ~ok ~gone
    | Proto.Cycle_probe { probe_id; confirm; targets } ->
        handle_cycle_probe sp ~src ~probe_id ~confirm ~targets
    | Proto.Cycle_reply { probe_id; epoch; reports } ->
        handle_cycle_reply sp ~probe_id ~epoch ~reports
    | Proto.Cycle_commit { wrs } -> handle_cycle_commit sp ~wrs
    | Proto.Cancel { call_id; msg_id } -> handle_cancel sp ~src ~call_id ~msg_id
    | Proto.Busy { call_id } -> settle_call sp ~call_id O_busy
    | Proto.Expired { call_id } -> settle_call sp ~call_id O_expired

(* O(clients), not O(table): the lease aggregates are exactly the set
   of clients with a nonempty dirty footprint here.  The result is
   re-buffered through a fresh table, mirroring the shape (and fold
   order) of the historical table-scan implementation. *)
let clients_with_surrogates sp =
  let clients = Hashtbl.create 8 in
  Hashtbl.iter
    (fun cl l -> if Itbl.length l.l_objs > 0 then Hashtbl.replace clients cl ())
    sp.lease;
  Hashtbl.fold (fun cl () acc -> cl :: acc) clients []

(* O(entries held by [client]): walk its lease aggregate rather than
   the whole object table. *)
let evict_client sp client =
  (* The at-most-once reply cache shares the lease aggregate's fate: a
     client evicted here is presumed dead, and its retransmissions —
     should it return — arrive under a fresh epoch anyway. *)
  Hashtbl.remove sp.reply_cache client;
  let removed = ref 0 in
  (match Hashtbl.find_opt sp.lease client with
  | None -> ()
  | Some l ->
      (* Snapshot the indexes: [dirty_remove] mutates [l_objs] (and may
         drop the lease record itself) as we go. *)
      let indexes = Itbl.fold (fun index _ acc -> index :: acc) l.l_objs [] in
      List.iter
        (fun index ->
          let wr = Wirerep.v ~space:sp.id ~index in
          Hashtbl.remove sp.unconfirmed (wr, client);
          match find_concrete sp wr with
          | Some c ->
              if dirty_remove sp c client then begin
                bump_touch sp wr;
                sp.s_evict <- sp.s_evict + 1;
                incr removed
              end
          | None -> Itbl.remove l.l_objs index)
        indexes;
      if Itbl.length l.l_objs = 0 then Hashtbl.remove sp.lease client);
  if !removed > 0 then wal sp (Wal.Evict client);
  if Obs.on () && !removed > 0 then begin
    Metrics.add m_evict !removed;
    obs_gauge_add g_dirty_entries (-.float_of_int !removed);
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:[ ("client", Trace.I client); ("entries", Trace.I !removed) ]
      "evict"
  end

(* --- epoch checking --------------------------------------------------------

   A peer's epoch bump means it restarted: everything we remember about
   its previous incarnation is void.  Owner side, its dirty entries are
   dropped through the lease-eviction path and its sequence-number
   history forgotten (the restarted client counts from 1 again).  Client
   side, our surrogates for its objects point at a heap that no longer
   exists: pending registrations fail, usable surrogates are dropped
   (calls through retained handles raise [Remote_error], prompting the
   holder to re-import via the agent). *)

(* Fail whatever waits on a surrogate whose owner's state is lost:
   cancel a Cleaning entry's retry and fill a pending registration (a
   Creating entry's, or a resurrecting copy's) with false. *)
let fail_surrogate_waiters st =
  match !st with
  | Creating iv ->
      if not (Sched.Ivar.is_filled iv) then Sched.Ivar.fill iv false
  | Cleaning cl -> (
      (match cl.retry_cancel with Some c -> c () | None -> ());
      match cl.resurrect with
      | Some iv when not (Sched.Ivar.is_filled iv) -> Sched.Ivar.fill iv false
      | Some _ | None -> ())
  | Usable _ -> ()

let forget_peer_state sp peer =
  evict_client sp peer;
  wal sp (Wal.Forget peer);
  Wirerep.Tbl.iter
    (fun _ entry ->
      match entry with
      | Concrete c -> Itbl.remove c.c_last_seq peer
      | Surrogate _ -> ())
    sp.table;
  Hashtbl.remove sp.lease peer;
  Hashtbl.remove sp.suspect_since peer;
  let stale = ref [] in
  Wirerep.Tbl.iter
    (fun wr entry ->
      match entry with
      | Surrogate st when wr.Wirerep.space = peer ->
          fail_surrogate_waiters st;
          stale := wr :: !stale
      | Surrogate _ | Concrete _ -> ())
    sp.table;
  List.iter
    (fun wr ->
      Wirerep.Tbl.remove sp.table wr;
      bump_touch sp wr;
      wal sp (Wal.Surrogate { wr; add = false });
      (* Drop root/pin counts with the entry: the restarted peer reuses
         wirerep indices, so a stale count would pin its {e next} object
         under the same wirerep.  Holders still call [release]/[unpin]
         later; both are no-ops on a missing entry. *)
      Itbl.remove sp.roots (Wirerep.key wr);
      Itbl.remove sp.pins (Wirerep.key wr))
    !stale;
  if Obs.on () then
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:[ ("peer", Trace.I peer); ("surrogates", Trace.I (List.length !stale)) ]
      "epoch_forget"

let reject_packet sp ~src ~got ~known reason =
  sp.s_epoch_rejected <- sp.s_epoch_rejected + 1;
  if Obs.on () then begin
    Metrics.incr m_epoch_rejected;
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:
        [
          ("peer", Trace.I src);
          ("got", Trace.I got);
          ("known", Trace.I known);
          ("reason", Trace.S reason);
        ]
      "epoch_reject"
  end

let handle_packet sp ~src (p : Proto.packet) =
  if not sp.crashed then begin
    let known = Option.value ~default:0 (Hashtbl.find_opt sp.peer_epoch src) in
    if p.Proto.src_epoch < known then
      (* A previous incarnation of [src] still talking: ignore it. *)
      reject_packet sp ~src ~got:p.Proto.src_epoch ~known "stale-src"
    else begin
      if p.Proto.src_epoch > known then begin
        Hashtbl.replace sp.peer_epoch src p.Proto.src_epoch;
        wal sp (Wal.Peer { peer = src; epoch = p.Proto.src_epoch });
        (* Two kinds of epoch bump.  If the sender's continuity floor
           moved past the epoch we knew, its new incarnation does not
           carry the state we shared with the old one — amnesia restart,
           forget everything.  If the floor is still at-or-below what we
           knew, it recovered durably: same logical space, reconcile. *)
        if p.Proto.src_cont > known then forget_peer_state sp src
        else note_peer_recovered sp src
      end;
      if p.Proto.dst_epoch < sp.epoch then begin
        (* Mail addressed to our previous incarnation (in flight across
           our restart, or from a peer that has not heard about it).
           Reject it, and ping the sender so it learns our epoch from
           the stamp and re-bootstraps. *)
        reject_packet sp ~src ~got:p.Proto.dst_epoch ~known:sp.epoch
          "stale-dst";
        send_env sp ~dst:src (Proto.Ping { nonce = 0 })
      end
      else handle_envelope sp ~src p.Proto.env
    end
  end

(* --- cycle-trial coordinator ---------------------------------------------- *)

let report_of_proto = function
  | Proto.Cr_live -> Netobj_dgc.Cycles.Cr_live
  | Proto.Cr_gone -> Netobj_dgc.Cycles.Cr_gone
  | Proto.Cr_quiet { touch; dirty; ancestors } ->
      Netobj_dgc.Cycles.Cr_quiet
        { touch; dirty; ancestors = List.map node_of_wr ancestors }

(* Drive one trial to completion from a fiber of [sp].  Queries to [sp]
   itself are answered in place; remote ones ride [Cycle_probe] and park
   on a [pending_cycles] ivar, bounded by [call_timeout] when one is
   configured.  The trial aborts if this space's own epoch moves
   mid-flight (crash, restart, recover) — the coordinator is subject to
   the same moratorium it imposes on responders.  Returns the number of
   objects committed for reclamation (0 on abort). *)
let run_trial sp suspect =
  let module C = Netobj_dgc.Cycles in
  let epoch0 = sp.epoch in
  sp.s_cycle_trials <- sp.s_cycle_trials + 1;
  if Obs.on () then begin
    Metrics.incr m_cycle_trials;
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:(obs_wr_args suspect) "cycle_trial"
  end;
  let trial, initial = C.start (node_of_wr suspect) in
  let exec_query (q : C.query) =
    let targets = List.map wr_of_node q.C.q_targets in
    if q.C.q_space = sp.id then
      let reports = cycle_reports sp targets in
      C.deliver trial ~space:sp.id ~epoch:sp.epoch
        (List.map (fun (wr, r) -> (node_of_wr wr, report_of_proto r)) reports)
    else begin
      let probe_id = sp.next_probe in
      sp.next_probe <- sp.next_probe + 1;
      let iv = Sched.Ivar.create () in
      Hashtbl.replace sp.pending_cycles probe_id iv;
      send_env sp ~dst:q.C.q_space
        (Proto.Cycle_probe
           { probe_id; confirm = C.phase trial = C.Confirming; targets });
      let reply =
        match sp.rt.config.call_timeout with
        | None -> Some (Sched.Ivar.read iv)
        | Some dt -> Sched.read_timeout (ssched sp) iv ~timeout:dt
      in
      Hashtbl.remove sp.pending_cycles probe_id;
      match reply with
      | None ->
          C.abort trial (Fmt.str "space %d probe timed out" q.C.q_space);
          []
      | Some (epoch, reports) ->
          C.deliver trial ~space:q.C.q_space ~epoch
            (List.map
               (fun (wr, r) -> (node_of_wr wr, report_of_proto r))
               reports)
    end
  in
  let rec drive queue =
    match queue with
    | [] -> ()
    | _ when sp.crashed || sp.epoch <> epoch0 ->
        C.abort trial "coordinator epoch moved"
    | _ when sp.rt.config.bug_skip_confirm && C.phase trial = C.Confirming ->
        (* The deliberately-broken variant for the model checker: stop
           here and commit the unconfirmed closure below. *)
        ()
    | _
      when C.phase trial = C.Confirming
           && List.exists (fun n -> n.C.nspace < sp.id) (C.members trial) ->
        (* Lowest-space-id claim: once the probe phase has mapped the
           closure, only the member space with the smallest id confirms
           and commits it.  Concurrent coordinators elsewhere cede here,
           so a cross-space cycle is reclaimed exactly once instead of
           once per member. *)
        C.abort trial
          (Fmt.str "ceded to lower-id coordinator (space %d)"
             (List.fold_left
                (fun a n -> min a n.C.nspace)
                sp.id (C.members trial)))
    | q :: rest -> drive (rest @ exec_query q)
  in
  drive initial;
  let committed =
    if sp.crashed || sp.epoch <> epoch0 then []
    else if
      sp.rt.config.bug_skip_confirm
      && C.outcome trial = C.Pending
      && C.phase trial = C.Confirming
    then C.members trial
    else match C.outcome trial with C.Garbage ns -> ns | _ -> []
  in
  match committed with
  | [] ->
      (match C.outcome trial with
      | C.Aborted reason ->
          sp.s_cycle_aborts <- sp.s_cycle_aborts + 1;
          if Obs.on () then begin
            Metrics.incr m_cycle_aborts;
            Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
              ~args:[ ("reason", Trace.S reason) ]
              "cycle_abort"
          end;
          Log.debug (fun m ->
              m "space %d cycle trial aborted: %s" sp.id reason)
      | C.Pending | C.Garbage _ -> ());
      0
  | ns ->
      List.iter
        (fun (owner, nodes) ->
          let wrs = List.map wr_of_node nodes in
          if owner = sp.id then handle_cycle_commit sp ~wrs
          else send_env sp ~dst:owner (Proto.Cycle_commit { wrs }))
        (C.group_by_space ns);
      List.length ns

(* Suspects: concretes that are locally unreachable yet dirty-kept.
   [cycle_suspect_since] ages them across passes so the demon only
   opens trials for suspects stable for [cycle_age] — young suspects
   are usually just references in transit. *)
let nominate_suspects sp =
  let marked = mark sp ~dirty_kept:false in
  let now = Sched.now (ssched sp) in
  (* Fed by the incremental [dirty_kept] aggregate: O(dirty-kept
     concretes), not a scan of the whole object table. *)
  let current =
    Itbl.fold
      (fun index _ acc ->
        let wr = Wirerep.v ~space:sp.id ~index in
        if Itbl.mem marked (Wirerep.key wr) then acc else wr :: acc)
      sp.dirty_kept []
    |> List.sort Wirerep.compare
  in
  let current_keys = Itbl.create () in
  List.iter (fun wr -> Itbl.replace current_keys (Wirerep.key wr) 1) current;
  let stale =
    Wirerep.Tbl.fold
      (fun wr _ acc ->
        if Itbl.mem current_keys (Wirerep.key wr) then acc else wr :: acc)
      sp.cycle_suspect_since []
  in
  List.iter (Wirerep.Tbl.remove sp.cycle_suspect_since) stale;
  List.iter
    (fun wr ->
      if not (Wirerep.Tbl.mem sp.cycle_suspect_since wr) then
        Wirerep.Tbl.replace sp.cycle_suspect_since wr now)
    current;
  current

(* Seconds a suspect must stay dirty-kept-but-unreachable before the
   periodic demon opens a trial on it. *)
let cycle_age = 0.75

let aged_suspects sp =
  let now = Sched.now (ssched sp) in
  List.filter
    (fun wr ->
      match Wirerep.Tbl.find_opt sp.cycle_suspect_since wr with
      | Some t0 -> now -. t0 >= cycle_age
      | None -> false)
    (nominate_suspects sp)

(* One synchronous detector pass: open a trial for every current
   suspect (no ageing — this is the driver for tests and the model
   checker, where periodic demons would never quiesce).  Must run
   inside a fiber. *)
let cycle_collect sp =
  if sp.crashed || Sched.now (ssched sp) < sp.recover_until then 0
  else
    List.fold_left
      (fun acc wr ->
        (* an earlier trial in this pass may have committed it already *)
        if Wirerep.Tbl.mem sp.table wr then acc + run_trial sp wr else acc)
      0 (nominate_suspects sp)

let cycle_demon sp gen period () =
  (* Backpressure: open at most [batch] trials per pass, and when a
     backlog remains come back at a quarter of the configured cadence —
     a deep suspect queue drains without one pass monopolising the
     space, and an idle detector stays at its configured period. *)
  let batch = 32 in
  let rec loop delay =
    Sched.sleep (ssched sp) delay;
    if (not sp.crashed) && sp.epoch = gen then begin
      let backlog =
        Sched.now (ssched sp) >= sp.recover_until
        &&
        let rec work n = function
          | [] -> false
          | _ :: _ when n = 0 -> true
          | wr :: rest ->
              if
                (not sp.crashed) && sp.epoch = gen
                && Wirerep.Tbl.mem sp.table wr
              then ignore (run_trial sp wr : int);
              work (n - 1) rest
        in
        work batch (aged_suspects sp)
      in
      loop (if backlog then Float.max (period /. 4.0) 0.01 else period)
    end
  in
  loop period

(* Demons carry the epoch they were spawned for and exit as soon as the
   space's epoch moves on: [restart] spawns a fresh set, and without the
   guard an old demon sleeping across the crash+restart window would wake
   up alongside its replacement. *)

(* A lease expires after [lease_misses] consecutive unanswered pings,
   but with a configured [lease_grace] the client is only marked suspect
   and kept pinged for that much longer before eviction — so a healed
   transient partition keeps the lease (TR §2.4's tradeoff between
   promptness and tolerance). *)
let ping_demon sp gen period () =
  let rec loop () =
    Sched.sleep (ssched sp) period;
    if (not sp.crashed) && sp.epoch = gen then begin
      let grace = sp.rt.config.lease_grace in
      (* One nonce per tick, shared by every (client, owner) heartbeat:
         the epoch rides the high bits so acks from a previous
         incarnation can never match (the sequence restarts at 1 after
         a restart, but under a fresh epoch). *)
      let seq = sp.next_ping in
      sp.next_ping <- seq + 1;
      let nonce = lease_nonce sp seq in
      let clients = clients_with_surrogates sp in
      List.iter
        (fun cl ->
          let l = lease_of sp cl in
          (* Outstanding unanswered pings, derived from the aggregate:
             equals the historical per-tick miss counter whenever acks
             return within a period. *)
          let missed = nonce_seq l.l_sent - nonce_seq l.l_acked + 1 in
          let expired =
            missed > sp.rt.config.lease_misses
            &&
            if grace <= 0.0 then true
            else begin
              let now = Sched.now (ssched sp) in
              match Hashtbl.find_opt sp.suspect_since cl with
              | None ->
                  Hashtbl.replace sp.suspect_since cl now;
                  if Obs.on () then
                    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
                      ~args:[ ("client", Trace.I cl) ]
                      "suspect";
                  false
              | Some t0 -> now -. t0 >= grace
            end
          in
          if expired then begin
            Log.info (fun m -> m "space %d: evicting client %d" sp.id cl);
            evict_client sp cl;
            Hashtbl.remove sp.suspect_since cl
          end
          else begin
            sp.s_ping <- sp.s_ping + 1;
            if Obs.on () then begin
              Metrics.incr m_ping;
              Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
                ~args:[ ("client", Trace.I cl); ("missed", Trace.I missed) ]
                "ping"
            end;
            l.l_sent <- nonce;
            send_env sp ~dst:cl (Proto.Ping { nonce })
          end)
        clients;
      loop ()
    end
  in
  loop ()

let gc_demon sp gen period () =
  let rec loop () =
    Sched.sleep (ssched sp) period;
    if (not sp.crashed) && sp.epoch = gen then begin
      collect sp;
      loop ()
    end
  in
  loop ()

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

let unlink sp ~parent ~child =
  match Wirerep.Tbl.find_opt sp.table parent.wr with
  | Some (Concrete c) ->
      let rec remove_one = function
        | [] -> []
        | wr :: rest ->
            if Wirerep.equal wr child.wr then rest else wr :: remove_one rest
      in
      c.c_slots <- remove_one c.c_slots;
      wal sp (Wal.Link { parent = parent.wr; child = child.wr; add = false })
  | Some (Surrogate _) | None ->
      invalid_arg "Runtime.unlink: parent is not a local concrete object"

(* --- invocation ------------------------------------------------------------ *)

let fresh_call_id sp =
  let id = sp.next_call in
  sp.next_call <- sp.next_call + 1;
  id

(* Wait until a surrogate is usable (it may be mid-resurrection). *)
let await_usable sp h =
  match Wirerep.Tbl.find_opt sp.table h.wr with
  | Some (Concrete _) -> ()
  | Some (Surrogate st) -> (
      match !st with
      | Usable _ -> ()
      | Creating iv | Cleaning { resurrect = Some iv; _ } ->
          if not (Sched.Ivar.read iv) then
            raise (Remote_error "surrogate registration failed")
      | Cleaning { resurrect = None; _ } ->
          raise (Remote_error "surrogate is being cleaned up"))
  | None -> raise (Remote_error "dangling handle (surrogate collected)")

(* Local invocation: the owner calls one of its own objects.  Runs the
   same three phases without touching the network. *)
let invoke_local sp c ~meth:meth_name ~encode ~decode =
  let m = lookup_meth c meth_name in
  let msg_id, _, payload = encode_with_pins sp encode in
  let compute, acquired, pending =
    decode_with_acquire sp payload (fun r -> m.m_run sp r)
  in
  await_registrations sp pending;
  release_pins_for sp msg_id;
  let fill = compute () in
  let rmsg_id, _, rpayload = encode_with_pins sp fill in
  let (v, racq, rpend) = decode_with_acquire sp rpayload decode in
  await_registrations sp rpend;
  release_pins_for sp rmsg_id;
  List.iter (unpin sp) acquired;
  (* The caller owns the result's references. *)
  List.iter
    (fun wr ->
      root sp wr;
      unpin sp wr)
    racq;
  v

let invoke_raw sp h ~meth:meth_name ~encode ~decode =
  if sp.crashed then raise (Remote_error "calling space has crashed");
  match Wirerep.Tbl.find_opt sp.table h.wr with
  | Some (Concrete c) -> invoke_local sp c ~meth:meth_name ~encode ~decode
  | Some (Surrogate _) | None -> (
      await_usable sp h;
      let call_id = fresh_call_id sp in
      let obs_id = obs_call_span_id ~client:sp.id call_id in
      if Obs.on () then begin
        Metrics.incr m_calls;
        Trace.async_begin (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
          ~args:
            (("meth", Trace.S meth_name)
            :: [
                 ("target_owner", Trace.I h.wr.Wirerep.space);
                 ("target_index", Trace.I h.wr.Wirerep.index);
               ])
          "call"
      end;
      let cfg = sp.rt.config in
      let sched = ssched sp in
      let owner = h.wr.Wirerep.space in
      (* Effective deadline: the tighter of the budget inherited from
         the call this fiber is itself serving (fiber-local binding set
         by [serve_call]) and this space's configured per-call
         deadline. *)
      let until =
        let inherited = Sched.Fls.get sched deadline_key in
        let configured =
          match cfg.deadline with
          | Some d -> Some (Sched.now sched +. d)
          | None -> None
        in
        match (inherited, configured) with
        | Some a, Some b -> Some (Float.min a b)
        | (Some _ as s), None | None, (Some _ as s) -> s
        | None, None -> None
      in
      let t0 = Sched.now sched in
      let retries = cfg.call_retries in
      let timeout_exn ~attempts ~server_side =
        let elapsed = Sched.now sched -. t0 in
        Timeout
          (Printf.sprintf
             "call %s: %s after %d attempt%s, %.3fs elapsed (timeout %s, \
              deadline %s)"
             meth_name
             (if server_side then "deadline expired at owner" else "no reply")
             attempts
             (if attempts = 1 then "" else "s")
             elapsed
             (match cfg.call_timeout with
             | Some d -> Printf.sprintf "%.3fs" d
             | None -> "none")
             (match until with
             | Some u -> Printf.sprintf "%.3fs" (u -. t0)
             | None -> "none"))
      in
      let msg_id, has_refs, args = encode_with_pins sp encode in
      let send_attempt () =
        (* The envelope carries the remaining budget as a relative
           duration (meaningful between processes with independent
           clocks); 0. means no deadline. *)
        let budget =
          match until with
          | Some u -> Float.max 1e-9 (u -. Sched.now sched)
          | None -> 0.
        in
        send_env sp ~dst:owner
          (Proto.Call
             {
               call_id;
               msg_id;
               needs_ack = has_refs;
               target = h.wr;
               meth = meth_name;
               args;
               deadline = budget;
             })
      in
      let abandon ~attempts ~server_side =
        Hashtbl.remove sp.pending_calls call_id;
        (* Tell the owner to settle the abandoned call: drop its cached
           reply or suppress the in-flight one, releasing the reply's
           transient pins now rather than at [pin_timeout].  Only when
           the plane is armed — the classic configuration must stay
           byte-identical on the wire. *)
        if reliability_on sp && attempts > 0 then
          send_env sp ~dst:owner (Proto.Cancel { call_id; msg_id });
        if Obs.on () then
          Trace.async_end (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
            ~args:[ ("timeout", Trace.I 1) ]
            "call";
        raise (timeout_exn ~attempts ~server_side)
      in
      let budget_left () =
        match until with Some u -> Sched.now sched < u | None -> true
      in
      let rec attempt k =
        if not (budget_left ()) then abandon ~attempts:k ~server_side:false
        else begin
          (* Fresh ivar per attempt; a straggling settlement for a
             removed ivar is dropped by [settle_call].  Retransmissions
             reuse the call_id, msg_id and encoded args — the owner's
             dedup keys on them. *)
          let iv = Sched.Ivar.create () in
          Hashtbl.replace sp.pending_calls call_id iv;
          send_attempt ();
          let dt =
            let per_attempt =
              match cfg.call_timeout with
              | None -> None
              | Some b ->
                  (* Attempt [k]'s window doubles as the retransmission
                     timer, following the capped/jittered backoff
                     schedule.  With retries off it is exactly the
                     classic [call_timeout] — and draws no jitter, so
                     runs that never retry replay unperturbed. *)
                  Some
                    (if retries = 0 then b
                     else retry_delay sp ~attempt:k ~base:b)
            in
            match (per_attempt, until) with
            | None, None -> None
            | Some d, None -> Some d
            | None, Some u -> Some (u -. Sched.now sched)
            | Some d, Some u -> Some (Float.min d (u -. Sched.now sched))
          in
          let outcome =
            match dt with
            | None -> Some (Sched.Ivar.read iv)
            | Some d when d <= 0. -> None
            | Some d -> Sched.read_timeout sched iv ~timeout:d
          in
          match outcome with
          | Some (O_reply (rmsg_id, rneeds_ack, result)) ->
              (rmsg_id, rneeds_ack, result)
          | Some O_expired ->
              (* Server-side rejection: the budget is gone, retrying
                 cannot help. *)
              abandon ~attempts:(k + 1) ~server_side:true
          | Some O_busy ->
              Hashtbl.remove sp.pending_calls call_id;
              if k < retries && budget_left () then begin
                (* Retryable-with-backoff: wait out the owner's burst
                   before the next attempt. *)
                count_call_retry sp;
                let base = Option.value cfg.call_timeout ~default:0.01 in
                let pause =
                  let d = retry_delay sp ~attempt:k ~base in
                  match until with
                  | Some u -> Float.min d (u -. Sched.now sched)
                  | None -> d
                in
                if pause > 0. then Sched.sleep sched pause;
                attempt (k + 1)
              end
              else begin
                if Obs.on () then
                  Trace.async_end (Obs.trace ()) ~cat:"rpc" ~space:sp.id
                    ~id:obs_id
                    ~args:[ ("busy", Trace.I 1) ]
                    "call";
                raise
                  (Remote_error
                     (Printf.sprintf
                        "call %s: shed by busy owner %d (%d attempt%s)"
                        meth_name owner (k + 1)
                        (if k = 0 then "" else "s")))
              end
          | None ->
              if k < retries && budget_left () then begin
                count_call_retry sp;
                attempt (k + 1)
              end
              else abandon ~attempts:(k + 1) ~server_side:false
        end
      in
      let rmsg_id, rneeds_ack, result = attempt 0 in
      if Obs.on () then
        Trace.async_end (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
          ~args:
            [ ("ok", Trace.I (match result with Ok _ -> 1 | Error _ -> 0)) ]
          "call";
      let ack_reply () =
        if rneeds_ack then send_copy_ack sp ~dst:h.wr.Wirerep.space rmsg_id
      in
      match result with
      | Error e -> raise (Remote_error e)
      | Ok payload ->
          let v, acquired, pending = decode_with_acquire sp payload decode in
          (match await_registrations sp pending with
          | () -> ()
          | exception e ->
              ack_reply ();
              List.iter (unpin sp) acquired;
              raise e);
          ack_reply ();
          (* Transfer: pins become caller-owned roots. *)
          List.iter
            (fun wr ->
              root sp wr;
              unpin sp wr)
            acquired;
          v)

(* --- agent (name service) -------------------------------------------------- *)

let agent_table sp = sp.bindings

(* The agent's own heap slots keep published objects locally reachable;
   rebinding a name unlinks the object it previously kept alive.
   [agent_bind_nolog] is the raw state change, shared with recovery
   replay (which must not re-append the records it is replaying). *)
let agent_bind_nolog sp name wr =
  let agent_wr = Wirerep.v ~space:sp.id ~index:0 in
  (match Wirerep.Tbl.find_opt sp.table agent_wr with
  | Some (Concrete agent) ->
      (match Hashtbl.find_opt sp.bindings name with
      | Some old ->
          let rec remove_one = function
            | [] -> []
            | x :: rest -> if Wirerep.equal x old then rest else x :: remove_one rest
          in
          agent.c_slots <- remove_one agent.c_slots
      | None -> ());
      agent.c_slots <- wr :: agent.c_slots
  | Some (Surrogate _) | None -> ());
  Hashtbl.replace sp.bindings name wr

let agent_bind sp name wr =
  agent_bind_nolog sp name wr;
  wal sp (Wal.Bind { name; wr })

let agent_publish_meth =
  meth "publish" (fun sp r ->
      let name = Pickle.read Pickle.string r in
      let h = Pickle.read handle_codec r in
      fun () ->
        agent_bind sp name h.wr;
        fun _w -> ())

let agent_lookup_meth =
  meth "lookup" (fun sp r ->
      let name = Pickle.read Pickle.string r in
      fun () ->
        match Hashtbl.find_opt (agent_table sp) name with
        | Some wr ->
            fun w ->
              Pickle.write Pickle.bool w true;
              Pickle.write handle_codec w { wr }
        | None -> fun w -> Pickle.write Pickle.bool w false)

let publish sp name h = agent_bind sp name h.wr

let unbind_nolog sp name =
  match Hashtbl.find_opt sp.bindings name with
  | None -> ()
  | Some old ->
      let agent_wr = Wirerep.v ~space:sp.id ~index:0 in
      (match Wirerep.Tbl.find_opt sp.table agent_wr with
      | Some (Concrete agent) ->
          let rec remove_one = function
            | [] -> []
            | x :: rest ->
                if Wirerep.equal x old then rest else x :: remove_one rest
          in
          agent.c_slots <- remove_one agent.c_slots
      | Some (Surrogate _) | None -> ());
      Hashtbl.remove sp.bindings name

let unpublish sp name =
  if Hashtbl.mem sp.bindings name then begin
    unbind_nolog sp name;
    wal sp (Wal.Unbind name)
  end

(* Import a well-known wireRep (the remote agent) by running the normal
   registration protocol on it. *)
let import_wr sp wr =
  if wr.Wirerep.space = sp.id then begin
    (* Owned-handle semantics: callers release what import returns, so
       take a root even on the local fast path. *)
    root sp wr;
    { wr }
  end
  else begin
    pin sp wr;
    (match acquire_surrogate sp wr with
    | None -> ()
    | Some iv ->
        let ok =
          match sp.rt.config.dirty_timeout with
          | None -> Sched.Ivar.read iv
          | Some dt -> (
              match Sched.read_timeout (ssched sp) iv ~timeout:dt with
              | Some ok -> ok
              | None ->
                  unpin sp wr;
                  raise (Timeout "dirty call (import)"))
        in
        if not ok then begin
          unpin sp wr;
          raise (Remote_error "import failed")
        end);
    root sp wr;
    unpin sp wr;
    { wr }
  end

let lookup sp ~at name =
  let agent = import_wr sp (Wirerep.v ~space:at ~index:0) in
  let call () =
    invoke_raw sp agent ~meth:"lookup"
      ~encode:(fun w -> Pickle.write Pickle.string w name)
      ~decode:(fun r ->
        if Pickle.read Pickle.bool r then Some (Pickle.read handle_codec r)
        else None)
  in
  (* The agent root must not outlive the call: a [Timeout] or
     [Remote_error] escaping here would otherwise leave the agent
     surrogate rooted forever, keeping a dirty entry at the owner.
     [bug_lookup_leak] reintroduces exactly that historical bug (release
     only on the success path) as a known-bug target for the model
     checker's schedules-to-first-bug benchmark. *)
  let result =
    if sp.rt.config.bug_lookup_leak then begin
      let r = call () in
      release sp agent;
      r
    end
    else Fun.protect ~finally:(fun () -> release sp agent) call
  in
  match result with
  | Some h -> h
  | None -> raise (Remote_error (Printf.sprintf "lookup: no binding for %s" name))

(* --- sharded agent ---------------------------------------------------------

   Every space already runs a well-known agent at index 0; sharding
   statically partitions the namespace across all of them by name hash.
   The home of a name is a pure function of the name and the space
   count, so any space routes publishes and lookups without
   coordination and a lookup storm spreads over every owner instead of
   serialising on one. *)

let agent_home rt name = Hashtbl.hash name mod Array.length rt.space_arr

let publish_sharded sp name h =
  let home = agent_home sp.rt name in
  if home = sp.id then publish sp name h
  else begin
    let agent = import_wr sp (Wirerep.v ~space:home ~index:0) in
    Fun.protect
      ~finally:(fun () -> release sp agent)
      (fun () ->
        invoke_raw sp agent ~meth:"publish"
          ~encode:(fun w ->
            Pickle.write Pickle.string w name;
            Pickle.write handle_codec w h)
          ~decode:(fun _ -> ()))
  end

let lookup_sharded sp name = lookup sp ~at:(agent_home sp.rt name) name

(* --- system construction ---------------------------------------------------- *)

let crash rt i =
  let sp = space rt i in
  sp.crashed <- true;
  Transport.crash (stransport sp) i

(* --- durable snapshots -------------------------------------------------

   A snapshot is the whole durable image at one commit point; taking one
   truncates the log (and, as a group commit, flushes the write cache,
   releasing any queued barriers).  Only committed protocol state goes
   in: usable surrogates and dirty entries with their idempotence
   watermarks, never [Creating]/[Cleaning] transients (those re-run or
   are re-asserted after recovery). *)

let build_snapshot sp =
  let concretes = ref [] and surrogates = ref [] in
  Wirerep.Tbl.iter
    (fun wr entry ->
      match entry with
      | Concrete c ->
          let c_dirty =
            Itbl.fold
              (fun client _ acc ->
                (client, Itbl.find c.c_last_seq client ~default:0) :: acc)
              c.c_dirty []
          in
          concretes :=
            { Wal.c_wr = wr; c_tag = c.c_tag; c_slots = c.c_slots; c_dirty }
            :: !concretes
      | Surrogate st -> (
          match !st with
          | Usable _ -> surrogates := wr :: !surrogates
          | Creating _ | Cleaning _ -> ()))
    sp.table;
  {
    Wal.s_epoch = sp.epoch;
    s_cont = sp.cont;
    s_next_index = sp.next_index;
    s_next_msg = sp.next_msg;
    s_next_call = sp.next_call;
    s_peers = Hashtbl.fold (fun p e acc -> (p, e) :: acc) sp.peer_epoch [];
    s_concretes = !concretes;
    s_surrogates = !surrogates;
    s_roots =
      Itbl.fold (fun k r acc -> (Wirerep.of_key k, r) :: acc) sp.roots [];
    s_pins =
      Hashtbl.fold
        (fun (m : Proto.msg_id) wrs acc -> (m.Proto.seq, wrs) :: acc)
        sp.tdirty [];
    s_seqno =
      Itbl.fold (fun k n acc -> (Wirerep.of_key k, n) :: acc) sp.seqno [];
    s_bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) sp.bindings [];
  }

let take_snapshot sp =
  match sp.store with
  | None -> ()
  | Some st ->
      Store.snapshot st (Pickle.encode Wal.snapshot_codec (build_snapshot sp))

let spawn_periodic_demons sp =
  let gen = sp.epoch in
  let sched = (ssched sp) in
  (match (sp.rt.config.snapshot_period, sp.store) with
  | Some p, Some _ ->
      Sched.spawn sched
        ~name:(Printf.sprintf "snap-demon-%d.%d" sp.id gen)
        (fun () ->
          let rec loop () =
            Sched.sleep sched p;
            if (not sp.crashed) && sp.epoch = gen then begin
              take_snapshot sp;
              loop ()
            end
          in
          loop ())
  | (Some _ | None), _ -> ());
  (match sp.rt.config.gc_period with
  | Some p ->
      Sched.spawn sched
        ~name:(Printf.sprintf "gc-demon-%d.%d" sp.id gen)
        (gc_demon sp gen p)
  | None -> ());
  (match sp.rt.config.cycle_period with
  | Some p ->
      Sched.spawn sched
        ~name:(Printf.sprintf "cycle-demon-%d.%d" sp.id gen)
        (cycle_demon sp gen p)
  | None -> ());
  match sp.rt.config.ping_period with
  | Some p ->
      Sched.spawn sched
        ~name:(Printf.sprintf "ping-demon-%d.%d" sp.id gen)
        (ping_demon sp gen p)
  | None -> ()

let make_space rt id =
  let shard = Engine.shard_of_space rt.engine id in
  {
    id;
    rt;
    shard;
    table = Wirerep.Tbl.create 64;
    next_index = 0;
    next_msg = 0;
    next_call = 0;
    roots = Itbl.create ~size:16 ();
    pins = Itbl.create ~size:16 ();
    tdirty = Hashtbl.create 16;
    pending_calls = Hashtbl.create 16;
    clean_mb = Sched.Mailbox.create ();
    seqno = Itbl.create ~size:16 ();
    bindings = Hashtbl.create 8;
    lease = Hashtbl.create 8;
    dirty_kept = Itbl.create ~size:16 ();
    next_ping = 1;
    suspect_since = Hashtbl.create 8;
    epoch = 0;
    cont = 0;
    peer_epoch = Hashtbl.create 8;
    store =
      (if rt.config.durable then
         Some
           (Store.create ~sched:shard.Engine.s_sched
              ~fsync_delay:rt.config.fsync_delay
              ~id ())
       else None);
    unconfirmed = Hashtbl.create 8;
    pending_reassert = Hashtbl.create 4;
    recover_until = 0.0;
    crashed = false;
    n_collections = 0;
    n_reclaimed = 0;
    s_dirty = 0;
    s_clean = 0;
    s_copy_ack = 0;
    s_ping = 0;
    s_evict = 0;
    s_epoch_rejected = 0;
    s_retries = 0;
    s_stale_acks = 0;
    reply_cache = Hashtbl.create 8;
    inflight = Hashtbl.create 16;
    inflight_count = 0;
    s_call_retried = 0;
    s_call_deduped = 0;
    s_call_shed = 0;
    s_call_cancelled = 0;
    s_call_expired = 0;
    s_call_executed = 0;
    touch = Itbl.create ~size:64 ();
    cycle_suspect_since = Wirerep.Tbl.create 16;
    pending_cycles = Hashtbl.create 8;
    next_probe = 0;
    s_cycle_trials = 0;
    s_cycle_aborts = 0;
    s_cycle_collected = 0;
  }

let create (config : config) =
  let engine_mod =
    match config.engine with
    | Some m -> m
    | None -> (module Engine_sim : Engine.S)
  in
  let engine =
    Engine.make engine_mod
      {
        Engine.p_seed = config.seed;
        p_nspaces = config.nspaces;
        p_policy = config.policy;
        p_edge = config.edge;
        p_domains = config.domains;
        p_mk_transport = config.transport;
      }
  in
  let shards = Engine.shards engine in
  let rt =
    {
      config;
      engine;
      shards;
      (* Distinct streams from the networks': retries must not perturb
         the latency/loss draws of runs that never retry.  Shard 0 keeps
         the historical derivation so recorded schedules replay. *)
      retry_rngs =
        Array.init (Array.length shards) (fun k ->
            Rng.create
              (Int64.add
                 (Int64.logxor config.seed 0x9E3779B97F4A7C15L)
                 (Int64.of_int k)));
      space_arr = [||];
      factories = Hashtbl.create 4;
    }
  in
  Hashtbl.replace rt.factories "agent" (fun () ->
      [ agent_publish_meth; agent_lookup_meth ]);
  rt.space_arr <- Array.init config.nspaces (make_space rt);
  Array.iter
    (fun sp ->
      (* The agent object occupies the well-known index 0 of each space
         and is permanently rooted. *)
      let agent =
        allocate sp ~tag:"agent"
          ~meths:[ agent_publish_meth; agent_lookup_meth ]
      in
      assert (agent.wr.Wirerep.index = 0);
      Transport.set_handler (stransport sp) sp.id
        (fun ~src ~kind:_ ~payload ~off ~len ->
          match Pickle.decode_slice Proto.packet_codec payload ~off ~len with
          | p -> handle_packet sp ~src p
          | exception (Wire.Error _ as e) ->
              Log.err (fun m ->
                  m "space %d: malformed envelope from %d: %s" sp.id src
                    (Printexc.to_string e)));
      (match config.clean_batch with
      | Some window ->
          Sched.spawn (ssched sp)
            ~name:(Printf.sprintf "clean-demon-%d" sp.id)
            (cleaning_demon_batched sp window)
      | None ->
          Sched.spawn (ssched sp)
            ~name:(Printf.sprintf "clean-demon-%d" sp.id)
            (cleaning_demon sp));
      spawn_periodic_demons sp)
    rt.space_arr;
  rt

(* Unwind a crashed incarnation and clear its volatile state, ahead of
   [restart] (amnesia) or [recover] (replay) rebuilding it.  The dead
   incarnation's fibers are released in a fixed order — pending calls
   (failed with [reason]), surrogate waiters, pending reasserts, pending
   cycle trials — because each fill puts its waiters on the run queue.
   A rebooted process has no memory of its peers' incarnations either;
   forgetting is safe because there is no state left to protect.
   Detector state is soft and epoch-scoped: touch counters and suspicion
   ages may restart from zero because every in-flight trial that heard
   from the old incarnation aborts on the epoch bump. *)
let reset_incarnation sp ~reason =
  Hashtbl.iter
    (fun _ iv ->
      if not (Sched.Ivar.is_filled iv) then
        Sched.Ivar.fill iv
          (O_reply ({ Proto.origin = sp.id; seq = 0 }, false, Error reason)))
    sp.pending_calls;
  Wirerep.Tbl.iter
    (fun _ entry ->
      match entry with
      | Surrogate st -> fail_surrogate_waiters st
      | Concrete _ -> ())
    sp.table;
  Hashtbl.iter
    (fun _ iv -> if not (Sched.Ivar.is_filled iv) then Sched.Ivar.fill iv ())
    sp.pending_reassert;
  Hashtbl.iter
    (fun _ iv ->
      if not (Sched.Ivar.is_filled iv) then Sched.Ivar.fill iv (sp.epoch, []))
    sp.pending_cycles;
  Wirerep.Tbl.reset sp.table;
  Itbl.reset sp.roots;
  Itbl.reset sp.pins;
  Hashtbl.reset sp.tdirty;
  Hashtbl.reset sp.pending_calls;
  Hashtbl.reset sp.reply_cache;
  Hashtbl.reset sp.inflight;
  sp.inflight_count <- 0;
  Itbl.reset sp.seqno;
  Hashtbl.reset sp.bindings;
  Hashtbl.reset sp.lease;
  Itbl.reset sp.dirty_kept;
  sp.next_ping <- 1;
  Hashtbl.reset sp.suspect_since;
  Hashtbl.reset sp.peer_epoch;
  Hashtbl.reset sp.pending_reassert;
  Hashtbl.reset sp.unconfirmed;
  Itbl.reset sp.touch;
  Wirerep.Tbl.reset sp.cycle_suspect_since;
  Hashtbl.reset sp.pending_cycles;
  let rec drain_mb () =
    match Sched.Mailbox.try_recv sp.clean_mb with
    | Some _ -> drain_mb ()
    | None -> ()
  in
  drain_mb ();
  sp.next_index <- 0;
  sp.next_msg <- 0;
  sp.next_call <- 0

(* A restarted space comes back with an empty heap, a bumped epoch and a
   fresh agent, exactly like a process that rebooted: all distributed
   state about it is recovered protocol-side (owners evict its old dirty
   entries on the epoch bump or via the lease, clients re-import through
   the agent).  Fibers of the old incarnation parked on its ivars are
   failed so they unwind; the cleaning demon survives (it re-checks the
   table on every message), while gc/ping demons are respawned under the
   new epoch. *)
let restart rt i =
  let sp = space rt i in
  if not sp.crashed then invalid_arg "Runtime.restart: space is not crashed";
  reset_incarnation sp ~reason:"space restarted";
  sp.recover_until <- 0.0;
  sp.epoch <- sp.epoch + 1;
  (* Amnesia: the new incarnation carries no earlier state, so the
     continuity floor rises with the epoch and peers know to forget.
     The durable image is wiped accordingly — recovering *after* an
     amnesia restart must not resurrect the pre-restart heap. *)
  sp.cont <- sp.epoch;
  (match sp.store with
  | Some st ->
      Store.wipe st;
      wal sp (Wal.Epoch { epoch = sp.epoch; cont = sp.cont });
      Store.sync st
  | None -> ());
  sp.crashed <- false;
  Transport.restore (stransport sp) i;
  let agent =
    allocate sp ~tag:"agent" ~meths:[ agent_publish_meth; agent_lookup_meth ]
  in
  assert (agent.wr.Wirerep.index = 0);
  spawn_periodic_demons sp;
  if Obs.on () then begin
    Metrics.incr m_restart;
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:[ ("epoch", Trace.I sp.epoch) ]
      "restart"
  end;
  Log.info (fun m -> m "space %d restarted (epoch %d)" sp.id sp.epoch)

(* --- crash-consistent recovery ---------------------------------------------

   Unlike [restart] (amnesia: empty heap, raised continuity floor),
   [recover] brings the {e same logical incarnation} back from its
   durable image.  Replay the snapshot, then the log suffix, in order;
   bump the epoch for packet freshness but keep the continuity floor so
   peers reconcile instead of forgetting; then run the reassert
   handshake under a grace window during which the collector stands
   down and every recovered dirty entry waits for re-confirmation. *)

let replay_record sp r =
  let rec remove_one x = function
    | [] -> []
    | y :: rest -> if Wirerep.equal x y then rest else y :: remove_one x rest
  in
  match r with
  | Wal.Epoch { epoch; cont } ->
      sp.epoch <- epoch;
      sp.cont <- cont
  | Wal.Export { wr; tag } ->
      let meths =
        match Hashtbl.find_opt sp.rt.factories tag with
        | Some f -> f ()
        | None -> []
      in
      (* An overwritten concrete's dirty set leaves the aggregates with
         its table entry. *)
      (match find_concrete sp wr with
      | Some old -> forget_concrete_dirty sp old
      | None -> ());
      Wirerep.Tbl.replace sp.table wr
        (Concrete
           {
             c_wr = wr;
             c_tag = tag;
             c_meths = List.map (fun m -> (m.m_name, m)) meths;
             c_slots = [];
             c_dirty = Itbl.create ();
             c_last_seq = Itbl.create ();
           });
      if wr.Wirerep.index >= sp.next_index then
        sp.next_index <- wr.Wirerep.index + 1
  | Wal.Reclaim wr ->
      (match find_concrete sp wr with
      | Some old -> forget_concrete_dirty sp old
      | None -> ());
      Wirerep.Tbl.remove sp.table wr
  | Wal.Root { wr; delta } ->
      if delta > 0 then bump sp.roots wr else unbump sp.roots wr
  | Wal.Link { parent; child; add } -> (
      match find_concrete sp parent with
      | Some c ->
          if add then c.c_slots <- child :: c.c_slots
          else c.c_slots <- remove_one child c.c_slots
      | None -> ())
  | Wal.Bind { name; wr } -> agent_bind_nolog sp name wr
  | Wal.Unbind name -> unbind_nolog sp name
  | Wal.Dirty { wr; client; seq; add } -> (
      match find_concrete sp wr with
      | Some c ->
          if seq > Itbl.find c.c_last_seq client ~default:0 then
            Itbl.replace c.c_last_seq client seq;
          if add then ignore (dirty_add sp c client : bool)
          else ignore (dirty_remove sp c client : bool)
      | None -> ())
  | Wal.Evict client -> (
      match Hashtbl.find_opt sp.lease client with
      | None -> ()
      | Some l ->
          let indexes = Itbl.fold (fun i _ acc -> i :: acc) l.l_objs [] in
          List.iter
            (fun index ->
              match find_concrete sp (Wirerep.v ~space:sp.id ~index) with
              | Some c -> ignore (dirty_remove sp c client : bool)
              | None -> Itbl.remove l.l_objs index)
            indexes;
          if Itbl.length l.l_objs = 0 then Hashtbl.remove sp.lease client)
  | Wal.Forget client ->
      Wirerep.Tbl.iter
        (fun _ e ->
          match e with
          | Concrete c ->
              ignore (dirty_remove sp c client : bool);
              Itbl.remove c.c_last_seq client
          | Surrogate _ -> ())
        sp.table;
      Hashtbl.remove sp.lease client
  | Wal.Surrogate { wr; add } ->
      if add then
        Wirerep.Tbl.replace sp.table wr
          (Surrogate (ref (Usable { clean_scheduled = false })))
      else begin
        Wirerep.Tbl.remove sp.table wr;
        (* mirrors the live forget/reassert-gone paths, which drop the
           counts wholesale rather than via Root deltas *)
        Itbl.remove sp.roots (Wirerep.key wr);
        Itbl.remove sp.pins (Wirerep.key wr)
      end
  | Wal.Seqno { wr; n } ->
      let k = Wirerep.key wr in
      if n > Itbl.find sp.seqno k ~default:0 then Itbl.replace sp.seqno k n
  | Wal.Pins { msg; wrs } ->
      Hashtbl.replace sp.tdirty { Proto.origin = sp.id; seq = msg } wrs;
      List.iter (fun wr -> bump sp.pins wr) wrs;
      if msg >= sp.next_msg then sp.next_msg <- msg + 1
  | Wal.Unpins msg -> (
      let id = { Proto.origin = sp.id; seq = msg } in
      match Hashtbl.find_opt sp.tdirty id with
      | Some wrs ->
          Hashtbl.remove sp.tdirty id;
          List.iter (fun wr -> unbump sp.pins wr) wrs
      | None -> ())
  | Wal.Peer { peer; epoch } -> Hashtbl.replace sp.peer_epoch peer epoch

let apply_snapshot sp (s : Wal.snapshot) =
  sp.epoch <- s.Wal.s_epoch;
  sp.cont <- s.Wal.s_cont;
  sp.next_index <- s.Wal.s_next_index;
  sp.next_msg <- s.Wal.s_next_msg;
  sp.next_call <- s.Wal.s_next_call;
  List.iter
    (fun (p, e) -> Hashtbl.replace sp.peer_epoch p e)
    s.Wal.s_peers;
  List.iter
    (fun (c : Wal.concrete) ->
      let meths =
        match Hashtbl.find_opt sp.rt.factories c.Wal.c_tag with
        | Some f -> f ()
        | None -> []
      in
      let cobj =
        {
          c_wr = c.Wal.c_wr;
          c_tag = c.Wal.c_tag;
          c_meths = List.map (fun m -> (m.m_name, m)) meths;
          c_slots = c.Wal.c_slots;
          c_dirty = Itbl.create ();
          c_last_seq = Itbl.create ();
        }
      in
      List.iter
        (fun (client, seq) ->
          Itbl.replace cobj.c_last_seq client seq;
          ignore (dirty_add sp cobj client : bool))
        c.Wal.c_dirty;
      Wirerep.Tbl.replace sp.table c.Wal.c_wr (Concrete cobj))
    s.Wal.s_concretes;
  List.iter
    (fun wr ->
      Wirerep.Tbl.replace sp.table wr
        (Surrogate (ref (Usable { clean_scheduled = false }))))
    s.Wal.s_surrogates;
  List.iter
    (fun (wr, n) -> if n > 0 then Itbl.replace sp.roots (Wirerep.key wr) n)
    s.Wal.s_roots;
  List.iter
    (fun (msg, wrs) ->
      Hashtbl.replace sp.tdirty { Proto.origin = sp.id; seq = msg } wrs;
      List.iter (fun wr -> bump sp.pins wr) wrs)
    s.Wal.s_pins;
  List.iter
    (fun (wr, n) -> Itbl.replace sp.seqno (Wirerep.key wr) n)
    s.Wal.s_seqno;
  List.iter
    (fun (name, wr) -> Hashtbl.replace sp.bindings name wr)
    s.Wal.s_bindings

let recover rt i =
  let sp = space rt i in
  if not sp.crashed then invalid_arg "Runtime.recover: space is not crashed";
  let st =
    match sp.store with
    | Some st -> st
    | None -> invalid_arg "Runtime.recover: space is not durable"
  in
  let t0 = Sys.time () in
  reset_incarnation sp ~reason:"space recovering";
  (* Replay: snapshot first, then the log suffix, in append order.  A
     record that fails to decode is counted by the store as torn and
     skipped — it can only be the damaged tail. *)
  let snap, records, _torn = Store.recover st in
  (match snap with
  | Some s -> apply_snapshot sp (Pickle.decode Wal.snapshot_codec s)
  | None -> ());
  let replayed = ref 0 in
  List.iter
    (fun payload ->
      match Pickle.decode Wal.record_codec payload with
      | r ->
          replay_record sp r;
          incr replayed
      | exception _ -> ())
    records;
  (* Same logical incarnation — the continuity floor stays — under a
     fresh epoch for packet freshness. *)
  sp.epoch <- sp.epoch + 1;
  (* Watermark slack: seqnos, message ids and call ids minted after the
     last durable record were lost with the unsynced tail; jump past
     anything that could collide with a late ack or reply. *)
  let seqs = Itbl.fold (fun k n acc -> (k, n) :: acc) sp.seqno [] in
  List.iter (fun (k, n) -> Itbl.replace sp.seqno k (n + 64)) seqs;
  sp.next_msg <- sp.next_msg + 1024;
  sp.next_call <- sp.next_call + 1024;
  sp.crashed <- false;
  Transport.restore (stransport sp) i;
  (* An empty (or wiped) image still needs the well-known agent. *)
  let agent_wr = Wirerep.v ~space:sp.id ~index:0 in
  if not (Wirerep.Tbl.mem sp.table agent_wr) then begin
    let saved = sp.next_index in
    sp.next_index <- 0;
    let agent =
      allocate sp ~tag:"agent"
        ~meths:[ agent_publish_meth; agent_lookup_meth ]
    in
    assert (agent.wr.Wirerep.index = 0);
    sp.next_index <- max saved sp.next_index
  end;
  (* The recovered image at the new epoch becomes the durable baseline:
     one snapshot persists the epoch bump and compacts the log. *)
  take_snapshot sp;
  (* Grace window: the collector stands down and every recovered dirty
     entry is conservatively retained until its client re-confirms. *)
  let grace = rt.config.recover_grace in
  sp.recover_until <- Sched.now (ssched sp) +. grace;
  let pairs =
    Wirerep.Tbl.fold
      (fun wr e acc ->
        match e with
        | Concrete c ->
            Itbl.fold (fun client _ acc -> (wr, client) :: acc) c.c_dirty acc
        | Surrogate _ -> acc)
      sp.table []
  in
  grace_mark sp pairs;
  (* Recovered transient pins: their copy_acks were addressed to the
     dead epoch and can never arrive; release them once the in-flight
     window is over. *)
  let gen = sp.epoch in
  let release_after =
    Float.max grace (Option.value ~default:grace rt.config.pin_timeout)
  in
  let pinned_msgs = Hashtbl.fold (fun m _ acc -> m :: acc) sp.tdirty [] in
  List.iter
    (fun msg_id ->
      Sched.timer (ssched sp) release_after (fun () ->
          if (not sp.crashed) && sp.epoch = gen then
            release_pins_for sp msg_id))
    pinned_msgs;
  spawn_periodic_demons sp;
  (* Reconciliation: re-assert dirty toward the owners of our recovered
     surrogates, and announce the recovery so our own clients do the
     same toward us (idle peers learn from the packet header). *)
  let owners = Hashtbl.create 8 in
  let targets = Hashtbl.create 8 in
  Wirerep.Tbl.iter
    (fun (wr : Wirerep.t) e ->
      match e with
      | Surrogate st -> (
          if wr.Wirerep.space <> sp.id then
            Hashtbl.replace targets wr.Wirerep.space ();
          match !st with
          | Usable _ -> Hashtbl.replace owners wr.Wirerep.space ()
          | Creating _ | Cleaning _ -> ())
      | Concrete c ->
          Itbl.iter
            (fun cl _ -> if cl <> sp.id then Hashtbl.replace targets cl ())
            c.c_dirty)
    sp.table;
  Hashtbl.iter
    (fun p _ -> if p <> sp.id then Hashtbl.replace targets p ())
    sp.peer_epoch;
  Hashtbl.iter (fun p () -> schedule_reassert sp p) owners;
  let targets =
    Hashtbl.fold (fun p () acc -> p :: acc) targets [] |> List.sort compare
  in
  let announce nonce =
    List.iter
      (fun p -> send_env sp ~dst:p (Proto.Recover { nonce }))
      targets
  in
  announce 0;
  List.iter
    (fun (frac, nonce) ->
      Sched.timer (ssched sp) (grace *. frac) (fun () ->
          if (not sp.crashed) && sp.epoch = gen then announce nonce))
    [ (0.34, 1); (0.67, 2) ];
  if Obs.on () then begin
    Metrics.incr m_recover;
    Metrics.observe h_recover_us ((Sys.time () -. t0) *. 1e6);
    Trace.instant (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~args:
        [
          ("epoch", Trace.I sp.epoch);
          ("replayed", Trace.I !replayed);
          ("entries", Trace.I (List.length pairs));
        ]
      "recover"
  end;
  Log.info (fun m ->
      m "space %d recovered (epoch %d, %d records replayed, %d dirty \
         entries in grace)"
        sp.id sp.epoch !replayed (List.length pairs))

(* --- introspection ----------------------------------------------------------- *)

let resident sp wr = Wirerep.Tbl.mem sp.table wr

let dirty_set sp h =
  match Wirerep.Tbl.find_opt sp.table h.wr with
  | Some (Concrete c) ->
      Itbl.fold (fun cl _ acc -> cl :: acc) c.c_dirty [] |> List.sort compare
  | Some (Surrogate _) | None ->
      invalid_arg "Runtime.dirty_set: not a resident concrete object"

let surrogate_count sp =
  Wirerep.Tbl.fold
    (fun _ e acc -> match e with Surrogate _ -> acc + 1 | Concrete _ -> acc)
    sp.table 0

let surrogate_summary sp =
  Wirerep.Tbl.fold
    (fun wr e acc ->
      match e with
      | Concrete _ -> acc
      | Surrogate st ->
          let state =
            match !st with
            | Creating _ -> "Creating"
            | Usable u ->
                Printf.sprintf "Usable{sched=%b}" u.clean_scheduled
            | Cleaning cl ->
                Printf.sprintf "Cleaning{retry=%b}"
                  (Option.is_some cl.retry_cancel)
          in
          let roots = Itbl.find sp.roots (Wirerep.key wr) ~default:0 in
          let pins = Itbl.find sp.pins (Wirerep.key wr) ~default:0 in
          Printf.sprintf "wr=%d.%d state=%s roots=%d pins=%d" wr.Wirerep.space
            wr.Wirerep.index state roots pins
          :: acc)
    sp.table []

let collections sp = sp.n_collections

let reclaimed sp = sp.n_reclaimed

let gc_stats sp =
  {
    dirty_calls = sp.s_dirty;
    clean_calls = sp.s_clean;
    copy_acks = sp.s_copy_ack;
    pings = sp.s_ping;
    evictions = sp.s_evict;
    epoch_rejections = sp.s_epoch_rejected;
    retries = sp.s_retries;
    stale_acks = sp.s_stale_acks;
  }

let cycle_stats sp =
  {
    trials = sp.s_cycle_trials;
    aborts = sp.s_cycle_aborts;
    collected = sp.s_cycle_collected;
  }

let call_stats sp =
  {
    c_retried = sp.s_call_retried;
    c_deduped = sp.s_call_deduped;
    c_shed = sp.s_call_shed;
    c_cancelled = sp.s_call_cancelled;
    c_expired = sp.s_call_expired;
    c_executed = sp.s_call_executed;
  }

let epoch sp = sp.epoch

let cont sp = sp.cont

let durable sp = Option.is_some sp.store

let register_factory rt tag f = Hashtbl.replace rt.factories tag f

let set_disk_fault rt i fault =
  let sp = space rt i in
  match sp.store with
  | Some st -> Store.set_fault st fault
  | None -> invalid_arg "Runtime.set_disk_fault: space is not durable"

let log_size sp =
  match sp.store with Some st -> Store.log_size st | None -> 0

let force_snapshot sp = take_snapshot sp

let unconfirmed_count sp = Hashtbl.length sp.unconfirmed

let lease_entries sp client =
  match Hashtbl.find_opt sp.lease client with
  | None -> 0
  | Some l -> Itbl.length l.l_objs

(* Cross-check the incrementally maintained lease / dirty-kept
   aggregates against a from-scratch fold over the object table — the
   central invariant of the aggregated-lease design.  Wired into
   [check_consistency] so chaos and the model checker verify it
   continuously; also driven directly by the property tests. *)
let lease_check sp =
  let problems = ref [] in
  let report fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  let ref_clients = Hashtbl.create 8 in
  let ref_kept = Hashtbl.create 8 in
  Wirerep.Tbl.iter
    (fun (wr : Wirerep.t) e ->
      match e with
      | Concrete c ->
          if Itbl.length c.c_dirty > 0 then
            Hashtbl.replace ref_kept wr.Wirerep.index ();
          Itbl.iter
            (fun client _ ->
              let s =
                match Hashtbl.find_opt ref_clients client with
                | Some s -> s
                | None ->
                    let s = Hashtbl.create 8 in
                    Hashtbl.add ref_clients client s;
                    s
              in
              Hashtbl.replace s wr.Wirerep.index ())
            c.c_dirty
      | Surrogate _ -> ())
    sp.table;
  Itbl.iter
    (fun index _ ->
      if not (Hashtbl.mem ref_kept index) then
        report "space %d: dirty_kept has stale index %d" sp.id index)
    sp.dirty_kept;
  Hashtbl.iter
    (fun index () ->
      if not (Itbl.mem sp.dirty_kept index) then
        report "space %d: dirty_kept missing index %d" sp.id index)
    ref_kept;
  Hashtbl.iter
    (fun client l ->
      match Hashtbl.find_opt ref_clients client with
      | None ->
          if Itbl.length l.l_objs > 0 then
            report "space %d: lease for client %d with no dirty entries" sp.id
              client
      | Some s ->
          Itbl.iter
            (fun index _ ->
              if not (Hashtbl.mem s index) then
                report "space %d: lease(client %d) stale index %d" sp.id
                  client index)
            l.l_objs;
          Hashtbl.iter
            (fun index () ->
              if not (Itbl.mem l.l_objs index) then
                report "space %d: lease(client %d) missing index %d" sp.id
                  client index)
            s)
    sp.lease;
  Hashtbl.iter
    (fun client _ ->
      if not (Hashtbl.mem sp.lease client) then
        report "space %d: no lease aggregate for dirty client %d" sp.id client)
    ref_clients;
  List.rev !problems

let check_consistency rt =
  let problems = ref [] in
  let report fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  let owner_of wr =
    let osp = rt.space_arr.(wr.Wirerep.space) in
    match Wirerep.Tbl.find_opt osp.table wr with
    | Some (Concrete c) -> Some c
    | Some (Surrogate _) | None -> None
  in
  Array.iter
    (fun sp ->
      if not sp.crashed then begin
        (* No transient pins survive quiescence. *)
        if Hashtbl.length sp.tdirty > 0 then
          report "space %d: %d unacknowledged transmissions at quiescence"
            sp.id (Hashtbl.length sp.tdirty);
        if Hashtbl.length sp.pending_calls > 0 then
          report "space %d: %d calls still pending at quiescence" sp.id
            (Hashtbl.length sp.pending_calls);
        if sp.inflight_count > 0 || Hashtbl.length sp.inflight > 0 then
          report "space %d: %d calls still executing at quiescence" sp.id
            (Hashtbl.length sp.inflight);
        List.iter (fun s -> problems := s :: !problems) (lease_check sp);
        Wirerep.Tbl.iter
          (fun wr entry ->
            match entry with
            | Surrogate st -> (
                let c = owner_of wr in
                (* Definition 12: any surrogate implies residency. *)
                (if c = None then
                   report "space %d: surrogate %a for a vanished object"
                     sp.id Wirerep.pp wr);
                match !st with
                | Usable _ -> (
                    (* Lemma 9: usable implies registered. *)
                    match c with
                    | Some c ->
                        if not (Itbl.mem c.c_dirty sp.id) then
                          report
                            "space %d: usable surrogate %a absent from dirty set"
                            sp.id Wirerep.pp wr
                    | None -> ())
                | Creating _ ->
                    report "space %d: surrogate %a stuck in Creating" sp.id
                      Wirerep.pp wr
                | Cleaning _ ->
                    report "space %d: surrogate %a stuck in Cleaning" sp.id
                      Wirerep.pp wr)
            | Concrete c ->
                (* Liveness at quiescence: every dirty entry has a
                   matching surrogate at the (live) client. *)
                Itbl.iter
                  (fun client _ ->
                    let csp = rt.space_arr.(client) in
                    if not csp.crashed then
                      match Wirerep.Tbl.find_opt csp.table wr with
                      | Some (Surrogate _) -> ()
                      | Some (Concrete _) ->
                          report
                            "object %a: dirty entry for its own owner %d"
                            Wirerep.pp wr client
                      | None ->
                          report
                            "object %a: dirty entry for %d with no surrogate"
                            Wirerep.pp wr client)
                  c.c_dirty)
          sp.table
      end)
    rt.space_arr;
  List.rev !problems

(* Per-step analogue of the paper's central safety claim, sound
   mid-protocol (unlike [check_consistency], which assumes quiescence):
   a [Usable] surrogate means the dirty call was acknowledged, so the
   owner must still hold the concrete object (Definition 12) with the
   client registered in its dirty set (Lemma 9) — at every step, not
   just at quiescence.  [Creating]/[Cleaning] surrogates are legal
   transients (the object may be gone before registration completes or
   while a clean ack is in flight) and are skipped, as are owners that
   restarted or evicted a lease (both legitimately strand surrogates
   until the protocol notices). *)
let check_safety rt =
  let problems = ref [] in
  let report fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  Array.iter
    (fun sp ->
      if not sp.crashed then begin
        (* Computed only if this space holds a usable surrogate whose
           owner-side entry vanished: a {e locally unreachable} such
           surrogate is the legitimate wake of a cycle commit (the
           cleaning demon is about to drain it), while a reachable one
           means a live object was reclaimed — the violation. *)
        let marked = lazy (mark sp ~dirty_kept:false) in
        Wirerep.Tbl.iter
          (fun wr entry ->
            match entry with
            | Concrete _ -> ()
            | Surrogate st -> (
                match !st with
                | Creating _ | Cleaning _ -> ()
                | Usable _ ->
                    let osp = rt.space_arr.(wr.Wirerep.space) in
                    if
                      (not osp.crashed) && osp.epoch = 0 && osp.s_evict = 0
                      (* an un-acked reassert toward this owner means the
                         surrogate is legitimately awaiting reconciliation *)
                      && not (Hashtbl.mem sp.pending_reassert wr.Wirerep.space)
                    then begin
                      match Wirerep.Tbl.find_opt osp.table wr with
                      | Some (Concrete c) ->
                          if not (Itbl.mem c.c_dirty sp.id) then
                            report
                              "space %d: usable surrogate %a absent from \
                               owner's dirty set"
                              sp.id Wirerep.pp wr
                      | Some (Surrogate _) | None ->
                          if Itbl.mem (Lazy.force marked) (Wirerep.key wr) then
                            report
                              "space %d: usable surrogate %a but owner %d \
                               collected the object"
                              sp.id Wirerep.pp wr wr.Wirerep.space
                    end))
          sp.table
      end)
    rt.space_arr;
  List.rev !problems

(* Canonical rendering of the protocol-relevant state, hashed.  Monotone
   counters (sequence numbers, call/msg ids, stats) are deliberately
   excluded — they would make every state unique and defeat
   deduplication; table contents, surrogate states, dirty sets, root/pin
   counts and the scheduler's pending work are included. *)
let state_fingerprint rt =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Array.iter
    (fun sp ->
      add "S%d e%d f%d c%b u%d pr%d|" sp.id sp.epoch sp.cont sp.crashed
        (Hashtbl.length sp.unconfirmed)
        (Hashtbl.length sp.pending_reassert);
      let entries =
        Wirerep.Tbl.fold (fun wr e acc -> (wr, e) :: acc) sp.table []
        |> List.sort (fun (a, _) (b, _) -> Wirerep.compare a b)
      in
      List.iter
        (fun ((wr : Wirerep.t), e) ->
          add "%d.%d=" wr.Wirerep.space wr.Wirerep.index;
          match e with
          | Concrete c ->
              let dirty =
                Itbl.fold (fun k _ acc -> k :: acc) c.c_dirty []
                |> List.sort compare
              in
              let slots =
                List.sort Wirerep.compare c.c_slots
                |> List.map (fun (w : Wirerep.t) ->
                       Printf.sprintf "%d.%d" w.Wirerep.space w.Wirerep.index)
              in
              add "C[%s][%s];"
                (String.concat "," (List.map string_of_int dirty))
                (String.concat "," slots)
          | Surrogate st ->
              let s =
                match !st with
                | Creating _ -> "c"
                | Usable u -> if u.clean_scheduled then "U*" else "U"
                | Cleaning cl ->
                    if cl.resurrect = None then "X" else "X*"
              in
              add "S%s;" s)
        entries;
      let counts name tbl =
        let xs =
          Itbl.fold
            (fun k n acc ->
              let wr = Wirerep.of_key k in
              ((wr.Wirerep.space, wr.Wirerep.index), n) :: acc)
            tbl []
          |> List.sort compare
        in
        add "%s[%s]" name
          (String.concat ","
             (List.map
                (fun ((a, b), n) -> Printf.sprintf "%d.%d:%d" a b n)
                xs))
      in
      counts "r" sp.roots;
      counts "p" sp.pins;
      add "td%d pc%d mb%d b%d if%d rc%d|" (Hashtbl.length sp.tdirty)
        (Hashtbl.length sp.pending_calls)
        (Sched.Mailbox.length sp.clean_mb)
        (Hashtbl.length sp.bindings)
        (Hashtbl.length sp.inflight)
        (Hashtbl.fold
           (fun _ rc acc -> acc + Hashtbl.length rc.rc_replies)
           sp.reply_cache 0))
    rt.space_arr;
  add "~%d" (Sched.pending_fingerprint (sched rt));
  Hashtbl.hash (Buffer.contents buf)
