(* The public runtime: packet dispatch, construction, the agent,
   introspection and the checks, over the planes in Space, Collector,
   Calls, Cycle_detector and Durable. *)

include Space
open Collector
open Calls
open Cycle_detector
open Durable
module Engine_sim = Netobj_engine.Engine_sim

(* --- the planes' public entry points -------------------------------------- *)

let handle_codec = Collector.handle_codec

let collect = Collector.collect

let collect_all = Collector.collect_all

let global_collect = Collector.global_collect

let invoke_raw = Calls.invoke_raw

let cycle_collect = Cycle_detector.cycle_collect

let crash = Durable.crash

let restart = Durable.restart

let recover = Durable.recover

(* --- packet dispatch ----------------------------------------------------- *)

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
    | Proto.Dirty { items } -> handle_dirty sp ~src ~items
    | Proto.Dirty_ack { items } -> handle_dirty_ack sp ~items
    | Proto.Clean { items } -> handle_clean sp ~src ~items
    | Proto.Clean_ack { wrs } -> handle_clean_ack sp ~wrs
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

(* --- agent (name service) -------------------------------------------------- *)

let agent_table sp = sp.bindings

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
    let d = { dsp = sp; d_acquired = []; d_pending = []; d_fresh = [] } in
    (match acquire_surrogate sp d wr with
    | None -> ()
    | Some iv -> (
        register sp d.d_fresh;
        try await_registrations sp [ iv ]
        with e ->
          unpin sp wr;
          raise e));
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
  (* The agent root must not outlive the call: a [Call_failed] escaping
     here would otherwise leave the agent surrogate rooted forever,
     keeping a dirty entry at the owner.
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
  | None -> raise (Call_failed (No_binding name))

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
      allocate_agent sp;
      Transport.set_handler (stransport sp) sp.id
        (fun ~src ~kind:_ ~payload ~off ~len ->
          match Pickle.decode_slice Proto.packet_codec payload ~off ~len with
          | p -> handle_packet sp ~src p
          | exception (Wire.Error _ as e) ->
              Log.err (fun m ->
                  m "space %d: malformed envelope from %d: %s" sp.id src
                    (Printexc.to_string e)));
      Sched.spawn (ssched sp)
        ~name:(Printf.sprintf "clean-demon-%d" sp.id)
        (cleaning_demon sp);
      spawn_periodic_demons sp)
    rt.space_arr;
  rt

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
