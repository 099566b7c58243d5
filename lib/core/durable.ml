(* Durability and incarnations.  See durable.mli. *)

open Space
open Collector
open Cycle_detector

let crash rt i =
  let sp = space rt i in
  sp.crashed <- true;
  Transport.crash (stransport sp) i

(* --- durable snapshots -------------------------------------------------

   A snapshot is the whole durable image at one commit point, written as
   the list of records that rebuilds it; taking one truncates the log
   (and, as a group commit, flushes the write cache, releasing any
   queued barriers).  Only committed protocol state goes in: usable
   surrogates and dirty entries with their idempotence watermarks, never
   [Creating]/[Cleaning] transients (those re-run or are re-asserted
   after recovery).  Each table is folded the way it iterates and
   replayed front to back, so recovery rebuilds every table in the same
   insertion order whether it reads the image or the log. *)

let image sp =
  let concretes = ref [] and surrogates = ref [] in
  Wirerep.Tbl.iter
    (fun wr entry ->
      match entry with
      | Concrete c -> concretes := (wr, c) :: !concretes
      | Surrogate st -> (
          match !st with
          | Usable _ ->
              surrogates := Wal.Surrogate { wr; add = true } :: !surrogates
          | Creating _ | Cleaning _ -> ()))
    sp.table;
  let concrete (wr, c) =
    (* Replayed links prepend, so they go oldest-last.  The agent's slots
       are its bindings, which the Bind records relink. *)
    let links =
      if wr.Wirerep.index = 0 then []
      else
        List.rev_map
          (fun child -> Wal.Link { parent = wr; child; add = true })
          c.c_slots
    in
    let dirty =
      Itbl.fold
        (fun client _ acc ->
          let seq = Itbl.find c.c_last_seq client ~default:0 in
          Wal.Dirty { wr; client; seq; add = true } :: acc)
        c.c_dirty []
    in
    (Wal.Export { wr; tag = c.c_tag } :: links) @ dirty
  in
  List.concat
    [
      [
        Wal.Epoch { epoch = sp.epoch; cont = sp.cont };
        Wal.Watermarks
          {
            next_index = sp.next_index;
            next_msg = sp.next_msg;
            next_call = sp.next_call;
          };
      ];
      Hashtbl.fold
        (fun peer epoch acc -> Wal.Peer { peer; epoch } :: acc)
        sp.peer_epoch [];
      List.concat_map concrete !concretes;
      !surrogates;
      Itbl.fold
        (fun k delta acc -> Wal.Root { wr = Wirerep.of_key k; delta } :: acc)
        sp.roots [];
      Hashtbl.fold
        (fun (m : Proto.msg_id) wrs acc ->
          Wal.Pins { msg = m.Proto.seq; wrs } :: acc)
        sp.tdirty [];
      Itbl.fold
        (fun k n acc -> Wal.Seqno { wr = Wirerep.of_key k; n } :: acc)
        sp.seqno [];
      Hashtbl.fold (fun name wr acc -> Wal.Bind { name; wr } :: acc)
        sp.bindings [];
    ]

let take_snapshot sp =
  match sp.store with
  | None -> ()
  | Some st -> Store.snapshot st (Pickle.encode Wal.image_codec (image sp))

(* Demons carry the epoch they were spawned for and exit as soon as the
   space's epoch moves on: [restart] spawns a fresh set, and without the
   guard an old demon sleeping across the crash+restart window would wake
   up alongside its replacement.  [periodic] runs [tick] every [period]
   under that guard, as the fiber ["<name>-<space>.<epoch>"]. *)
let periodic sp ~name period tick =
  let gen = sp.epoch in
  let sched = ssched sp in
  Sched.spawn sched
    ~name:(Printf.sprintf "%s-%d.%d" name sp.id gen)
    (fun () ->
      let rec loop () =
        Sched.sleep sched period;
        if (not sp.crashed) && sp.epoch = gen then begin
          tick ();
          loop ()
        end
      in
      loop ())

let spawn_periodic_demons sp =
  let cfg = sp.rt.config in
  (match (cfg.snapshot_period, sp.store) with
  | Some p, Some _ ->
      periodic sp ~name:"snap-demon" p (fun () -> take_snapshot sp)
  | (Some _ | None), _ -> ());
  Option.iter
    (fun p -> periodic sp ~name:"gc-demon" p (fun () -> collect sp))
    cfg.gc_period;
  (* The cycle demon paces itself (it speeds up on a backlog). *)
  Option.iter
    (fun p ->
      Sched.spawn (ssched sp)
        ~name:(Printf.sprintf "cycle-demon-%d.%d" sp.id sp.epoch)
        (cycle_demon sp sp.epoch p))
    cfg.cycle_period;
  Option.iter
    (fun p -> periodic sp ~name:"ping-demon" p (fun () -> ping_tick sp))
    cfg.ping_period

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
let reset_incarnation sp ~recovering =
  Hashtbl.iter
    (fun _ iv ->
      if not (Sched.Ivar.is_filled iv) then
        Sched.Ivar.fill iv (Error (Caller_restarted { recovering })))
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
  reset_incarnation sp ~recovering:false;
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
  allocate_agent sp;
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

let replay_record sp = function
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
      let k = Wirerep.key wr in
      let n = Itbl.find sp.roots k ~default:0 + delta in
      if n <= 0 then Itbl.remove sp.roots k else Itbl.replace sp.roots k n
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
  | Wal.Watermarks { next_index; next_msg; next_call } ->
      sp.next_index <- next_index;
      sp.next_msg <- next_msg;
      sp.next_call <- next_call

let recover rt i =
  let sp = space rt i in
  if not sp.crashed then invalid_arg "Runtime.recover: space is not crashed";
  let st =
    match sp.store with
    | Some st -> st
    | None -> invalid_arg "Runtime.recover: space is not durable"
  in
  let t0 = Sys.time () in
  reset_incarnation sp ~recovering:true;
  (* Replay: the snapshot's records first, then the log suffix, in
     append order.  A frame cut short or failing its checksum is counted
     by the store as torn; a whole frame whose record fails to decode is
     skipped and counted here.  Only log records count as replayed. *)
  let snap, payloads, _torn = Store.recover st in
  (match snap with
  | Some s -> List.iter (replay_record sp) (Pickle.decode Wal.image_codec s)
  | None -> ());
  let records, skipped = Wal.decode_records payloads in
  Store.note_skipped skipped;
  List.iter (replay_record sp) records;
  let replayed = List.length records in
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
    allocate_agent sp;
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
          ("replayed", Trace.I replayed);
          ("entries", Trace.I (List.length pairs));
        ]
      "recover"
  end;
  Log.info (fun m ->
      m "space %d recovered (epoch %d, %d records replayed, %d skipped, \
         %d dirty entries in grace)"
        sp.id sp.epoch replayed skipped (List.length pairs))
