(* The reference-listing plane (Birrell's collector): see collector.mli. *)

open Space

(* --- the retry arm ----------------------------------------------------------

   TR §2.3 repeats unacknowledged dirty and clean calls until they
   succeed (sequence numbers make the repeats idempotent); a recovered
   space's reasserts repeat the same way.  Attempt [n] fires after
   [retry_delay ~attempt:n ~base]; [resend ()] re-sends if the call is
   still unacknowledged and says whether to keep going.  Each pending
   timer's cancel goes to [on_arm], so the acknowledgement stops the
   cycle at once: a cancelled retry can neither fire late nor hold the
   scheduler back from quiescing.  The epoch guard retires the arm of a
   dead incarnation. *)
let retry_arm sp ?name ~base ~on_arm resend =
  let gen = sp.epoch in
  let rec arm attempt =
    on_arm
      (Sched.timer_cancel (ssched sp) ?name
         (retry_delay sp ~attempt ~base)
         (fun () ->
           if (not sp.crashed) && sp.epoch = gen && resend () then
             arm (attempt + 1)))
  in
  arm 0

(* --- surrogate registration (the dirty protocol, client side) ----------- *)

(* One reference's dirty call: count it, open its span and mint its
   sequence number. *)
let dirty_item sp wr =
  sp.s_dirty <- sp.s_dirty + 1;
  if Obs.on () then begin
    Metrics.incr m_dirty;
    Trace.async_begin (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~id:(obs_wr_id ~client:sp.id wr)
      ~args:(obs_wr_args wr) "dirty"
  end;
  (wr, next_seqno sp wr)

(* When dirty retries are configured, keep resending one reference's
   dirty call (a one-item batch, same sequence number: the owner acks
   idempotently) until its registration ivar fills. *)
let arm_dirty_retry sp wr iv =
  match sp.rt.config.dirty_retry with
  | None -> ()
  | Some base ->
      retry_arm sp ~base
        ~on_arm:(fun cancel -> Sched.Ivar.on_fill iv cancel)
        (fun () ->
          (not (Sched.Ivar.is_filled iv))
          &&
          match Wirerep.Tbl.find_opt sp.table wr with
          | Some (Surrogate st) -> (
              match !st with
              | Creating iv' when iv' == iv ->
                  count_retry sp "dirty_retry" wr;
                  let seq = Itbl.find sp.seqno (Wirerep.key wr) ~default:0 in
                  send_env sp ~dst:wr.Wirerep.space
                    (Proto.Dirty { items = [ (wr, seq) ] });
                  true
              | Creating _ | Usable _ | Cleaning _ -> false)
          | Some (Concrete _) | None -> false)

(* One dirty call to [owner] for these registrations, in order. *)
let send_dirty sp owner regs =
  send_env sp ~dst:owner
    (Proto.Dirty { items = List.map (fun (wr, _) -> dirty_item sp wr) regs });
  List.iter (fun (wr, iv) -> arm_dirty_retry sp wr iv) regs

(* Group [(wr, _)] items by the owner of [wr]: owners in first-seen
   order, each owner's items in list order, so simulated runs stay
   deterministic.  Dirty and clean calls both travel one message per
   owner in this order. *)
let by_owner items =
  let groups =
    List.fold_left
      (fun groups ((wr, _) as item) ->
        let owner = wr.Wirerep.space in
        match List.assoc_opt owner groups with
        | Some its ->
            its := item :: !its;
            groups
        | None -> (owner, ref [ item ]) :: groups)
      [] items
  in
  List.rev_map (fun (owner, its) -> (owner, List.rev !its)) groups

(* Send the dirty calls for freshly created surrogates, given newest
   first as a decode collects them: one [Dirty] per owner. *)
let register sp fresh =
  List.iter
    (fun (owner, regs) -> send_dirty sp owner regs)
    (by_owner (List.rev fresh))

(* One reference's clean call: count it, open its span and mint its
   sequence number. *)
let clean_item sp wr =
  sp.s_clean <- sp.s_clean + 1;
  if Obs.on () then begin
    Metrics.incr m_clean;
    Trace.async_begin (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~id:(obs_wr_id ~client:sp.id wr + 1)
      ~args:(obs_wr_args wr) "clean"
  end;
  (wr, next_seqno sp wr)

(* Ensure a table entry exists for a reference just read from a message,
   returning the registration event to await (if any).  Mirrors the
   receive_copy rule: ⊥ -> nil (a dirty call, left to [register]: a new
   entry joins [d_fresh]), OK cancels a scheduled clean, ccit ->
   ccitnil. *)
let acquire_surrogate sp d wr =
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
      d.d_fresh <- (wr, iv) :: d.d_fresh;
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
    | Dec d :: _ -> (
        (* Pin immediately so an interleaved local GC cannot sweep the
           entry while registration completes. *)
        pin d.dsp wr;
        d.d_acquired <- wr :: d.d_acquired;
        match acquire_surrogate d.dsp d wr with
        | Some iv -> d.d_pending <- iv :: d.d_pending
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

(* Repeat an unacknowledged clean until it succeeds.  The pending
   timer's cancel is stored on the Cleaning state, where the owner's ack
   (or a forgotten owner) finds it. *)
let schedule_clean_retry sp cl wr =
  match sp.rt.config.clean_retry with
  | None -> ()
  | Some base ->
      retry_arm sp ~base
        ~on_arm:(fun cancel -> cl.retry_cancel <- Some cancel)
        (fun () ->
          match Wirerep.Tbl.find_opt sp.table wr with
          | Some (Surrogate st) -> (
              match !st with
              | Cleaning cl' when cl' == cl ->
                  sp.s_clean <- sp.s_clean + 1;
                  count_retry sp "clean_retry" wr;
                  if Obs.on () then Metrics.incr m_clean;
                  let seq = Itbl.find sp.seqno (Wirerep.key wr) ~default:0 in
                  send_env sp ~dst:wr.Wirerep.space
                    (Proto.Clean { items = [ (wr, seq) ] });
                  true
              | Cleaning _ | Creating _ | Usable _ -> false)
          | Some (Concrete _) | None -> false)

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

(* The cleaning demon (the specification's do_clean_call): wait for the
   collector to schedule a clean, take everything else already queued
   and send one [Clean] per owner.  [collect] queues a whole collection
   in one fiber step before the demon runs, so no window is needed to
   gather it.  A surrogate that a fresh copy revived meanwhile is
   skipped (Note 4).  Each item keeps its own sequence number, span and
   retry; the owner's one [Clean_ack] settles them all. *)
let cleaning_demon sp () =
  let rec drain acc =
    match Sched.Mailbox.try_recv sp.clean_mb with
    | Some wr -> drain (wr :: acc)
    | None -> List.rev acc
  in
  let rec loop () =
    let wrs = drain [ Sched.Mailbox.recv sp.clean_mb ] in
    (if not sp.crashed then
       let cleans =
         List.filter_map
           (fun wr -> Option.map (fun cl -> (wr, cl)) (begin_clean sp wr))
           wrs
       in
       List.iter
         (fun (owner, cleans) ->
           send_env sp ~dst:owner
             (Proto.Clean
                { items = List.map (fun (wr, _) -> clean_item sp wr) cleans });
           List.iter (fun (wr, cl) -> schedule_clean_retry sp cl wr) cleans)
         (by_owner cleans));
    loop ()
  in
  loop ()

(* One receive_dirty step; says whether the object is still here. *)
let apply_dirty sp ~src ~wr ~seq =
  match find_concrete sp wr with
  | None -> false
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
      true

(* A batch is applied item by item without interleaving and answered by
   one ack, which a durable owner holds behind one commit barrier. *)
let handle_dirty sp ~src ~items =
  let ack (wr, seq) = (wr, apply_dirty sp ~src ~wr ~seq) in
  send_env sp ~dst:src (Proto.Dirty_ack { items = List.map ack items })

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

(* Like a dirty batch, a clean batch is applied item by item without
   interleaving and answered by one ack. *)
let handle_clean sp ~src ~items =
  List.iter (fun (wr, seq) -> apply_clean sp ~src ~wr ~seq) items;
  send_env sp ~dst:src (Proto.Clean_ack { wrs = List.map fst items })

let dirty_acked sp (wr, ok) =
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

let handle_dirty_ack sp ~items = List.iter (dirty_acked sp) items

let obs_end_clean sp wr ~resurrected =
  if Obs.on () then
    Trace.async_end (Obs.trace ()) ~cat:"gc" ~space:sp.id
      ~id:(obs_wr_id ~client:sp.id wr + 1)
      ~args:[ ("resurrected", Trace.I (Bool.to_int resurrected)) ]
      "clean"

let clean_acked sp wr =
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
          register sp [ (wr, iv) ]
      | Creating _ | Usable _ -> () (* stale ack *))
  | Some (Concrete _) | None -> ()

let handle_clean_ack sp ~wrs = List.iter (clean_acked sp) wrs

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
   is (re)installed, unless a later call from the client got here
   first: a reassert whose seqno is below the watermark was overtaken
   (or duplicated) behind the clean that released the surrogate, and
   re-installing it would keep a dirty entry no surrogate answers for.
   It is acknowledged as ok all the same: the client's claim is settled. *)
let handle_reassert sp ~src ~items =
  let ok = ref [] and gone = ref [] in
  List.iter
    (fun ((wr : Wirerep.t), seq) ->
      match find_concrete sp wr with
      | None -> gone := wr :: !gone
      | Some c ->
          let last = Itbl.find c.c_last_seq src ~default:0 in
          if seq >= last then begin
            Itbl.replace c.c_last_seq src seq;
            if dirty_add sp c src then obs_gauge_add g_dirty_entries 1.0;
            bump_touch sp wr;
            wal sp (Wal.Dirty { wr; client = src; seq; add = true });
            Hashtbl.remove sp.unconfirmed (wr, src)
          end;
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
   registration; later calls through retained handles fail with
   [Dangling_handle] and the holder re-imports. *)
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
    retry_arm sp
      ~name:(Printf.sprintf "reassert-%d" sp.id)
      ~base:(Option.value ~default:0.3 sp.rt.config.clean_retry)
      ~on_arm:(fun cancel -> Sched.Ivar.on_fill iv cancel)
      (fun () ->
        (not (Sched.Ivar.is_filled iv))
        && begin
             count_retry sp "reassert_retry" (fst (List.hd items));
             send ();
             true
           end)
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
   (calls through retained handles fail with [Dangling_handle], prompting the
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

(* One ping tick.  A lease expires after [lease_misses] consecutive
   unanswered pings, but with a configured [lease_grace] the client is
   only marked suspect and kept pinged for that much longer before
   eviction — so a healed transient partition keeps the lease (TR §2.4's
   tradeoff between promptness and tolerance). *)
let ping_tick sp =
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
    clients
