(* The distributed cycle detector.  See cycle_detector.mli. *)

open Space
open Collector

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
