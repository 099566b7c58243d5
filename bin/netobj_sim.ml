(* netobj-sim: command-line driver for the formal machinery.

     netobj_sim check  --procs 3 --budget 2        exhaustive model check
     netobj_sim walk   --procs 4 --steps 500 -n 50 random invariant walks
     netobj_sim run    --algo birrell --workload chain -n 100
     netobj_sim fifo   --procs 3 --budget 2        model-check the §5.1 variant
     netobj_sim trace  --seed 7 --steps 40         print a random execution *)

open Cmdliner
module M = Netobj_dgc.Machine
module T = Netobj_dgc.Types
module Invariants = Netobj_dgc.Invariants
module Explore = Netobj_dgc.Explore
module F = Netobj_dgc.Fifo_machine
module Workload = Netobj_dgc.Workload
module Algo = Netobj_dgc.Algo

module Obs = Netobj_obs.Obs
module Obs_trace = Netobj_obs.Trace
module Metrics = Netobj_obs.Metrics

let r0 : T.rref = { T.owner = 0; index = 0 }

let alloc procs = M.apply (M.init ~procs ~refs:[ r0 ]) (M.Allocate (0, r0))

(* --- observability plumbing ------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Enable tracing/metrics iff an output file was requested, run the
   command, export.  Enabling before the command starts means the whole
   execution is captured; the seq-counter trace clock keeps same-seed
   exports byte-identical. *)
let with_obs ~trace_out ~metrics_out f =
  let wanted = trace_out <> None || metrics_out <> None in
  if wanted then Obs.enable ();
  let code = f () in
  if wanted then begin
    (match trace_out with
    | Some path -> write_file path (Obs_trace.to_chrome (Obs.trace ()))
    | None -> ());
    (match metrics_out with
    | Some path -> write_file path (Metrics.to_json_string Metrics.global)
    | None -> ());
    Obs.disable ()
  end;
  code

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON trace of the execution to $(docv).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry as JSON to $(docv).")

(* --- common args ---------------------------------------------------------- *)

let procs_arg =
  Arg.(value & opt int 3 & info [ "p"; "procs" ] ~docv:"N" ~doc:"Number of processes.")

let budget_arg =
  Arg.(
    value & opt int 2
    & info [ "b"; "budget" ] ~docv:"B" ~doc:"Mutator copy budget (bounds the state space).")

let seeds_arg =
  Arg.(value & opt int 50 & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Number of seeds.")

let steps_arg =
  Arg.(value & opt int 500 & info [ "steps" ] ~docv:"S" ~doc:"Steps per walk.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

(* --- check ----------------------------------------------------------------- *)

let check procs budget =
  Fmt.pr "model-checking Birrell's machine: %d processes, copy budget %d@."
    procs budget;
  let res = Explore.bfs ~copy_budget:budget (alloc procs) in
  Fmt.pr "states: %d, transitions: %d, truncated: %b@." res.Explore.states
    res.Explore.edges res.Explore.truncated;
  match res.Explore.violation with
  | None ->
      Fmt.pr "all invariants hold in every reachable configuration@.";
      0
  | Some v ->
      Fmt.pr "VIOLATION:@.%a@.trace:@.%a@."
        Fmt.(list Invariants.pp_violation)
        v.Explore.violations
        Fmt.(list M.pp_transition)
        v.Explore.trace;
      1

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Exhaustively model-check the abstract machine.")
    Term.(const check $ procs_arg $ budget_arg)

(* --- walk ------------------------------------------------------------------ *)

let walk procs steps seeds budget =
  Fmt.pr "random walks: %d procs, %d steps, %d seeds, budget %d@." procs steps
    seeds budget;
  let bad = ref 0 in
  for seed = 1 to seeds do
    let res =
      Explore.random_walk ~seed:(Int64.of_int seed) ~steps ~copy_budget:budget
        (alloc procs)
    in
    match res.Explore.walk_violation with
    | None -> ()
    | Some v ->
        incr bad;
        Fmt.pr "seed %d: %a@." seed
          Fmt.(list Invariants.pp_violation)
          v.Explore.violations
  done;
  Fmt.pr "violations: %d / %d walks@." !bad seeds;
  if !bad = 0 then 0 else 1

let walk_cmd =
  Cmd.v
    (Cmd.info "walk" ~doc:"Random-walk invariant checking.")
    Term.(const walk $ procs_arg $ steps_arg $ seeds_arg $ budget_arg)

(* --- run -------------------------------------------------------------------- *)

module Registry = Netobj_dgc.Registry

let workload_of procs = function
  | "figure1" -> Workload.figure1
  | "chain" -> Workload.chain ~procs
  | "fanout" -> Workload.fanout ~procs
  | "pingpong" -> Workload.pingpong ~rounds:8
  | "churn" -> Workload.churn ~procs ~events:100 ~seed:42L
  | w -> Fmt.failwith "unknown workload %s" w

let run_harness algo workload procs seeds trace_out metrics_out =
  match Registry.find algo with
  | None ->
      Fmt.epr "unknown algorithm %s (have: %s)@." algo
        (String.concat ", " Registry.names);
      1
  | Some make ->
      with_obs ~trace_out ~metrics_out @@ fun () ->
      let premature = ref 0 and leaked = ref 0 and msgs = ref 0 in
      let sends = ref 0 in
      for seed = 1 to seeds do
        let v = make ~procs ~seed:(Int64.of_int seed) in
        let o = Workload.run v (workload_of procs workload) in
        if o.Workload.premature_at <> None then incr premature;
        if o.Workload.leaked then incr leaked;
        msgs := !msgs + o.Workload.total_control;
        sends := !sends + o.Workload.sends_executed
      done;
      Fmt.pr
        "%s on %s (%d procs, %d seeds): premature=%d leaked=%d ctrl-msgs/copy=%.2f@."
        algo workload procs seeds !premature !leaked
        (float_of_int !msgs /. float_of_int (max 1 !sends));
      if !premature > 0 then 1 else 0

let algo_arg =
  Arg.(
    value
    & opt string "birrell"
    & info [ "a"; "algo" ] ~docv:"ALGO"
        ~doc:
          (Printf.sprintf "Algorithm: %s."
             (String.concat ", " Registry.names)))

let workload_arg =
  Arg.(
    value
    & opt string "chain"
    & info [ "w"; "workload" ] ~docv:"W"
        ~doc:"Workload: figure1, chain, fanout, pingpong, churn.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run an algorithm against a workload with the safety oracle.")
    Term.(
      const run_harness $ algo_arg $ workload_arg
      $ procs_arg $ seeds_arg $ trace_out_arg $ metrics_out_arg)

(* --- fifo -------------------------------------------------------------------- *)

let fifo_check procs budget =
  Fmt.pr "model-checking the FIFO variant: %d processes, copy budget %d@."
    procs budget;
  let init = F.apply (F.init ~procs ~refs:[ r0 ]) (F.Allocate (0, r0)) in
  let module Cfgset = Set.Make (struct
    type t = F.config

    let compare = F.compare_config
  end) in
  let seen = ref (Cfgset.singleton init) in
  let q = Queue.create () in
  Queue.push (init, 0) q;
  let states = ref 1 in
  let bad = ref None in
  while (not (Queue.is_empty q)) && !bad = None do
    let c, spent = Queue.pop q in
    (match F.check c with
    | [] -> ()
    | vs -> bad := Some vs);
    let env =
      List.filter
        (fun t -> match t with F.Make_copy _ -> spent < budget | _ -> true)
        (F.enabled_environment c)
    in
    List.iter
      (fun t ->
        let cost = match t with F.Make_copy _ -> 1 | _ -> 0 in
        let c' = F.apply c t in
        if not (Cfgset.mem c' !seen) then begin
          seen := Cfgset.add c' !seen;
          incr states;
          Queue.push (c', spent + cost) q
        end)
      (env @ F.enabled_protocol c)
  done;
  Fmt.pr "states: %d@." !states;
  match !bad with
  | None ->
      Fmt.pr "all FIFO-variant invariants hold@.";
      0
  | Some vs ->
      Fmt.pr "VIOLATION: %a@." Fmt.(list Invariants.pp_violation) vs;
      1

let fifo_cmd =
  Cmd.v
    (Cmd.info "fifo" ~doc:"Model-check the §5.1 FIFO variant.")
    Term.(const fifo_check $ procs_arg $ budget_arg)

(* --- trace ------------------------------------------------------------------- *)

let trace seed steps procs trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let rng = Netobj_util.Rng.create (Int64.of_int seed) in
  let c = ref (alloc procs) in
  let spent = ref 0 in
  Fmt.pr "random execution (seed %d):@." seed;
  (try
     for i = 1 to steps do
       let env =
         List.filter
           (fun t -> match t with M.Make_copy _ -> !spent < 6 | _ -> true)
           (M.enabled_environment !c)
       in
       match M.enabled_protocol !c @ env with
       | [] -> raise Exit
       | all ->
           let t = Netobj_util.Rng.pick rng all in
           (match t with M.Make_copy _ -> incr spent | _ -> ());
           c := M.apply !c t;
           Fmt.pr "%3d  %-45s measure=%d@." i
             (Fmt.str "%a" M.pp_transition t)
             (Invariants.termination_measure !c)
     done
   with Exit -> ());
  Fmt.pr "@.final configuration:@.%a@." M.pp_config !c;
  0

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Print a random execution with the termination measure.")
    Term.(
      const trace $ seed_arg $ steps_arg
      $ procs_arg $ trace_out_arg $ metrics_out_arg)

(* --- chaos -------------------------------------------------------------------- *)

module Chaos = Netobj_chaos.Chaos

let chaos seed spaces duration objects events cycles partitions
    crashes crash_recovers disk_faults loss_bursts dup_bursts spikes storms
    drain_limit backoff trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let cfg =
    {
      Chaos.default with
      seed = Int64.of_int seed;
      spaces;
      duration;
      objects;
      events;
      cycles;
      mix =
        {
          partitions;
          crashes;
          crash_recovers;
          disk_faults;
          loss_bursts;
          dup_bursts;
          spikes;
          storms;
        };
      drain_limit;
      backoff;
    }
  in
  let r = Chaos.run cfg in
  Fmt.pr "%a" Chaos.pp_report r;
  Chaos.finish r

let chaos_spaces_arg =
  Arg.(
    value & opt int 3
    & info [ "spaces" ] ~docv:"N" ~doc:"Number of spaces (at least 2).")

let duration_arg =
  Arg.(
    value & opt float 20.0
    & info [ "duration" ] ~docv:"T"
        ~doc:"Chaos phase length in virtual seconds.")

let objects_arg =
  Arg.(
    value & opt int 2
    & info [ "objects" ] ~docv:"N" ~doc:"Published counters per space.")

let events_arg =
  Arg.(
    value & opt int 40
    & info [ "events" ] ~docv:"N" ~doc:"Churn operations per mutator.")

let cycles_arg =
  Arg.(
    value & opt int 0
    & info [ "cycles" ] ~docv:"N"
        ~doc:
          "Cross-space reference cycles minted per space (0 = none).  \
           Arms the cycle-detector demon and adds the cycle workload's \
           ground-truth reclamation oracle.")

let mix_arg name default doc =
  Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)

let drain_limit_arg =
  Arg.(
    value & opt float 60.0
    & info [ "drain-limit" ] ~docv:"T"
        ~doc:"Post-heal convergence budget in virtual seconds.")

let backoff_arg =
  Arg.(
    value & opt float 2.0
    & info [ "backoff" ] ~docv:"F"
        ~doc:"Retry backoff multiplier (1 = fixed interval).")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the seeded chaos harness: nemesis fault injection against the \
          full runtime with safety and liveness oracles.  Exits 0 iff the \
          run survived.")
    Term.(
      const chaos $ seed_arg $ chaos_spaces_arg
      $ duration_arg $ objects_arg $ events_arg $ cycles_arg
      $ mix_arg "partitions" 3 "Partitions (healed) in the schedule."
      $ mix_arg "crashes" 2 "Crash+restart faults in the schedule."
      $ mix_arg "crash-recovers" 0
          "Crash+recover faults in the schedule (makes spaces durable)."
      $ mix_arg "disk-faults" 0
          "Armed disk faults in the schedule (makes spaces durable)."
      $ mix_arg "loss-bursts" 3 "Packet-loss bursts in the schedule."
      $ mix_arg "dup-bursts" 2 "Duplication bursts in the schedule."
      $ mix_arg "spikes" 2 "Latency spikes in the schedule."
      $ mix_arg "storms" 0
          "Call storms in the schedule (arms the reliability plane: \
           inflight shedding plus retries)."
      $ drain_limit_arg $ backoff_arg $ trace_out_arg $ metrics_out_arg)

(* --- recover ------------------------------------------------------------------- *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Store = Netobj_store.Store
module Scenario = Netobj_chaos.Scenario
module Sched = Netobj_sched.Sched

(* A deterministic crash -> recover -> reconcile -> collect narrative on
   a durable two-space runtime.  The client acquires a reference, the
   owner crashes with a disk fault armed, recovers from its store, the
   client's reassert re-establishes the dirty set, the held reference is
   invoked again (the survival property), and after release the system
   must drain back to ground truth. *)
let recover_run seed fault_name trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let fault =
    match fault_name with
    | "none" -> None
    | "torn-tail" -> Some Store.Torn_tail
    | "lost-suffix" -> Some Store.Lost_suffix
    | f ->
        Fmt.epr "unknown disk fault %s (have: none, torn-tail, lost-suffix)@." f;
        exit 2
  in
  let cfg =
    R.config ~seed:(Int64.of_int seed) ~nspaces:2
      ~edge:(Netobj_net.Net.bag_edge ~lo:0.005 ~hi:0.005 ())
      ~durable:true ~fsync_delay:0.004 ~snapshot_period:30.0
      ~recover_grace:0.2 ~gc_period:0.1 ~clean_retry:0.05 ~dirty_retry:0.05 ()
  in
  let rt = R.create cfg in
  R.register_factory rt "counter" Scenario.counter_meths;
  let sp0 = R.space rt 0 and sp1 = R.space rt 1 in
  let obj = Scenario.counter ~tag:"counter" sp0 in
  R.publish sp0 "counter" obj;
  let owr = R.wirerep obj in
  let held = ref None in
  let v = Scenario.verdict () in
  let poke tag =
    match !held with
    | None -> Scenario.fail v "%s: no held reference" tag
    | Some h -> (
        match Stub.call sp1 h Scenario.m_incr 1 with
        | n -> Fmt.pr "client: poke -> %d@." n
        | exception R.Call_failed f ->
            Scenario.fail v "%s: %a" tag R.pp_failure f)
  in
  Fmt.pr "durable run: 2 spaces, disk fault = %s@." fault_name;
  R.spawn rt ~name:"client-acquire" (fun () ->
      match R.lookup sp1 ~at:0 "counter" with
      | h ->
          Fmt.pr "client: looked up \"counter\" at space 0@.";
          held := Some h;
          poke "pre-crash";
          poke "pre-crash"
      | exception R.Call_failed _ ->
          Scenario.fail v "acquire: lookup failed");
  ignore (R.run ~until:1.0 rt);
  (match fault with
  | Some f ->
      R.set_disk_fault rt 0 (Some f);
      Fmt.pr "armed disk fault on space 0@."
  | None -> ());
  R.crash rt 0;
  Fmt.pr "crashed space 0 (epoch was %d, log %db)@." (R.epoch sp0)
    (R.log_size sp0);
  ignore (R.run ~until:1.5 rt);
  R.recover rt 0;
  Fmt.pr "recovered space 0: epoch %d, cont %d, resident=%b@." (R.epoch sp0)
    (R.cont sp0) (R.resident sp0 owr);
  if not (R.resident sp0 owr) then
    Scenario.fail v "held object lost across recovery";
  (* let the reassert handshake and the grace window run out *)
  ignore (R.run ~until:3.0 rt);
  Fmt.pr "reconciled: unconfirmed=%d@." (R.unconfirmed_count sp0);
  R.spawn rt ~name:"client-after" (fun () ->
      poke "post-recover";
      (match !held with
      | Some h ->
          R.release sp1 h;
          held := None
      | None -> ());
      Fmt.pr "client: released@.");
  ignore (R.run ~until:5.0 rt);
  (* drop the owner's own handle root and the published binding so the
     object can drain once the client's clean lands *)
  R.release sp0 obj;
  R.unpublish sp0 "counter";
  Scenario.drain ~horizon:2.0
    ~pending:(fun () -> Scenario.surrogates rt > 0 || R.resident sp0 owr)
    rt;
  Scenario.report v (Scenario.drain_problems rt @ Scenario.safety_problems rt);
  if R.resident sp0 owr then Scenario.fail v "released object not reclaimed";
  Fmt.pr "drained: surrogates=0, object reclaimed, consistency ok@.";
  Scenario.finish v

let disk_fault_arg =
  Arg.(
    value & opt string "lost-suffix"
    & info [ "disk-fault" ] ~docv:"KIND"
        ~doc:
          "Disk fault armed before the crash: $(b,none), $(b,torn-tail) or \
           $(b,lost-suffix).")

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run a deterministic crash/recovery narrative on a durable \
          two-space runtime: acquire, crash the owner under a disk fault, \
          recover from the write-ahead log, reconcile, invoke the held \
          reference again, release, and drain.  Exits 0 iff every step \
          held.")
    Term.(
      const recover_run $ seed_arg $ disk_fault_arg
      $ trace_out_arg $ metrics_out_arg)

(* --- cycles -------------------------------------------------------------------- *)

(* A deterministic narrative of the distributed cycle detector: three
   spaces build a cross-space reference ring, a detector pass while the
   ring is rooted must keep it, the listing collector is shown to leak
   it once the roots drop, and the trial-deletion detector reclaims
   it. *)
let cycles_run seed trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let n = 3 in
  let cfg =
    R.config ~seed:(Int64.of_int seed) ~nspaces:n
      ~edge:(Netobj_net.Net.bag_edge ~lo:0.005 ~hi:0.005 ())
      ~gc_period:0.1 ~clean_retry:0.05 ~dirty_retry:0.05 ()
  in
  let rt = R.create cfg in
  let v = Scenario.verdict () in
  let nodes = Scenario.ring rt ~nodes:n in
  let resident () =
    Array.fold_left
      (fun c (sp, h) -> if R.resident sp (R.wirerep h) then c + 1 else c)
      0 nodes
  in
  let settle () =
    Scenario.drain ~rounds:5 ~horizon:2.0 ~pending:(fun () -> true) rt
  in
  let detector_pass () =
    let committed = ref 0 in
    List.iter
      (fun sp ->
        R.spawn rt
          ~name:(Printf.sprintf "detector-%d" (R.space_id sp))
          (fun () -> committed := !committed + R.cycle_collect sp))
      (R.spaces rt);
    ignore (R.run ~until:(Sched.now (R.sched rt) +. 5.0) rt);
    !committed
  in
  Fmt.pr "built: %d spaces, one published node each@." n;
  ignore (R.run ~until:1.0 rt);
  Fmt.pr "linked: node0 -> node1 -> node2 -> node0 across the wire@.";
  (* a trial on the rooted ring must abort: the probes find the roots *)
  let c = detector_pass () in
  settle ();
  if c <> 0 then
    Scenario.fail v "detector reclaimed a rooted ring (committed %d)" c;
  Fmt.pr "detector pass with live roots: committed %d, resident %d/%d (kept)@."
    c (resident ()) n;
  (* drop every root: the ring is now garbage only a cycle detector can
     see — each node is held alive by the next space's dirty entry *)
  Array.iteri
    (fun i (sp, h) ->
      R.unpublish sp (Printf.sprintf "node%d" i);
      R.release sp h)
    nodes;
  settle ();
  Fmt.pr "roots dropped: listing collector leaves resident %d/%d (leaked)@."
    (resident ()) n;
  if resident () <> n then
    Scenario.fail v "expected the listing collector to leak the ring";
  let c = detector_pass () in
  settle ();
  Fmt.pr "detector pass: committed %d, resident %d/%d@." c (resident ()) n;
  if resident () <> 0 then
    Scenario.fail v "cycle not reclaimed (resident %d)" (resident ());
  let trials, aborts, collected =
    List.fold_left
      (fun (t, a, c) sp ->
        let st = R.cycle_stats sp in
        (t + st.R.trials, a + st.R.aborts, c + st.R.collected))
      (0, 0, 0) (R.spaces rt)
  in
  Fmt.pr "stats: trials=%d aborts=%d collected=%d@." trials aborts collected;
  if collected < n then
    Scenario.fail v "expected at least %d collected, got %d" n collected;
  Scenario.report v (Scenario.drain_problems rt @ Scenario.safety_problems rt);
  Fmt.pr "drained: surrogates=0, consistency ok, safety ok@.";
  Scenario.finish v

let cycles_cmd =
  Cmd.v
    (Cmd.info "cycles"
       ~doc:
         "Run a deterministic cycle-collection narrative: three spaces \
          build a cross-space reference ring, a detector pass keeps it \
          while rooted, the listing collector leaks it once the roots \
          drop, and the trial-deletion detector reclaims it.  Exits 0 iff \
          every step held.")
    Term.(
      const cycles_run $ seed_arg $ trace_out_arg
      $ metrics_out_arg)

(* --- scale --------------------------------------------------------------------- *)

(* A deterministic narrative of the aggregated lease plane at scale:
   one owner publishes a registry of a thousand objects, three clients
   import all of them, and the narrative pins the properties that make
   the plane O(clients), not O(handles) — the incremental per-client
   aggregates agree with a from-scratch fold over the object table,
   one ping/ack pair per (client, owner) pair per tick renews every
   entry, a crashed client's whole aggregate is dropped by a single
   lease expiry, and the sharded name service spreads bindings across
   agent homes. *)
let scale_run seed trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let n = 4 and nobjs = 1000 in
  let cfg =
    R.config ~seed:(Int64.of_int seed) ~nspaces:n
      ~edge:(Netobj_net.Net.bag_edge ~lo:0.005 ~hi:0.005 ())
      ~gc_period:0.5 ~ping_period:1.0 ~lease_misses:3 ()
  in
  let rt = R.create cfg in
  let v = Scenario.verdict () in
  let sp i = R.space rt i in
  let owner = sp 0 in
  let reg, _ = Scenario.registry owner nobjs in
  R.publish owner "reg" reg;
  Fmt.pr "built: 1 owner, %d clients, %d objects behind a registry@." (n - 1)
    nobjs;
  (* every client imports the full registry *)
  let held = Array.make n [] in
  for c = 1 to n - 1 do
    R.spawn rt
      ~name:(Printf.sprintf "importer-%d" c)
      (fun () ->
        match R.lookup (sp c) ~at:0 "reg" with
        | s ->
            held.(c) <- Stub.call (sp c) s Scenario.m_all ();
            R.release (sp c) s
        | exception R.Call_failed _ ->
            Scenario.fail v "importer %d: lookup failed" c)
  done;
  ignore (R.run ~until:4.3 rt);
  for c = 1 to n - 1 do
    if List.length held.(c) <> nobjs then
      Scenario.fail v "client %d import short" c
  done;
  let entries c = R.lease_entries owner c in
  Fmt.pr "imported: leases cover %d+%d+%d entries across %d clients@."
    (entries 1) (entries 2) (entries 3) (n - 1);
  if entries 1 <> nobjs || entries 2 <> nobjs || entries 3 <> nobjs then
    Scenario.fail v "expected %d entries per client lease" nobjs;
  (match R.lease_check owner with
  | [] -> Fmt.pr "aggregates: incremental = from-scratch table fold (ok)@."
  | p :: _ -> Scenario.fail v "aggregates diverged: %s" p);
  (* heartbeat cost: per (client, owner) pair per tick, not per entry *)
  let before = (R.gc_stats owner).R.pings in
  ignore (R.run ~until:10.3 rt);
  let pings = (R.gc_stats owner).R.pings - before in
  Fmt.pr "heartbeats: %d pings over 6 ticks renew %d entries@." pings
    (entries 1 + entries 2 + entries 3);
  if pings <> (n - 1) * 6 then
    Scenario.fail v "expected %d pings, got %d" ((n - 1) * 6) pings;
  (* a dead client's whole aggregate goes in one expiry *)
  R.crash rt 3;
  ignore (R.run ~until:16.3 rt);
  let evictions = (R.gc_stats owner).R.evictions in
  Fmt.pr "crash: client 3 dead, one lease expiry dropped %d entries@."
    evictions;
  if evictions <> nobjs then
    Scenario.fail v "expected %d evicted entries" nobjs;
  if entries 3 <> 0 then
    Scenario.fail v "client 3 still holds %d entries" (entries 3);
  if entries 1 <> nobjs || entries 2 <> nobjs then
    Scenario.fail v "surviving clients lost entries";
  (match R.lease_check owner with
  | [] -> Fmt.pr "aggregates: still exact after the eviction (ok)@."
  | p :: _ -> Scenario.fail v "aggregates diverged after eviction: %s" p);
  (* sharded namespace: bindings spread across the surviving agent
     homes (remote publishes block, so they run on a fiber) *)
  let svcs = [ "svc0"; "svc1"; "svc2"; "svc4"; "svc5" ] in
  R.spawn rt ~name:"sharded-publish" (fun () ->
      List.iter (fun name -> R.publish_sharded owner name reg) svcs);
  ignore (R.run ~until:17.3 rt);
  let homes = List.map (fun name -> R.agent_home rt name) svcs in
  Fmt.pr "sharded agent: %a homed at %a@."
    Fmt.(list ~sep:(any " ") string)
    svcs
    Fmt.(list ~sep:(any " ") int)
    homes;
  if List.sort_uniq compare homes = [ 0 ] then
    Scenario.fail v "sharding sent every name to one agent";
  R.spawn rt ~name:"sharded-lookup" (fun () ->
      match R.lookup_sharded (sp 1) "svc5" with
      | h -> R.release (sp 1) h
      | exception R.Call_failed _ ->
          Scenario.fail v "sharded lookup failed");
  ignore (R.run ~until:18.3 rt);
  Scenario.report v (Scenario.fiber_problems rt @ Scenario.safety_problems rt);
  Fmt.pr "checked: safety ok, lease aggregates ok@.";
  Scenario.finish v

let scale_cmd =
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run a deterministic narrative of the aggregated lease plane at \
          scale: three clients import a thousand objects each, the \
          incremental per-client aggregates are checked against a \
          from-scratch table fold, heartbeat traffic is shown to be per \
          (client, owner) pair rather than per entry, a crashed client's \
          aggregate is dropped by one expiry, and the sharded name \
          service spreads bindings across agent homes.  Exits 0 iff \
          every step held.")
    Term.(
      const scale_run $ seed_arg $ trace_out_arg
      $ metrics_out_arg)

(* --- reliability --------------------------------------------------------------- *)

(* A deterministic narrative of the call-reliability plane: a lost call
   is retransmitted and succeeds, a lost reply is retransmitted and hits
   the owner's reply cache instead of re-executing (at-most-once), a
   herd over the bounded inflight gate is shed and recovers through
   backoff, and an abandoned call's Cancel releases the reply's
   transient pin long before the pin timeout would. *)
let reliability_run seed trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let module Transport = Netobj_transport.Transport in
  let module P = Netobj_pickle.Pickle in
  let m_echo = Stub.declare "echo" P.int P.int in
  let m_slow = Stub.declare "slow" P.int P.int in
  let m_mint = Stub.declare "mint" P.unit R.handle_codec in
  let cfg =
    R.config ~seed:(Int64.of_int seed) ~nspaces:2
      ~edge:(Netobj_net.Net.bag_edge ~lo:0.005 ~hi:0.005 ())
      ~call_timeout:0.05 ~call_retries:2 ~max_inflight:4 ~pin_timeout:30.0
      ~gc_period:0.1 ~clean_retry:0.05 ~dirty_retry:0.05 ()
  in
  let rt = R.create cfg in
  let sched = R.sched rt in
  let tr = R.transport rt in
  let v = Scenario.verdict () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let execs = ref 0 in
  let echo =
    R.allocate owner
      ~meths:
        [
          Stub.implement m_echo (fun _ n ->
              incr execs;
              n + 1);
        ]
  in
  let slow =
    R.allocate owner
      ~meths:
        [
          Stub.implement m_slow (fun _ n ->
              Sched.sleep sched 0.02;
              n);
        ]
  in
  let minted = ref None in
  let mint =
    R.allocate owner
      ~meths:
        [
          Stub.implement m_mint (fun sp () ->
              let h = R.allocate sp ~meths:[] in
              minted := Some (R.wirerep h);
              R.release sp h;
              h);
        ]
  in
  R.publish owner "echo" echo;
  R.publish owner "slow" slow;
  R.publish owner "mint" mint;
  Fmt.pr
    "built: 2 spaces, call_timeout=50ms retries=2 inflight gate=4 \
     pin_timeout=30s@.";
  let retried () = (R.call_stats client).R.c_retried in
  let ost () = R.call_stats owner in
  R.spawn rt ~name:"client" (fun () ->
      let he = R.lookup client ~at:0 "echo" in
      let hs = R.lookup client ~at:0 "slow" in
      let hm = R.lookup client ~at:0 "mint" in
      let r0 = retried () in
      (* act 1: the first attempt's Call is swallowed by the network *)
      Transport.set_burst tr ~src:1 ~dst:0 ~loss:1.0
        ~until:(Sched.now sched +. 0.02)
        ();
      (match Stub.call client he m_echo 41 with
      | n ->
          Fmt.pr
            "lost call: echo(41)=%d after %d retransmit(s), owner executed \
             %d@."
            n
            (retried () - r0)
            !execs
      | exception e ->
          Scenario.fail v "lost call: %s" (Printexc.to_string e));
      if !execs <> 1 then
        Scenario.fail v "lost call: owner executed %d times" !execs;
      (* act 2: the Reply is swallowed; the retransmit must hit the
         owner's reply cache, not the method *)
      let r1 = retried () and d1 = (ost ()).R.c_deduped in
      Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0
        ~until:(Sched.now sched +. 0.02)
        ();
      (match Stub.call client he m_echo 98 with
      | n ->
          Fmt.pr
            "lost reply: echo(98)=%d after %d retransmit(s), deduped %d, \
             owner executed %d (not re-executed)@."
            n
            (retried () - r1)
            ((ost ()).R.c_deduped - d1)
            !execs
      | exception e ->
          Scenario.fail v "lost reply: %s" (Printexc.to_string e));
      if !execs <> 2 then
        Scenario.fail v
          "lost reply: owner executed %d times (at-most-once broken)"
          !execs;
      (* act 3: a herd of 12 against the 4-slot gate; shed calls back
         off and drain through in waves *)
      let herd = 12 and done_ok = ref 0 and done_err = ref 0 in
      let left = ref 12 in
      for i = 1 to herd do
        R.spawn rt
          ~name:(Printf.sprintf "herd-%d" i)
          (fun () ->
            (match Stub.call client hs m_slow i with
            | _ -> incr done_ok
            | exception R.Call_failed _ -> incr done_err);
            decr left)
      done;
      while !left > 0 do
        Sched.sleep sched 0.05
      done;
      Fmt.pr "storm: herd=%d gate=4 — completed=%d failed=%d, owner shed %d \
              Busy@."
        herd !done_ok !done_err (ost ()).R.c_shed;
      if (ost ()).R.c_shed = 0 then
        Scenario.fail v "storm: the gate never shed";
      if !done_ok <> herd then
        Scenario.fail v "storm: %d of %d herd calls failed" !done_err herd;
      (* act 4: every Reply is lost; the caller exhausts its attempts,
         abandons, and its Cancel must release the minted object's
         reply pin instead of waiting out the 30s pin timeout *)
      Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0
        ~until:(Sched.now sched +. 1.0)
        ();
      (match Stub.call client hm m_mint () with
      | _ -> Scenario.fail v "cancel: call succeeded with every reply lost"
      | exception R.Call_failed (No_reply _ as f) ->
          Fmt.pr "cancel: caller abandoned: %a@." R.pp_failure f);
      Transport.set_burst tr ~src:0 ~dst:1 ~loss:0.0 ~until:(Sched.now sched) ();
      R.release client he;
      R.release client hs;
      R.release client hm);
  ignore (R.run ~until:5.0 rt);
  (* drain: cleans + the cancelled call's released pin *)
  Scenario.drain ~horizon:2.0 rt;
  let t_drain = Sched.now sched in
  (match !minted with
  | None -> Scenario.fail v "cancel: the mint method never ran"
  | Some wr ->
      if R.resident owner wr then
        Scenario.fail v "cancel: minted object still pinned at the owner"
      else
        Fmt.pr
          "cancel: minted object reclaimed at t=%.2fs — the Cancel released \
           the pin, not the 30s timeout@."
          t_drain);
  let st = ost () in
  Fmt.pr "stats: client retried=%d; owner deduped=%d shed=%d cancelled=%d@."
    (retried ()) st.R.c_deduped st.R.c_shed st.R.c_cancelled;
  if st.R.c_cancelled = 0 then
    Scenario.fail v "owner never processed the Cancel";
  Scenario.report v (Scenario.drain_problems rt @ Scenario.safety_problems rt);
  Fmt.pr "drained: surrogates=0, consistency ok, safety ok@.";
  Scenario.finish v

let reliability_cmd =
  Cmd.v
    (Cmd.info "reliability"
       ~doc:
         "Run a deterministic narrative of the call-reliability plane: a \
          lost call is retransmitted, a lost reply hits the owner's reply \
          cache instead of re-executing (at-most-once), a herd over the \
          bounded inflight gate is shed and drains through backoff, \
          and an abandoned call's Cancel releases the reply's \
          transient pin immediately.  Exits 0 iff every step held.")
    Term.(
      const reliability_run $ seed_arg
      $ trace_out_arg $ metrics_out_arg)

(* --- serve / connect / transport-demo ----------------------------------------- *)

module Transport = Netobj_transport.Transport
module Tcp = Netobj_transport.Tcp
module Faulty = Netobj_transport.Faulty

(* Spaces as real OS processes: [serve] hosts one space of an
   [--spaces]-wide world behind a TCP listener, [connect] is a pure
   client (no listener — servers reply on the connection the request
   arrived on), and [transport-demo] orchestrates two servers plus a
   client through a kill/restart recovery round with deterministic
   output for the cram test. *)

let parse_peer s =
  match String.split_on_char ':' s with
  | [ a; host; port ] -> (
      match (int_of_string_opt a, int_of_string_opt port) with
      | Some a, Some port -> (a, { Tcp.host; port })
      | _ -> Fmt.failwith "bad --peer %S (want ADDR:HOST:PORT)" s)
  | _ -> Fmt.failwith "bad --peer %S (want ADDR:HOST:PORT)" s

let tcp_config ?tcp_ref ~seed ~spaces ~serving ~endpoints () =
  R.config ~seed:(Int64.of_int seed) ~nspaces:spaces ~call_timeout:5.0
    ~dirty_timeout:5.0
    ~transport:(fun sched _net ->
      let tcp = Tcp.create ~sched ~serving ~endpoints () in
      (match tcp_ref with Some r -> r := Some tcp | None -> ());
      Faulty.wrap ~sched ~seed:(Int64.of_int seed) (Tcp.transport tcp))
    ()

let serve addr spaces port portfile peers seed epoch duration
    quiet =
  let endpoints =
    (addr, { Tcp.host = "127.0.0.1"; port }) :: List.map parse_peer peers
  in
  let tcp_ref = ref None in
  let rt =
    R.create (tcp_config ~tcp_ref ~seed ~spaces ~serving:[ addr ] ~endpoints ())
  in
  (match portfile with
  | None -> ()
  | Some path ->
      (* Tell watchers the (possibly ephemeral) port only once it is
         accepting: write-then-rename so a reader never sees a partial
         file. *)
      let bound =
        match !tcp_ref with Some tcp -> Tcp.bound_port tcp addr | None -> port
      in
      let tmp = path ^ ".tmp" in
      write_file tmp (string_of_int bound);
      Sys.rename tmp path);
  for _ = 1 to epoch do
    R.crash rt addr;
    R.restart rt addr
  done;
  let sp = R.space rt addr in
  let obj = Scenario.counter sp in
  R.publish sp "counter" obj;
  if not quiet then
    Fmt.pr "serving space %d/%d: \"counter\" published (epoch %d)@." addr
      spaces (R.epoch sp);
  let deadline = Unix.gettimeofday () +. duration in
  Scenario.drive rt ~deadline ~stop:(fun () -> false);
  0

let connect addr spaces peers seed =
  let endpoints = List.map parse_peer peers in
  let targets = List.sort Int.compare (List.map fst endpoints) in
  let rt = R.create (tcp_config ~seed ~spaces ~serving:[] ~endpoints ()) in
  let sp = R.space rt addr in
  let finished = ref false and failed = ref false in
  R.spawn rt ~name:"connect-client" (fun () ->
      List.iter
        (fun a ->
          match R.lookup sp ~at:a "counter" with
          | h ->
              (match Stub.call sp h Scenario.m_incr 1 with
              | n -> Fmt.pr "connect: counter@%d incr -> %d@." a n
              | exception R.Call_failed _ ->
                  failed := true;
                  Fmt.pr "connect: counter@%d call failed@." a);
              R.release sp h
          | exception R.Call_failed _ ->
              failed := true;
              Fmt.pr "connect: counter@%d lookup failed@." a)
        targets;
      (* let the releases' clean messages drain before exiting *)
      R.collect sp;
      Sched.sleep (R.sched rt) 0.3;
      finished := true);
  let deadline = Unix.gettimeofday () +. 30.0 in
  Scenario.drive rt ~deadline ~stop:(fun () -> !finished);
  if not !finished then begin
    Fmt.pr "connect: did not complete@.";
    failed := true
  end;
  if !failed then 1 else 0

(* {2 transport-demo} *)

(* Child with stdout/stderr silenced: server chatter must not pollute
   the demo's deterministic narrative. *)
let spawn_quiet args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      null null null
  in
  Unix.close null;
  pid

let run_inherit args =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 255

let kill_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let transport_demo seed =
  let p0 = Scenario.free_port () and p1 = Scenario.free_port () in
  let peer a port = Printf.sprintf "%d:127.0.0.1:%d" a port in
  let serve_args a port ~other ~epoch =
    [
      "serve";
      "--addr";
      string_of_int a;
      "--spaces";
      "4";
      "--port";
      string_of_int port;
      "--peer";
      (match other with o, op -> peer o op);
      "--seed";
      string_of_int seed;
      "--epoch";
      string_of_int epoch;
      "--duration";
      "60";
    ]
  in
  let pid0 = ref (spawn_quiet (serve_args 0 p0 ~other:(1, p1) ~epoch:0)) in
  let pid1 = spawn_quiet (serve_args 1 p1 ~other:(0, p0) ~epoch:0) in
  let cleanup () =
    kill_wait !pid0;
    kill_wait pid1
  in
  let v = Scenario.verdict () in
  if
    not
      (Scenario.wait_port p0 ~timeout:10.0
      && Scenario.wait_port p1 ~timeout:10.0)
  then begin
    cleanup ();
    Scenario.fail v "servers did not come up";
    Scenario.finish v
  end
  else begin
    Fmt.pr "demo: two servers up (spaces 0 and 1)@.";
    (* A separate [connect] process does the first round trip, so the
       full serve/connect CLI surface is exercised cross-process. *)
    let st =
      run_inherit
        [
          "connect";
          "--addr";
          "3";
          "--spaces";
          "4";
          "--peer";
          peer 0 p0;
          "--peer";
          peer 1 p1;
          "--seed";
          string_of_int seed;
        ]
    in
    if st <> 0 then Scenario.fail v "connect client exited %d" st
    else Fmt.pr "demo: connect client done@.";
    (* Now a longer-lived client (space 2, in this process) that holds a
       reference across the owner's death and restart. *)
    let rt =
      R.create
        (tcp_config ~seed ~spaces:4 ~serving:[]
           ~endpoints:
             [
               (0, { Tcp.host = "127.0.0.1"; port = p0 });
               (1, { Tcp.host = "127.0.0.1"; port = p1 });
             ]
           ())
    in
    let sp = R.space rt 2 in
    let finished = ref false in
    let incr_to tag h =
      match Stub.call sp h Scenario.m_incr 1 with
      | n -> Fmt.pr "client: %s incr -> %d@." tag n
      | exception R.Call_failed _ ->
          Scenario.fail v "%s incr failed" tag
    in
    R.spawn rt ~name:"demo-client" (fun () ->
        let h0 = R.lookup sp ~at:0 "counter" in
        let h1 = R.lookup sp ~at:1 "counter" in
        incr_to "counter@0" h0;
        incr_to "counter@0" h0;
        incr_to "counter@1" h1;
        kill_wait !pid0;
        Fmt.pr "demo: killed server 0@.";
        (match Stub.call sp h0 Scenario.m_incr 1 with
        | _ -> Scenario.fail v "call to dead owner succeeded"
        | exception R.Call_failed _ ->
            Fmt.pr "client: call to dead owner: failed@.");
        pid0 := spawn_quiet (serve_args 0 p0 ~other:(1, p1) ~epoch:1);
        if not (Scenario.wait_port p0 ~timeout:10.0) then
          Scenario.fail v "server 0 did not restart"
        else begin
          Fmt.pr "demo: restarted server 0 with epoch 1@.";
          (* The stale surrogate's call is rejected by the higher-epoch
             incarnation; the reject teaches this client the new epoch
             and evicts the dead incarnation's surrogates. *)
          (match Stub.call sp h0 Scenario.m_incr 1 with
          | _ -> Scenario.fail v "stale call succeeded"
          | exception R.Call_failed _ ->
              Fmt.pr "client: stale call: failed@.");
          Sched.sleep (R.sched rt) 1.0;
          R.release sp h0;
          (match R.lookup sp ~at:0 "counter" with
          | h0' ->
              incr_to "fresh counter@0" h0';
              R.release sp h0'
          | exception R.Call_failed _ ->
              Scenario.fail v "fresh lookup failed");
          incr_to "counter@1" h1;
          R.release sp h1
        end;
        finished := true);
    let deadline = Unix.gettimeofday () +. 60.0 in
    Scenario.drive rt ~deadline ~stop:(fun () -> !finished);
    Scenario.report v (Scenario.fiber_problems rt);
    if not !finished then Scenario.fail v "demo client did not complete";
    cleanup ();
    Fmt.pr "demo: shutdown@.";
    Scenario.finish v
  end

let addr_arg =
  Arg.(
    value & opt int 0
    & info [ "addr" ] ~docv:"A" ~doc:"Space address for this process.")

let spaces_arg =
  Arg.(
    value & opt int 2
    & info [ "spaces" ] ~docv:"N" ~doc:"Width of the address space.")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"P"
        ~doc:"TCP port to listen on (0 binds an ephemeral port).")

let portfile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "portfile" ] ~docv:"FILE"
        ~doc:"Write the listening port to $(docv) once accepting.")

let peers_arg =
  Arg.(
    value & opt_all string []
    & info [ "peer" ] ~docv:"ADDR:HOST:PORT"
        ~doc:"Endpoint of a remote space (repeatable).")

let epoch_arg =
  Arg.(
    value & opt int 0
    & info [ "epoch" ] ~docv:"E"
        ~doc:
          "Incarnation epoch to start at: the space is crashed and \
           restarted $(docv) times before publishing, so a relaunched \
           process outranks its predecessor's surrogates.")

let serve_duration_arg =
  Arg.(
    value & opt float 120.0
    & info [ "duration" ] ~docv:"T"
        ~doc:"Exit after $(docv) wall-clock seconds.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the startup banner.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host one space of a multi-space world behind a real TCP \
          listener: publishes a \"counter\" object and answers invoke, \
          dirty, clean and lookup traffic from remote processes until \
          the duration expires.")
    Term.(
      const serve $ addr_arg $ spaces_arg
      $ port_arg $ portfile_arg $ peers_arg $ seed_arg $ epoch_arg
      $ serve_duration_arg $ quiet_arg)

let connect_cmd =
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Run a client space against remote $(b,serve) processes: look \
          up each peer's \"counter\", invoke it once, release, and \
          exit 0 iff every round trip succeeded.  The client binds no \
          listener — replies ride the request connection.")
    Term.(
      const connect $ addr_arg $ spaces_arg
      $ peers_arg $ seed_arg)

let transport_demo_cmd =
  Cmd.v
    (Cmd.info "transport-demo"
       ~doc:
         "Cross-process recovery narrative: spawn two $(b,serve) \
          processes, run a $(b,connect) client round trip, then from a \
          longer-lived client kill server 0 mid-conversation, observe \
          the failed call, restart it at a higher epoch, observe the \
          stale surrogate being rejected, and re-import fresh.  Output \
          is deterministic (ports are never printed); exits 0 iff the \
          narrative held.")
    Term.(const transport_demo $ seed_arg)

(* --- par ----------------------------------------------------------------------- *)

(* Multi-space invoke storm with the safety oracle, on either engine
   (the kit's storm: the counters must sum to the calls sent, no
   increment lost or invented across domains), then the drain and
   safety oracles: no fiber died, the runtime's quiescent invariants
   hold, every dirty set and surrogate drained.  cli.t runs it on a
   forced 4-domain pool. *)
let par engine seed spaces domains calls =
  let rt =
    R.create
      (R.config ~seed:(Int64.of_int seed) ~nspaces:spaces ~domains ~engine
         ~gc_period:0.5 ())
  in
  let v = Scenario.verdict () in
  Fmt.pr "par: engine=%s spaces=%d shards=%d calls/space=%d@."
    (R.engine_name rt) spaces (R.nshards rt) calls;
  let s = Scenario.storm ~seed ~calls rt in
  Scenario.report v s.Scenario.problems;
  if s.Scenario.counted = s.Scenario.sent then
    Fmt.pr "par: %d calls accounted for@." s.Scenario.counted;
  Scenario.report v (Scenario.drain_problems rt @ Scenario.safety_problems rt);
  if s.Scenario.drained then Fmt.pr "par: dirty sets drained, invariants ok@.";
  Scenario.finish v

(* The only subcommand with a choice of engine: every other one drives
   the deterministic sim engine. *)
let par_engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("sim", (module Netobj_engine.Engine_sim : R.Engine.S));
             ("domains", (module Netobj_engine.Engine_domains : R.Engine.S));
           ])
        (module Netobj_engine.Engine_domains : R.Engine.S)
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,sim) (deterministic single-domain fibers — \
           the substrate for mc, chaos and replay) or $(b,domains) (spaces \
           sharded across OCaml domains, parallel and nondeterministic).")

let par_spaces_arg =
  Arg.(
    value & opt int 8
    & info [ "spaces" ] ~docv:"N" ~doc:"Number of spaces in the storm.")

let par_domains_arg =
  Arg.(
    value & opt int 4
    & info [ "domains" ] ~docv:"N"
        ~doc:"Domain budget for the $(b,domains) engine (shards = min \
              spaces domains).")

let par_calls_arg =
  Arg.(
    value & opt int 200
    & info [ "calls" ] ~docv:"N" ~doc:"Remote calls issued per space.")

let par_cmd =
  Cmd.v
    (Cmd.info "par"
       ~doc:
         "Run a multi-space cross-shard invoke storm with the safety \
          oracle: counters must account for every call, the paper's \
          safety invariants must hold at quiescence, and every dirty \
          set must drain.  Defaults to the $(b,domains) engine; exits 0 \
          iff the storm survived.")
    Term.(
      const par $ par_engine_arg $ seed_arg $ par_spaces_arg
      $ par_domains_arg $ par_calls_arg)

(* --- mc ----------------------------------------------------------------------- *)

module Mc = Netobj_mc.Mc
module Json = Netobj_obs.Json

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let print_stats (s : Mc.stats) =
  Fmt.pr
    "schedules=%d choices=%d states=%d pruned(sleep)=%d pruned(state)=%d \
     deferred=%d deepest=%d exhausted=%b@."
    s.Mc.schedules s.Mc.choices s.Mc.states s.Mc.pruned_sleep s.Mc.pruned_state
    s.Mc.deferred_preempt s.Mc.deepest s.Mc.exhausted

(* Re-execute a recorded schedule; 0 = clean, 1 = problems reproduced,
   3 = the execution diverged from the recording (a determinism bug). *)
let mc_replay sc (schedule : Mc.schedule) =
  match Mc.replay sc schedule with
  | Error msg ->
      Fmt.pr "replay DIVERGED: %s@." msg;
      3
  | Ok [] ->
      Fmt.pr "replay: clean (%d choices)@." (List.length schedule);
      0
  | Ok problems ->
      Fmt.pr "replay: reproduced %d problem(s):@." (List.length problems);
      List.iter (fun p -> Fmt.pr "  %s@." p) problems;
      1

let mc scenario_name mode leak max_schedules max_depth
    preemptions slots seed cex_out replay_file trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  match replay_file with
  | Some path -> (
      match Json.of_string (read_file path) with
      | Error e ->
          Fmt.epr "%s: bad JSON: %s@." path e;
          2
      | Ok j -> (
          match Mc.counterexample_of_json j with
          | Error e ->
              Fmt.epr "%s: bad counterexample: %s@." path e;
              2
          | Ok (name, schedule) -> (
              (* a counterexample names the scenario that produced it;
                 "lookup-leak" implies the bug flag regardless of --leak *)
              match
                Mc.find_scenario name ~leak:(leak || name = "lookup-leak")
              with
              | None ->
                  Fmt.epr "%s: unknown scenario %s@." path name;
                  2
              | Some sc ->
                  Fmt.pr "replaying %s (%d choices) from %s@." name
                    (List.length schedule) path;
                  mc_replay sc schedule)))
  | None -> (
      match Mc.find_scenario scenario_name ~leak with
      | None ->
          Fmt.epr "unknown scenario %s (have: %s)@." scenario_name
            (String.concat ", " Mc.scenario_names);
          2
      | Some sc ->
          let bounds =
            {
              Mc.max_schedules;
              max_depth;
              max_preemptions = preemptions;
              slots;
            }
          in
          Fmt.pr "mc %s: scenario=%s bounds={schedules=%d depth=%d \
                  preemptions=%d slots=%d}@."
            mode sc.Mc.sc_name max_schedules max_depth preemptions slots;
          let res =
            match mode with
            | "guided" -> Mc.guided ~bounds ~seed:(Int64.of_int seed) sc
            | _ -> Mc.explore ~bounds sc
          in
          print_stats res.Mc.stats;
          (match res.Mc.violation with
          | None ->
              Fmt.pr "no violation found@.";
              0
          | Some v ->
              Fmt.pr "VIOLATION at schedule %d (%d choices):@."
                v.Mc.v_at_schedule
                (List.length v.Mc.v_schedule);
              List.iter (fun p -> Fmt.pr "  %s@." p) v.Mc.v_problems;
              (match cex_out with
              | Some path ->
                  write_file path
                    (Json.to_string
                       (Mc.counterexample_to_json ~scenario:sc.Mc.sc_name
                          ~nemesis:sc.Mc.sc_nemesis v));
                  Fmt.pr "counterexample written to %s@." path
              | None -> ());
              (* prove the counterexample replays before reporting it *)
              ignore (mc_replay sc v.Mc.v_schedule);
              1))

let scenario_arg =
  Arg.(
    value & opt string "dgc2"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Scenario: dgc2, dgc3, lookup, recover, dgc-cycle, call-retry \
           (dgc-cycle-broken enables the skip-confirm detector bug; \
           call-retry-no-dedup disables the at-most-once reply cache).")

let mode_arg =
  Arg.(
    value & opt string "exhaustive"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"$(b,exhaustive) (DFS with preemption bounding and pruning) or \
              $(b,guided) (seeded random schedule sampling).")

let leak_arg =
  Arg.(
    value & flag
    & info [ "leak" ]
        ~doc:"Enable the historical lookup agent-root leak \
              (bug_lookup_leak) in the lookup scenario.")

let max_schedules_arg =
  Arg.(
    value & opt int Mc.default_bounds.Mc.max_schedules
    & info [ "max-schedules" ] ~docv:"N"
        ~doc:"Executions before giving up (0 = unlimited).")

let max_depth_arg =
  Arg.(
    value & opt int Mc.default_bounds.Mc.max_depth
    & info [ "max-depth" ] ~docv:"N" ~doc:"Choice points per execution.")

let preemptions_arg =
  Arg.(
    value & opt int Mc.default_bounds.Mc.max_preemptions
    & info [ "preemptions" ] ~docv:"N"
        ~doc:"Largest number of non-default picks per schedule explored.")

let slots_arg =
  Arg.(
    value & opt int Mc.default_bounds.Mc.slots
    & info [ "slots" ] ~docv:"N"
        ~doc:"Delivery slots per contended Bag-edge send.")

let cex_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "counterexample-out" ] ~docv:"FILE"
        ~doc:"Write the first violation as replayable JSON to $(docv).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Re-execute the counterexample in $(docv) instead of exploring.")

let mc_cmd =
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Systematically explore schedules of the real runtime: every \
          scheduler and delivery-order decision becomes a choice point, \
          explored depth-first with iterative preemption bounding, \
          sleep-set pruning and state deduplication, checking the safety \
          oracle at each step and the drain oracles at each end state.  \
          Exits 0 iff no violation was found.")
    Term.(
      const mc $ scenario_arg $ mode_arg $ leak_arg
      $ max_schedules_arg $ max_depth_arg $ preemptions_arg $ slots_arg
      $ seed_arg $ cex_out_arg $ replay_arg $ trace_out_arg $ metrics_out_arg)

(* --- main -------------------------------------------------------------------- *)

let () =
  let doc = "Network Objects distributed-GC simulator and model checker" in
  let info = Cmd.info "netobj_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd;
            walk_cmd;
            run_cmd;
            fifo_cmd;
            trace_cmd;
            chaos_cmd;
            recover_cmd;
            cycles_cmd;
            scale_cmd;
            reliability_cmd;
            serve_cmd;
            connect_cmd;
            transport_demo_cmd;
            par_cmd;
            mc_cmd;
          ]))
