(* Tests for the fault-tolerant machine (§6): equivalence with the base
   algorithm when fault-free, safety under loss/duplication/spurious
   timeouts, recovery through strong cleans and resends, and crash +
   lease eviction. *)

open Netobj_dgc

let workloads procs =
  [
    ("figure1", Workload.figure1);
    ("chain", Workload.chain ~procs);
    ("pingpong", Workload.pingpong ~rounds:5);
  ]

(* Fault-free: the machine must be exactly as safe and live as base
   Birrell. *)
let test_faultfree_sound () =
  List.iter
    (fun (wname, ops) ->
      for seed = 1 to 40 do
        let v, _ = Fault.create ~procs:4 ~seed:(Int64.of_int seed) () in
        let o = Workload.run v ops in
        if o.Workload.premature_at <> None then
          Alcotest.failf "%s seed %d: premature" wname seed;
        if o.Workload.leaked then Alcotest.failf "%s seed %d: leak" wname seed
      done)
    (workloads 4)

(* Duplication alone: sequence numbers make everything idempotent; both
   safety and liveness must hold. *)
let test_duplication_sound () =
  List.iter
    (fun (wname, ops) ->
      for seed = 1 to 40 do
        let v, c =
          Fault.create ~dup_budget:20 ~procs:4 ~seed:(Int64.of_int seed) ()
        in
        let o = Workload.run v ops in
        if o.Workload.premature_at <> None then
          Alcotest.failf "%s seed %d: premature under dup" wname seed;
        if o.Workload.leaked then
          Alcotest.failf "%s seed %d: leak under dup (dups=%d)" wname seed
            (c.Fault.dups_done ())
      done)
    (workloads 4)

(* Loss without timeouts can legitimately lose liveness (a clean may be
   gone forever), but never safety. *)
let test_loss_safe () =
  List.iter
    (fun (wname, ops) ->
      for seed = 1 to 60 do
        let v, _ =
          Fault.create ~drop_budget:6 ~procs:4 ~seed:(Int64.of_int seed) ()
        in
        let o = Workload.run v ops in
        if o.Workload.premature_at <> None then
          Alcotest.failf "%s seed %d: premature under loss" wname seed
      done)
    (workloads 4)

(* Loss + timeouts: the remedial actions (strong cleans, resends) restore
   both safety and liveness. *)
let test_loss_with_recovery_sound () =
  let lost = ref 0 and recovered = ref 0 and outer = ref 0 in
  List.iter
    (fun (wname, ops) ->
      for seed = 1 to 60 do
        let v, c =
          Fault.create ~drop_budget:4 ~dup_budget:4 ~timeout_prob:0.05
            ~procs:4 ~seed:(Int64.of_int seed) ()
        in
        let o = Workload.run v ops in
        lost := !lost + c.Fault.drops_done ();
        outer := !outer + c.Fault.outer_visits ();
        if o.Workload.premature_at <> None then
          Alcotest.failf "%s seed %d: premature under loss+timeout" wname seed;
        if o.Workload.leaked then
          Alcotest.failf
            "%s seed %d: leak despite recovery (drops=%d outer=%d strong=%d)"
            wname seed (c.Fault.drops_done ()) (c.Fault.outer_visits ())
            (c.Fault.strong_cleans ());
        if not o.Workload.leaked then incr recovered
      done)
    (workloads 4);
  Alcotest.(check bool) "faults were actually injected" true (!lost > 0);
  Alcotest.(check bool) "outer cube was visited" true (!outer > 0)

(* Spurious timeouts only (nothing actually lost): unnecessary strong
   cleans and resent cleans must be harmless (TR: "this may cause an
   unnecessary clean call, but that does no harm"). *)
let test_spurious_timeouts_harmless () =
  let strong = ref 0 in
  for seed = 1 to 60 do
    let v, c =
      Fault.create ~timeout_prob:0.15 ~procs:3 ~seed:(Int64.of_int seed) ()
    in
    let o = Workload.run v (Workload.pingpong ~rounds:6) in
    strong := !strong + c.Fault.strong_cleans ();
    if o.Workload.premature_at <> None then
      Alcotest.failf "seed %d: premature under spurious timeouts" seed;
    if o.Workload.leaked then
      Alcotest.failf "seed %d: leak under spurious timeouts" seed
  done;
  Alcotest.(check bool) "strong cleans exercised" true (!strong > 0)

(* Crash + lease eviction: a registered client dies; the owner evicts it
   and the object becomes collectable. *)
let test_crash_eviction () =
  for seed = 1 to 30 do
    let v, c = Fault.create ~procs:3 ~seed:(Int64.of_int seed) () in
    let o1 =
      Workload.run v [ Workload.Send (0, 1); Workload.Steps 200 ]
    in
    ignore o1;
    (* The teardown in run dropped everything; rebuild a fresh scenario
       instead: new instance. *)
    ignore c;
    let v, c = Fault.create ~procs:3 ~seed:(Int64.of_int seed) () in
    (* register client 1 *)
    v.Algo.send ~src:0 ~dst:1;
    let budget = ref 10_000 in
    while v.Algo.step () && !budget > 0 do
      decr budget
    done;
    Alcotest.(check bool) "client holds" true (v.Algo.holds 1);
    (* owner drops its root; object survives via client 1 *)
    v.Algo.drop 0;
    v.Algo.try_collect ();
    Alcotest.(check bool) "not collected while client lives" false
      (v.Algo.collected ());
    (* client crashes; lease eviction reclaims *)
    c.Fault.crash 1;
    let budget = ref 10_000 in
    while v.Algo.step () && !budget > 0 do
      decr budget
    done;
    v.Algo.try_collect ();
    Alcotest.(check bool) "collected after crash + eviction" true
      (v.Algo.collected ())
  done

(* A copy in flight towards a crashed process must not leak the sender's
   transmission pin (transport bounce releases it). *)
let test_crash_inflight_copy () =
  for seed = 1 to 30 do
    let v, c = Fault.create ~procs:3 ~seed:(Int64.of_int seed) () in
    v.Algo.send ~src:0 ~dst:1;
    let budget = ref 10_000 in
    while v.Algo.step () && !budget > 0 do
      decr budget
    done;
    (* 1 forwards to 2, then 2 crashes with the copy (possibly) in
       flight. *)
    v.Algo.send ~src:1 ~dst:2;
    c.Fault.crash 2;
    v.Algo.drop 1;
    v.Algo.drop 0;
    let budget = ref 10_000 in
    while v.Algo.step () && !budget > 0 do
      decr budget
    done;
    v.Algo.try_collect ();
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: collected despite crashed receiver" seed)
      true (v.Algo.collected ())
  done

(* The failure states of Figure 13 are reachable and leave through their
   remedial transitions. *)
let test_outer_cube_states () =
  let seen = Hashtbl.create 8 in
  for seed = 1 to 120 do
    let v, c =
      Fault.create ~drop_budget:3 ~timeout_prob:0.2 ~procs:3
        ~seed:(Int64.of_int seed) ()
    in
    v.Algo.send ~src:0 ~dst:1;
    for _ = 1 to 60 do
      ignore (v.Algo.step ());
      for p = 1 to 2 do
        Hashtbl.replace seen (c.Fault.state_of p) ()
      done
    done;
    (* churn to provoke ccitnil paths *)
    v.Algo.drop 1;
    v.Algo.send ~src:0 ~dst:1;
    for _ = 1 to 60 do
      ignore (v.Algo.step ());
      for p = 1 to 2 do
        Hashtbl.replace seen (c.Fault.state_of p) ()
      done
    done
  done;
  List.iter
    (fun (s, name) ->
      if not (Hashtbl.mem seen s) then
        Alcotest.failf "state %s never observed" name)
    [
      (Fault.Nil, "nil");
      (Fault.Ok, "OK");
      (Fault.Ccit, "ccit");
      (Fault.NilF, "nil-failed");
      (Fault.CcitF, "ccit-failed");
    ]

(* Upper/lower outer-cube distinction (Figure 13): after a dirty-call
   timeout the client is in NilF, but only the owner's table says whether
   the dirty was actually processed (upper) or lost (lower).  Both
   branches must occur across seeds, and the strong-clean remedial must
   recover from both. *)
let test_upper_lower_branches () =
  let upper = ref 0 and lower = ref 0 in
  for seed = 1 to 300 do
    let v, c =
      Fault.create ~drop_budget:1 ~timeout_prob:0.3 ~procs:2
        ~seed:(Int64.of_int seed) ()
    in
    v.Algo.send ~src:0 ~dst:1;
    (* Step until a failure state is reached or the system settles. *)
    let budget = ref 2_000 in
    let in_failure () =
      match c.Fault.state_of 1 with
      | Fault.NilF | Fault.CcitF | Fault.CcitnilF -> true
      | Fault.Bot | Fault.Nil | Fault.Ok | Fault.Ccit | Fault.Ccitnil ->
          false
    in
    while (not (in_failure ())) && !budget > 0 && v.Algo.step () do
      decr budget
    done;
    if in_failure () then
      if c.Fault.owner_knows 1 then incr upper else incr lower;
    (* Recovery: drain and tear down; both branches must stay sound. *)
    let budget = ref 20_000 in
    while v.Algo.step () && !budget > 0 do
      decr budget
    done;
    if v.Algo.holds 1 then v.Algo.drop 1;
    if v.Algo.holds 0 then v.Algo.drop 0;
    let budget = ref 20_000 in
    while v.Algo.step () && !budget > 0 do
      decr budget
    done;
    v.Algo.try_collect ();
    if not (v.Algo.collected ()) then
      Alcotest.failf "seed %d: failed to recover and collect" seed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "upper branch seen (%d)" !upper)
    true (!upper > 0);
  Alcotest.(check bool)
    (Printf.sprintf "lower branch seen (%d)" !lower)
    true (!lower > 0)

(* --- the lease boundary (runtime, lease_misses x ping_period) ------------

   The owner's ping demon ticks every [ping_period]; a client's miss
   counter increments at each tick and resets when its ping_ack arrives.
   Eviction fires at the first tick where [missed > lease_misses] — so a
   partition is forgiven iff the owner hears an ack again within
   [lease_misses] consecutive ticks, and [lease_grace] extends the
   deadline past that.  These cases pin both sides of the boundary with
   exact tick arithmetic: period 1.0 puts ticks at t = 1, 2, 3, ...;
   edge latency (1-10 ms) is negligible against the period. *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle

(* Partition [a]-[b] [after] seconds from now and heal it [duration]
   seconds later, on the virtual clock. *)
let partition_window rt a b ~after ~duration =
  let tr = R.transport rt and sched = R.sched rt in
  Sched.timer sched ~name:"net-partition" after (fun () ->
      Transport.set_partitioned tr a b true);
  Sched.timer sched ~name:"net-heal" (after +. duration) (fun () ->
      Transport.set_partitioned tr a b false)

let m_incr = Stub.declare "incr" P.int P.int

let counter_obj sp =
  let v = ref 0 in
  R.allocate sp
    ~meths:
      [
        Stub.implement m_incr (fun _ n ->
            v := !v + n;
            !v);
      ]

(* Client 1 imports the owner's counter at t=0 and holds it throughout;
   the 0-1 edge is partitioned over [4.4, 4.4 + duration].  Returns the
   owner's eviction count and dirty set at t=14, after everything in
   flight settled. *)
let lease_scenario ?(lease_grace = 0.0) ~duration () =
  (* [gc_period] lets the client collect the agent surrogate its lookup
     left behind, so by the time the partition starts the client sits in
     exactly one dirty set (the counter's) and the eviction count below
     is exact. *)
  let cfg =
    R.config ~seed:5L ~gc_period:0.5 ~ping_period:1.0 ~lease_misses:3
      ~lease_grace ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let h = counter_obj owner in
  R.publish owner "c" h;
  R.spawn rt (fun () ->
      let s = R.lookup client ~at:0 "c" in
      ignore (Stub.call client s m_incr 1)
      (* [s] stays rooted: the client is alive and interested the whole
         time, only the network misbehaves. *));
  partition_window rt 0 1 ~after:4.4 ~duration;
  ignore (R.run ~until:14.0 rt);
  ((R.gc_stats owner).R.evictions, R.dirty_set owner h)

(* Two missed ticks (5, 6): the post-heal tick 7 reads missed = 3, not
   beyond [lease_misses = 3], so the ping goes out, the ack resets the
   counter, and the registration survives. *)
let test_lease_below_boundary () =
  let evictions, dirty = lease_scenario ~duration:2.2 () in
  Alcotest.(check int) "no eviction" 0 evictions;
  Alcotest.(check (list int)) "client still registered" [ 1 ] dirty

(* Three missed ticks (5, 6, 7): the post-heal tick 8 reads missed = 4 >
   lease_misses — one tick over the boundary — and evicts even though
   the partition has healed; the client was presumed dead for exactly
   one tick too long. *)
let test_lease_above_boundary () =
  let evictions, dirty = lease_scenario ~duration:3.2 () in
  Alcotest.(check int) "evicted" 1 evictions;
  Alcotest.(check (list int)) "dirty set emptied" [] dirty

(* Same over-boundary partition, but [lease_grace = 2.0]: tick 8 only
   marks the client suspect; the healed edge delivers the ack before the
   grace expires, so the lease survives a partition the graceless
   configuration would have killed. *)
let test_lease_grace_saves () =
  let evictions, dirty = lease_scenario ~lease_grace:2.0 ~duration:3.2 () in
  Alcotest.(check int) "no eviction under grace" 0 evictions;
  Alcotest.(check (list int)) "client still registered" [ 1 ] dirty

(* A partition outlasting boundary + grace still evicts: suspect at tick
   8, grace of 1.0 expired by tick 9 with the edge still severed. *)
let test_lease_grace_expires () =
  let evictions, dirty = lease_scenario ~lease_grace:1.0 ~duration:6.0 () in
  Alcotest.(check int) "evicted after grace" 1 evictions;
  Alcotest.(check (list int)) "dirty set emptied" [] dirty

(* --- durable recovery at an epoch boundary -------------------------------- *)

(* Restart during an in-flight clean: the client releases its reference,
   the owner crashes before the clean arrives and recovers from its
   durable store into epoch N+1.  The epoch-N clean must not decrement
   the recovered incarnation's dirty set (it is rejected by the stale
   destination-epoch check), so the object survives into the grace
   window; the client's clean retry demon then learns the new epoch and
   carries the release to completion, draining the system. *)
let test_recover_during_inflight_clean () =
  let cfg =
    R.config ~seed:11L ~nspaces:2
      ~edge:(Net.bag_edge ~lo:0.02 ~hi:0.02 ())
      ~durable:true ~fsync_delay:0.005 ~recover_grace:0.3 ~gc_period:0.1
      ~clean_retry:0.1 ~dirty_retry:0.1 ()
  in
  let rt = R.create cfg in
  let meths () = [] in
  R.register_factory rt "obj" meths;
  let owner = R.space rt 0 and client = R.space rt 1 in
  let obj = R.allocate ~tag:"obj" owner ~meths:(meths ()) in
  R.publish owner "o" obj;
  let owr = R.wirerep obj in
  let held = ref None in
  R.spawn rt (fun () -> held := Some (R.lookup client ~at:0 "o"));
  ignore (R.run ~until:1.0 rt);
  Alcotest.(check bool) "client registered" true (!held <> None);
  (* release: the clean leaves now; the owner dies before it lands *)
  (match !held with Some h -> R.release client h | None -> ());
  R.crash rt 0;
  ignore (R.run ~until:1.3 rt);
  R.recover rt 0;
  (* the recovered dirty set still carries the client: the old-epoch
     clean was not applied to the new incarnation *)
  Alcotest.(check bool) "object survives into the new epoch" true
    (R.resident owner owr);
  Alcotest.(check bool) "recovered dirty entry awaiting confirmation" true
    (R.unconfirmed_count owner > 0);
  (* retry demon completes the release against epoch N+1; drain *)
  ignore (R.run ~until:6.0 rt);
  R.release owner obj;
  R.unpublish owner "o";
  R.collect_all rt;
  ignore (R.run ~until:9.0 rt);
  R.collect_all rt;
  ignore (R.run ~until:10.0 rt);
  Alcotest.(check int) "no surrogates left" 0 (R.surrogate_count client);
  Alcotest.(check bool) "object reclaimed" false (R.resident owner owr);
  Alcotest.(check (list string)) "consistent" [] (R.check_consistency rt)

let () =
  Alcotest.run "fault"
    [
      ( "soundness",
        [
          Alcotest.test_case "fault-free" `Quick test_faultfree_sound;
          Alcotest.test_case "duplication" `Quick test_duplication_sound;
          Alcotest.test_case "loss is safe" `Quick test_loss_safe;
          Alcotest.test_case "loss + recovery" `Quick
            test_loss_with_recovery_sound;
          Alcotest.test_case "spurious timeouts" `Quick
            test_spurious_timeouts_harmless;
        ] );
      ( "crash",
        [
          Alcotest.test_case "eviction" `Quick test_crash_eviction;
          Alcotest.test_case "in-flight copy" `Quick test_crash_inflight_copy;
        ] );
      ( "states",
        [
          Alcotest.test_case "outer cube" `Quick test_outer_cube_states;
          Alcotest.test_case "upper/lower branches" `Quick
            test_upper_lower_branches;
        ] );
      ( "lease",
        [
          Alcotest.test_case "below boundary" `Quick test_lease_below_boundary;
          Alcotest.test_case "above boundary" `Quick test_lease_above_boundary;
          Alcotest.test_case "grace saves" `Quick test_lease_grace_saves;
          Alcotest.test_case "grace expires" `Quick test_lease_grace_expires;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "restart during in-flight clean" `Quick
            test_recover_during_inflight_clean;
        ] );
    ]
