(* Chaos-harness tests: scripted all-fault survival, seed determinism,
   epoch-stamped restart recovery, retry backoff pacing, and the
   clean-retry cancellation regression (an acked clean must stop its
   retry cycle outright). *)

module Chaos = Netobj_chaos.Chaos
module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle

(* --- scripted schedule: every fault type, oracles must hold ------------- *)

(* Hand-placed faults on 3 spaces, each window well under the lease
   ((misses+1) x ping + grace = 4s in the harness config) and separated
   so no live pair loses connectivity long enough for a legitimate
   eviction.  The crash claims space 2; its restart bumps the epoch and
   the survivors must converge through stamp discovery. *)
let scripted =
  [
    { Chaos.at = 1.0; fault = Chaos.Partition { a = 0; b = 1; duration = 2.0 } };
    {
      Chaos.at = 4.0;
      fault = Chaos.Loss_burst { src = 1; dst = 2; loss = 0.8; duration = 2.0 };
    };
    { Chaos.at = 7.0; fault = Chaos.Crash { victim = 2; downtime = 2.0 } };
    {
      Chaos.at = 11.0;
      fault = Chaos.Dup_burst { src = 0; dst = 2; dup = 0.9; duration = 2.0 };
    };
    {
      Chaos.at = 13.0;
      fault =
        Chaos.Latency_spike { src = 2; dst = 0; factor = 8.0; duration = 2.0 };
    };
  ]

let test_scripted_survival () =
  let cfg = { Chaos.default with seed = 42L; duration = 16.0 } in
  let r = Chaos.run ~schedule:scripted cfg in
  List.iter (fun v -> Printf.printf "SAFETY: %s\n" v) r.Chaos.r_safety;
  List.iter (fun v -> Printf.printf "LIVENESS: %s\n" v) r.Chaos.r_liveness;
  Alcotest.(check bool) "survived" true (Chaos.survived r);
  Alcotest.(check bool) "drained" true (r.Chaos.r_drain_time <> None);
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (kind ^ " applied") true
        (match List.assoc_opt kind r.Chaos.r_faults with
        | Some n -> n > 0
        | None -> false))
    [
      "partitions";
      "heals";
      "crashes";
      "restarts";
      "loss_bursts";
      "dup_bursts";
      "latency_spikes";
    ];
  (* The crash + restart must have been noticed through epoch stamps. *)
  Alcotest.(check bool) "epoch rejections seen" true
    (r.Chaos.r_epoch_rejections > 0)

(* --- determinism: same seed, same report -------------------------------- *)

let test_determinism () =
  let cfg = { Chaos.default with seed = 3L } in
  let r1 = Chaos.run cfg and r2 = Chaos.run cfg in
  Alcotest.(check bool) "identical reports" true (r1 = r2);
  (* and a different seed gives a genuinely different run *)
  let r3 = Chaos.run { cfg with seed = 4L } in
  Alcotest.(check bool) "seed changes the run" true (r1 <> r3)

(* --- epoch-stamped restart ------------------------------------------------ *)

(* Owner restarts while a client holds a surrogate: the client's next
   call is rejected by the new incarnation (stale dst epoch), the reject
   reply teaches the client the new epoch, the stale surrogate is
   dropped, and a fresh lookup works against the new incarnation. *)
let test_epoch_restart_recovery () =
  let cfg =
    R.config ~seed:9L ~gc_period:0.4 ~ping_period:0.5 ~lease_misses:3
      ~call_timeout:1.5 ~dirty_timeout:1.5 ~clean_retry:0.3 ~dirty_retry:0.3
      ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let h = Scenario.counter owner in
  R.publish owner "c" h;
  let first_failed = ref None and reimport_ok = ref false in
  R.spawn rt (fun () ->
      let s = R.lookup client ~at:0 "c" in
      Alcotest.(check int) "call before restart" 1
        (Stub.call client s Scenario.m_incr 1);
      Sched.sleep (R.sched rt) 5.0;
      (* owner has restarted by now (t=5): the old surrogate must fail *)
      (match Stub.call client s Scenario.m_incr 1 with
      | _ -> ()
      | exception R.Call_failed f -> first_failed := Some f);
      R.release client s;
      (* a fresh import reaches the new incarnation *)
      let h2 = Scenario.counter owner in
      R.publish owner "c2" h2;
      let s2 = R.lookup client ~at:0 "c2" in
      reimport_ok := Stub.call client s2 Scenario.m_incr 5 = 5;
      R.release client s2);
  Sched.timer (R.sched rt) 2.0 (fun () -> R.crash rt 0);
  Sched.timer (R.sched rt) 3.0 (fun () -> R.restart rt 0);
  ignore (R.run ~until:20.0 rt);
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e));
  Alcotest.(check int) "owner epoch bumped" 1 (R.epoch owner);
  Alcotest.(check bool) "stale call failed" true (!first_failed <> None);
  Alcotest.(check bool) "stale packets rejected" true
    ((R.gc_stats owner).R.epoch_rejections > 0);
  Alcotest.(check bool) "re-import against new incarnation" true !reimport_ok;
  (* the client dropped the dead incarnation's surrogates *)
  ignore (R.run ~until:30.0 rt);
  Alcotest.(check int) "client surrogates drained" 0 (R.surrogate_count client)

let test_restart_requires_crash () =
  let rt = R.create (R.config ~nspaces:2 ()) in
  Alcotest.check_raises "restart of a live space"
    (Invalid_argument "Runtime.restart: space is not crashed") (fun () ->
      R.restart rt 1)

(* --- backoff pacing ------------------------------------------------------- *)

(* An unreachable owner leaves a dirty call retrying forever; the number
   of resends in a fixed window is set by the policy.  Fixed interval
   (backoff 1) fires ~ t/base times; 2x backoff capped at 2 s fires
   logarithmically then every 2 s — several times fewer. *)
let retries_with ~backoff ~backoff_cap =
  let cfg =
    R.config ~seed:21L ~dirty_retry:0.5 ~dirty_timeout:1.0 ~backoff
      ~backoff_cap ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let h = Scenario.counter owner in
  R.publish owner "c" h;
  Transport.set_partitioned (R.transport rt) 0 1 true;
  R.spawn rt (fun () ->
      match R.lookup client ~at:0 "c" with
      | (_ : R.handle) -> Alcotest.fail "lookup through a partition"
      | exception R.Call_failed Dirty_timeout -> ());
  ignore (R.run ~until:30.0 rt);
  (R.gc_stats client).R.retries

let test_backoff_pacing () =
  let fixed = retries_with ~backoff:1.0 ~backoff_cap:infinity in
  let capped = retries_with ~backoff:2.0 ~backoff_cap:2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "backoff thins retries (fixed=%d capped=%d)" fixed capped)
    true
    (fixed > 2 * capped && capped > 0)

(* --- clean-retry stops at the ack (regression) ---------------------------- *)

(* Lossless path: the one clean is acked at once; the retry timer must be
   cancelled by the ack, so no resend ever happens and the scheduler goes
   completely idle (a stuck rescheduling loop would keep producing
   steps). *)
let test_clean_retry_no_resend () =
  let cfg = R.config ~seed:17L ~clean_retry:0.5 ~nspaces:2 () in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let h = Scenario.counter owner in
  R.publish owner "c" h;
  R.spawn rt (fun () ->
      let s = R.lookup client ~at:0 "c" in
      ignore (Stub.call client s Scenario.m_incr 1);
      R.release client s);
  ignore (R.run ~until:2.0 rt);
  R.collect client;
  ignore (R.run ~until:10.0 rt);
  Alcotest.(check int) "surrogates gone" 0 (R.surrogate_count client);
  Alcotest.(check (list int)) "dirty set empty" [] (R.dirty_set owner h);
  Alcotest.(check int) "no retries" 0 (R.gc_stats client).R.retries;
  (* quiescence: nothing left armed — an unbounded run returns at once
     instead of replaying a zombie retry cycle *)
  let steps = R.run ~max_steps:50 rt in
  Alcotest.(check int) "scheduler idle after ack" 0 steps;
  Alcotest.(check (list string)) "consistent" [] (R.check_consistency rt)

(* Lossy path: the clean goes into a partition and is resent until the
   heal lets the ack back; after that the retry count must freeze. *)
let test_clean_retry_stops_after_ack () =
  let cfg = R.config ~seed:17L ~clean_retry:0.5 ~nspaces:2 () in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let h = Scenario.counter owner in
  R.publish owner "c" h;
  R.spawn rt (fun () ->
      let s = R.lookup client ~at:0 "c" in
      ignore (Stub.call client s Scenario.m_incr 1);
      R.release client s);
  ignore (R.run ~until:2.0 rt);
  Transport.set_partitioned (R.transport rt) 0 1 true;
  R.collect client;
  (* cleans sent into the partition are dropped; retries arm *)
  ignore (R.run ~until:4.0 rt);
  Transport.set_partitioned (R.transport rt) 0 1 false;
  ignore (R.run ~until:10.0 rt);
  let r1 = (R.gc_stats client).R.retries in
  Alcotest.(check bool) "retries happened" true (r1 >= 1);
  Alcotest.(check int) "surrogates gone" 0 (R.surrogate_count client);
  Alcotest.(check (list int)) "dirty set empty" [] (R.dirty_set owner h);
  ignore (R.run ~until:30.0 rt);
  Alcotest.(check int) "retry count frozen after ack" r1
    (R.gc_stats client).R.retries;
  let steps = R.run ~max_steps:50 rt in
  Alcotest.(check int) "scheduler idle after ack" 0 steps;
  Alcotest.(check (list string)) "consistent" [] (R.check_consistency rt)

(* --- the scenario kit's drain oracle ------------------------------------ *)

(* Two spaces, a counter published at space 0.  A lost reply's pin is
   released after a second. *)
let kit_world ?bug_lookup_leak () =
  let rt =
    R.create
      (R.config ~seed:1L ~nspaces:2
         ~edge:(Net.bag_edge ~lo:0.005 ~hi:0.005 ())
         ~call_timeout:0.05 ~pin_timeout:1.0 ?bug_lookup_leak ())
  in
  R.publish (R.space rt 0) "c" (Scenario.counter (R.space rt 0));
  rt

let test_kit_clean () =
  let rt = kit_world () in
  R.spawn rt ~name:"client" (fun () ->
      let sp = R.space rt 1 in
      let h = R.lookup sp ~at:0 "c" in
      ignore (Stub.call sp h Scenario.m_incr 1);
      R.release sp h);
  Scenario.drain ~quiesce:true rt;
  Alcotest.(check (list string)) "nothing reported" []
    (Scenario.drain_problems rt @ Scenario.safety_problems rt)

let test_kit_fiber_raised () =
  let rt = kit_world () in
  R.spawn rt ~name:"doomed" (fun () -> failwith "boom");
  Scenario.drain ~quiesce:true rt;
  Alcotest.(check (list string)) "the dead fiber"
    [ "fiber doomed raised Failure(\"boom\")" ]
    (Scenario.drain_problems rt)

(* The historical lookup leak (bug_lookup_leak): the lookup's reply is
   lost, the call times out, and the agent surrogate stays rooted.  The
   oracle reports it with the text mc.t's counterexample pins. *)
let test_kit_undrained () =
  let rt = kit_world ~bug_lookup_leak:true () in
  let lost = ref false in
  Transport.set_filter (R.transport rt)
    (Some
       (fun ~src:_ ~dst:_ ~kind ->
         if kind = "reply" && not !lost then begin
           lost := true;
           false
         end
         else true));
  R.spawn rt ~name:"client" (fun () ->
      match R.lookup (R.space rt 1) ~at:0 "c" with
      | h -> R.release (R.space rt 1) h
      | exception R.Call_failed (No_reply _) -> ());
  Scenario.drain ~quiesce:true rt;
  Alcotest.(check bool) "the reply was lost" true !lost;
  Alcotest.(check (list string)) "the leaked agent surrogate"
    [
      "space 1: 1 surrogate(s) failed to drain";
      "  wr=0.0 state=Usable{sched=false} roots=1 pins=0";
    ]
    (Scenario.drain_problems rt)

(* Seed 21 under storms and crash-recover faults restarts a space while
   one of its storm callers sleeps in a busy-owner backoff.  The caller
   must not resume as the new incarnation: its dead call id would
   collide with the new incarnation's at the owner's reply cache, and a
   later call would decode another call's reply: the storm callers
   tolerate every failure, so the report's count of undecodable replies
   is what shows it. *)
let test_restart_during_busy_backoff () =
  let cfg =
    {
      Chaos.default with
      seed = 21L;
      mix =
        {
          Chaos.default_mix with
          crash_recovers = 2;
          disk_faults = 2;
          storms = 2;
        };
    }
  in
  let r = Chaos.run cfg in
  Alcotest.(check (list string)) "safety" [] r.Chaos.r_safety;
  Alcotest.(check (list string)) "liveness" [] r.Chaos.r_liveness;
  Alcotest.(check (option int)) "undecodable replies" None
    (List.assoc_opt "undecodable_replies" r.Chaos.r_faults)

let () =
  Alcotest.run "chaos"
    [
      ( "harness",
        [
          Alcotest.test_case "scripted all-fault survival" `Quick
            test_scripted_survival;
          Alcotest.test_case "seed determinism" `Quick test_determinism;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "restart recovery" `Quick
            test_epoch_restart_recovery;
          Alcotest.test_case "restart requires crash" `Quick
            test_restart_requires_crash;
          Alcotest.test_case "restart during busy backoff" `Quick
            test_restart_during_busy_backoff;
        ] );
      ( "retries",
        [
          Alcotest.test_case "backoff pacing" `Quick test_backoff_pacing;
          Alcotest.test_case "clean acked, no resend" `Quick
            test_clean_retry_no_resend;
          Alcotest.test_case "clean retries stop at ack" `Quick
            test_clean_retry_stops_after_ack;
        ] );
      ( "kit oracle",
        [
          Alcotest.test_case "clean run" `Quick test_kit_clean;
          Alcotest.test_case "fiber raised" `Quick test_kit_fiber_raised;
          Alcotest.test_case "undrained surrogate" `Quick test_kit_undrained;
        ] );
    ]
