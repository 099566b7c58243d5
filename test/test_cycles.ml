(* Distributed cycles: reference listing retains them (the documented
   incompleteness), the global tracing collector reclaims exactly the
   garbage ones and never a live one. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle

let no_failures rt =
  match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

(* Build a ring of [k] nodes spread round-robin over [n] spaces; return
   the runtime and the (space, handle) list. *)
let build_ring ?cfg ~n ~k () =
  let rt =
    R.create
      (match cfg with Some c -> c | None -> R.config ~seed:5L ~nspaces:n ())
  in
  (* node i -> node i+1 (mod k) *)
  let nodes = Array.to_list (Scenario.ring rt ~nodes:k) in
  ignore (R.run rt);
  no_failures rt;
  (rt, nodes)

let drain rt = Scenario.drain ~rounds:5 ~pending:(fun () -> true) rt

let drop_all_roots rt nodes =
  List.iteri
    (fun i (sp, node) ->
      R.unpublish sp (Printf.sprintf "node%d" i);
      R.release sp node)
    nodes;
  drain rt

let resident_count nodes =
  List.length
    (List.filter (fun (sp, node) -> R.resident sp (R.wirerep node)) nodes)

(* ------------------------------------------------------------------ *)
(* The asynchronous cycle detector: trial deletion driven one-shot via
   [R.cycle_collect], with the god-view tracer as the oracle. *)

module Transport = Netobj_transport.Transport
module Transport_sim = Netobj_transport.Transport_sim
module Faulty = Netobj_transport.Faulty

(* One detector pass: a one-shot [cycle_collect] fiber per space, run
   to quiescence.  Returns the number of members committed. *)
let detector_pass rt =
  let total = ref 0 in
  List.iter
    (fun sp -> R.spawn rt (fun () -> total := !total + R.cycle_collect sp))
    (R.spaces rt);
  ignore (R.run rt);
  no_failures rt;
  !total

(* Run passes interleaved with drains until a pass commits nothing (or
   the round budget runs out): a committed cycle can expose new
   suspects, and the drains clean up the surrogates a reclaimed cycle
   strands. *)
let detector_fixpoint ?(rounds = 8) rt =
  let rec go n =
    let committed = detector_pass rt in
    drain rt;
    if committed > 0 && n > 1 then go (n - 1)
  in
  go rounds

let assert_clean rt =
  (match R.check_safety rt with
  | [] -> ()
  | p :: _ -> Alcotest.failf "safety violation: %s" p);
  match R.check_consistency rt with
  | [] -> ()
  | p :: _ -> Alcotest.failf "consistency violation: %s" p

(* A [config] that routes protocol traffic through [Faulty.wrap] over
   the simulated network — the opaque-backend gates TCP runs use, with
   their own RNG — and the detector must behave as under the default
   stack. *)
let faulty_cfg ?call_timeout ~seed n =
  R.config ~seed:5L ~nspaces:n ?call_timeout
    ~transport:(fun sched net ->
      Faulty.wrap ~sched ~seed (Transport_sim.of_net net))
    ()

(* Cross-space cycles that the listing collector leaks are reclaimed by
   the detector alone: a 2-space self-cycle, a 3-space ring and a
   6-node ring over 3 spaces. *)
let test_detector_reclaims ?cfg ~name () =
  List.iter
    (fun (n, k) ->
      let cfg = Option.map (fun f -> f n) cfg in
      let rt, nodes = build_ring ?cfg ~n ~k () in
      drop_all_roots rt nodes;
      Alcotest.(check int)
        (Printf.sprintf "%s: ring %d/%d leaks under listing" name k n)
        k (resident_count nodes);
      detector_fixpoint rt;
      Alcotest.(check int)
        (Printf.sprintf "%s: ring %d/%d reclaimed by detector" name k n)
        0 (resident_count nodes);
      assert_clean rt;
      Alcotest.(check int)
        (Printf.sprintf "%s: ring %d/%d leaves nothing for the god view" name
           k n)
        0 (R.global_collect rt))
    [ (2, 2); (3, 3); (3, 6) ]

(* Concurrent coordinators over the same closure: every space runs a
   trial for its own member, but only the lowest-space-id coordinator
   may commit — the others cede during confirm.  Exactly one commit
   per closure, the rest are aborts. *)
let test_detector_single_commit () =
  let rt, nodes = build_ring ~n:3 ~k:3 () in
  drop_all_roots rt nodes;
  let committed = detector_pass rt in
  Alcotest.(check int) "exactly one coordinator commits the ring" 3 committed;
  Alcotest.(check int) "none resident" 0 (resident_count nodes);
  let trials, aborts =
    List.fold_left
      (fun (t, a) sp ->
        let s = R.cycle_stats sp in
        (t + s.R.trials, a + s.R.aborts))
      (0, 0) (R.spaces rt)
  in
  Alcotest.(check int) "every space ran its trial" 3 trials;
  Alcotest.(check int) "the other coordinators ceded" 2 aborts;
  drain rt;
  assert_clean rt

(* A cycle pinned by an external root — a third party's looked-up
   handle — must NOT be collected; dropping that root releases it. *)
let test_detector_external_root () =
  let rt, nodes = build_ring ~n:3 ~k:3 () in
  let sp0 = R.space rt 0 in
  let ext = ref None in
  R.spawn rt (fun () -> ext := Some (R.lookup sp0 ~at:1 "node1"));
  ignore (R.run rt);
  no_failures rt;
  let ext =
    match !ext with Some h -> h | None -> Alcotest.fail "lookup failed"
  in
  drop_all_roots rt nodes;
  detector_fixpoint rt;
  Alcotest.(check int) "externally rooted cycle kept" 3 (resident_count nodes);
  assert_clean rt;
  R.release sp0 ext;
  drain rt;
  detector_fixpoint rt;
  Alcotest.(check int) "reclaimed once the external root goes" 0
    (resident_count nodes);
  assert_clean rt

(* Mid-trial faults: with the spaces partitioned, probes time out and
   every trial aborts (safety: nothing may be committed on partial
   evidence); after healing, the next passes reclaim the cycle. *)
let test_detector_partition () =
  let tr = ref None in
  let cfg =
    R.config ~seed:5L ~nspaces:2 ~call_timeout:2.0
      ~transport:(fun sched net ->
        let t = Faulty.wrap ~sched ~seed:23L (Transport_sim.of_net net) in
        tr := Some t;
        t)
      ()
  in
  let rt, nodes = build_ring ~cfg ~n:2 ~k:2 () in
  drop_all_roots rt nodes;
  Alcotest.(check int) "leaks under listing" 2 (resident_count nodes);
  let t = match !tr with Some t -> t | None -> Alcotest.fail "no transport" in
  Transport.set_partitioned t 0 1 true;
  let committed = detector_pass rt in
  Alcotest.(check int) "nothing committed across the partition" 0 committed;
  Alcotest.(check int) "cycle survives the partition" 2 (resident_count nodes);
  let aborts =
    List.fold_left
      (fun acc sp -> acc + (R.cycle_stats sp).R.aborts)
      0 (R.spaces rt)
  in
  Alcotest.(check bool) "trials aborted on timeout" true (aborts > 0);
  assert_clean rt;
  Transport.heal_all t;
  detector_fixpoint rt;
  Alcotest.(check int) "reclaimed after heal" 0 (resident_count nodes);
  assert_clean rt

(* Random mutation sequences on a cycle-heavy graph: after the detector
   reaches a fixpoint, the god-view tracer must find nothing left, the
   safety/consistency checkers must be clean, and every still-rooted
   node must have survived.  An op [(i, -1)] drops node i's roots; an
   op [(i, j)] with [j >= 0] relinks node i's slot to node j. *)
let prop_detector_vs_tracer =
  let n = 3 and k = 6 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 4 24) (pair (int_bound (k - 1)) (int_range (-1) (k - 1))))
  in
  let print = QCheck.Print.(list (pair int int)) in
  QCheck.Test.make ~name:"detector agrees with the god-view tracer" ~count:40
    (QCheck.make gen ~print)
    (fun ops ->
      let rt, nodes = build_ring ~n ~k () in
      let arr = Array.of_list nodes in
      let rooted = Array.make k true in
      List.iter
        (fun (i, j) ->
          if j < 0 then begin
            if rooted.(i) then begin
              let sp, node = arr.(i) in
              R.unpublish sp (Printf.sprintf "node%d" i);
              R.release sp node;
              rooted.(i) <- false
            end
          end
          else if rooted.(i) && rooted.(j) then begin
            let sp, node = arr.(i) in
            R.spawn rt (fun () ->
                let peer =
                  R.lookup sp ~at:(j mod n) (Printf.sprintf "node%d" j)
                in
                Stub.call sp node Scenario.m_set_peer peer;
                R.release sp peer);
            ignore (R.run rt);
            no_failures rt
          end)
        ops;
      ignore (R.run rt);
      drain rt;
      detector_fixpoint rt;
      Array.iteri
        (fun i r ->
          if r then begin
            let sp, node = arr.(i) in
            if not (R.resident sp (R.wirerep node)) then
              QCheck.Test.fail_reportf "rooted node%d was reclaimed" i
          end)
        rooted;
      (match R.check_safety rt with
      | [] -> ()
      | p :: _ -> QCheck.Test.fail_reportf "safety: %s" p);
      (match R.check_consistency rt with
      | [] -> ()
      | p :: _ -> QCheck.Test.fail_reportf "consistency: %s" p);
      let leftover = R.global_collect rt in
      if leftover <> 0 then
        QCheck.Test.fail_reportf "tracer reclaimed %d the detector missed"
          leftover;
      true)

let test_cycle_leaks_then_reclaimed () =
  List.iter
    (fun (n, k) ->
      let rt, nodes = build_ring ~n ~k () in
      drop_all_roots rt nodes;
      Alcotest.(check int)
        (Printf.sprintf "ring %d/%d leaks under listing" k n)
        k (resident_count nodes);
      let reclaimed = R.global_collect rt in
      Alcotest.(check int)
        (Printf.sprintf "ring %d/%d fully reclaimed" k n)
        k reclaimed;
      Alcotest.(check int) "none resident" 0 (resident_count nodes))
    [ (2, 2); (3, 3); (3, 6); (4, 8) ]

(* A cycle with one surviving application root must NOT be collected. *)
let test_live_cycle_kept () =
  let rt, nodes = build_ring ~n:3 ~k:3 () in
  (* Drop all roots except node0's app root. *)
  List.iteri
    (fun i (sp, node) ->
      R.unpublish sp (Printf.sprintf "node%d" i);
      if i > 0 then R.release sp node)
    nodes;
  for _ = 1 to 3 do
    R.collect_all rt;
    ignore (R.run rt)
  done;
  let reclaimed = R.global_collect rt in
  Alcotest.(check int) "nothing reclaimed" 0 reclaimed;
  Alcotest.(check int) "all resident" 3 (resident_count nodes);
  (* Now drop the last root: the whole ring goes. *)
  (match nodes with
  | (sp0, node0) :: _ -> R.release sp0 node0
  | [] -> assert false);
  Alcotest.(check int) "reclaimed after last root" 3 (R.global_collect rt)

(* Acyclic garbage is also handled by the global pass (it subsumes the
   listing collector's verdicts on a quiescent system). *)
let test_global_subsumes_acyclic () =
  let rt = R.create (R.config ~seed:9L ~nspaces:2 ()) in
  let a = R.space rt 0 in
  let dead = Scenario.node a in
  let wr = R.wirerep dead in
  R.release a dead;
  Alcotest.(check bool) "resident before" true (R.resident a wr);
  ignore (R.global_collect rt);
  Alcotest.(check bool) "gone after" false (R.resident a wr)

(* The agent and published objects survive a global collection. *)
let test_global_keeps_published () =
  let rt, nodes = build_ring ~n:2 ~k:2 () in
  (* roots and publications intact: nothing to reclaim *)
  Alcotest.(check int) "nothing reclaimed" 0 (R.global_collect rt);
  Alcotest.(check int) "all resident" 2 (resident_count nodes);
  (* the system still works end-to-end: another call through the ring *)
  let sp0, node0 = List.hd nodes in
  R.spawn rt (fun () ->
      let peer = R.lookup sp0 ~at:1 "node1" in
      Stub.call sp0 node0 Scenario.m_set_peer peer;
      R.release sp0 peer);
  ignore (R.run rt);
  no_failures rt

let () =
  Alcotest.run "cycles"
    [
      ( "cycles",
        [
          Alcotest.test_case "leak then reclaim" `Quick
            test_cycle_leaks_then_reclaimed;
          Alcotest.test_case "live cycle kept" `Quick test_live_cycle_kept;
          Alcotest.test_case "subsumes acyclic" `Quick
            test_global_subsumes_acyclic;
          Alcotest.test_case "keeps published" `Quick
            test_global_keeps_published;
        ] );
      ( "detector",
        [
          Alcotest.test_case "reclaims cross-space cycles (sim)" `Quick
            (fun () -> test_detector_reclaims ~name:"sim" ());
          Alcotest.test_case "reclaims cross-space cycles (faulty)" `Quick
            (fun () ->
              test_detector_reclaims
                ~cfg:(fun n -> faulty_cfg ~seed:11L n)
                ~name:"faulty" ());
          Alcotest.test_case "keeps an externally rooted cycle" `Quick
            test_detector_external_root;
          Alcotest.test_case "single commit under concurrent coordinators"
            `Quick test_detector_single_commit;
          Alcotest.test_case "aborts under partition, reclaims after heal"
            `Quick test_detector_partition;
          QCheck_alcotest.to_alcotest prop_detector_vs_tracer;
        ] );
    ]
