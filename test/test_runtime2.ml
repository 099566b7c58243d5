(* Second runtime suite: object-table identity (one surrogate per object
   per space, TR §1), unpublish, timeouts under partition, and pickle
   payload variety through real calls. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle

let m_echo =
  Stub.declare "echo"
    (P.triple P.string (P.list P.int) (P.option P.float))
    (P.triple P.string (P.list P.int) (P.option P.float))

let m_pair = Stub.declare "pair" (P.pair R.handle_codec R.handle_codec) P.bool

(* The kit's counter, plus methods that carry richer payloads. *)
let counter_obj sp =
  R.allocate sp
    ~meths:
      (Scenario.counter_meths ()
      @ [
          Stub.implement m_echo (fun _ x -> x);
          Stub.implement m_pair (fun _ (a, b) ->
              Netobj_core.Wirerep.equal (R.wirerep a) (R.wirerep b));
        ])

let in_fiber rt f =
  let result = ref None in
  R.spawn rt (fun () -> result := Some (f ()));
  ignore (R.run rt);
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e));
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "fiber did not complete"

let make ?(n = 3) ?(seed = 13L) () =
  R.create (R.config ~seed ~nspaces:n ())

(* TR §1: "There is at most one surrogate for an object in a process, and
   all references in the process point to that surrogate." *)
let test_one_surrogate_per_object () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "c" counter;
  in_fiber rt (fun () ->
      let h1 = R.lookup client ~at:0 "c" in
      let h2 = R.lookup client ~at:0 "c" in
      Alcotest.(check bool)
        "same wireRep" true
        (Netobj_core.Wirerep.equal (R.wirerep h1) (R.wirerep h2));
      (* table contains exactly two surrogates: remote agent + counter *)
      Alcotest.(check int) "surrogate count" 2 (R.surrogate_count client);
      (* two handles, two roots: releasing one keeps it usable *)
      R.release client h1;
      Alcotest.(check int) "still usable" 1
        (Stub.call client h2 Scenario.m_incr 1);
      R.release client h2)

(* Marshalling both handles of the same object in one message resolves
   to the same concrete object at the owner. *)
let test_same_object_in_one_message () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "c" counter;
  in_fiber rt (fun () ->
      let h1 = R.lookup client ~at:0 "c" in
      let h2 = R.lookup client ~at:0 "c" in
      Alcotest.(check bool)
        "owner sees one object" true
        (Stub.call client h1 m_pair (h1, h2));
      R.release client h1;
      R.release client h2)

let test_unpublish () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  let wr = R.wirerep counter in
  R.publish owner "c" counter;
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "c" in
      ignore (Stub.call client h Scenario.m_incr 1);
      R.release client h);
  R.collect client;
  ignore (R.run rt);
  R.unpublish owner "c";
  R.release owner counter;
  R.collect owner;
  Alcotest.(check bool) "reclaimed after unpublish" false (R.resident owner wr);
  (* lookup of the removed name now fails *)
  in_fiber rt (fun () ->
      match R.lookup client ~at:0 "c" with
      | _ -> Alcotest.fail "expected failure"
      | exception R.Call_failed (No_binding "c") -> ())

(* Rich payloads through a real call. *)
let test_payload_variety () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "c" counter;
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "c" in
      let v = ("héllo\x00wörld", [ 1; -2; 3000 ], Some 2.5) in
      let v' = Stub.call client h m_echo v in
      if v <> v' then Alcotest.fail "payload mangled";
      let empty = ("", [], None) in
      if Stub.call client h m_echo empty <> empty then
        Alcotest.fail "empty payload mangled";
      R.release client h)

(* A partitioned owner: calls time out rather than hang. *)
let test_call_timeout () =
  let cfg =
    R.config ~seed:3L ~call_timeout:2.0 ~dirty_timeout:2.0 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "c" counter;
  let h =
    in_fiber rt (fun () ->
        let h = R.lookup client ~at:0 "c" in
        ignore (Stub.call client h Scenario.m_incr 1);
        h)
  in
  Transport.set_partitioned (R.transport rt) 0 1 true;
  in_fiber rt (fun () ->
      match Stub.call client h Scenario.m_incr 1 with
      | _ -> Alcotest.fail "expected timeout"
      | exception R.Call_failed (No_reply _) -> ());
  (* heal: calls work again *)
  Transport.set_partitioned (R.transport rt) 0 1 false;
  in_fiber rt (fun () ->
      Alcotest.(check int) "healed" 2 (Stub.call client h Scenario.m_incr 1);
      R.release client h)

(* A partitioned owner during first import: the dirty call times out. *)
let test_dirty_timeout () =
  let cfg =
    R.config ~seed:4L ~call_timeout:2.0 ~dirty_timeout:2.0 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 in
  let client = R.space rt 1 in
  R.publish owner "c" (counter_obj owner);
  Transport.set_partitioned (R.transport rt) 0 1 true;
  in_fiber rt (fun () ->
      match R.lookup client ~at:0 "c" with
      | _ -> Alcotest.fail "expected timeout"
      | exception R.Call_failed Dirty_timeout -> ())

(* Local calls do not touch the network at all. *)
let test_local_no_network () =
  let rt = make () in
  let owner = R.space rt 0 in
  let counter = counter_obj owner in
  Transport.reset_stats (R.transport rt);
  in_fiber rt (fun () ->
      Alcotest.(check int) "local" 1
        (Stub.call owner counter Scenario.m_incr 1));
  Alcotest.(check int) "no messages" 0 (Transport.stats (R.transport rt)).Transport.sent

(* Deep recursion through nested remote calls: mutual ping-pong between
   two objects on different spaces. *)
let test_mutual_recursion () =
  let rt = make () in
  let a = R.space rt 0 and b = R.space rt 1 in
  let m_ping = Stub.declare "ping" P.int P.int in
  (* Forward declaration of peer handles via refs. *)
  let peer_of_a = ref None and peer_of_b = ref None in
  let obj_a =
    R.allocate a
      ~meths:
        [
          Stub.implement m_ping (fun sp n ->
              if n <= 0 then 0
              else
                match !peer_of_a with
                | Some peer -> 1 + Stub.call sp peer m_ping (n - 1)
                | None -> failwith "no peer");
        ]
  in
  let obj_b =
    R.allocate b
      ~meths:
        [
          Stub.implement m_ping (fun sp n ->
              if n <= 0 then 0
              else
                match !peer_of_b with
                | Some peer -> 1 + Stub.call sp peer m_ping (n - 1)
                | None -> failwith "no peer");
        ]
  in
  R.publish a "a" obj_a;
  R.publish b "b" obj_b;
  in_fiber rt (fun () ->
      peer_of_a := Some (R.lookup a ~at:1 "b");
      peer_of_b := Some (R.lookup b ~at:0 "a");
      (* ping bounces 8 times across the two spaces *)
      Alcotest.(check int) "bounce count" 8 (Stub.call a obj_a m_ping 8))

(* Two fibers import the same object concurrently: one dirty call is
   shared (the second joins the first's Creating state), both proceed. *)
let test_concurrent_import () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "c" counter;
  let done_ = ref 0 in
  for _ = 1 to 3 do
    R.spawn rt (fun () ->
        let h = R.lookup client ~at:0 "c" in
        ignore (Stub.call client h Scenario.m_incr 1);
        incr done_;
        R.release client h)
  done;
  ignore (R.run rt);
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s: %s" n (Printexc.to_string e));
  Alcotest.(check int) "all three fibers completed" 3 !done_;
  (* One shared surrogate per object despite concurrent creation. *)
  Alcotest.(check int) "surrogates: agent + counter" 2
    (R.surrogate_count client);
  let st = R.gc_stats client in
  (* one dirty for the agent + one for the counter: concurrency did not
     multiply registrations *)
  Alcotest.(check int) "exactly two dirty calls" 2 st.R.dirty_calls

(* Crashing the owner makes client calls fail by timeout, and healing is
   not possible (the owner is gone) — but the client's collector can
   still retire the dead surrogates without wedging. *)
let test_owner_crash () =
  let cfg =
    R.config ~seed:6L ~call_timeout:1.0 ~dirty_timeout:1.0 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "c" counter;
  let h =
    in_fiber rt (fun () ->
        let h = R.lookup client ~at:0 "c" in
        ignore (Stub.call client h Scenario.m_incr 1);
        h)
  in
  R.crash rt 0;
  in_fiber rt (fun () ->
      match Stub.call client h Scenario.m_incr 1 with
      | _ -> Alcotest.fail "expected timeout"
      | exception R.Call_failed (No_reply _) -> ());
  (* The client can still drop and GC without deadlock; the clean call
     goes nowhere, which is fine. *)
  R.release client h;
  R.collect client;
  ignore (R.run ~until:5.0 rt);
  Alcotest.(check pass) "no wedge" () ()

let () =
  Alcotest.run "runtime2"
    [
      ( "objtable",
        [
          Alcotest.test_case "one surrogate per object" `Quick
            test_one_surrogate_per_object;
          Alcotest.test_case "same object in message" `Quick
            test_same_object_in_one_message;
          Alcotest.test_case "unpublish" `Quick test_unpublish;
        ] );
      ( "calls",
        [
          Alcotest.test_case "payload variety" `Quick test_payload_variety;
          Alcotest.test_case "call timeout" `Quick test_call_timeout;
          Alcotest.test_case "dirty timeout" `Quick test_dirty_timeout;
          Alcotest.test_case "local no network" `Quick test_local_no_network;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "concurrent import" `Quick test_concurrent_import;
          Alcotest.test_case "owner crash" `Quick test_owner_crash;
        ] );
    ]
