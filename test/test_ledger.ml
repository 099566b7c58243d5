(* Exact counts of one operation, bounded with headroom.  On the sim
   engine a run's messages and fiber resumptions ([Sched.run]'s steps)
   are the same on every host, so a bound on them catches a regression
   that this host's timing noise would hide.

   The operation is a third-party transfer at scale: one call whose
   reply carries [refs] handles to objects of the callee.  Every handle
   needs a dirty call before the caller may use it; the dirty calls of
   one decode travel as one batch per owner, so the whole transfer is
   the call, its reply, one dirty, one dirty_ack and one copy_ack. *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Scenario = Netobj_chaos.Scenario
module Transport = Netobj_transport.Transport
module P = Netobj_pickle.Pickle

let refs = 4096

let max_msgs = 8

let max_steps = 64

let m_many = Stub.declare "many" P.unit (P.list R.handle_codec)

let test_transfer_counts () =
  let rt = R.create (R.config ~seed:7L ~nspaces:2 ()) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let objs = List.init refs (fun _ -> Scenario.counter owner) in
  R.publish owner "many"
    (R.allocate owner ~meths:[ Stub.implement m_many (fun _ () -> objs) ]);
  let h = ref None in
  R.spawn rt (fun () -> h := Some (R.lookup client ~at:0 "many"));
  ignore (R.run rt);
  let h = Option.get !h in
  let tr = R.transport rt in
  let sent0 = (Transport.stats tr).sent in
  let dirty0 = (R.gc_stats client).dirty_calls in
  let got = ref [] in
  R.spawn rt (fun () -> got := Stub.call client h m_many ());
  let steps = R.run rt in
  let msgs = (Transport.stats tr).sent - sent0 in
  Printf.printf "%d-handle reply: %d messages, %d steps\n%!" refs msgs steps;
  Alcotest.(check int) "handles received" refs (List.length !got);
  Alcotest.(check int) "every handle registered" refs
    ((R.gc_stats client).dirty_calls - dirty0);
  if msgs > max_msgs then
    Alcotest.failf "%d messages for the transfer, budget %d" msgs max_msgs;
  if steps > max_steps then
    Alcotest.failf "%d scheduler steps for the transfer, budget %d" steps
      max_steps

let () =
  Alcotest.run "ledger"
    [
      ( "budget",
        [
          Alcotest.test_case "4096-handle reply on sim" `Quick
            test_transfer_counts;
        ] );
    ]
