(* Exact counts of one operation, bounded with headroom.  On the sim
   engine a run's messages and fiber resumptions ([Sched.run]'s steps)
   are the same on every host, so a bound on them catches a regression
   that this host's timing noise would hide.

   The operation is a third-party transfer at scale: one call whose
   reply carries [refs] handles to objects of the callee.  Every handle
   needs a dirty call before the caller may use it; the dirty calls of
   one decode travel as one batch per owner, so the whole transfer is
   the call, its reply, one dirty, one dirty_ack and one copy_ack.
   Dropping them all and collecting once costs one clean and one
   clean_ack. *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Scenario = Netobj_chaos.Scenario
module Transport = Netobj_transport.Transport
module P = Netobj_pickle.Pickle

let refs = 4096

let max_msgs = 8

let max_steps = 64

(* Clean traffic of one collection that finds every handle dead: one
   clean and one clean_ack per owner, with headroom. *)
let max_clean_msgs = 4

let m_many = Stub.declare "many" P.unit (P.list R.handle_codec)

(* Messages sent and [Sched.run] steps taken while [f ()] runs and the
   runtime then settles. *)
let measure rt f =
  let tr = R.transport rt in
  let sent0 = (Transport.stats tr).sent in
  f ();
  let steps = R.run rt in
  ((Transport.stats tr).sent - sent0, steps)

let check_budget what ~msgs ~steps ~max_msgs ~max_steps =
  Printf.printf "%s: %d messages, %d steps\n%!" what msgs steps;
  if msgs > max_msgs then
    Alcotest.failf "%d messages for the %s, budget %d" msgs what max_msgs;
  if steps > max_steps then
    Alcotest.failf "%d scheduler steps for the %s, budget %d" steps what
      max_steps

(* The client looks up "many" on the owner and calls it once: its reply
   carries [refs] handles, which the client then holds. *)
let transfer () =
  let rt = R.create (R.config ~seed:7L ~nspaces:2 ()) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let objs = List.init refs (fun _ -> Scenario.counter owner) in
  R.publish owner "many"
    (R.allocate owner ~meths:[ Stub.implement m_many (fun _ () -> objs) ]);
  let h = ref None in
  R.spawn rt (fun () -> h := Some (R.lookup client ~at:0 "many"));
  ignore (R.run rt);
  let h = Option.get !h in
  let dirty0 = (R.gc_stats client).dirty_calls in
  let got = ref [] in
  let msgs, steps =
    measure rt (fun () ->
        R.spawn rt (fun () -> got := Stub.call client h m_many ()))
  in
  Alcotest.(check int) "handles received" refs (List.length !got);
  Alcotest.(check int) "every handle registered" refs
    ((R.gc_stats client).dirty_calls - dirty0);
  (rt, client, !got, msgs, steps)

let test_transfer_counts () =
  let _, _, _, msgs, steps = transfer () in
  check_budget (Printf.sprintf "%d-handle reply" refs) ~msgs ~steps ~max_msgs
    ~max_steps

(* The client drops every handle of the transfer and collects once: the
   cleaning demon lists them all (and the agent surrogate lookup left
   behind) in one clean to the owner, answered by one clean_ack. *)
let test_clean_counts () =
  let rt, client, got, _, _ = transfer () in
  List.iter (R.release client) got;
  let clean0 = (R.gc_stats client).clean_calls in
  let msgs, steps = measure rt (fun () -> R.collect client) in
  Alcotest.(check int) "every handle cleaned" (refs + 1)
    ((R.gc_stats client).clean_calls - clean0);
  Alcotest.(check int) "surrogates left" 1 (R.surrogate_count client);
  check_budget (Printf.sprintf "collect of %d handles" refs) ~msgs ~steps
    ~max_msgs:max_clean_msgs ~max_steps

let () =
  Alcotest.run "ledger"
    [
      ( "budget",
        [
          Alcotest.test_case "4096-handle reply on sim" `Quick
            test_transfer_counts;
          Alcotest.test_case "4096-handle collect on sim" `Quick
            test_clean_counts;
        ] );
    ]
