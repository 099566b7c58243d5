(* Tests for the simulated network: delivery, FIFO vs bag ordering and
   accounting — plus loss, duplication, partitions and crashes, which
   the fault gates stacked on the network inject. *)

module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Faulty = Netobj_transport.Faulty

let setup ?policy ?(seed = 1L) ?edge () =
  let s = Sched.create ?policy () in
  let net = Net.create ~sched:s ~seed ?edge () in
  (s, net)

(* The sim engine's default stack: the fault gates over the network. *)
let setup_gated ?seed ?edge () =
  let s, net = setup ?seed ?edge () in
  (s, net, Faulty.of_net ~sched:s net)

let collect_handler received =
  fun ~src ~kind ~payload ~off ~len ->
  received := (src, kind, String.sub payload off len) :: !received

let test_basic_delivery () =
  let s, net = setup () in
  let received = ref [] in
  Net.set_handler net 1 (collect_handler received);
  Net.send net ~src:0 ~dst:1 ~kind:"hello" "payload";
  ignore (Sched.run s);
  (match !received with
  | [ (0, "hello", "payload") ] -> ()
  | _ -> Alcotest.fail "message not delivered");
  let st = Net.stats net in
  Alcotest.(check int) "sent" 1 st.Net.sent;
  Alcotest.(check int) "delivered" 1 st.Net.delivered;
  Alcotest.(check int) "bytes" 7 st.Net.bytes

let test_no_handler_drops () =
  let s, net = setup () in
  Net.send net ~src:0 ~dst:9 ~kind:"x" "p";
  ignore (Sched.run s);
  Alcotest.(check int) "dropped" 1 (Net.stats net).Net.dropped

let test_fifo_ordering () =
  let s, net = setup ~edge:(Net.fifo_edge ()) () in
  let received = ref [] in
  Net.set_handler net 1 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
      received := String.sub payload off len :: !received);
  for i = 1 to 20 do
    Net.send net ~src:0 ~dst:1 ~kind:"seq" (string_of_int i)
  done;
  ignore (Sched.run s);
  Alcotest.(check (list string))
    "in order"
    (List.init 20 (fun i -> string_of_int (20 - i)))
    !received

let test_bag_reorders () =
  (* With wide random latency, 50 messages almost surely arrive out of
     order at least once. *)
  let s, net = setup ~seed:3L ~edge:(Net.bag_edge ~lo:0.0 ~hi:1.0 ()) () in
  let received = ref [] in
  Net.set_handler net 1 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
      received := String.sub payload off len :: !received);
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:1 ~kind:"seq" (string_of_int i)
  done;
  ignore (Sched.run s);
  let order = List.rev_map int_of_string !received in
  Alcotest.(check int) "all arrived" 50 (List.length order);
  Alcotest.(check bool)
    "some reordering happened" true
    (order <> List.init 50 (fun i -> i + 1))

let test_loss () =
  let s, _, tr = setup_gated ~seed:7L () in
  Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0 ~until:infinity ();
  let received = ref [] in
  Transport.set_handler tr 1 (collect_handler received);
  for _ = 1 to 10 do
    Transport.send tr ~src:0 ~dst:1 ~kind:"x" "p"
  done;
  ignore (Sched.run s);
  Alcotest.(check int) "nothing delivered" 0 (List.length !received);
  Alcotest.(check int) "all dropped" 10 (Transport.stats tr).Transport.dropped

let test_duplication () =
  let s, _, tr = setup_gated ~seed:7L () in
  Transport.set_burst tr ~src:0 ~dst:1 ~dup:1.0 ~until:infinity ();
  let received = ref [] in
  Transport.set_handler tr 1 (collect_handler received);
  for _ = 1 to 5 do
    Transport.send tr ~src:0 ~dst:1 ~kind:"x" "p"
  done;
  ignore (Sched.run s);
  Alcotest.(check int) "each delivered twice" 10 (List.length !received);
  Alcotest.(check int) "duplicated counted" 5
    (Transport.stats tr).Transport.duplicated

let test_partition () =
  let s, _, tr = setup_gated () in
  let received = ref [] in
  Transport.set_handler tr 1 (collect_handler received);
  Transport.set_partitioned tr 0 1 true;
  Transport.send tr ~src:0 ~dst:1 ~kind:"x" "p1";
  ignore (Sched.run s);
  Alcotest.(check int) "partitioned: nothing" 0 (List.length !received);
  Transport.set_partitioned tr 0 1 false;
  Transport.send tr ~src:0 ~dst:1 ~kind:"x" "p2";
  ignore (Sched.run s);
  Alcotest.(check int) "healed: delivered" 1 (List.length !received)

let test_partition_in_flight () =
  (* A message already in flight when the partition forms is lost too:
     the simulated cut severs the wire. *)
  let s, _, tr = setup_gated ~edge:(Net.fifo_edge ~latency:5.0 ()) () in
  let received = ref [] in
  Transport.set_handler tr 1 (collect_handler received);
  Transport.send tr ~src:0 ~dst:1 ~kind:"x" "p";
  ignore (Sched.run ~until:1.0 s);
  Transport.set_partitioned tr 0 1 true;
  ignore (Sched.run s);
  Alcotest.(check int) "in-flight dropped" 0 (List.length !received)

let test_crash () =
  let s, _, tr = setup_gated () in
  let received = ref [] in
  Transport.set_handler tr 1 (collect_handler received);
  Transport.crash tr 1;
  Alcotest.(check bool) "crashed" true (Transport.is_crashed tr 1);
  Transport.send tr ~src:0 ~dst:1 ~kind:"x" "p";
  ignore (Sched.run s);
  Alcotest.(check int) "crashed space receives nothing" 0
    (List.length !received)

let test_stats_by_kind () =
  let s, net = setup () in
  Net.set_handler net 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ -> ());
  Net.send net ~src:0 ~dst:1 ~kind:"dirty" "abc";
  Net.send net ~src:0 ~dst:1 ~kind:"dirty" "de";
  Net.send net ~src:0 ~dst:1 ~kind:"clean" "f";
  ignore (Sched.run s);
  Alcotest.(check (list (pair string (pair int int))))
    "kinds"
    [ ("clean", (1, 1)); ("dirty", (2, 5)) ]
    (Net.stats_by_kind net);
  Net.reset_stats net;
  Alcotest.(check int) "reset" 0 (Net.stats net).Net.sent

let test_bidirectional () =
  let s, net = setup () in
  let at0 = ref [] and at1 = ref [] in
  Net.set_handler net 0 (collect_handler at0);
  Net.set_handler net 1 (collect_handler at1);
  Net.send net ~src:0 ~dst:1 ~kind:"ping" "ping";
  Net.send net ~src:1 ~dst:0 ~kind:"pong" "pong";
  ignore (Sched.run s);
  Alcotest.(check int) "0 got one" 1 (List.length !at0);
  Alcotest.(check int) "1 got one" 1 (List.length !at1)

let () =
  Alcotest.run "net"
    [
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "no handler" `Quick test_no_handler_drops;
          Alcotest.test_case "fifo ordering" `Quick test_fifo_ordering;
          Alcotest.test_case "bag reorders" `Quick test_bag_reorders;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional;
        ] );
      ( "faults",
        [
          Alcotest.test_case "loss" `Quick test_loss;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "partition in flight" `Quick
            test_partition_in_flight;
          Alcotest.test_case "crash" `Quick test_crash;
        ] );
      ( "accounting",
        [ Alcotest.test_case "stats by kind" `Quick test_stats_by_kind ] );
    ]
