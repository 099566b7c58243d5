(* The aggregated lease plane (million-object scale): one ping/ping_ack
   pair per (client, owner) pair renews every dirty entry at once, the
   ack must match the outstanding nonce and the owner's incarnation
   epoch, and the incrementally maintained per-client aggregates must
   agree with a from-scratch fold over the object table at all times.

   The replay scenarios pin the ping-ack bugfix: pre-fix
   ([bug_ping_ack_replay]) any ack — duplicated, delayed, or minted
   against a dead epoch — reset the miss counter, so a replayed ack
   kept a partitioned client's lease alive forever. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Proto = Netobj_core.Proto
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Faulty = Netobj_transport.Faulty
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

let no_failures rt =
  match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

(* --- ping-ack replay (the dup/delayed-ack nemesis) ---------------------

   Client 1 imports the owner's counter and holds it; ticks at t = 1,
   2, 3, ...  From t = 4.4 a send-time filter severs every genuine
   ping_ack on the 1->0 edge (a one-way partition: the client still
   hears pings, the owner never hears fresh acks).  A nemesis then
   re-injects a verbatim copy of the long-accepted tick-2 ack once a
   second — the scripted dup burst.

   Pre-fix, each replay resets the miss counter and the dead client's
   lease never expires.  Post-fix the replays fail the
   [nonce > acked] window, count as [stale_acks], and the lease
   expires on schedule (tick 8: missed = 4 > lease_misses = 3). *)
let replay_scenario ~bug () =
  let cfg =
    R.config ~seed:5L ~gc_period:0.5 ~ping_period:1.0 ~lease_misses:3
      ~bug_ping_ack_replay:bug ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let h = Scenario.counter owner in
  R.publish owner "c" h;
  R.spawn rt (fun () ->
      let s = R.lookup client ~at:0 "c" in
      ignore (Stub.call client s Scenario.m_incr 1)
      (* [s] stays rooted: only the network misbehaves. *));
  let tr = R.transport rt and sched = R.sched rt in
  (* The gate lets the nemesis' own injections through the sever
     filter: [Transport.send] evaluates the filter synchronously, so
     toggling around the call is exact. *)
  let gate = ref true in
  Sched.timer sched ~name:"sever" 4.4 (fun () ->
      Transport.set_filter tr
        (Some
           (fun ~src ~dst ~kind ->
             not (src = 1 && dst = 0 && kind = "ping_ack" && !gate))));
  (* The replayed packet: the tick-2 ack, byte-identical to what the
     client sent at t = 2 (both spaces still in epoch 0). *)
  let replay =
    P.encode Proto.packet_codec
      {
        Proto.src_epoch = 0;
        src_cont = 0;
        dst_epoch = 0;
        env = Proto.Ping_ack { nonce = 2 };
      }
  in
  for i = 5 to 13 do
    Sched.timer sched ~name:"nemesis-replay"
      (float_of_int i +. 0.5)
      (fun () ->
        gate := false;
        Transport.send tr ~src:1 ~dst:0 ~kind:"ping_ack" replay;
        gate := true)
  done;
  ignore (R.run ~until:14.0 rt);
  no_failures rt;
  let st = R.gc_stats owner in
  (st.R.evictions, st.R.stale_acks, R.dirty_set owner h)

let test_replay_expires_with_fix () =
  let evictions, stale, dirty = replay_scenario ~bug:false () in
  Alcotest.(check int) "lease expired despite replays" 1 evictions;
  Alcotest.(check (list int)) "dirty set emptied" [] dirty;
  Alcotest.(check bool)
    (Printf.sprintf "replays counted as stale (%d)" stale)
    true (stale > 0)

(* The regression guard: on pre-fix code (the [bug_ping_ack_replay]
   re-introduction) the very same nemesis keeps the dead client's
   lease alive forever — this is what the fix kills. *)
let test_replay_immortal_without_fix () =
  let evictions, _, dirty = replay_scenario ~bug:true () in
  Alcotest.(check int) "pre-fix: replays renew the lease" 0 evictions;
  Alcotest.(check (list int)) "pre-fix: dead client never evicted" [ 1 ] dirty

(* --- epoch folded into the nonce ---------------------------------------

   The ping demon's sequence restarts at 1 on every epoch bump, so a
   nonce from a previous incarnation could alias a fresh one if only
   the sequence were compared.  Folding the epoch into the nonce makes
   a dead-epoch ack unmatchable even when it wears the receiver's
   current [dst_epoch] stamp (so the packet-layer epoch check cannot
   catch it). *)
let test_dead_epoch_ack_stale () =
  (* The default sim stack, keeping its network to inject the spoofed
     packet past the transport. *)
  let net = ref None in
  let transport sched n =
    net := Some n;
    Faulty.of_net ~sched n
  in
  let cfg =
    R.config ~seed:7L ~gc_period:0.5 ~ping_period:1.0 ~lease_misses:3
      ~durable:true ~fsync_delay:0.005 ~recover_grace:0.5 ~transport
      ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let h = Scenario.counter owner in
  R.publish owner "c" h;
  R.spawn rt (fun () ->
      let s = R.lookup client ~at:0 "c" in
      ignore (Stub.call client s Scenario.m_incr 1));
  ignore (R.run ~until:2.2 rt);
  no_failures rt;
  (* The owner recovers into epoch 1; its recovered dirty set still
     carries the client, and its ping sequence restarts at 1. *)
  R.crash rt 0;
  ignore (R.run ~until:2.6 rt);
  R.recover rt 0;
  ignore (R.run ~until:6.0 rt);
  Alcotest.(check int) "owner recovered into epoch 1" 1 (R.epoch owner);
  Alcotest.(check (list int)) "client re-asserted" [ 1 ] (R.dirty_set owner h);
  let before = (R.gc_stats owner).R.stale_acks in
  (* An epoch-0 ack with a sequence deep inside the current window,
     wearing the current dst_epoch: only the folded nonce epoch can
     reject it. *)
  let spoof =
    P.encode Proto.packet_codec
      {
        Proto.src_epoch = 0;
        src_cont = 0;
        dst_epoch = 1;
        env = Proto.Ping_ack { nonce = 2 };
      }
  in
  Sched.timer (R.sched rt) ~name:"nemesis-dead-epoch" 0.1 (fun () ->
      Net.send (Option.get !net) ~src:1 ~dst:0 ~kind:"ping_ack" spoof);
  ignore (R.run ~until:7.0 rt);
  no_failures rt;
  Alcotest.(check bool) "dead-epoch ack dropped as stale" true
    ((R.gc_stats owner).R.stale_acks > before);
  Alcotest.(check int) "no eviction" 0 (R.gc_stats owner).R.evictions;
  Alcotest.(check (list int)) "lease intact" [ 1 ] (R.dirty_set owner h)

(* --- the aggregated lease at scale -------------------------------------

   One client imports [n] objects from one owner.  The lease plane
   must renew all [n] dirty entries with one ping/ack pair per tick
   (pings grow with ticks, not with [n]), survive an over-boundary
   partition under [lease_grace], and — when the partition outlasts
   boundary + grace — evict all [n] entries in one pass. *)

let scale_scenario ~n ~lease_grace ~duration () =
  let cfg =
    R.config ~seed:5L ~gc_period:0.5 ~ping_period:1.0 ~lease_misses:3
      ~lease_grace ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let reg, objs = Scenario.registry owner n in
  R.publish owner "reg" reg;
  let got = ref [] in
  R.spawn rt (fun () ->
      let s = R.lookup client ~at:0 "reg" in
      got := Stub.call client s Scenario.m_all ();
      R.release client s
      (* the [n] surrogates in [got] stay rooted throughout *));
  partition_window rt 0 1 ~after:4.4 ~duration;
  ignore (R.run ~until:14.0 rt);
  no_failures rt;
  Alcotest.(check int) "client imported everything" n (List.length !got);
  (match R.lease_check owner with
  | [] -> ()
  | p :: _ -> Alcotest.failf "lease aggregates diverged: %s" p);
  (rt, owner, objs)

let test_scale_one_ping_covers_all () =
  (* No effective partition (duration 0 heals instantly): the lease
     covers all entries and the ping traffic is per-tick, not
     per-entry. *)
  let _, owner, _ = scale_scenario ~n:2000 ~lease_grace:0.0 ~duration:0.0 () in
  Alcotest.(check int) "lease covers every entry" 2000
    (R.lease_entries owner 1);
  let pings = (R.gc_stats owner).R.pings in
  Alcotest.(check bool)
    (Printf.sprintf "pings counted per tick, not per entry (%d)" pings)
    true
    (pings > 5 && pings < 30)

let test_scale_grace_saves_all () =
  (* One tick over the boundary, inside the grace window: all 2000
     entries survive on the single healed ack. *)
  let _, owner, _ =
    scale_scenario ~n:2000 ~lease_grace:2.0 ~duration:3.2 ()
  in
  Alcotest.(check int) "no eviction under grace" 0
    (R.gc_stats owner).R.evictions;
  Alcotest.(check int) "every entry survives" 2000 (R.lease_entries owner 1)

let test_scale_eviction_drops_all () =
  (* Boundary + grace exceeded: one expiry walks the client's whole
     aggregate and drops all 2000 entries. *)
  let rt, owner, objs =
    scale_scenario ~n:2000 ~lease_grace:1.0 ~duration:6.0 ()
  in
  Alcotest.(check int) "one expiry dropped every entry" 2000
    (R.gc_stats owner).R.evictions;
  Alcotest.(check int) "no entries left under lease" 0
    (R.lease_entries owner 1);
  Array.iter
    (fun h ->
      match R.dirty_set owner h with
      | [] -> ()
      | _ -> Alcotest.fail "an entry survived the eviction")
    objs;
  ignore rt

(* --- losing exactly one owner's lease ----------------------------------

   A client holding handles at two owners is partitioned from one of
   them only: that owner evicts it, the other keeps renewing, and the
   surviving surrogate still works. *)
let test_multi_owner_single_loss () =
  let cfg =
    R.config ~seed:5L ~gc_period:0.5 ~ping_period:1.0 ~lease_misses:3
      ~nspaces:3 ()
  in
  let rt = R.create cfg in
  let o0 = R.space rt 0 and o1 = R.space rt 1 and client = R.space rt 2 in
  let a = Scenario.counter o0 and b = Scenario.counter o1 in
  R.publish o0 "a" a;
  R.publish o1 "b" b;
  let sb = ref None in
  R.spawn rt (fun () ->
      let sa = R.lookup client ~at:0 "a" in
      let s = R.lookup client ~at:1 "b" in
      ignore (Stub.call client sa Scenario.m_incr 1);
      ignore (Stub.call client s Scenario.m_incr 1);
      sb := Some s);
  partition_window rt 0 2 ~after:4.4 ~duration:6.0;
  ignore (R.run ~until:14.0 rt);
  no_failures rt;
  Alcotest.(check int) "partitioned owner evicted the client" 1
    (R.gc_stats o0).R.evictions;
  Alcotest.(check (list int)) "lease at owner 0 lost" [] (R.dirty_set o0 a);
  Alcotest.(check int) "no lease entries left at owner 0" 0
    (R.lease_entries o0 2);
  Alcotest.(check int) "owner 1 never evicted" 0 (R.gc_stats o1).R.evictions;
  Alcotest.(check (list int)) "lease at owner 1 intact" [ 2 ]
    (R.dirty_set o1 b);
  Alcotest.(check int) "owner 1 still covers the entry" 1
    (R.lease_entries o1 2);
  (* the surviving surrogate still works *)
  R.spawn rt (fun () ->
      match !sb with
      | Some s -> Alcotest.(check int) "call through survivor" 2
            (Stub.call client s Scenario.m_incr 1)
      | None -> Alcotest.fail "setup failed");
  ignore (R.run ~until:15.0 rt);
  no_failures rt;
  List.iter
    (fun sp ->
      match R.lease_check sp with
      | [] -> ()
      | p :: _ -> Alcotest.failf "aggregates diverged: %s" p)
    (R.spaces rt)

(* --- property: incremental aggregates = from-scratch fold --------------

   Random acquire/release/bounce sequences against one owner; after
   every trajectory the incrementally maintained per-client lease and
   dirty-kept aggregates must agree with a from-scratch fold over the
   object table ([R.lease_check]), on every space, and the per-step
   safety checker must stay clean. *)
let prop_aggregates_agree =
  let nobjs = 5 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 4 16)
        (triple (int_range 1 2) (int_bound (nobjs - 1)) (int_bound 9)))
  in
  let print = QCheck.Print.(list (triple int int int)) in
  QCheck.Test.make ~name:"lease aggregates agree with the table fold"
    ~count:20 (QCheck.make gen ~print)
    (fun ops ->
      let cfg =
        R.config ~seed:3L ~gc_period:0.5 ~ping_period:0.5 ~lease_misses:2
          ~nspaces:3 ()
      in
      let rt = R.create cfg in
      let owner = R.space rt 0 in
      Array.iteri
        (fun i h -> R.publish owner (Printf.sprintf "o%d" i) h)
        (Array.init nobjs (fun _ -> R.allocate owner ~meths:[]));
      let held = Array.make_matrix 3 nobjs [] in
      let now = ref 0.0 in
      let step dt =
        now := !now +. dt;
        ignore (R.run ~until:!now rt)
      in
      List.iter
        (fun (c, i, a) ->
          if a <= 6 then begin
            (* acquire another handle on object i *)
            let sp = R.space rt c in
            R.spawn_at rt ~space:c (fun () ->
                let h = R.lookup sp ~at:0 (Printf.sprintf "o%d" i) in
                held.(c).(i) <- h :: held.(c).(i));
            step 0.7
          end
          else if a <= 8 then begin
            (* release one handle, if any *)
            match held.(c).(i) with
            | [] -> ()
            | h :: rest ->
                R.release (R.space rt c) h;
                held.(c).(i) <- rest;
                step 0.7
          end
          else begin
            (* bounce: crash past the lease boundary (the owner walks
               the whole aggregate in one eviction), then restart *)
            R.crash rt c;
            Array.iteri (fun j _ -> held.(c).(j) <- []) held.(c);
            step 3.0;
            R.restart rt c;
            step 0.7
          end)
        ops;
      step 2.0;
      List.iter
        (fun sp ->
          match R.lease_check sp with
          | [] -> ()
          | p :: _ ->
              QCheck.Test.fail_reportf "space %d: %s" (R.space_id sp) p)
        (R.spaces rt);
      (match R.check_safety rt with
      | [] -> ()
      | p :: _ -> QCheck.Test.fail_reportf "safety: %s" p);
      true)

let () =
  Alcotest.run "scale"
    [
      ( "replay",
        [
          Alcotest.test_case "replayed acks cannot hold a lease" `Quick
            test_replay_expires_with_fix;
          Alcotest.test_case "pre-fix: replayed acks immortalise it" `Quick
            test_replay_immortal_without_fix;
          Alcotest.test_case "dead-epoch ack is stale" `Quick
            test_dead_epoch_ack_stale;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "one ping covers 2000 entries" `Quick
            test_scale_one_ping_covers_all;
          Alcotest.test_case "grace saves 2000 entries" `Quick
            test_scale_grace_saves_all;
          Alcotest.test_case "eviction drops 2000 entries" `Quick
            test_scale_eviction_drops_all;
          Alcotest.test_case "one owner lost, one kept" `Quick
            test_multi_owner_single_loss;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_aggregates_agree ]);
    ]
