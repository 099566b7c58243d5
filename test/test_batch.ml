(* The cleaning demon sends one clean call per owner per collection:
   every surrogate a collection finds dead is listed in one [Clean] to
   its owner, answered by one [Clean_ack], and each reference keeps its
   own sequence number, count and retry. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Net = Netobj_net.Net
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle
module Transport = Netobj_transport.Transport

let no_failures rt =
  match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

let count_kind rt k =
  let kinds = Transport.stats_by_kind (R.transport rt) in
  Option.value ~default:(0, 0) (List.assoc_opt k kinds) |> fst

(* Import k objects and release them all; then collect once. *)
let test_batching_reduces_messages () =
  let k = 10 in
  let rt = R.create (R.config ~seed:17L ~nspaces:2 ()) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let objs = List.init k (fun i -> (i, Scenario.counter owner)) in
  List.iter (fun (i, o) -> R.publish owner (Printf.sprintf "o%d" i) o) objs;
  R.spawn rt (fun () ->
      List.iter
        (fun (i, _) ->
          let h = R.lookup client ~at:0 (Printf.sprintf "o%d" i) in
          ignore (Stub.call client h Scenario.m_incr 1);
          R.release client h)
        objs);
  ignore (R.run rt);
  no_failures rt;
  Transport.reset_stats (R.transport rt);
  let cleans0 = (R.gc_stats client).clean_calls in
  R.collect client;
  ignore (R.run rt);
  no_failures rt;
  (* k object surrogates + 1 agent surrogate, all owned by space 0 *)
  Alcotest.(check int) "clean calls per reference" (k + 1)
    ((R.gc_stats client).clean_calls - cleans0);
  Alcotest.(check int) "one clean message" 1 (count_kind rt "clean");
  Alcotest.(check int) "one clean_ack message" 1 (count_kind rt "clean_ack");
  Alcotest.(check bool) "dirty sets drained" true
    (List.for_all (fun (_, o) -> R.dirty_set owner o = []) objs);
  Alcotest.(check int) "surrogates gone" 0 (R.surrogate_count client)

(* Note 4: a clean the collector scheduled is withdrawn when the
   surrogate is live again before the demon takes it.  Here the
   application re-roots the handle and a second collection finds it
   live, both before the demon runs. *)
let test_scheduled_clean_withdrawn () =
  let rt = R.create (R.config ~seed:19L ~nspaces:2 ()) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let a = Scenario.counter owner and b = Scenario.counter owner in
  R.publish owner "a" a;
  R.publish owner "b" b;
  let ha = ref None in
  R.spawn rt (fun () ->
      let h = R.lookup client ~at:0 "a" in
      let hb = R.lookup client ~at:0 "b" in
      ignore (Stub.call client h Scenario.m_incr 1);
      ignore (Stub.call client hb Scenario.m_incr 1);
      ha := Some h;
      R.release client hb);
  ignore (R.run rt);
  no_failures rt;
  let ha = Option.get !ha in
  R.release client ha;
  (* Schedules cleans for a, b and the agent ... *)
  R.collect client;
  (* ... and a is rooted again before the demon has run. *)
  R.retain client ha;
  R.collect client;
  Transport.reset_stats (R.transport rt);
  ignore (R.run rt);
  no_failures rt;
  Alcotest.(check (list int)) "a still registered" [ 1 ] (R.dirty_set owner a);
  Alcotest.(check (list int)) "b cleaned" [] (R.dirty_set owner b);
  Alcotest.(check int) "a is the one surrogate left" 1
    (R.surrogate_count client);
  Alcotest.(check int) "one clean message" 1 (count_kind rt "clean");
  Alcotest.(check int) "no dirty call for a" 0 (count_kind rt "dirty")

(* Cleans to several owners split per destination. *)
let test_batch_multi_owner () =
  let rt = R.create (R.config ~seed:23L ~nspaces:3 ()) in
  let o1 = R.space rt 0 and o2 = R.space rt 1 and client = R.space rt 2 in
  let a = Scenario.counter o1 and b = Scenario.counter o2 in
  R.publish o1 "a" a;
  R.publish o2 "b" b;
  R.spawn rt (fun () ->
      let ha = R.lookup client ~at:0 "a" in
      let hb = R.lookup client ~at:1 "b" in
      ignore (Stub.call client ha Scenario.m_incr 1);
      ignore (Stub.call client hb Scenario.m_incr 1);
      R.release client ha;
      R.release client hb);
  ignore (R.run rt);
  Transport.reset_stats (R.transport rt);
  R.collect client;
  ignore (R.run rt);
  no_failures rt;
  Alcotest.(check int) "one clean per owner" 2 (count_kind rt "clean");
  Alcotest.(check int) "one clean_ack per owner" 2 (count_kind rt "clean_ack");
  Alcotest.(check (list int)) "a drained" [] (R.dirty_set o1 a);
  Alcotest.(check (list int)) "b drained" [] (R.dirty_set o2 b)

(* --- acks ----------------------------------------------------------------- *)

let m_put = Stub.declare "put" R.handle_codec P.unit

(* The full third-party scenario stays sound: the ref passed as a call
   argument is acked, linked at the third space and survives collection. *)
let test_third_party_sound () =
  let cfg = R.config ~seed:29L ~nspaces:3 () in
  let rt = R.create cfg in
  let owner = R.space rt 0 and a = R.space rt 1 and c = R.space rt 2 in
  let counter = Scenario.counter owner in
  let wr = R.wirerep counter in
  R.publish owner "counter" counter;
  let stored = ref None in
  let rec cell =
    lazy
      (R.allocate c
         ~meths:
           [
             Stub.implement m_put (fun sp' h ->
                 R.link sp' ~parent:(Lazy.force cell) ~child:h;
                 stored := Some h);
           ])
  in
  R.publish c "cell" (Lazy.force cell);
  R.spawn rt (fun () ->
      let h = R.lookup a ~at:0 "counter" in
      let hc = R.lookup a ~at:2 "cell" in
      Stub.call a hc m_put h;
      R.release a h;
      R.release a hc);
  ignore (R.run rt);
  no_failures rt;
  R.collect_all rt;
  ignore (R.run rt);
  Alcotest.(check bool) "object survived" true (R.resident owner wr);
  Alcotest.(check bool) "consistent at quiescence" true
    (R.check_consistency rt = [])

(* Ack elision: null calls (no references in args or results) produce no
   copy_ack messages at all. *)
let test_ack_elision () =
  let cfg = R.config ~seed:31L ~nspaces:2 () in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  let href = ref None in
  R.spawn rt (fun () -> href := Some (R.lookup client ~at:0 "c"));
  ignore (R.run rt);
  no_failures rt;
  Transport.reset_stats (R.transport rt);
  R.spawn rt (fun () ->
      let h = Option.get !href in
      for _ = 1 to 10 do
        ignore (Stub.call client h Scenario.m_incr 1)
      done);
  ignore (R.run rt);
  no_failures rt;
  let kinds = Transport.stats_by_kind (R.transport rt) in
  Alcotest.(check int) "no acks for null calls" 0
    (fst (Option.value ~default:(0, 0) (List.assoc_opt "copy_ack" kinds)))

(* A lost clean is retried: each of its items repeats as a one-item
   clean with its own sequence number until acknowledged, so the owner's
   dirty entry and the client's surrogates still go. *)
let test_batch_clean_retried () =
  let cfg = R.config ~seed:17L ~clean_retry:0.2 ~nspaces:2 () in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let o = Scenario.counter owner in
  R.publish owner "o" o;
  R.spawn rt (fun () ->
      let h = R.lookup client ~at:0 "o" in
      ignore (Stub.call client h Scenario.m_incr 1);
      R.release client h);
  ignore (R.run rt);
  no_failures rt;
  let dropped = ref 0 and passed = ref 0 in
  Transport.set_filter (R.transport rt)
    (Some
       (fun ~src:_ ~dst:_ ~kind ->
         if kind <> "clean" then true
         else if !dropped = 0 then begin
           incr dropped;
           false
         end
         else begin
           incr passed;
           true
         end));
  let before = R.gc_stats client in
  R.collect client;
  ignore (R.run ~until:30.0 rt);
  no_failures rt;
  let after = R.gc_stats client in
  Alcotest.(check int) "the batch was dropped" 1 !dropped;
  (* o and the agent: two items, each retried alone *)
  Alcotest.(check int) "one retry per item" 2 (after.retries - before.retries);
  Alcotest.(check int) "one message per retry" 2 !passed;
  Alcotest.(check (list int)) "dirty set drained" [] (R.dirty_set owner o);
  Alcotest.(check int) "surrogates gone" 0 (R.surrogate_count client)

let () =
  Alcotest.run "batch"
    [
      ( "batching",
        [
          Alcotest.test_case "reduces messages" `Quick
            test_batching_reduces_messages;
          Alcotest.test_case "scheduled clean withdrawn" `Quick
            test_scheduled_clean_withdrawn;
          Alcotest.test_case "multi owner" `Quick test_batch_multi_owner;
          Alcotest.test_case "lost batch retried" `Quick
            test_batch_clean_retried;
        ] );
      ( "acks",
        [
          Alcotest.test_case "third-party sound" `Quick
            test_third_party_sound;
          Alcotest.test_case "ack elision" `Quick test_ack_elision;
        ] );
    ]
