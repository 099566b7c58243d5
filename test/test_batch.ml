(* The cleaning-demon batching optimisation: many surrogate deaths in one
   GC cycle produce one clean_batch message per owner, with identical
   final state to the unbatched protocol. *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Net = Netobj_net.Net
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle
module Transport = Netobj_transport.Transport

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

let no_failures rt =
  match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

(* Import k objects, release them all, collect once; compare wire
   messages between batched and unbatched configurations. *)
let run_churn ~batch ~k =
  let cfg =
    R.config ~seed:17L
      ?clean_batch:(if batch then Some 0.05 else None)
      ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let objs = List.init k (fun i -> (i, counter_obj owner)) in
  List.iter (fun (i, o) -> R.publish owner (Printf.sprintf "o%d" i) o) objs;
  R.spawn rt (fun () ->
      List.iter
        (fun (i, _) ->
          let h = R.lookup client ~at:0 (Printf.sprintf "o%d" i) in
          ignore (Stub.call client h m_incr 1);
          R.release client h)
        objs);
  ignore (R.run rt);
  no_failures rt;
  Transport.reset_stats (R.transport rt);
  R.collect client;
  ignore (R.run rt);
  no_failures rt;
  let kinds = Transport.stats_by_kind (R.transport rt) in
  let count k = Option.value ~default:(0, 0) (List.assoc_opt k kinds) |> fst in
  let drained =
    List.for_all (fun (_, o) -> R.dirty_set owner o = []) objs
  in
  (count "clean", count "clean_batch", drained)

let test_batching_reduces_messages () =
  let k = 10 in
  let cleans, batches, drained = run_churn ~batch:false ~k in
  Alcotest.(check bool) "unbatched drains" true drained;
  (* k object surrogates + 1 agent surrogate, one clean each *)
  Alcotest.(check int) "unbatched cleans" (k + 1) cleans;
  Alcotest.(check int) "no batch messages" 0 batches;
  let cleans_b, batches_b, drained_b = run_churn ~batch:true ~k in
  Alcotest.(check bool) "batched drains" true drained_b;
  Alcotest.(check int) "no single cleans" 0 cleans_b;
  Alcotest.(check int) "one batch message" 1 batches_b

(* Batching respects the Note 4 cancellation: a re-import inside the
   batching window withdraws that object's clean from the batch. *)
let test_batch_window_cancellation () =
  let cfg =
    R.config ~seed:19L ~clean_batch:1.0 (* long window *) ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let a = counter_obj owner and b = counter_obj owner in
  R.publish owner "a" a;
  R.publish owner "b" b;
  R.spawn rt (fun () ->
      let ha = R.lookup client ~at:0 "a" in
      let hb = R.lookup client ~at:0 "b" in
      ignore (Stub.call client ha m_incr 1);
      ignore (Stub.call client hb m_incr 1);
      R.release client ha;
      R.release client hb);
  ignore (R.run rt);
  (* Collect schedules cleans for both (and the agent); within the 1s
     window, re-import "a": its clean must be withdrawn. *)
  R.collect client;
  R.spawn rt (fun () ->
      let ha = R.lookup client ~at:0 "a" in
      ignore (Stub.call client ha m_incr 1);
      R.retain client ha;
      ignore ha);
  ignore (R.run ~until:0.5 rt);
  ignore (R.run ~until:10.0 rt);
  no_failures rt;
  Alcotest.(check (list int)) "a still registered" [ 1 ] (R.dirty_set owner a);
  Alcotest.(check (list int)) "b cleaned" [] (R.dirty_set owner b)

(* Batched cleans to several owners split per destination. *)
let test_batch_multi_owner () =
  let cfg =
    R.config ~seed:23L ~clean_batch:0.05 ~nspaces:3 ()
  in
  let rt = R.create cfg in
  let o1 = R.space rt 0 and o2 = R.space rt 1 and client = R.space rt 2 in
  let a = counter_obj o1 and b = counter_obj o2 in
  R.publish o1 "a" a;
  R.publish o2 "b" b;
  R.spawn rt (fun () ->
      let ha = R.lookup client ~at:0 "a" in
      let hb = R.lookup client ~at:1 "b" in
      ignore (Stub.call client ha m_incr 1);
      ignore (Stub.call client hb m_incr 1);
      R.release client ha;
      R.release client hb);
  ignore (R.run rt);
  Transport.reset_stats (R.transport rt);
  R.collect client;
  ignore (R.run rt);
  no_failures rt;
  let kinds = Transport.stats_by_kind (R.transport rt) in
  let batches =
    Option.value ~default:(0, 0) (List.assoc_opt "clean_batch" kinds) |> fst
  in
  Alcotest.(check int) "one batch per owner" 2 batches;
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
  let counter = counter_obj owner in
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
  let counter = counter_obj owner in
  R.publish owner "c" counter;
  let href = ref None in
  R.spawn rt (fun () -> href := Some (R.lookup client ~at:0 "c"));
  ignore (R.run rt);
  no_failures rt;
  Transport.reset_stats (R.transport rt);
  R.spawn rt (fun () ->
      let h = Option.get !href in
      for _ = 1 to 10 do
        ignore (Stub.call client h m_incr 1)
      done);
  ignore (R.run rt);
  no_failures rt;
  let kinds = Transport.stats_by_kind (R.transport rt) in
  Alcotest.(check int) "no acks for null calls" 0
    (fst (Option.value ~default:(0, 0) (List.assoc_opt "copy_ack" kinds)))

(* A lost clean_batch is retried: each item repeats as a single clean
   until acknowledged, so the owner's dirty entry and the client's
   surrogates still go. *)
let test_batch_clean_retried () =
  let cfg =
    R.config ~seed:17L ~clean_batch:0.05 ~clean_retry:0.2 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let o = counter_obj owner in
  R.publish owner "o" o;
  R.spawn rt (fun () ->
      let h = R.lookup client ~at:0 "o" in
      ignore (Stub.call client h m_incr 1);
      R.release client h);
  ignore (R.run rt);
  no_failures rt;
  let dropped = ref 0 in
  Transport.set_filter (R.transport rt)
    (Some
       (fun ~src:_ ~dst:_ ~kind ->
         if kind = "clean_batch" && !dropped = 0 then begin
           incr dropped;
           false
         end
         else true));
  R.collect client;
  ignore (R.run ~until:30.0 rt);
  no_failures rt;
  Alcotest.(check int) "the batch was dropped" 1 !dropped;
  Alcotest.(check (list int)) "dirty set drained" [] (R.dirty_set owner o);
  Alcotest.(check int) "surrogates gone" 0 (R.surrogate_count client)

let () =
  Alcotest.run "batch"
    [
      ( "batching",
        [
          Alcotest.test_case "reduces messages" `Quick
            test_batching_reduces_messages;
          Alcotest.test_case "window cancellation" `Quick
            test_batch_window_cancellation;
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
