(* End-to-end tests of the Network Objects runtime: RPC through
   surrogates, the name-service agent, reference passing (third-party
   transfers), and the integrated distributed garbage collector. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Wirerep = Netobj_core.Wirerep
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle

(* --- shared interfaces --------------------------------------------------- *)

let m_put = Stub.declare "put" R.handle_codec P.unit (* store a reference *)

let m_fetch = Stub.declare "fetch" P.unit R.handle_codec

(* A cell object that can hold a reference to another network object,
   linking it into the local heap so it stays reachable. *)
let cell_obj sp =
  let stored = ref None in
  let rec cell =
    lazy
      (R.allocate sp
         ~meths:
           [
             Stub.implement m_put (fun sp' h ->
                 (match !stored with
                 | Some old ->
                     R.unlink sp' ~parent:(Lazy.force cell) ~child:old;
                     R.release sp' old
                 | None -> ());
                 R.link sp' ~parent:(Lazy.force cell) ~child:h;
                 R.retain sp' h;
                 (* the runtime rooted the decoded arg for us only for
                    replies; args are pinned during the call, so we took
                    our own root above and can let the pin go *)
                 stored := Some h);
             Stub.implement m_fetch (fun _ () ->
                 match !stored with
                 | Some h -> h
                 | None -> failwith "cell empty");
           ])
  in
  Lazy.force cell

(* Run [f] in a fiber to completion, propagating failures. *)
let in_fiber rt f =
  let result = ref None in
  R.spawn rt (fun () -> result := Some (f ()));
  ignore (R.run rt);
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e));
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "fiber did not complete (deadlock?)"

let make ?(n = 3) ?(seed = 7L) () = R.create (R.config ~seed ~nspaces:n ())

(* --- tests ---------------------------------------------------------------- *)

let test_basic_rpc () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      Alcotest.(check int) "incr 5" 5 (Stub.call client h Scenario.m_incr 5);
      Alcotest.(check int) "incr 2" 7 (Stub.call client h Scenario.m_incr 2);
      Alcotest.(check int) "get" 7 (Stub.call client h Scenario.m_get ());
      (* The owner sees the client in the dirty set. *)
      Alcotest.(check (list int)) "dirty set" [ 1 ] (R.dirty_set owner counter);
      R.release client h)

let test_local_invoke () =
  let rt = make () in
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  in_fiber rt (fun () ->
      Alcotest.(check int) "local incr" 3
        (Stub.call owner counter Scenario.m_incr 3);
      Alcotest.(check int) "local get" 3
        (Stub.call owner counter Scenario.m_get ()))

let test_unknown_method () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      (match Stub.call client h (Stub.declare "nope" P.unit P.unit) () with
      | () -> Alcotest.fail "expected No_such_method"
      | exception R.Call_failed (No_such_method "nope") -> ());
      R.release client h)

(* A reply the caller cannot decode is a typed [Undecodable_reply], and the
   references decoded before the failure are not leaked: the reply is
   acknowledged and the caller's pins go, so a collect drains the
   owner's dirty set. *)
let test_undecodable_reply () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  let m_mint = Stub.declare "mint" P.unit (P.pair R.handle_codec P.int) in
  let minted = ref None in
  let minter =
    R.allocate owner
      ~meths:
        [
          Stub.implement m_mint (fun sp () ->
              let c = Scenario.counter sp in
              minted := Some c;
              (c, 7));
        ]
  in
  R.publish owner "counter" counter;
  R.publish owner "minter" minter;
  let expect_undecodable what meth f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Undecodable_reply" what
    | exception R.Call_failed (Undecodable_reply { meth = m; _ }) when m = meth
      ->
        ()
  in
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      expect_undecodable "incr as bool" "incr" (fun () ->
          Stub.call client h (Stub.declare "incr" P.int P.bool) 5);
      let hm = R.lookup client ~at:0 "minter" in
      expect_undecodable "mint as (handle, bool)" "mint" (fun () ->
          Stub.call client hm
            (Stub.declare "mint" P.unit (P.pair R.handle_codec P.bool))
            ());
      R.release client h;
      R.release client hm);
  let c = Option.get !minted in
  Alcotest.(check (list int)) "minted object registered" [ 1 ]
    (R.dirty_set owner c);
  R.collect client;
  ignore (R.run rt);
  Alcotest.(check (list int)) "dirty set drained" [] (R.dirty_set owner c);
  (* the reply's transient pin went with its copy_ack *)
  R.release owner c;
  R.collect owner;
  Alcotest.(check bool) "minted object reclaimed" false
    (R.resident owner (R.wirerep c))

let test_unknown_name () =
  let rt = make () in
  let client = R.space rt 1 in
  in_fiber rt (fun () ->
      match R.lookup client ~at:0 "missing" with
      | _ -> Alcotest.fail "expected No_binding"
      | exception R.Call_failed (No_binding "missing") -> ())

(* Dropping the last surrogate lets the owner reclaim the object. *)
let test_gc_reclaims_dropped () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  let wr = R.wirerep counter in
  R.publish owner "counter" counter;
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      Alcotest.(check int) "warm" 1 (Stub.call client h Scenario.m_incr 1);
      R.release client h);
  (* Client's collector finds the surrogate unreachable, cleans. *)
  R.collect (R.space rt 1);
  ignore (R.run rt);
  Alcotest.(check (list int)) "dirty set empty" [] (R.dirty_set owner counter);
  (* The owner still roots it (allocate rooted + published). *)
  Alcotest.(check bool) "still resident" true (R.resident owner wr);
  (* Owner lets go: unpublish by releasing the root and collecting.
     (The agent also linked it when published; republish over it.) *)
  R.publish owner "counter" (Scenario.counter owner);
  R.release owner counter;
  R.collect owner;
  Alcotest.(check bool) "reclaimed at owner" false (R.resident owner wr)

(* A remote reference alone keeps the object alive at the owner. *)
let test_gc_remote_keeps_alive () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  let wr = R.wirerep counter in
  R.publish owner "tmp" counter;
  let h =
    in_fiber rt (fun () ->
        let h = R.lookup client ~at:0 "tmp" in
        Alcotest.(check int) "reachable" 1
          (Stub.call client h Scenario.m_incr 1);
        h)
  in
  (* Owner drops all local interest. *)
  R.publish owner "tmp" (Scenario.counter owner);
  R.release owner counter;
  R.collect owner;
  Alcotest.(check bool)
    "remote ref keeps object resident" true (R.resident owner wr);
  in_fiber rt (fun () ->
      Alcotest.(check int) "still callable" 2
        (Stub.call client h Scenario.m_incr 1);
      R.release client h);
  R.collect (R.space rt 1);
  ignore (R.run rt);
  R.collect owner;
  Alcotest.(check bool) "now reclaimed" false (R.resident owner wr)

(* Third-party transfer: client A fetches a reference and hands it to a
   cell on space C; C's reference alone must keep the object alive. *)
let test_third_party_transfer () =
  let rt = make ~n:3 () in
  let owner = R.space rt 0 and a = R.space rt 1 and c = R.space rt 2 in
  let counter = Scenario.counter owner in
  let wr = R.wirerep counter in
  R.publish owner "counter" counter;
  let cell = cell_obj c in
  R.publish c "cell" cell;
  in_fiber rt (fun () ->
      let h = R.lookup a ~at:0 "counter" in
      let hc = R.lookup a ~at:2 "cell" in
      (* Pass the counter reference to the cell on space 2. *)
      Stub.call a hc m_put h;
      (* A drops both its references. *)
      R.release a h;
      R.release a hc);
  R.collect (R.space rt 1);
  ignore (R.run rt);
  (* Space 2 now holds the only client reference. *)
  Alcotest.(check (list int)) "dirty set is {2}" [ 2 ] (R.dirty_set owner counter);
  (* And it works: fetch it back on space 2 and call through it. *)
  in_fiber rt (fun () ->
      let h = Stub.call c cell m_fetch () in
      Alcotest.(check int) "callable via third party" 1
        (Stub.call c h Scenario.m_incr 1);
      R.release c h);
  Alcotest.(check bool) "resident" true (R.resident owner wr)

(* The transmit-race protection (TR §2.1): the sender's reference is
   pinned while in transit, so even if the sender drops and cleans
   mid-flight, the object survives until the receiver registers. *)
let test_transmit_pin () =
  let rt = make ~n:3 () in
  let owner = R.space rt 0 and a = R.space rt 1 and c = R.space rt 2 in
  let counter = Scenario.counter owner in
  let wr = R.wirerep counter in
  R.publish owner "counter" counter;
  let cell = cell_obj c in
  R.publish c "cell" cell;
  in_fiber rt (fun () ->
      let h = R.lookup a ~at:0 "counter" in
      let hc = R.lookup a ~at:2 "cell" in
      Stub.call a hc m_put h;
      R.release a h;
      R.release a hc);
  (* Aggressively collect everywhere, repeatedly. *)
  for _ = 1 to 3 do
    R.collect_all rt;
    ignore (R.run rt)
  done;
  R.publish owner "counter" (Scenario.counter owner);
  R.release owner counter;
  for _ = 1 to 3 do
    R.collect_all rt;
    ignore (R.run rt)
  done;
  (* Space 2's cell still holds it; the object must have survived. *)
  Alcotest.(check bool) "survived aggressive GC" true (R.resident owner wr);
  in_fiber rt (fun () ->
      let h = Stub.call c cell m_fetch () in
      Alcotest.(check int) "alive" 1 (Stub.call c h Scenario.m_incr 1);
      R.release c h)

(* Resurrection: the owner hands the reference back to a client that has
   a clean call in flight (the runtime ccitnil path). *)
let test_resurrection () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      ignore (Stub.call client h Scenario.m_incr 1);
      R.release client h);
  (* Schedule the clean (demon will send it) but do NOT deliver yet:
     collect enqueues; then immediately re-import — depending on
     scheduling this exercises cancellation or resurrection. *)
  R.collect (R.space rt 1);
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      Alcotest.(check int) "usable after re-import" 2
        (Stub.call client h Scenario.m_incr 1);
      R.release client h);
  ignore (R.run rt);
  R.collect (R.space rt 1);
  ignore (R.run rt);
  Alcotest.(check (list int)) "cleaned in the end" [] (R.dirty_set owner counter)

(* Handles as results: fetch returns a rooted handle at the caller. *)
let test_result_handles_rooted () =
  let rt = make ~n:3 () in
  let owner = R.space rt 0 and a = R.space rt 1 and c = R.space rt 2 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  let cell = cell_obj c in
  R.publish c "cell" cell;
  in_fiber rt (fun () ->
      let h = R.lookup a ~at:0 "counter" in
      let hc = R.lookup a ~at:2 "cell" in
      Stub.call a hc m_put h;
      R.release a h;
      R.release a hc);
  in_fiber rt (fun () ->
      (* b fetches from the cell: a fresh surrogate on space 1 via a
         third-party result. *)
      let hc = R.lookup a ~at:2 "cell" in
      let h = Stub.call a hc m_fetch () in
      (* collect immediately: the result must be rooted, not swept *)
      R.collect a;
      Alcotest.(check int) "result rooted and usable" 1
        (Stub.call a h Scenario.m_incr 1);
      R.release a h;
      R.release a hc)

(* Lease expiry: a crashed client is eventually evicted from dirty sets
   and the object reclaimed. *)
let test_lease_eviction () =
  let cfg =
    R.config ~seed:3L ~ping_period:1.0 ~lease_misses:2 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  R.spawn rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      ignore (Stub.call client h Scenario.m_incr 1));
  ignore (R.run ~until:0.5 rt);
  Alcotest.(check (list int)) "registered" [ 1 ] (R.dirty_set owner counter);
  R.crash rt 1;
  (* Give the ping demon time: period 1s, 2 allowed misses. *)
  ignore (R.run ~until:10.0 rt);
  Alcotest.(check (list int)) "evicted after lease expiry" []
    (R.dirty_set owner counter);
  Alcotest.(check bool)
    "evictions counted" true
    ((R.gc_stats owner).R.evictions > 0)

(* Live clients are not evicted by the ping demon. *)
let test_lease_live_client_kept () =
  let cfg =
    R.config ~seed:4L ~ping_period:1.0 ~lease_misses:2 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  R.spawn rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      ignore (Stub.call client h Scenario.m_incr 1);
      R.retain client h;
      ignore h);
  ignore (R.run ~until:15.0 rt);
  Alcotest.(check (list int)) "still registered" [ 1 ]
    (R.dirty_set owner counter);
  Alcotest.(check bool) "pings flowed" true ((R.gc_stats owner).R.pings > 3)

(* GC statistics reflect protocol activity. *)
let test_stats () =
  let rt = make () in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      ignore (Stub.call client h Scenario.m_incr 1);
      R.release client h);
  R.collect (R.space rt 1);
  ignore (R.run rt);
  let st = R.gc_stats (R.space rt 1) in
  Alcotest.(check bool) "dirty calls happened" true (st.R.dirty_calls >= 1);
  Alcotest.(check bool) "clean calls happened" true (st.R.clean_calls >= 1);
  Alcotest.(check bool) "copy acks happened" true (st.R.copy_acks >= 1);
  Alcotest.(check int) "surrogate gone" 0 (R.surrogate_count (R.space rt 1))

(* Concurrent clients hammer one object; the dirty protocol must settle
   into a consistent dirty set. *)
let test_many_clients () =
  let n = 6 in
  let rt = make ~n () in
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  R.publish owner "counter" counter;
  for i = 1 to n - 1 do
    R.spawn rt (fun () ->
        let sp = R.space rt i in
        let h = R.lookup sp ~at:0 "counter" in
        for _ = 1 to 5 do
          ignore (Stub.call sp h Scenario.m_incr 1)
        done;
        R.release sp h)
  done;
  ignore (R.run rt);
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (nm, e) :: _ -> Alcotest.failf "fiber %s: %s" nm (Printexc.to_string e));
  in_fiber rt (fun () ->
      Alcotest.(check int)
        "all increments arrived" (5 * (n - 1))
        (Stub.call owner counter Scenario.m_get ()));
  (* Everyone released: collect everywhere; dirty set must drain. *)
  R.collect_all rt;
  ignore (R.run rt);
  Alcotest.(check (list int)) "dirty set drained" [] (R.dirty_set owner counter)

let () =
  Alcotest.run "runtime"
    [
      ( "rpc",
        [
          Alcotest.test_case "basic rpc" `Quick test_basic_rpc;
          Alcotest.test_case "local invoke" `Quick test_local_invoke;
          Alcotest.test_case "unknown method" `Quick test_unknown_method;
          Alcotest.test_case "undecodable reply" `Quick test_undecodable_reply;
          Alcotest.test_case "unknown name" `Quick test_unknown_name;
          Alcotest.test_case "many clients" `Quick test_many_clients;
        ] );
      ( "dgc",
        [
          Alcotest.test_case "reclaims dropped" `Quick test_gc_reclaims_dropped;
          Alcotest.test_case "remote keeps alive" `Quick
            test_gc_remote_keeps_alive;
          Alcotest.test_case "third-party transfer" `Quick
            test_third_party_transfer;
          Alcotest.test_case "transmit pin" `Quick test_transmit_pin;
          Alcotest.test_case "resurrection" `Quick test_resurrection;
          Alcotest.test_case "result handles rooted" `Quick
            test_result_handles_rooted;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "lease",
        [
          Alcotest.test_case "eviction on crash" `Quick test_lease_eviction;
          Alcotest.test_case "live client kept" `Quick
            test_lease_live_client_kept;
        ] );
    ]
