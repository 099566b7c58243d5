(* Reliability-plane suite: the config sanity warnings, the enriched
   No_reply payload, at-most-once retries (lost call and lost reply),
   overload shedding at the admission gate, server-side deadline
   expiry, cancel-on-abandon releasing reply pins, and the regression
   that a timed-out lookup releases the agent root — under both the
   simulated network and real TCP loopback. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Net = Netobj_net.Net
module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport
module Tcp = Netobj_transport.Tcp
module Faulty = Netobj_transport.Faulty
module P = Netobj_pickle.Pickle

let m_slow = Stub.declare "slow" P.int P.int

let m_mint = Stub.declare "mint" P.unit R.handle_codec

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

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

let drain rt = Scenario.drain ~rounds:6 ~pending:(fun () -> true) rt

let edge () = Net.bag_edge ~lo:0.005 ~hi:0.005 ()

(* --- config warnings ------------------------------------------------------ *)

let test_config_warnings () =
  (* three retried 3s attempts dwarf a 5s pin timeout *)
  let risky =
    R.config ~nspaces:2
      ~edge:(Net.bag_edge ~lo:0.01 ~hi:0.05 ())
      ~call_timeout:3.0 ~call_retries:2 ~pin_timeout:5.0 ()
  in
  (match R.config_warnings risky with
  | [ w ] ->
      Alcotest.(check bool) "names the knob" true (contains w "pin_timeout");
      Alcotest.(check bool) "names the race" true (contains w "copy_ack")
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws));
  let safe =
    R.config ~nspaces:2
      ~edge:(Net.bag_edge ~lo:0.01 ~hi:0.05 ())
      ~call_timeout:3.0 ~call_retries:2 ~pin_timeout:12.0 ()
  in
  Alcotest.(check (list string)) "ample margin" [] (R.config_warnings safe);
  let unset = R.config ~nspaces:2 ~call_timeout:3.0 () in
  Alcotest.(check (list string)) "no pin timeout" [] (R.config_warnings unset)

(* --- the No_reply payload -------------------------------------------------- *)

let test_timeout_payload () =
  let rt =
    R.create
      (R.config ~seed:7L ~nspaces:2 ~edge:(edge ()) ~call_timeout:0.05
         ~call_retries:2 ())
  in
  let owner = R.space rt 0 and client = R.space rt 1 in
  R.publish owner "c" (Scenario.counter owner);
  let tr = R.transport rt in
  let sched = R.sched rt in
  let r =
    in_fiber rt (fun () ->
        let h = R.lookup client ~at:0 "c" in
        (* every attempt's Call is swallowed *)
        Transport.set_burst tr ~src:1 ~dst:0 ~loss:1.0
          ~until:(Sched.now sched +. 0.5)
          ();
        let r =
          match Stub.call client h Scenario.m_incr 1 with
          | _ -> Alcotest.fail "call succeeded with every attempt lost"
          | exception
              R.Call_failed
                (No_reply { meth; attempts; timeout; deadline; _ })
            ->
              (meth, attempts, timeout, deadline)
        in
        Transport.set_burst tr ~src:1 ~dst:0 ~loss:0.0
          ~until:(Sched.now sched) ();
        R.release client h;
        r)
  in
  let meth, attempts, timeout, deadline = r in
  Alcotest.(check string) "method" "incr" meth;
  Alcotest.(check int) "attempts" 3 attempts;
  Alcotest.(check (option (float 0.))) "timeout" (Some 0.05) timeout;
  Alcotest.(check (option (float 0.))) "deadline" None deadline

(* --- at-most-once: lost call, lost reply ---------------------------------- *)

let test_retry_and_dedup () =
  let rt =
    R.create
      (R.config ~seed:9L ~nspaces:2 ~edge:(edge ()) ~call_timeout:0.05
         ~call_retries:2 ())
  in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let execs = ref 0 in
  R.publish owner "c"
    (R.allocate owner
       ~meths:
         [
           Stub.implement Scenario.m_incr (fun _ n ->
               incr execs;
               n + 1);
         ]);
  let tr = R.transport rt in
  let sched = R.sched rt in
  in_fiber rt (fun () ->
      let h = R.lookup client ~at:0 "c" in
      (* the first attempt's Call is lost; the retransmit executes *)
      Transport.set_burst tr ~src:1 ~dst:0 ~loss:1.0
        ~until:(Sched.now sched +. 0.02)
        ();
      Alcotest.(check int) "lost call answered" 42
        (Stub.call client h Scenario.m_incr 41);
      Alcotest.(check int) "executed once" 1 !execs;
      Alcotest.(check int) "one retransmit" 1 (R.call_stats client).R.c_retried;
      (* the Reply is lost; the retransmit must hit the reply cache *)
      Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0
        ~until:(Sched.now sched +. 0.02)
        ();
      Alcotest.(check int) "lost reply answered" 99
        (Stub.call client h Scenario.m_incr 98);
      Alcotest.(check int) "not re-executed" 2 !execs;
      Alcotest.(check int) "replayed from cache" 1
        (R.call_stats owner).R.c_deduped;
      R.release client h);
  drain rt;
  Alcotest.(check int) "surrogates drained" 0 (R.surrogate_count client)

(* --- overload shedding ----------------------------------------------------- *)

let test_shed_busy () =
  let rt =
    R.create
      (R.config ~seed:3L ~nspaces:2 ~edge:(edge ()) ~call_timeout:1.0
         ~max_inflight:1 ())
  in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let sched = R.sched rt in
  R.publish owner "s"
    (R.allocate owner
       ~meths:
         [
           Stub.implement m_slow (fun _ n ->
               Sched.sleep sched 0.05;
               n);
         ]);
  let ok = ref 0 and shed = ref None in
  let h = in_fiber rt (fun () -> R.lookup client ~at:0 "s") in
  for i = 1 to 2 do
    R.spawn rt (fun () ->
        match Stub.call client h m_slow i with
        | _ -> incr ok
        | exception R.Call_failed (Shed s) ->
            shed := Some (s.owner, s.attempts))
  done;
  ignore (R.run rt);
  Alcotest.(check int) "one admitted" 1 !ok;
  Alcotest.(check (option (pair int int)))
    "shed by owner 0 on its one attempt" (Some (0, 1)) !shed;
  Alcotest.(check int) "owner counted the shed" 1 (R.call_stats owner).R.c_shed;
  in_fiber rt (fun () -> R.release client h);
  drain rt

(* --- server-side deadline expiry ------------------------------------------- *)

let m_put = Stub.declare "put" R.handle_codec P.unit

let test_deadline_expired () =
  let rt =
    R.create
      (R.config ~seed:5L ~nspaces:3 ~edge:(edge ()) ~deadline:0.15
         ~dirty_retry:0.05 ())
  in
  let owner = R.space rt 0 and client = R.space rt 1 and third = R.space rt 2 in
  let execs = ref 0 in
  R.publish owner "sink"
    (R.allocate owner ~meths:[ Stub.implement m_put (fun _ _h -> incr execs) ]);
  let xo = R.allocate third ~meths:[] in
  R.publish third "x" xo;
  let tr = R.transport rt in
  let sched = R.sched rt in
  in_fiber rt (fun () ->
      let sink = R.lookup client ~at:0 "sink" in
      let x = R.lookup client ~at:2 "x" in
      (* decoding [x] at the owner needs a dirty registration at space
         2; losing that edge past the whole 0.15s budget means the
         registration lands after the deadline, and the owner must
         reject without running the method body *)
      Transport.set_burst tr ~src:0 ~dst:2 ~loss:1.0
        ~until:(Sched.now sched +. 0.25)
        ();
      (match Stub.call client sink m_put x with
      | () -> Alcotest.fail "call beat an exhausted deadline"
      | exception R.Call_failed (No_reply r) ->
          Alcotest.(check (option (float 1e-9))) "payload names the deadline"
            (Some 0.15) r.deadline);
      R.release client x;
      R.release client sink);
  Alcotest.(check int) "method never ran" 0 !execs;
  Alcotest.(check int) "owner counted the expiry" 1
    (R.call_stats owner).R.c_expired;
  drain rt;
  (* No [pin_timeout] here: only the copy_ack the owner sent before
     its expired verdict can release the client's transient pin on [x]. *)
  Alcotest.(check bool) "client's surrogate for x gone" false
    (R.resident client (R.wirerep xo));
  Alcotest.(check bool) "owner's surrogate for x gone" false
    (R.resident owner (R.wirerep xo));
  Alcotest.(check (list int)) "x's dirty set drained" [] (R.dirty_set third xo)

(* --- cancel releases the reply's pins -------------------------------------- *)

let test_cancel_releases_pins () =
  let rt =
    R.create
      (R.config ~seed:21L ~nspaces:2 ~edge:(edge ()) ~call_timeout:0.05
         ~call_retries:1 ~pin_timeout:30.0 ())
  in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let minted = ref None in
  R.publish owner "mint"
    (R.allocate owner
       ~meths:
         [
           Stub.implement m_mint (fun sp () ->
               let h = R.allocate sp ~meths:[] in
               minted := Some (R.wirerep h);
               R.release sp h;
               h);
         ]);
  let tr = R.transport rt in
  let sched = R.sched rt in
  (* bounded virtual-time slices throughout: an unbounded run would
     also fire the 30s pin timers and mask a broken cancel path *)
  let finished = ref false in
  R.spawn rt (fun () ->
      let h = R.lookup client ~at:0 "mint" in
      (* every Reply is lost: the caller abandons, and its Cancel must
         release the minted object's reply pin at the owner *)
      Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0
        ~until:(Sched.now sched +. 1.0)
        ();
      (match Stub.call client h m_mint () with
      | _ -> Alcotest.fail "call succeeded with every reply lost"
      | exception R.Call_failed (No_reply _) -> ());
      Transport.set_burst tr ~src:0 ~dst:1 ~loss:0.0 ~until:(Sched.now sched) ();
      R.release client h;
      finished := true);
  let rounds = ref 0 in
  while (not !finished) && !rounds < 10 do
    incr rounds;
    ignore (R.run ~until:(Sched.now sched +. 0.5) rt)
  done;
  (match Sched.failures sched with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e));
  Alcotest.(check bool) "caller finished" true !finished;
  for _ = 1 to 6 do
    R.collect_all rt;
    ignore (R.run ~until:(Sched.now sched +. 0.5) rt)
  done;
  (match !minted with
  | None -> Alcotest.fail "mint never ran"
  | Some wr ->
      Alcotest.(check bool) "minted object reclaimed" false (R.resident owner wr));
  Alcotest.(check int) "owner processed the cancel" 1
    (R.call_stats owner).R.c_cancelled;
  (* the reclaim came from the Cancel, not from waiting out the pin *)
  Alcotest.(check bool) "well before the 30s pin timeout" true
    (Sched.now sched < 5.0);
  Alcotest.(check int) "surrogates drained" 0 (R.surrogate_count client)

(* --- lookup timeout releases the agent root (sim and TCP) ------------------ *)

(* PR-3's historical bug: [lookup] released the agent root only on the
   success path, so a failed call stranded the agent surrogate and its
   dirty entry forever.  The script times a lookup out by losing every
   reply, then checks the client's table drains completely once the
   network heals. *)
let lookup_timeout_script rt slice =
  let owner = R.space rt 0 and client = R.space rt 1 in
  let obj = R.allocate owner ~meths:[] in
  R.publish owner "x" obj;
  let tr = R.transport rt in
  let sched = R.sched rt in
  let outcome = ref `Pending in
  R.spawn rt (fun () ->
      (* drop only the lookup's Reply: the agent registration's
         dirty_ack must still get through, or the client never reaches
         the call (and its timeout) at all *)
      Transport.set_filter tr
        (Some (fun ~src ~dst ~kind -> not (src = 0 && dst = 1 && kind = "reply")));
      (match R.lookup client ~at:0 "x" with
      | h ->
          R.release client h;
          outcome := `Succeeded
      | exception R.Call_failed _ -> outcome := `Timed_out);
      Transport.set_filter tr None);
  let rounds = ref 0 in
  while !outcome = `Pending && !rounds < 20 do
    incr rounds;
    slice ()
  done;
  (match Sched.failures sched with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e));
  (match !outcome with
  | `Timed_out -> ()
  | `Succeeded -> Alcotest.fail "lookup succeeded despite lost replies"
  | `Pending -> Alcotest.failf "lookup still pending at t=%.3f" (Sched.now sched));
  let rounds = ref 0 in
  while R.surrogate_count client > 0 && !rounds < 10 do
    incr rounds;
    R.collect_all rt;
    slice ()
  done;
  Alcotest.(check int) "agent root released, client table drained" 0
    (R.surrogate_count client);
  Alcotest.(check bool) "published object survives" true
    (R.resident owner (R.wirerep obj))

let test_lookup_release_sim () =
  let rt =
    R.create
      (R.config ~seed:17L ~nspaces:2 ~edge:(edge ()) ~call_timeout:0.05
         ~call_retries:2 ~pin_timeout:0.3 ())
  in
  let sched = R.sched rt in
  lookup_timeout_script rt (fun () ->
      ignore (R.run ~until:(Sched.now sched +. 1.0) rt))

let test_lookup_release_tcp () =
  let endpoints =
    [
      (0, { Tcp.host = "127.0.0.1"; port = 0 });
      (1, { Tcp.host = "127.0.0.1"; port = 0 });
    ]
  in
  let cfg =
    R.config ~seed:11L ~nspaces:2 ~call_timeout:0.05 ~call_retries:2
      ~pin_timeout:0.3
      ~transport:(fun sched _net ->
        let tcp = Tcp.create ~sched ~serving:[ 0; 1 ] ~endpoints () in
        Faulty.wrap ~sched ~seed:11L (Tcp.transport tcp))
      ()
  in
  match R.create cfg with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping tcp side: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | rt ->
      let sched = R.sched rt in
      (* one virtual second of the socket drive *)
      let slice () =
        let stop = Sched.now sched +. 1.0 in
        Scenario.drive ~pump:0.002 rt
          ~deadline:(Unix.gettimeofday () +. 10.0)
          ~stop:(fun () -> Sched.now sched >= stop)
      in
      Fun.protect
        ~finally:(fun () -> Transport.close (R.transport rt))
        (fun () -> lookup_timeout_script rt slice)

let () =
  Alcotest.run "reliability"
    [
      ( "config",
        [ Alcotest.test_case "warnings" `Quick test_config_warnings ] );
      ( "calls",
        [
          Alcotest.test_case "timeout payload" `Quick test_timeout_payload;
          Alcotest.test_case "retry and dedup" `Quick test_retry_and_dedup;
          Alcotest.test_case "shed busy" `Quick test_shed_busy;
          Alcotest.test_case "deadline expired" `Quick test_deadline_expired;
          Alcotest.test_case "cancel releases pins" `Quick
            test_cancel_releases_pins;
        ] );
      ( "lookup-release",
        [
          Alcotest.test_case "sim" `Quick test_lookup_release_sim;
          Alcotest.test_case "tcp" `Quick test_lookup_release_tcp;
        ] );
    ]
