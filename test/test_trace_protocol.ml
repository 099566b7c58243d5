(* Trace-based protocol regression tests.

   These use the event trace as an ordering oracle over real runtime
   executions: properties about *interleavings* (which aggregate counters
   cannot see) are checked against the recorded event sequence.

   - Lemma 9 analogue: a space never issues a remote call on a surrogate
     before its registration (dirty -> dirty_ack) round trip completed.
     In trace terms: the gc/"dirty" async_end for (client, target) occurs
     before the first rpc/"call" async_begin from that client to that
     target.
   - Clean batching (TR §2.2): with a batching window configured, the
     cleans from one GC cycle coalesce into a single clean_batch message
     per owner; no standalone clean message is ever sent. *)

module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace
module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module P = Netobj_pickle.Pickle

let arg_int name e =
  match List.assoc_opt name e.Trace.args with
  | Some (Trace.I n) -> Some n
  | _ -> None

(* --- Lemma 9: dirty_ack precedes first use -------------------------------- *)

let check_dirty_before_call events =
  (* Registered surrogates seen so far: (client, owner, index). *)
  let registered = Hashtbl.create 16 in
  let calls_checked = ref 0 in
  List.iter
    (fun e ->
      match (e.Trace.cat, e.Trace.name, e.Trace.phase) with
      | "gc", "dirty", Trace.Async_end ->
          if arg_int "ok" e = Some 1 then
            (* async ids encode (client, wr); the end event's [space] is
               the client completing its registration.  We cannot recover
               wr from the end event's args, so key on the id itself. *)
            Hashtbl.replace registered (e.Trace.space, e.Trace.id) ()
      | "rpc", "call", Trace.Async_begin -> (
          incr calls_checked;
          match (arg_int "target_owner" e, arg_int "target_index" e) with
          | Some owner, Some index ->
              (* Recompute the dirty span id the same way the runtime
                 does (runtime.ml obs_wr_id). *)
              let id =
                2 * ((((e.Trace.space * 8191) + owner) * 524287) + index)
              in
              if not (Hashtbl.mem registered (e.Trace.space, id)) then
                Alcotest.failf
                  "space %d called %d/%d before its dirty_ack arrived"
                  e.Trace.space owner index
          | _ -> Alcotest.fail "call span missing target args")
      | _ -> ())
    events;
  !calls_checked

let test_dirty_precedes_use () =
  Obs.enable ~capacity:65536 ();
  let cfg =
    R.config ~seed:11L ~gc_period:1.0 ~nspaces:4 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  for i = 1 to 3 do
    R.spawn rt (fun () ->
        let sp = R.space rt i in
        let h = R.lookup sp ~at:0 "c" in
        for _ = 1 to 3 do
          ignore (Stub.call sp h Scenario.m_incr 1)
        done;
        R.release sp h)
  done;
  ignore (R.run ~until:30.0 rt);
  let events = Trace.events (Obs.trace ()) in
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped (Obs.trace ()));
  let checked = check_dirty_before_call events in
  Obs.disable ();
  (* 3 clients x (agent lookup + counter calls): at least 6 remote call
     spans must have been subject to the check. *)
  Alcotest.(check bool)
    (Printf.sprintf "enough calls checked (%d)" checked)
    true (checked >= 6)

(* Randomised schedules: the ordering lemma must hold under adversarial
   fiber interleavings too. *)
let test_dirty_precedes_use_random () =
  for seed = 1 to 10 do
    Obs.enable ~capacity:65536 ();
    let cfg =
      R.config ~seed:(Int64.of_int seed)
        ~policy:(Netobj_sched.Sched.Random (Int64.of_int (seed * 7)))
        ~nspaces:3 ()
    in
    let rt = R.create cfg in
    let owner = R.space rt 0 in
    let counter = Scenario.counter owner in
    R.publish owner "c" counter;
    for i = 1 to 2 do
      R.spawn rt (fun () ->
          let sp = R.space rt i in
          let h = R.lookup sp ~at:0 "c" in
          ignore (Stub.call sp h Scenario.m_incr 1);
          R.release sp h)
    done;
    ignore (R.run ~until:30.0 rt);
    ignore (check_dirty_before_call (Trace.events (Obs.trace ())));
    Obs.disable ()
  done

(* --- clean batching coalesces --------------------------------------------- *)

let test_clean_batch_coalesces () =
  Obs.enable ~capacity:65536 ();
  let cfg =
    R.config ~seed:17L ~clean_batch:0.05 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let objs = List.init 12 (fun i -> (i, Scenario.counter owner)) in
  List.iter (fun (i, o) -> R.publish owner (Printf.sprintf "o%d" i) o) objs;
  R.spawn rt (fun () ->
      List.iter
        (fun (i, _) ->
          let h = R.lookup client ~at:0 (Printf.sprintf "o%d" i) in
          ignore (Stub.call client h Scenario.m_incr 1);
          R.release client h)
        objs);
  ignore (R.run rt);
  (* One GC cycle kills all surrogates at once. *)
  R.collect client;
  ignore (R.run ~until:60.0 rt);
  let events = Trace.events (Obs.trace ()) in
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped (Obs.trace ()));
  let count p = List.length (List.filter p events) in
  let batch_instants =
    count (fun e ->
        e.Trace.cat = "gc" && e.Trace.name = "clean_batch"
        && e.Trace.phase = Trace.Instant)
  in
  let standalone_clean_msgs =
    count (fun e ->
        e.Trace.cat = "net" && e.Trace.name = "clean"
        && e.Trace.phase = Trace.Async_begin)
  in
  let batch_msgs =
    count (fun e ->
        e.Trace.cat = "net"
        && e.Trace.name = "clean_batch"
        && e.Trace.phase = Trace.Async_begin)
  in
  let clean_spans =
    count (fun e ->
        e.Trace.cat = "gc" && e.Trace.name = "clean"
        && e.Trace.phase = Trace.Async_begin)
  in
  Obs.disable ();
  (* All 13 surrogates (12 counters + the agent) die in one GC cycle and
     share one owner: exactly one batch, zero standalone cleans. *)
  Alcotest.(check int) "one clean_batch instant" 1 batch_instants;
  Alcotest.(check int) "one clean_batch message" 1 batch_msgs;
  Alcotest.(check int) "no standalone clean messages" 0 standalone_clean_msgs;
  Alcotest.(check int) "every surrogate got a clean span" 13 clean_spans

let () =
  Alcotest.run "trace_protocol"
    [
      ( "lemma9",
        [
          Alcotest.test_case "dirty precedes use" `Quick
            test_dirty_precedes_use;
          Alcotest.test_case "dirty precedes use (random sched)" `Quick
            test_dirty_precedes_use_random;
        ] );
      ( "batching",
        [
          Alcotest.test_case "clean_batch coalesces" `Quick
            test_clean_batch_coalesces;
        ] );
    ]
