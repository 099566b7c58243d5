(* Cross-backend conformance: the same sequential scenario scripts run
   against the simulated network and against real TCP sockets on
   loopback (wrapped in the fault decorator so crash scenarios work),
   and the observable event traces must be identical.  Scripts are a
   single fiber touching several spaces in sequence, so the trace is
   deterministic regardless of wire timing; quantities that legitimately
   differ between backends (latencies, retry counts, frame sizes) are
   never recorded. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport
module Tcp = Netobj_transport.Tcp
module Faulty = Netobj_transport.Faulty
module P = Netobj_pickle.Pickle

let m_put = Stub.declare "put" R.handle_codec P.unit

let m_fetch = Stub.declare "fetch" P.unit R.handle_codec

let cell_obj sp =
  let stored = ref None in
  let rec cell =
    lazy
      (R.allocate sp
         ~meths:
           [
             Stub.implement m_put (fun sp' h ->
                 R.link sp' ~parent:(Lazy.force cell) ~child:h;
                 R.retain sp' h;
                 stored := Some h);
             Stub.implement m_fetch (fun _ () ->
                 match !stored with
                 | Some h -> h
                 | None -> failwith "cell empty");
           ])
  in
  Lazy.force cell

(* --- scenarios ------------------------------------------------------------ *)

type scenario = {
  s_name : string;
  s_nspaces : int;
  s_timeouts : bool;  (* config call timeouts (crash scenarios need them) *)
  s_script : R.t -> (string -> unit) -> unit;
}

let lookup_scenario =
  {
    s_name = "lookup+invoke";
    s_nspaces = 2;
    s_timeouts = false;
    s_script =
      (fun rt ev ->
        let owner = R.space rt 0 and client = R.space rt 1 in
        let counter = Scenario.counter owner in
        R.publish owner "counter" counter;
        ev "published";
        let h = R.lookup client ~at:0 "counter" in
        ev "lookup ok";
        ev (Printf.sprintf "incr=%d" (Stub.call client h Scenario.m_incr 5));
        ev (Printf.sprintf "incr=%d" (Stub.call client h Scenario.m_incr 2));
        ev (Printf.sprintf "get=%d" (Stub.call client h Scenario.m_get ()));
        (match R.lookup client ~at:0 "missing" with
        | _ -> ev "missing: found?!"
        | exception R.Call_failed (No_binding _) -> ev "missing: no binding");
        R.release client h);
  }

(* Third-party transfer: a reference minted at 0 travels through a cell
   on 2 and is used from 1 — marshalling, dirty calls and the transfer
   protocol all cross the wire. *)
let transfer_scenario =
  {
    s_name = "third-party transfer";
    s_nspaces = 3;
    s_timeouts = false;
    s_script =
      (fun rt ev ->
        let owner = R.space rt 0
        and client = R.space rt 1
        and keeper = R.space rt 2 in
        let counter = Scenario.counter owner in
        let cell = cell_obj keeper in
        R.publish owner "counter" counter;
        R.publish keeper "cell" cell;
        let hc = R.lookup client ~at:0 "counter" in
        let hcell = R.lookup client ~at:2 "cell" in
        ev (Printf.sprintf "warm=%d" (Stub.call client hc Scenario.m_incr 3));
        Stub.call client hcell m_put hc;
        ev "stored";
        let hc2 = Stub.call client hcell m_fetch () in
        ev (Printf.sprintf "fetched incr=%d"
          (Stub.call client hc2 Scenario.m_incr 4));
        ev
          (Printf.sprintf "owner sees %d holders"
             (List.length (R.dirty_set owner counter)));
        R.release client hc;
        R.release client hc2;
        R.release client hcell);
  }

(* dgc-style release round: the owner's dirty set must drain once the
   only client lets go, over either wire. *)
let release_scenario =
  {
    s_name = "release drains dirty set";
    s_nspaces = 2;
    s_timeouts = false;
    s_script =
      (fun rt ev ->
        let owner = R.space rt 0 and client = R.space rt 1 in
        let counter = Scenario.counter owner in
        R.publish owner "counter" counter;
        let h = R.lookup client ~at:0 "counter" in
        ev (Printf.sprintf "incr=%d" (Stub.call client h Scenario.m_incr 1));
        ev
          (Printf.sprintf "dirty=%s"
             (String.concat ","
                (List.map string_of_int (R.dirty_set owner counter))));
        R.release client h;
        R.collect client;
        let tries = ref 0 in
        while R.dirty_set owner counter <> [] && !tries < 100 do
          incr tries;
          Sched.sleep (R.sched rt) 0.05
        done;
        ev
          (Printf.sprintf "dirty after release=%s"
             (String.concat ","
                (List.map string_of_int (R.dirty_set owner counter)))));
  }

(* Crash the owner mid-conversation, restart it, and re-import: the
   stale surrogate must fail the same way on both backends and the new
   incarnation must answer fresh.  (Which failure the stale call meets
   is an epoch-vs-timer race, so it is normalised.) *)
let recover_scenario =
  {
    s_name = "crash and recover";
    s_nspaces = 2;
    s_timeouts = true;
    s_script =
      (fun rt ev ->
        let owner = R.space rt 0 and client = R.space rt 1 in
        let counter = Scenario.counter owner in
        R.publish owner "counter" counter;
        let h = R.lookup client ~at:0 "counter" in
        ev (Printf.sprintf "before crash incr=%d"
          (Stub.call client h Scenario.m_incr 1));
        R.crash rt 0;
        ev "owner crashed";
        (match Stub.call client h Scenario.m_incr 1 with
        | _ -> ev "call to dead owner: succeeded?!"
        | exception R.Call_failed _ ->
            ev "call to dead owner: failed");
        R.restart rt 0;
        ev (Printf.sprintf "owner restarted epoch=%d" (R.epoch owner));
        (* The stale surrogate's call is rejected by the new incarnation;
           the reject teaches the client the new epoch and evicts the
           dead incarnation's surrogates. *)
        (match Stub.call client h Scenario.m_incr 1 with
        | _ -> ev "stale call: succeeded?!"
        | exception R.Call_failed _ -> ev "stale call: failed");
        Sched.sleep (R.sched rt) 1.0;
        R.release client h;
        let counter' = Scenario.counter owner in
        R.publish owner "counter2" counter';
        let h' = R.lookup client ~at:0 "counter2" in
        ev
          (Printf.sprintf "fresh incr=%d after restart"
             (Stub.call client h' Scenario.m_incr 1));
        R.release client h');
  }

let scenarios =
  [ lookup_scenario; transfer_scenario; release_scenario; recover_scenario ]

(* --- backends ------------------------------------------------------------- *)

let base_config s =
  R.config ~seed:11L ~nspaces:s.s_nspaces
    ?call_timeout:(if s.s_timeouts then Some 5.0 else None)
    ?dirty_timeout:(if s.s_timeouts then Some 5.0 else None)
    ()

let run_script rt drive s =
  let events = ref [] in
  let ev e = events := e :: !events in
  let finished = ref false in
  R.spawn rt (fun () ->
      s.s_script rt ev;
      finished := true);
  drive rt finished;
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ ->
      Alcotest.failf "%s: fiber %s raised %s" s.s_name n (Printexc.to_string e));
  if not !finished then Alcotest.failf "%s: scenario did not complete" s.s_name;
  List.rev !events

let run_sim s =
  let rt = R.create (base_config s) in
  run_script rt (fun rt _finished -> ignore (R.run rt)) s

(* The TCP driver interleaves short virtual-time slices (fibers, the
   flush timer, call timeouts) with real socket pumping; wall-clock
   bounds the whole scenario. *)
let run_tcp s =
  let tcp_ref = ref None in
  let endpoints =
    List.init s.s_nspaces (fun i -> (i, { Tcp.host = "127.0.0.1"; port = 0 }))
  in
  let cfg =
    R.config ~seed:11L ~nspaces:s.s_nspaces
      ?call_timeout:(if s.s_timeouts then Some 5.0 else None)
      ?dirty_timeout:(if s.s_timeouts then Some 5.0 else None)
      ~transport:(fun sched _net ->
        let tcp =
          Tcp.create ~sched ~serving:(List.map fst endpoints) ~endpoints ()
        in
        tcp_ref := Some tcp;
        Faulty.wrap ~sched ~seed:11L (Tcp.transport tcp))
      ()
  in
  let rt = R.create cfg in
  let tr = R.transport rt in
  let drive rt finished =
    Scenario.drive ~pump:0.002 rt
      ~deadline:(Unix.gettimeofday () +. 30.0)
      ~stop:(fun () -> !finished)
  in
  Fun.protect
    ~finally:(fun () -> Transport.close tr)
    (fun () -> run_script rt drive s)

let test_conformance s () =
  let sim_trace = run_sim s in
  match run_tcp s with
  | tcp_trace ->
      Alcotest.(check (list string))
        (s.s_name ^ ": sim and tcp traces agree")
        sim_trace tcp_trace
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping tcp side: loopback unavailable (%s)\n%!"
        (Unix.error_message e)

let () =
  Alcotest.run "transport-conformance"
    [
      ( "scenarios",
        List.map
          (fun s -> Alcotest.test_case s.s_name `Quick (test_conformance s))
          scenarios );
    ]
