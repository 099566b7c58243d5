(* Engine conformance: the PR-6 cross-backend scenarios, restructured
   for the domain-parallel engine.  Under [Engine_domains] a scenario
   cannot be one fiber touching every space (fibers are pinned to their
   space's shard — see Engine's affinity discipline), so each scenario
   becomes: quiescent setup from the main domain, client-side episodes
   driven with [spawn_at] + bounded [run ~until] slices, and assertions
   on the event *set* between episodes (the domains join at every [run]
   return, so main-domain reads are race-free).  What is asserted is
   exactly what the sim/TCP conformance suite asserts: call results,
   dirty-set drain, crash/restart observability — never interleavings.

   The qcheck property at the end is the contention suite: concurrent
   cross-domain call storms, then full quiescence, then the safety
   oracles and per-space table/dirty-set invariants. *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Engine_domains = Netobj_engine.Engine_domains
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle
module Transport = Netobj_transport.Transport
module Tcp = Netobj_transport.Tcp

(* Force a real multi-domain pool: by default the engine caps its
   worker pool at the host's recommended domain count, which on a small
   CI box would multiplex every shard onto one domain and leave the
   cross-domain protocol untested. *)
let () = Unix.putenv "NETOBJ_DOMAINS_POOL" "4"

let m_incr = Stub.declare "incr" P.int P.int

let m_get = Stub.declare "get" P.unit P.int

let m_put = Stub.declare "put" R.handle_codec P.unit

let m_fetch = Stub.declare "fetch" P.unit R.handle_codec

let counter_obj sp =
  let v = ref 0 in
  R.allocate sp
    ~meths:
      [
        Stub.implement m_incr (fun _ n ->
            v := !v + n;
            !v);
        Stub.implement m_get (fun _ () -> !v);
      ]

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
                 | None -> raise (R.Remote_error "cell empty"));
           ])
  in
  Lazy.force cell

let domains_config ?(timeouts = false) ~nspaces ~domains () =
  R.config ~seed:11L ~nspaces ~domains
    ~engine:(module Engine_domains : R.Engine.S)
    ?call_timeout:(if timeouts then Some 5.0 else None)
    ?dirty_timeout:(if timeouts then Some 5.0 else None)
    ()

(* Drive episodes of one virtual second until [done_] holds (checked
   between episodes, i.e. with every domain joined) or the wall-clock
   bound trips. *)
let drive ?(bound = 60.0) rt done_ =
  let t0 = Unix.gettimeofday () in
  let until = ref (Sched.now (R.sched rt) +. 1.0) in
  while (not (done_ ())) && Unix.gettimeofday () -. t0 < bound do
    ignore (R.run rt ~until:!until);
    until := !until +. 1.0
  done;
  if not (done_ ()) then Alcotest.fail "episode did not converge"

(* Scenario fibers run on their space's shard; an assert failing inside
   one lands in that shard's failures list.  Scenarios keep result
   checks on the main domain and sweep shard 0's list for stray fiber
   deaths (client fibers here live on spaces mapped to shard 0 only
   when nspaces = nshards maps them there; either way a dead fiber also
   shows up as an unmet [done_] and fails the drive). *)
let check_failures rt =
  match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ ->
      Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

(* --- scenario: lookup + invoke ----------------------------------------- *)

let test_lookup_invoke () =
  let rt = R.create (domains_config ~nspaces:4 ~domains:4 ()) in
  Alcotest.(check int) "4 shards" 4 (R.nshards rt);
  Alcotest.(check string) "engine name" "domains" (R.engine_name rt);
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "counter" counter;
  let results = ref [] and finished = ref false in
  R.spawn_at rt ~space:1 (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      results := ("incr1", Stub.call client h m_incr 5) :: !results;
      results := ("incr2", Stub.call client h m_incr 2) :: !results;
      results := ("get", Stub.call client h m_get ()) :: !results;
      (match R.lookup client ~at:0 "missing" with
      | _ -> Alcotest.fail "missing binding found?!"
      | exception R.Remote_error _ -> ());
      R.release client h;
      finished := true);
  drive rt (fun () -> !finished);
  check_failures rt;
  let got k = List.assoc k !results in
  Alcotest.(check int) "incr 5" 5 (got "incr1");
  Alcotest.(check int) "incr 2 accumulates" 7 (got "incr2");
  Alcotest.(check int) "get" 7 (got "get")

(* --- scenario: third-party transfer ------------------------------------ *)

let test_transfer () =
  let rt = R.create (domains_config ~nspaces:3 ~domains:3 ()) in
  let owner = R.space rt 0
  and client = R.space rt 1
  and keeper = R.space rt 2 in
  let counter = counter_obj owner in
  let cell = cell_obj keeper in
  R.publish owner "counter" counter;
  R.publish keeper "cell" cell;
  let fetched = ref 0 and finished = ref false in
  R.spawn_at rt ~space:1 (fun () ->
      let hc = R.lookup client ~at:0 "counter" in
      let hcell = R.lookup client ~at:2 "cell" in
      ignore (Stub.call client hc m_incr 3);
      Stub.call client hcell m_put hc;
      let hc2 = Stub.call client hcell m_fetch () in
      fetched := Stub.call client hc2 m_incr 4;
      R.release client hc;
      R.release client hc2;
      R.release client hcell;
      finished := true);
  drive rt (fun () -> !finished);
  check_failures rt;
  Alcotest.(check int) "transferred handle reaches the same object" 7 !fetched;
  (* The keeper's cell still pins the counter, so the owner's dirty set
     must contain the keeper (the client may linger until its cleans
     land — a *set* assertion, not an interleaving one). *)
  let holders = R.dirty_set owner counter in
  Alcotest.(check bool) "keeper holds the counter" true (List.mem 2 holders)

(* --- scenario: release drains the dirty set ----------------------------- *)

let test_release_drains () =
  let rt = R.create (domains_config ~nspaces:2 ~domains:2 ()) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "counter" counter;
  let finished = ref false in
  R.spawn_at rt ~space:1 (fun () ->
      let h = R.lookup client ~at:0 "counter" in
      ignore (Stub.call client h m_incr 1);
      R.release client h;
      R.collect client;
      finished := true);
  drive rt (fun () -> !finished);
  check_failures rt;
  (* Post-release episodes: the clean round trip must drain the owner's
     dirty set.  Read between episodes — quiescent, race-free. *)
  drive rt (fun () -> R.dirty_set owner counter = []);
  Alcotest.(check (list int))
    "dirty set drained" [] (R.dirty_set owner counter)

(* --- scenario: crash and restart ---------------------------------------- *)

let test_crash_restart () =
  let rt = R.create (domains_config ~timeouts:true ~nspaces:2 ~domains:2 ()) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = counter_obj owner in
  R.publish owner "counter" counter;
  let h = ref None and finished = ref false in
  R.spawn_at rt ~space:1 (fun () ->
      let h' = R.lookup client ~at:0 "counter" in
      h := Some h';
      Alcotest.(check int) "before crash" 1 (Stub.call client h' m_incr 1);
      finished := true);
  drive rt (fun () -> !finished);
  check_failures rt;
  let h = Option.get !h in
  (* Control plane between episodes: every domain is joined. *)
  R.crash rt 0;
  let failed = ref false and finished = ref false in
  R.spawn_at rt ~space:1 (fun () ->
      (match Stub.call client h m_incr 1 with
      | _ -> ()
      | exception (R.Remote_error _ | R.Timeout _) -> failed := true);
      finished := true);
  drive rt (fun () -> !finished);
  Alcotest.(check bool) "call to dead owner fails" true !failed;
  R.restart rt 0;
  Alcotest.(check int) "owner epoch bumped" 1 (R.epoch owner);
  (* The stale surrogate must be rejected by the new incarnation; a
     fresh import must answer. *)
  let counter' = counter_obj owner in
  R.publish owner "counter2" counter';
  let stale_failed = ref false
  and fresh = ref 0
  and finished = ref false in
  R.spawn_at rt ~space:1 (fun () ->
      (match Stub.call client h m_incr 1 with
      | _ -> ()
      | exception (R.Remote_error _ | R.Timeout _) -> stale_failed := true);
      R.release client h;
      let h' = R.lookup client ~at:0 "counter2" in
      fresh := Stub.call client h' m_incr 1;
      R.release client h';
      finished := true);
  drive rt (fun () -> !finished);
  check_failures rt;
  Alcotest.(check bool) "stale call fails" true !stale_failed;
  Alcotest.(check int) "fresh incr after restart" 1 !fresh

(* --- scenario: domains x TCP ----------------------------------------------- *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

(* Two shards, four spaces, each shard's own [Tcp] serving its block of
   spaces on loopback.  With a custom transport the engine has no hub,
   so it falls back to polling each shard's transport and detecting
   quiescence by double collection.  A space on shard 1 calls a counter
   on shard 0, releases it, and the owner's dirty set must drain over
   the sockets.  Skipped where loopback is unavailable. *)
let test_domains_tcp () =
  let nspaces = 4 and nshards = 2 in
  match List.init nspaces (fun _ -> free_port ()) with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | ports -> (
      let endpoints =
        List.mapi (fun a port -> (a, { Tcp.host = "127.0.0.1"; port })) ports
      in
      (* The engine builds shards in order, one transport each. *)
      let made = ref [] in
      let transport sched _net =
        let k = List.length !made in
        let serving =
          List.filter
            (fun a -> a * nshards / nspaces = k)
            (List.init nspaces Fun.id)
        in
        let tr = Tcp.transport (Tcp.create ~sched ~serving ~endpoints ()) in
        made := tr :: !made;
        tr
      in
      match
        R.create
          (R.config ~seed:11L ~nspaces ~domains:nshards
             ~engine:(module Engine_domains : R.Engine.S)
             ~transport ())
      with
      | exception Unix.Unix_error (e, _, _) ->
          List.iter Transport.close !made;
          Printf.printf "skipping: loopback unavailable (%s)\n%!"
            (Unix.error_message e)
      | rt ->
          Fun.protect
            ~finally:(fun () -> List.iter Transport.close !made)
            (fun () ->
              Alcotest.(check int) "2 shards" nshards (R.nshards rt);
              let owner = R.space rt 0 and client = R.space rt 2 in
              let counter = counter_obj owner in
              R.publish owner "counter" counter;
              let last = ref 0 and finished = ref false in
              R.spawn_at rt ~space:2 (fun () ->
                  let h = R.lookup client ~at:0 "counter" in
                  for _ = 1 to 100 do
                    last := Stub.call client h m_incr 1
                  done;
                  R.release client h;
                  R.collect client;
                  finished := true);
              drive rt (fun () -> !finished);
              check_failures rt;
              Alcotest.(check int) "100 increments" 100 !last;
              drive rt (fun () -> R.dirty_set owner counter = []);
              Alcotest.(check (list int))
                "dirty set drained" [] (R.dirty_set owner counter)))

(* --- engine guard rails -------------------------------------------------- *)

let test_guards () =
  (* An open-ended run can never detect quiescence on the domains
     engine, so it is rejected up front. *)
  let rt = R.create (domains_config ~nspaces:2 ~domains:2 ()) in
  (match R.run rt with
  | _ -> Alcotest.fail "run without ~until should be rejected"
  | exception Invalid_argument _ -> ());
  (* Controlled scheduling is the model checker's hook: sim only. *)
  match
    R.create
      (R.config ~nspaces:2 ~domains:2
         ~engine:(module Engine_domains : R.Engine.S)
         ~policy:(Sched.Controlled (fun ~kind:_ _ -> 0))
         ())
  with
  | _ -> Alcotest.fail "Controlled policy should be rejected"
  | exception Invalid_argument _ -> ()

(* --- qcheck: cross-domain call storms keep the tables consistent -------- *)

(* Every space runs a mutator fiber hammering the other spaces'
   counters concurrently.  After the storm quiesces and everything is
   released, the full safety surface must hold: no lost or invented
   increments (counter values sum to the calls sent), per-step safety
   (check_safety), quiescent consistency (check_consistency: dirty sets
   match surrogates, no transients, no leaked pins), and every dirty
   set drained. *)
let storm_prop (seed, nspaces, domains, calls) =
  let rt =
    R.create
      (R.config ~seed ~nspaces ~domains
         ~engine:(module Engine_domains : R.Engine.S)
         ~gc_period:0.5 ())
  in
  let counters =
    Array.init nspaces (fun i ->
        let sp = R.space rt i in
        let c = counter_obj sp in
        R.publish sp (Printf.sprintf "cnt-%d" i) c;
        c)
  in
  let sent = Array.make nspaces 0 in
  let done_ = Array.make nspaces false in
  for i = 0 to nspaces - 1 do
    R.spawn_at rt ~space:i
      ~name:(Printf.sprintf "storm-%d" i)
      (fun () ->
        let sp = R.space rt i in
        let rng = Random.State.make [| Int64.to_int seed; i |] in
        let handles =
          List.init nspaces (fun j ->
              if j = i then None
              else Some (R.lookup sp ~at:j (Printf.sprintf "cnt-%d" j)))
        in
        for _ = 1 to calls do
          let j = Random.State.int rng nspaces in
          match List.nth handles j with
          | None -> ()
          | Some h ->
              ignore (Stub.call sp h m_incr 1);
              sent.(i) <- sent.(i) + 1
        done;
        List.iter (function None -> () | Some h -> R.release sp h) handles;
        R.collect sp;
        done_.(i) <- true)
  done;
  let until = ref 1.0 in
  let all_done () = Array.for_all Fun.id done_ in
  let t0 = Unix.gettimeofday () in
  while (not (all_done ())) && Unix.gettimeofday () -. t0 < 120.0 do
    ignore (R.run rt ~until:!until);
    until := !until +. 1.0
  done;
  if not (all_done ()) then QCheck.Test.fail_report "storm did not converge";
  (* Drain: episodes until every owner's dirty set is empty. *)
  let drained () =
    List.for_all
      (fun i -> R.dirty_set (R.space rt i) counters.(i) = [])
      (List.init nspaces Fun.id)
  in
  let t0 = Unix.gettimeofday () in
  while (not (drained ())) && Unix.gettimeofday () -. t0 < 60.0 do
    ignore (R.run rt ~until:!until);
    until := !until +. 1.0
  done;
  (* Oracle 1: no increment lost, none invented.  Counter reads are
     local calls but still blocking operations — run them as pinned
     fibers and drive episodes until they land. *)
  let total_sent = Array.fold_left ( + ) 0 sent in
  let values = Array.make nspaces 0 in
  let reads_done = Array.make nspaces false in
  for i = 0 to nspaces - 1 do
    R.spawn_at rt ~space:i (fun () ->
        values.(i) <- Stub.call (R.space rt i) counters.(i) m_get ();
        reads_done.(i) <- true)
  done;
  let t0 = Unix.gettimeofday () in
  while
    (not (Array.for_all Fun.id reads_done))
    && Unix.gettimeofday () -. t0 < 30.0
  do
    ignore (R.run rt ~until:!until);
    until := !until +. 1.0
  done;
  if not (Array.for_all Fun.id reads_done) then
    QCheck.Test.fail_report "counter reads did not complete";
  let totals = Array.fold_left ( + ) 0 values in
  if totals <> total_sent then
    QCheck.Test.fail_reportf "lost/invented calls: sent %d, counted %d"
      total_sent totals;
  (* Oracle 2: no fiber death on shard 0 (deaths on other shards also
     surface as lost calls or a stuck drain above). *)
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ ->
      QCheck.Test.fail_reportf "fiber %s raised %s" n (Printexc.to_string e));
  (* Oracle 3: the runtime's own invariants, per-step and quiescent. *)
  (match R.check_safety rt with
  | [] -> ()
  | v -> QCheck.Test.fail_reportf "safety: %s" (String.concat "; " v));
  (match R.check_consistency rt with
  | [] -> ()
  | v -> QCheck.Test.fail_reportf "consistency: %s" (String.concat "; " v));
  if not (drained ()) then QCheck.Test.fail_report "dirty sets did not drain";
  true

let storm_test =
  QCheck.Test.make ~name:"cross-domain call storms preserve invariants"
    ~count:6
    QCheck.(
      quad
        (map Int64.of_int (int_range 1 1000))
        (int_range 2 6) (int_range 2 4) (int_range 5 25))
    storm_prop

let () =
  Alcotest.run "engine"
    [
      ( "domains-conformance",
        [
          Alcotest.test_case "lookup+invoke" `Quick test_lookup_invoke;
          Alcotest.test_case "third-party transfer" `Quick test_transfer;
          Alcotest.test_case "release drains dirty set" `Quick
            test_release_drains;
          Alcotest.test_case "crash and restart" `Quick test_crash_restart;
          Alcotest.test_case "domains x tcp" `Quick test_domains_tcp;
          Alcotest.test_case "guard rails" `Quick test_guards;
        ] );
      ("storm", List.map QCheck_alcotest.to_alcotest [ storm_test ]);
    ]
