(* Benchmark and experiment harness.

   Each experiment E1–E25 (E17 retired) regenerates one table/figure of
   the reproduction (see DESIGN.md for the experiment index and
   EXPERIMENTS.md for recorded outcomes):

     E1  race        naive RC/listing race vs the safe family (Figure 1)
     E2  cube        life-cycle state machine coverage (Figure 4)
     E3  invariants  exhaustive + randomised invariant checking (§4)
     E4  liveness    termination measure and drain behaviour (Def. 15)
     E5  family      control-message cost across the algorithm family (§7.1)
     E6  fifo        FIFO variant vs base: messages and blocking (§5.1)
     E7  owneropt    owner optimisations: savings and the unordered race (§5.2)
     E8  fault       loss/duplication/crash tolerance on the runtime (§6)
     E9  rpc         null-invocation latency (Bechamel)
     E10 marshal     pickle costs by argument type (Bechamel)
     E11 transmit    transmission race windows under adversarial schedules
     E12 cleanchurn  cleaning-demon traffic under surrogate churn
     E13 ablation    the Note 4 clean-cancellation optimisation
     E14 cycleleak   distributed cycles: the leak and the hybrid fix
     E15 scale       per-client GC cost vs system size
     E16 pool        writer pool + slice decode on the marshalling path
     E18 chaos       seeded chaos runs: survival, drain time, retry traffic
     E19 mc          systematic schedule exploration: states, pruning,
                     schedules-to-first-bug on the lookup-leak scenario
     E20 recover     durable spaces: WAL logging overhead, recovery replay
                     cost vs live-state size
     E21 transport   loopback TCP vs the simulated network: calls/sec,
                     p50/p99 latency, framing overhead vs payload size
     E22 par         engine scaling: multi-space invoke storm, sim vs
                     domains at 1/2/4 shards
     E23 cycles      cycle-heavy churn: trial-deletion reclamation rate
                     and residual leak vs the no-detector baseline
     E24 churn       churn at scale: aggregated leases over compact
                     tables — memory/handle, heartbeats/handle/s,
                     lease-tick cost vs table size, p99 pause
     E25 reliability end-to-end call reliability: chained-call goodput
                     under 10% loss with retries+dedup vs bare calls
                     (at-most-once verified by a server-side execution
                     counter), and overload shedding latency under a
                     bounded inflight gate

   Run all:       dune exec bench/main.exe
   Run a subset:  dune exec bench/main.exe -- race family fifo *)

module M = Netobj_dgc.Machine
module T = Netobj_dgc.Types
module Invariants = Netobj_dgc.Invariants
module Explore = Netobj_dgc.Explore
module Algo = Netobj_dgc.Algo
module Workload = Netobj_dgc.Workload
module Naive = Netobj_dgc.Naive
module Lermen_maurer = Netobj_dgc.Lermen_maurer
module Weighted = Netobj_dgc.Weighted
module Indirect = Netobj_dgc.Indirect
module Inc_dec = Netobj_dgc.Inc_dec
module Birrell_view = Netobj_dgc.Birrell_view
module Owner_opt = Netobj_dgc.Owner_opt
module F = Netobj_dgc.Fifo_machine
module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle

let section title = Fmt.pr "@.=== %s ===@." title

let row fmt = Fmt.pr fmt

let r0 : T.rref = { T.owner = 0; index = 0 }

(* ------------------------------------------------------------------ E1 *)

(* The fault-free members of the shared algorithm registry; the [fault]
   entry gets its own experiment (E8). *)
let algorithms : (string * Netobj_dgc.Registry.make) list =
  List.filter (fun (n, _) -> n <> "fault") Netobj_dgc.Registry.registry

let e1_race () =
  section "E1: the naive race (Figure 1) — 500 adversarial schedules each";
  row "%-15s %10s %10s %10s@." "algorithm" "premature" "leaked" "verdict";
  List.iter
    (fun (name, make) ->
      let premature = ref 0 and leaked = ref 0 in
      for seed = 1 to 500 do
        let v = make ~procs:3 ~seed:(Int64.of_int seed) in
        let o = Workload.run v Workload.figure1 in
        if o.Workload.premature_at <> None then incr premature;
        if o.Workload.leaked && o.Workload.premature_at = None then incr leaked
      done;
      row "%-15s %10d %10d %10s@." name !premature !leaked
        (if !premature > 0 then "UNSAFE" else "safe"))
    algorithms

(* ------------------------------------------------------------------ E2 *)

let e2_cube () =
  section "E2: life-cycle cube coverage (Figure 4)";
  let states = Hashtbl.create 8 and rules = Hashtbl.create 16 in
  let tick tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let rule_name t =
    Fmt.str "%a" M.pp_transition t |> String.split_on_char '(' |> List.hd
  in
  for seed = 1 to 40 do
    let rng = Netobj_util.Rng.create (Int64.of_int seed) in
    let c = ref (M.apply (M.init ~procs:3 ~refs:[ r0 ]) (M.Allocate (0, r0))) in
    let spent = ref 0 in
    for _ = 1 to 400 do
      let env =
        List.filter
          (fun t -> match t with M.Make_copy _ -> !spent < 10 | _ -> true)
          (M.enabled_environment !c)
      in
      match M.enabled_protocol !c @ env with
      | [] -> ()
      | all ->
          let t = Netobj_util.Rng.pick rng all in
          (match t with M.Make_copy _ -> incr spent | _ -> ());
          tick rules (rule_name t);
          c := M.apply !c t;
          List.iter
            (fun p ->
              tick states (Fmt.str "%a" T.pp_rstate (M.rec_state !c p r0)))
            (M.procs !c)
    done
  done;
  row "states visited (per-process observations):@.";
  List.iter
    (fun s ->
      row "  %-10s %8d@." s
        (Option.value ~default:0 (Hashtbl.find_opt states s)))
    [ "⊥"; "nil"; "OK"; "ccit"; "ccitnil" ];
  row "rule firings:@.";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) rules []
  |> List.sort compare
  |> List.iter (fun (k, v) -> row "  %-22s %8d@." k v);
  row "all five states reachable: %b@."
    (List.for_all
       (fun s -> Hashtbl.mem states s)
       [ "⊥"; "nil"; "OK"; "ccit"; "ccitnil" ]);
  (* The cube's edges, observed: client state changes across executions. *)
  let edges = Hashtbl.create 16 in
  for seed = 1 to 40 do
    let rng = Netobj_util.Rng.create (Int64.of_int (seed * 3)) in
    let c = ref (M.apply (M.init ~procs:3 ~refs:[ r0 ]) (M.Allocate (0, r0))) in
    let spent = ref 0 in
    for _ = 1 to 300 do
      let env =
        List.filter
          (fun t -> match t with M.Make_copy _ -> !spent < 8 | _ -> true)
          (M.enabled_environment !c)
      in
      match M.enabled_protocol !c @ env with
      | [] -> ()
      | all ->
          let t = Netobj_util.Rng.pick rng all in
          (match t with M.Make_copy _ -> incr spent | _ -> ());
          let before = List.map (fun p -> M.rec_state !c p r0) (M.procs !c) in
          c := M.apply !c t;
          List.iteri
            (fun p s0 ->
              let s1 = M.rec_state !c p r0 in
              if s0 <> s1 && p <> 0 then
                Hashtbl.replace edges
                  ( Fmt.str "%a" T.pp_rstate s0,
                    Fmt.str "%a" T.pp_rstate s1 )
                  ())
            before
    done
  done;
  row "client life-cycle edges observed (the cube, Figure 4):@.";
  Hashtbl.fold (fun (a, b) () acc -> Fmt.str "%s->%s" a b :: acc) edges []
  |> List.sort compare
  |> List.iter (fun e -> row "  %s@." e);
  row "(exactly the six permitted edges; exactness is asserted in@.";
  row " test_machine.ml 'cube/edges exact')@."

(* ------------------------------------------------------------------ E3 *)

let e3_invariants () =
  section "E3: invariant checking (Lemmas 1-11, Theorem 13)";
  let alloc procs = M.apply (M.init ~procs ~refs:[ r0 ]) (M.Allocate (0, r0)) in
  row "%-32s %10s %10s %10s@." "world" "states" "edges" "violations";
  List.iter
    (fun (label, procs, budget) ->
      let res = Explore.bfs ~copy_budget:budget (alloc procs) in
      row "%-32s %10d %10d %10d@." label res.Explore.states res.Explore.edges
        (match res.Explore.violation with None -> 0 | Some _ -> 1))
    [
      ("2 procs, 2 copies (exhaustive)", 2, 2);
      ("2 procs, 3 copies (exhaustive)", 2, 3);
      ("2 procs, 4 copies (exhaustive)", 2, 4);
      ("3 procs, 2 copies (exhaustive)", 3, 2);
      ("3 procs, 3 copies (exhaustive)", 3, 3);
      ("4 procs, 2 copies (exhaustive)", 4, 2);
    ];
  let violations = ref 0 and checked = ref 0 in
  for seed = 1 to 50 do
    let res =
      Explore.random_walk ~seed:(Int64.of_int seed) ~steps:500 ~copy_budget:15
        (alloc 4)
    in
    checked := !checked + res.Explore.steps_taken;
    if res.Explore.walk_violation <> None then incr violations
  done;
  row "random walks (4 procs): %d configurations checked, %d violations@."
    !checked !violations

(* ------------------------------------------------------------------ E4 *)

let e4_liveness () =
  section "E4: termination measure (Definition 15) and drain";
  let c = M.apply (M.init ~procs:3 ~refs:[ r0 ]) (M.Allocate (0, r0)) in
  let c = M.apply c (M.Make_copy (0, 1, r0)) in
  let c = M.apply c (M.Make_copy (0, 2, r0)) in
  row "sample trace (measure after each protocol step):@.  ";
  let rec walk c =
    row "%d " (Invariants.termination_measure c);
    match M.enabled_protocol c with [] -> () | t :: _ -> walk (M.apply c t)
  in
  walk c;
  row "@.";
  let total_steps = ref 0 and total_measure = ref 0 in
  let runs = 30 and failures = ref 0 and bound_violated = ref 0 in
  for seed = 1 to runs do
    let init = M.apply (M.init ~procs:4 ~refs:[ r0 ]) (M.Allocate (0, r0)) in
    (* Short prefixes so the system is still mid-flight when we drain. *)
    let res =
      Explore.random_walk
        ~check:(fun _ -> [])
        ~env_weight:3.0 ~seed:(Int64.of_int seed) ~steps:25 ~copy_budget:10
        init
    in
    let c = res.Explore.final in
    let drop_clients c =
      List.fold_left
        (fun c p ->
          if p <> 0 && M.rooted c p r0 then M.apply c (M.Drop_root (p, r0))
          else c)
        c (M.procs c)
    in
    let c = drop_clients c in
    let measure = Invariants.termination_measure c in
    total_measure := !total_measure + measure;
    (* In-flight deliveries re-root the application; iterate dropping to
       a fixed point (Definition 18 assumes the mutator has quiesced). *)
    let c1, first_steps = Explore.drain ~include_finalize:true c in
    (* Theorem 21: the measure bounds the protocol steps of a drain
       round (finalize is excluded from the measure but fires at most
       once per client). *)
    if first_steps > measure + 4 then incr bound_violated;
    let rec teardown c steps n =
      let c' = drop_clients c in
      if M.equal_config c c' || n > 10 then (c, steps)
      else
        let c'', s = Explore.drain ~include_finalize:true c' in
        teardown c'' (steps + s) (n + 1)
    in
    let c, steps = teardown c1 first_steps 0 in
    total_steps := !total_steps + steps;
    if
      not
        (M.Pset.is_empty (M.pdirty c 0 r0) && M.Td.is_empty (M.tdirty c 0 r0))
    then incr failures
  done;
  row "%d random prefixes: dirty tables empty after drain in %d/%d runs@." runs
    (runs - !failures) runs;
  row "mean measure at drain start %.1f, mean drain steps %.1f@."
    (float_of_int !total_measure /. float_of_int runs)
    (float_of_int !total_steps /. float_of_int runs);
  row "runs where steps exceeded the measure bound: %d (expect 0)@."
    !bound_violated

(* ------------------------------------------------------------------ E5 *)

let e5_family () =
  section "E5: control messages across the family (Figure 14 comparison)";
  let workloads =
    [
      ("chain", fun () -> Workload.chain ~procs:6);
      ("fanout", fun () -> Workload.fanout ~procs:6);
      ("pingpong", fun () -> Workload.pingpong ~rounds:10);
      ("churn", fun () -> Workload.churn ~procs:6 ~events:120 ~seed:99L);
    ]
  in
  row "%-15s" "algorithm";
  List.iter (fun (w, _) -> row " %9s" w) workloads;
  row " %8s@." "zombies";
  let is_naive n = String.length n >= 5 && String.sub n 0 5 = "naive" in
  let safe = List.filter (fun (n, _) -> not (is_naive n)) algorithms in
  List.iter
    (fun (name, make) ->
      row "%-15s" name;
      let max_z = ref 0 in
      List.iter
        (fun (_, mkops) ->
          let total = ref 0.0 in
          let seeds = 10 in
          for seed = 1 to seeds do
            let v = make ~procs:6 ~seed:(Int64.of_int (seed * 31)) in
            let o = Workload.run v (mkops ()) in
            if o.Workload.premature_at <> None then
              failwith (name ^ ": premature!");
            max_z := max !max_z o.Workload.max_zombies;
            total :=
              !total
              +. float_of_int o.Workload.total_control
                 /. float_of_int (max 1 o.Workload.sends_executed)
          done;
          row " %9.2f" (!total /. float_of_int seeds))
        workloads;
      row " %8d@." !max_z)
    safe;
  row "(cells: control messages per reference copy, lower is cheaper)@."

(* ------------------------------------------------------------------ E6 *)

(* Drive `rounds` copy+discard cycles on a machine through callbacks,
   counting control-message receipts and deserialisation suspensions. *)
let e6_fifo () =
  section "E6: FIFO variant vs base algorithm (§5.1)";
  let rounds = 50 in
  (* base machine *)
  let base_ctrl = ref 0 and base_blocked = ref 0 in
  let bc = ref (M.apply (M.init ~procs:2 ~refs:[ r0 ]) (M.Allocate (0, r0))) in
  let base_drain () =
    let rec go () =
      let ts =
        M.enabled_protocol !bc
        @ List.filter
            (fun t -> match t with M.Finalize _ -> true | _ -> false)
            (M.enabled_environment !bc)
      in
      match ts with
      | [] -> ()
      | t :: _ ->
          (match t with
          | M.Receive_copy (_, p2, r, _) ->
              if M.rec_state !bc p2 r <> T.Ok then incr base_blocked
          | M.Receive_copy_ack _ | M.Receive_dirty _ | M.Receive_dirty_ack _
          | M.Receive_clean _ | M.Receive_clean_ack _ ->
              incr base_ctrl
          | _ -> ());
          bc := M.apply !bc t;
          go ()
    in
    go ()
  in
  for _ = 1 to rounds do
    bc := M.apply !bc (M.Make_copy (0, 1, r0));
    base_drain ();
    if M.rooted !bc 1 r0 then bc := M.apply !bc (M.Drop_root (1, r0));
    base_drain ()
  done;
  (* FIFO variant, measured through the harness view: every control
     message is counted at its delivery. *)
  let fifo_view = Netobj_dgc.Fifo_view.create ~procs:2 ~seed:3L in
  let fifo_ops =
    List.concat
      (List.init rounds (fun _ ->
           [ Workload.Send (0, 1); Workload.Steps 200; Workload.Drop 1; Workload.Steps 200 ]))
  in
  let fo = Workload.run fifo_view fifo_ops in
  if fo.Workload.premature_at <> None || fo.Workload.leaked then
    failwith "fifo view unsound";
  row "%-28s %14s %18s@." "variant" "ctrl msgs/cycle" "blocked receipts";
  row "%-28s %14.1f %18d@." "base (bag channels)"
    (float_of_int !base_ctrl /. float_of_int rounds)
    !base_blocked;
  row "%-28s %14.1f %18d@." "FIFO variant (§5.1)"
    (float_of_int fo.Workload.total_control
    /. float_of_int fo.Workload.sends_executed)
    0;
  row "(cycle = copy + discard; the variant drops clean_ack and never@.";
  row " suspends deserialisation — the base blocked on every first copy)@."

(* ------------------------------------------------------------------ E7 *)

let e7_owneropt () =
  section "E7: owner optimisations (§5.2)";
  let fanout = Workload.fanout ~procs:6 in
  let cost ~opt_sender ~opt_receiver ~ordered ops =
    let total = ref 0 and sends = ref 0 in
    for seed = 1 to 10 do
      let v =
        Owner_opt.create ~opt_sender ~opt_receiver ~ordered ~procs:6
          ~seed:(Int64.of_int seed) ()
      in
      let o = Workload.run v ops in
      (match o.Workload.premature_at with
      | Some _ -> failwith "owneropt: premature on ordered run"
      | None -> ());
      total := !total + o.Workload.total_control;
      sends := !sends + o.Workload.sends_executed
    done;
    float_of_int !total /. float_of_int (max 1 !sends)
  in
  row "%-36s %16s@." "configuration (ordered channels)" "ctrl msgs/copy";
  row "%-36s %16.2f@." "base protocol, owner fanout"
    (cost ~opt_sender:false ~opt_receiver:false ~ordered:true fanout);
  row "%-36s %16.2f@." "+ sender-is-owner (§5.2.1)"
    (cost ~opt_sender:true ~opt_receiver:false ~ordered:true fanout);
  let home =
    [
      Workload.Send (0, 1);
      Workload.Steps 50;
      Workload.Send (1, 0);
      Workload.Steps 50;
      Workload.Drop 1;
      Workload.Steps 100;
    ]
  in
  row "%-36s %16.2f@." "base protocol, send-home workload"
    (cost ~opt_sender:false ~opt_receiver:false ~ordered:true home);
  row "%-36s %16.2f@." "+ receiver-is-owner (§5.2.2)"
    (cost ~opt_sender:false ~opt_receiver:true ~ordered:true home);
  let race = ref 0 in
  let runs = 300 in
  for seed = 1 to runs do
    let v =
      Owner_opt.create ~opt_receiver:true ~ordered:false ~procs:3
        ~seed:(Int64.of_int seed) ()
    in
    let o =
      Workload.run v
        [
          Workload.Send (0, 1);
          Workload.Steps 50;
          Workload.Drop 0;
          Workload.Send (1, 0);
          Workload.Drop 1;
          Workload.Steps 200;
        ]
    in
    if o.Workload.premature_at <> None then incr race
  done;
  row "receiver-opt over unordered channels: %d/%d premature collections@."
    !race runs;
  row "(the race the paper documents; 0 would mean the demo is broken)@."

(* ------------------------------------------------------------------ E8 *)

(* The §6 adversary on every channel: a permanent loss or duplication
   burst on each ordered pair of spaces, self-pairs included. *)
let burst_everywhere rt ?loss ?dup () =
  let n = List.length (R.spaces rt) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      Transport.set_burst (R.transport rt) ~src ~dst ?loss ?dup
        ~until:infinity ()
    done
  done

let e8_fault () =
  section "E8: fault tolerance (§6) — abstract machine";
  (* The §6 machine with the outer-cube states: loss, duplication and
     (spurious) timeouts across the workload suite. *)
  row "%-26s %9s %9s %9s %7s %7s %7s@." "fault mix (100 seeds)" "premature"
    "leaks" "recovered" "drops" "dups" "strong";
  List.iter
    (fun (label, drop, dup, tprob) ->
      let premature = ref 0 and leaks = ref 0 in
      let drops = ref 0 and dups = ref 0 and strong = ref 0 in
      for seed = 1 to 100 do
        let v, c =
          Netobj_dgc.Fault.create ~drop_budget:drop ~dup_budget:dup
            ~timeout_prob:tprob ~procs:4 ~seed:(Int64.of_int seed) ()
        in
        let o = Workload.run v (Workload.chain ~procs:4) in
        if o.Workload.premature_at <> None then incr premature;
        if o.Workload.leaked then incr leaks;
        drops := !drops + c.Netobj_dgc.Fault.drops_done ();
        dups := !dups + c.Netobj_dgc.Fault.dups_done ();
        strong := !strong + c.Netobj_dgc.Fault.strong_cleans ()
      done;
      row "%-26s %9d %9d %9d %7d %7d %7d@." label !premature !leaks
        (100 - !leaks - !premature) !drops !dups !strong)
    [
      ("fault-free", 0, 0, 0.0);
      ("duplication x8", 0, 8, 0.0);
      ("loss x4 (no timeouts)", 4, 0, 0.0);
      ("loss x4 + timeouts", 4, 0, 0.05);
      ("loss+dup+spurious", 4, 4, 0.10);
    ];
  row "(loss without timeouts may leak — liveness needs the retry path;@.";
  row " with timeouts every seed recovers and safety never breaks)@.";
  section "E8b: fault tolerance (§6) on the runtime";
  (* 8a: duplicated GC messages are idempotent thanks to seqnos. *)
  let rt = R.create (R.config ~seed:5L ~nspaces:3 ()) in
  burst_everywhere rt ~dup:0.4 ();
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  let calls_ok = ref 0 in
  for i = 1 to 2 do
    R.spawn rt (fun () ->
        let sp = R.space rt i in
        let h = R.lookup sp ~at:0 "c" in
        for _ = 1 to 5 do
          ignore (Stub.call sp h Scenario.m_incr 1);
          incr calls_ok
        done;
        R.release sp h)
  done;
  ignore (R.run rt);
  R.collect_all rt;
  ignore (R.run rt);
  row
    "duplication 40%%: %d calls ok, %d msgs duplicated, dirty set drained: %b@."
    !calls_ok (Transport.stats (R.transport rt)).Transport.duplicated
    (R.dirty_set owner counter = []);
  (* 8b: clean-message loss + retry demon. *)
  let cfg = R.config ~seed:6L ~clean_retry:0.5 ~nspaces:2 () in
  let rt = R.create cfg in
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  R.spawn rt (fun () ->
      let sp = R.space rt 1 in
      let h = R.lookup sp ~at:0 "c" in
      ignore (Stub.call sp h Scenario.m_incr 1);
      R.release sp h);
  ignore (R.run rt);
  (* Two surrogates (agent + counter) will be cleaned; lose both cleans. *)
  let lost = ref 0 in
  Transport.set_filter (R.transport rt)
    (Some
       (fun ~src:_ ~dst:_ ~kind ->
         if kind = "clean" && !lost < 2 then begin
           incr lost;
           false
         end
         else true));
  R.collect (R.space rt 1);
  ignore (R.run ~until:0.4 rt);
  row "clean lost: dirty set during loss window: %a@."
    Fmt.(Dump.list int)
    (R.dirty_set owner counter);
  ignore (R.run ~until:30.0 rt);
  row "after retry demon: dirty set drained: %b (%d clean lost, %d sent total)@."
    (R.dirty_set owner counter = [])
    !lost
    (R.gc_stats (R.space rt 1)).R.clean_calls;
  (* 8c: crash + lease eviction timing. *)
  List.iter
    (fun period ->
      let cfg =
        R.config ~seed:7L ~ping_period:period ~lease_misses:2 ~nspaces:2 ()
      in
      let rt = R.create cfg in
      let owner = R.space rt 0 in
      let counter = Scenario.counter owner in
      R.publish owner "c" counter;
      R.spawn rt (fun () ->
          let sp = R.space rt 1 in
          let h = R.lookup sp ~at:0 "c" in
          ignore (Stub.call sp h Scenario.m_incr 1));
      ignore (R.run ~until:(period /. 2.) rt);
      R.crash rt 1;
      let t0 = Sched.now (R.sched rt) in
      let reclaimed_at = ref nan in
      let rec watch until =
        if until > 200.0 then ()
        else begin
          ignore (R.run ~until rt);
          if R.dirty_set owner counter = [] then
            reclaimed_at := Sched.now (R.sched rt) -. t0
          else watch (until +. 1.0)
        end
      in
      watch 1.0;
      row "crash + lease (ping=%.0fs, 2 misses): evicted after %.1fs@." period
        !reclaimed_at)
    [ 1.0; 5.0 ]

(* ------------------------------------------------------------------ E9/E10 *)

let bechamel_run ~quota tests =
  let open Bechamel in
  let tests =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) tests
  in
  let grouped = Test.make_grouped ~name:"g" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols_result) ->
         let ns =
           match Analyze.OLS.estimates ols_result with
           | Some (x :: _) -> x
           | _ -> nan
         in
         row "  %-38s %12.0f ns/op@." name ns)

let e9_rpc () =
  section "E9: invocation latency (simulator wall-clock, Bechamel)";
  let rt = R.create (R.config ~seed:11L ~nspaces:2 ()) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  let href = ref None in
  R.spawn rt (fun () -> href := Some (R.lookup client ~at:0 "c"));
  ignore (R.run rt);
  let h = Option.get !href in
  let local_call () =
    R.spawn rt (fun () -> ignore (Stub.call owner counter Scenario.m_incr 1));
    ignore (R.run rt)
  in
  let warm_call () =
    R.spawn rt (fun () -> ignore (Stub.call client h Scenario.m_incr 1));
    ignore (R.run rt)
  in
  let cold_call () =
    R.spawn rt (fun () ->
        let hc = R.lookup client ~at:0 "c" in
        ignore (Stub.call client hc Scenario.m_incr 1);
        R.release client hc);
    ignore (R.run rt);
    R.collect client;
    ignore (R.run rt)
  in
  bechamel_run ~quota:0.4
    [
      ("local call (same space)", local_call);
      ("warm remote call", warm_call);
      ("cold call (dirty + clean cycle)", cold_call);
    ];
  (* Wire cost per warm call, with and without references to ack. *)
  let messages ~with_ref =
    let cfg = R.config ~seed:41L ~nspaces:2 () in
    let rt = R.create cfg in
    let owner = R.space rt 0 and client = R.space rt 1 in
    let counter = Scenario.counter owner in
    R.publish owner "c" counter;
    let m_id = Stub.declare "id" R.handle_codec R.handle_codec in
    let echo =
      R.allocate owner ~meths:[ Stub.implement m_id (fun _ h -> h) ]
    in
    R.publish owner "echo" echo;
    let h1 = ref None and h2 = ref None in
    R.spawn rt (fun () ->
        h1 := Some (R.lookup client ~at:0 "c");
        h2 := Some (R.lookup client ~at:0 "echo"));
    ignore (R.run rt);
    Transport.reset_stats (R.transport rt);
    R.spawn rt (fun () ->
        for _ = 1 to 10 do
          if with_ref then begin
            let r = Stub.call client (Option.get !h2) m_id (Option.get !h1) in
            R.release client r
          end
          else ignore (Stub.call client (Option.get !h1) Scenario.m_incr 1)
        done);
    ignore (R.run rt);
    float_of_int (Transport.stats (R.transport rt)).Transport.sent /. 10.0
  in
  row "@.wire messages per warm call:@.";
  row "  %-34s %8s %8s@." "" "null" "ref-arg+ref-result";
  row "  %-34s %8.1f %8.1f@." "base (standalone acks)"
    (messages ~with_ref:false) (messages ~with_ref:true)

let e10_marshal () =
  section "E10: pickle costs by argument type (Bechamel)";
  let s1k = String.make 1024 'x' in
  let ints = List.init 100 Fun.id in
  let arr = Array.init 1000 Fun.id in
  let pair_codec = P.pair P.int (P.list P.string) in
  let pair_v = (42, [ "a"; "bb"; "ccc" ]) in
  let enc c v () = ignore (P.encode c v) in
  let dec c v =
    let s = P.encode c v in
    fun () -> ignore (P.decode c s)
  in
  row
    "encoded sizes: int=%dB float=%dB 1KiB-string=%dB 100-int-list=%dB 1000-int-array=%dB@."
    (String.length (P.encode P.int 42))
    (String.length (P.encode P.float 3.14))
    (String.length (P.encode P.string s1k))
    (String.length (P.encode (P.list P.int) ints))
    (String.length (P.encode (P.array P.int) arr));
  bechamel_run ~quota:0.3
    [
      ("encode int", enc P.int 123456);
      ("decode int", dec P.int 123456);
      ("encode float", enc P.float 3.14159);
      ("encode string 1KiB", enc P.string s1k);
      ("decode string 1KiB", dec P.string s1k);
      ("encode int list 100", enc (P.list P.int) ints);
      ("decode int list 100", dec (P.list P.int) ints);
      ("encode int array 1000", enc (P.array P.int) arr);
      ("encode mixed pair", enc pair_codec pair_v);
      ("decode mixed pair", dec pair_codec pair_v);
    ]

(* ------------------------------------------------------------------ E11 *)

let m_put = Stub.declare "put" R.handle_codec P.unit

let cell_obj sp =
  let stored = ref None in
  let rec cell =
    lazy
      (R.allocate sp
         ~meths:
           [
             Stub.implement m_put (fun sp' h ->
                 R.retain sp' h;
                 R.link sp' ~parent:(Lazy.force cell) ~child:h;
                 stored := Some h);
           ])
  in
  Lazy.force cell

let e11_transmit () =
  section "E11: transmission race windows (TR §2.1) under random schedules";
  let survived = ref 0 and runs = 100 in
  for seed = 1 to runs do
    let cfg =
      R.config ~seed:(Int64.of_int seed)
        ~policy:(Sched.Random (Int64.of_int (seed * 17)))
        ~gc_period:0.003 (* aggressive collectors everywhere *)
        ~nspaces:3 ()
    in
    let rt = R.create cfg in
    let owner = R.space rt 0 and a = R.space rt 1 and c = R.space rt 2 in
    let counter = Scenario.counter owner in
    let wr = R.wirerep counter in
    R.publish owner "counter" counter;
    let cell = cell_obj c in
    R.publish c "cell" cell;
    R.spawn rt (fun () ->
        let h = R.lookup a ~at:0 "counter" in
        let hc = R.lookup a ~at:2 "cell" in
        Stub.call a hc m_put h;
        (* drop instantly: the transmission window is now the only
           protection *)
        R.release a h;
        R.release a hc);
    ignore (R.run ~until:2.0 rt);
    R.publish owner "counter" (Scenario.counter owner);
    R.release owner counter;
    ignore (R.run ~until:4.0 rt);
    let ok =
      R.resident owner wr
      && match Sched.failures (R.sched rt) with [] -> true | _ -> false
    in
    if ok then incr survived
  done;
  row "object survived transmission in %d/%d adversarial schedules@." !survived
    runs;
  row "(a single loss would be a premature collection: expect %d/%d)@." runs
    runs

(* ------------------------------------------------------------------ E12 *)

let e12_churn () =
  section "E12: cleaning-demon traffic under surrogate churn (TR §2.2)";
  row "%-12s %10s %10s %12s@." "churn" "dirty" "clean" "clean/churn";
  List.iter
    (fun rounds ->
      let rt = R.create (R.config ~seed:21L ~nspaces:2 ()) in
      let owner = R.space rt 0 and client = R.space rt 1 in
      let counter = Scenario.counter owner in
      R.publish owner "c" counter;
      for _ = 1 to rounds do
        R.spawn rt (fun () ->
            let h = R.lookup client ~at:0 "c" in
            ignore (Stub.call client h Scenario.m_incr 1);
            R.release client h);
        ignore (R.run rt);
        R.collect client;
        ignore (R.run rt)
      done;
      let st = R.gc_stats client in
      row "%-12d %10d %10d %12.2f@." rounds st.R.dirty_calls st.R.clean_calls
        (float_of_int st.R.clean_calls /. float_of_int rounds))
    [ 10; 50; 200 ];
  (* Batching: k surrogates die in one GC cycle; one message per owner
     instead of k+1. *)
  row "@.batched cleaning demon (%d dead surrogates in one GC cycle):@." 20;
  List.iter
    (fun batch ->
      let cfg =
        R.config ~seed:17L
          ?clean_batch:(if batch then Some 0.05 else None)
          ~nspaces:2 ()
      in
      let rt = R.create cfg in
      let owner = R.space rt 0 and client = R.space rt 1 in
      let objs = List.init 20 (fun i -> (i, Scenario.counter owner)) in
      List.iter (fun (i, o) -> R.publish owner (Printf.sprintf "o%d" i) o) objs;
      R.spawn rt (fun () ->
          List.iter
            (fun (i, _) ->
              let h = R.lookup client ~at:0 (Printf.sprintf "o%d" i) in
              ignore (Stub.call client h Scenario.m_incr 1);
              R.release client h)
            objs);
      ignore (R.run rt);
      Transport.reset_stats (R.transport rt);
      R.collect client;
      ignore (R.run rt);
      let kinds = Transport.stats_by_kind (R.transport rt) in
      let n k = fst (Option.value ~default:(0, 0) (List.assoc_opt k kinds)) in
      row "  %-10s clean msgs=%d, clean_batch msgs=%d, total GC msgs=%d@."
        (if batch then "batched" else "unbatched")
        (n "clean") (n "clean_batch")
        (n "clean" + n "clean_batch" + n "clean_ack" + n "clean_batch_ack"))
    [ false; true ]

(* ------------------------------------------------------------------ E13 *)

let e13_ablation () =
  section "E13: ablation — the Note 4 clean-cancellation optimisation";
  (* Tight resurrection churn: the owner re-sends immediately after every
     drop, so copies frequently land while a clean is merely scheduled. *)
  let ops =
    List.concat (List.init 20 (fun _ -> [ Workload.Send (0, 1); Workload.Drop 1 ]))
    @ [ Workload.Steps 500 ]
  in
  let run cancellation =
    let total = ref 0 and sends = ref 0 in
    for seed = 1 to 30 do
      let v =
        Owner_opt.create ~cancellation ~ordered:false ~procs:2
          ~seed:(Int64.of_int seed) ()
      in
      let o = Workload.run v ops in
      if o.Workload.premature_at <> None then failwith "ablation: premature";
      if o.Workload.leaked then failwith "ablation: leak";
      total := !total + o.Workload.total_control;
      sends := !sends + o.Workload.sends_executed
    done;
    float_of_int !total /. float_of_int (max 1 !sends)
  in
  let with_opt = run true and without = run false in
  row "%-42s %14s@." "configuration" "ctrl msgs/copy";
  row "%-42s %14.2f@." "with Note 4 cancellation (the algorithm)" with_opt;
  row "%-42s %14.2f@." "ablated (clean + dirty always sent)" without;
  row "(both sound; the optimisation elides clean/dirty cycles whenever a@.";
  row " fresh copy overtakes the cleaning demon — the paper's efficiency@.";
  row " argument for resurrecting instead of blocking the deserialiser)@."

(* ------------------------------------------------------------------ E14 *)

let e14_cycles () =
  section "E14: distributed cycles — listing leaks, the hybrid reclaims";
  row "%-18s %10s %14s %14s@." "ring (nodes/spaces)" "dropped" "listing keeps"
    "tracing frees";
  List.iter
    (fun (k, n) ->
      let rt = R.create (R.config ~seed:5L ~nspaces:n ()) in
      let nodes = Scenario.ring rt ~nodes:k in
      ignore (R.run rt);
      Array.iteri
        (fun i (sp, node) ->
          R.unpublish sp (Printf.sprintf "node%d" i);
          R.release sp node)
        nodes;
      Scenario.drain ~rounds:5 ~pending:(fun () -> true) rt;
      let leaked =
        Array.fold_left
          (fun c (sp, node) ->
            if R.resident sp (R.wirerep node) then c + 1 else c)
          0 nodes
      in
      let reclaimed = R.global_collect rt in
      row "%-18s %10d %14d %14d@."
        (Printf.sprintf "%d over %d" k n)
        k leaked reclaimed)
    [ (2, 2); (4, 2); (6, 3); (12, 4) ];
  row "(every dropped ring survives arbitrary rounds of the listing@.";
  row " collector and is fully reclaimed by one global tracing pass)@."

(* ------------------------------------------------------------------ E15 *)

let e15_scale () =
  section "E15: scalability with system size (§7.1: 'scales well')";
  row "%-10s %14s %16s %16s@." "spaces" "GC msgs/client" "calls ok" "dirty max";
  List.iter
    (fun n ->
      let rt = R.create (R.config ~seed:37L ~nspaces:n ()) in
      let owner = R.space rt 0 in
      let counter = Scenario.counter owner in
      R.publish owner "c" counter;
      let calls = ref 0 and dirty_max = ref 0 in
      for i = 1 to n - 1 do
        R.spawn rt (fun () ->
            let sp = R.space rt i in
            for _ = 1 to 3 do
              let h = R.lookup sp ~at:0 "c" in
              ignore (Stub.call sp h Scenario.m_incr 1);
              incr calls;
              dirty_max :=
                max !dirty_max (List.length (R.dirty_set owner counter));
              R.release sp h;
              R.collect sp
            done)
      done;
      ignore (R.run rt);
      let gc_msgs =
        List.fold_left
          (fun acc sp ->
            let st = R.gc_stats sp in
            acc + st.R.dirty_calls + st.R.clean_calls + st.R.copy_acks)
          0 (R.spaces rt)
      in
      row "%-10d %14.1f %16d %16d@." n
        (float_of_int gc_msgs /. float_of_int (n - 1))
        !calls !dirty_max)
    [ 2; 4; 8; 16 ];
  row "(GC cost per client is flat in system size: the collector is@.";
  row " direct and per-reference — the survey's scalability claim)@."

(* ------------------------------------------------------------------ E16 *)

module Wire = Netobj_pickle.Wire

let e16_pool () =
  section "E16: writer pool and slice decode (marshalling hot path)";
  let ints = List.init 100 Fun.id in
  let list_codec = P.list P.int in
  let pair_codec = P.pair P.int (P.list P.string) in
  let pair_v = (42, [ "a"; "bb"; "ccc" ]) in
  (* Large argument record: the case where a fresh buffer must regrow
     from its initial size on every encode, while a pooled writer stays
     grown across calls. *)
  let big_codec = P.list P.string in
  let big_v = List.init 16 (fun i -> String.make 512 (Char.chr (65 + i))) in
  (* The non-pooled baseline this PR replaced: a fresh buffer per encode,
     snapshotted at the end. *)
  let fresh_encode c v () =
    let w = Wire.Writer.create () in
    P.write c w v;
    ignore (Wire.Writer.to_bytes w)
  in
  let pooled_encode c v () = ignore (P.encode c v) in
  (* A message at an interior offset of a larger delivered frame. *)
  let body = P.encode list_codec ints in
  let framed = String.concat "" [ "\012frame-header"; body; "trailer" ] in
  let off = 13 and len = String.length body in
  let copy_decode () = ignore (P.decode list_codec (String.sub framed off len)) in
  let slice_decode () = ignore (P.decode_slice list_codec framed ~off ~len) in
  bechamel_run ~quota:0.3
    [
      ("encode int list 100 (fresh buffer)", fresh_encode list_codec ints);
      ("encode int list 100 (pooled)", pooled_encode list_codec ints);
      ("encode mixed pair (fresh buffer)", fresh_encode pair_codec pair_v);
      ("encode mixed pair (pooled)", pooled_encode pair_codec pair_v);
      ("encode 8KiB strings (fresh buffer)", fresh_encode big_codec big_v);
      ("encode 8KiB strings (pooled)", pooled_encode big_codec big_v);
      ("decode framed int list 100 (copy)", copy_decode);
      ("decode framed int list 100 (slice)", slice_decode);
    ];
  Wire.Writer.reset_pool_stats ();
  for _ = 1 to 10_000 do
    ignore (P.encode pair_codec pair_v)
  done;
  let hits, misses = Wire.Writer.pool_stats () in
  row "pool over 10k encodes: %d hits / %d misses (%.4f hit ratio)@." hits
    misses
    (float_of_int hits /. float_of_int (hits + misses))

(* ------------------------------------------------------------------ E18 *)

module Chaos = Netobj_chaos.Chaos

(* Seeded chaos sweeps (see lib/chaos): each run interleaves churning
   mutators with a nemesis schedule of partitions, crashes, loss and
   duplication bursts and latency spikes, then asserts the safety and
   drain oracles.  The sweep is repeated with fixed-interval retries and
   with exponential backoff; the oracles must hold either way, the
   difference is retry traffic and drain time.  Every number here is a
   function of the seeds alone, so the rows are deterministic. *)
let e18_chaos () =
  section "E18: chaos survival — fault schedules vs retry policy (8 seeds)";
  let seeds = List.init 8 (fun i -> Int64.of_int (i + 1)) in
  let sweep ~label ~backoff ~backoff_cap =
    let survived = ref 0
    and drain_sum = ref 0.0
    and drained = ref 0
    and retries = ref 0
    and rejections = ref 0
    and faults = ref 0 in
    List.iter
      (fun seed ->
        let r = Chaos.run { Chaos.default with seed; backoff; backoff_cap } in
        if Chaos.survived r then incr survived;
        (match r.Chaos.r_drain_time with
        | Some t ->
            drain_sum := !drain_sum +. t;
            incr drained
        | None -> ());
        retries := !retries + r.Chaos.r_retries;
        rejections := !rejections + r.Chaos.r_epoch_rejections;
        faults :=
          !faults + List.fold_left (fun a (_, n) -> a + n) 0 r.Chaos.r_faults)
      seeds;
    row "%-22s %9d/%d %8d %9.2f %9d %9d@." label !survived (List.length seeds)
      !faults
      (!drain_sum /. float_of_int (max 1 !drained))
      !retries !rejections
  in
  row "%-22s %11s %8s %9s %9s %9s@." "retry policy" "survived" "faults"
    "drain(s)" "retries" "epoch-rej";
  sweep ~label:"fixed interval" ~backoff:1.0 ~backoff_cap:infinity;
  sweep ~label:"exp backoff 2x cap 2s" ~backoff:2.0 ~backoff_cap:2.0

(* ------------------------------------------------------------------ E19 *)

module Mc = Netobj_mc.Mc

(* Systematic schedule exploration over the real runtime (see lib/mc):
   every scheduler and delivery-order decision is a choice point, and
   DFS with iterative preemption bounding, sleep-set pruning and
   state-fingerprint dedup enumerates schedules.  The table reports how
   hard each scenario is (states, pruning ratio) and — for the lookup
   scenario with the historical agent-root leak re-enabled via
   [bug_lookup_leak] — how many schedules each mode needs to re-find the
   bug.  Everything is deterministic: the rows count schedules, not
   time. *)
let e19_mc () =
  section "E19: systematic schedule exploration (lib/mc)";
  let ratio (s : Mc.stats) =
    let pruned = s.Mc.pruned_sleep + s.Mc.pruned_state in
    float_of_int pruned /. float_of_int (max 1 (pruned + s.Mc.schedules))
  in
  let line label (r : Mc.result) =
    let s = r.Mc.stats in
    let bug =
      match r.Mc.violation with
      | Some v -> string_of_int v.Mc.v_at_schedule
      | None -> "-"
    in
    row "%-28s %10d %8d %8d %8.2f %12s@." label s.Mc.schedules s.Mc.choices
      s.Mc.states (ratio s) bug
  in
  row "%-28s %10s %8s %8s %8s %12s@." "scenario/mode" "schedules" "choices"
    "states" "pruned" "first-bug";
  line "dgc2 exhaustive" (Mc.explore (Mc.scenario_dgc2 ()));
  line "lookup fixed, exhaustive" (Mc.explore (Mc.scenario_lookup ~leak:false ()));
  line "lookup leak, exhaustive" (Mc.explore (Mc.scenario_lookup ~leak:true ()));
  line "lookup leak, guided s=1"
    (Mc.guided ~seed:1L (Mc.scenario_lookup ~leak:true ()));
  line "lookup leak, guided s=7"
    (Mc.guided ~seed:7L (Mc.scenario_lookup ~leak:true ()));
  let budget = { Mc.default_bounds with Mc.max_schedules = 500 } in
  line "dgc3 exhaustive (500 cap)"
    (Mc.explore ~bounds:budget (Mc.scenario_dgc3 ()))

(* ------------------------------------------------------------------ E20 *)

module Mx = Netobj_obs.Metrics

(* Durable spaces (lib/store + the runtime WAL): what commit-before-
   externalize costs while running, and how recovery scales with the
   amount of live state replayed.  Part one runs the same seeded
   workload with durability off and on — logging is local, so the wire
   traffic and GC behaviour are unchanged; the price is WAL bytes and
   group-commit fsyncs.  Part two grows the owner's heap before a
   crash: log bytes and records replayed grow linearly with live
   objects, every object must be resident again after replay.  The
   wall-clock column is machine-dependent. *)
let e20_recover () =
  section "E20: durable spaces — WAL overhead and recovery replay";
  (* the store's counters are gated on the observability switch *)
  let obs_was_on = Netobj_obs.Obs.on () in
  if not obs_was_on then Netobj_obs.Obs.enable ();
  let mxc name = Mx.counter_value (Mx.counter Mx.global name) in
  let run_workload ~durable =
    let f0 = mxc "store.fsyncs" in
    let cfg =
      R.config ~seed:11L ~nspaces:4 ~durable ~fsync_delay:0.004
        ~snapshot_period:60.0 ()
    in
    let rt = R.create cfg in
    let owner = R.space rt 0 in
    let objs = List.init 16 (fun i -> (i, Scenario.counter owner)) in
    List.iter (fun (i, o) -> R.publish owner (Printf.sprintf "o%d" i) o) objs;
    for cl = 1 to 3 do
      R.spawn rt (fun () ->
          let sp = R.space rt cl in
          List.iter
            (fun (i, _) ->
              let h = R.lookup sp ~at:0 (Printf.sprintf "o%d" i) in
              ignore (Stub.call sp h Scenario.m_incr 1);
              R.release sp h)
            objs)
    done;
    ignore (R.run ~until:3.0 rt);
    R.collect_all rt;
    ignore (R.run ~until:6.0 rt);
    ( Transport.stats (R.transport rt),
      R.gc_stats (R.space rt 1),
      R.log_size owner,
      mxc "store.fsyncs" - f0 )
  in
  let off_st, off_gc, _, _ = run_workload ~durable:false in
  let on_st, on_gc, wal_bytes, fsyncs = run_workload ~durable:true in
  row "%-12s %10s %10s %10s %10s@." "durability" "msgs" "bytes" "wal-bytes"
    "fsyncs";
  row "%-12s %10d %10d %10d %10d@." "off" off_st.Transport.sent
    off_st.Transport.bytes 0 0;
  row "%-12s %10d %10d %10d %10d@." "on" on_st.Transport.sent
    on_st.Transport.bytes
    wal_bytes fsyncs;
  row "wire parity (logging is local): %b; gc parity: %b@."
    (off_st.Transport.sent = on_st.Transport.sent
    && off_st.Transport.bytes = on_st.Transport.bytes)
    (off_gc.R.dirty_calls = on_gc.R.dirty_calls
    && off_gc.R.clean_calls = on_gc.R.clean_calls);
  row "@.%-10s %12s %12s %14s %12s@." "objects" "log-bytes" "replayed"
    "recover-us" "us/record";
  List.iter
    (fun k ->
      let r0 = mxc "store.records_replayed" in
      let cfg =
        R.config ~seed:5L ~nspaces:2 ~durable:true ~fsync_delay:0.004
          ~snapshot_period:120.0 ~recover_grace:0.1 ()
      in
      let rt = R.create cfg in
      let owner = R.space rt 0 in
      R.register_factory rt "bench" Scenario.counter_meths;
      let objs =
        List.init k (fun i ->
            let o = Scenario.counter ~tag:"bench" owner in
            R.publish owner (Printf.sprintf "o%d" i) o;
            o)
      in
      ignore (R.run ~until:1.0 rt);
      let log_bytes = R.log_size owner in
      R.crash rt 0;
      let t0 = Sys.time () in
      R.recover rt 0;
      let dt = Sys.time () -. t0 in
      let replayed = mxc "store.records_replayed" - r0 in
      let alive =
        List.for_all (fun o -> R.resident owner (R.wirerep o)) objs
      in
      row "%-10d %12d %12d %14.0f %12.2f   all-resident=%b@." k log_bytes
        replayed (dt *. 1e6)
        (dt *. 1e6 /. float_of_int (max 1 replayed))
        alive)
    [ 16; 64; 256; 1024 ];
  if not obs_was_on then Netobj_obs.Obs.disable ()

(* ------------------------------------------------------------------ E21 *)

module Tcp = Netobj_transport.Tcp
module Frame = Netobj_transport.Frame

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* Same runtime, same workload, two wires: N sequential null-ish calls
   from space 1 to a counter on space 0, over the simulated network and
   over real loopback TCP sockets (driven by the virtual-time/real-I/O
   coupling loop); then the frame codec's overhead against payload
   size.  All figures are wall-clock — the point is what real sockets
   cost relative to the simulator executing the same protocol. *)
let e21_transport () =
  section "E21: pluggable transports — loopback TCP vs simulated network";
  let ncalls = 300 in
  let run_backend backend =
    let lat = Array.make ncalls 0.0 in
    let cfg =
      match backend with
      | `Sim -> R.config ~seed:11L ~nspaces:2 ()
      | `Tcp ->
          R.config ~seed:11L ~nspaces:2
            ~transport:(fun sched _net ->
              let eps =
                [
                  (0, { Tcp.host = "127.0.0.1"; port = 0 });
                  (1, { Tcp.host = "127.0.0.1"; port = 0 });
                ]
              in
              Tcp.transport
                (Tcp.create ~sched ~serving:[ 0; 1 ] ~endpoints:eps ()))
            ()
    in
    let rt = R.create cfg in
    let owner = R.space rt 0 and client = R.space rt 1 in
    R.publish owner "counter" (Scenario.counter owner);
    let finished = ref false in
    R.spawn rt (fun () ->
        let h = R.lookup client ~at:0 "counter" in
        for i = 0 to ncalls - 1 do
          let c0 = Unix.gettimeofday () in
          ignore (Stub.call client h Scenario.m_incr 1);
          lat.(i) <- Unix.gettimeofday () -. c0
        done;
        R.release client h;
        finished := true);
    let t0 = Unix.gettimeofday () in
    (match backend with
    | `Sim -> ignore (R.run rt)
    | `Tcp ->
        Scenario.drive ~pump:0.001 rt ~deadline:(t0 +. 60.0) ~stop:(fun () ->
            !finished);
        Transport.close (R.transport rt));
    let wall = Unix.gettimeofday () -. t0 in
    if not !finished then
      Fmt.failwith "E21: %s backend did not finish"
        (match backend with `Sim -> "sim" | `Tcp -> "tcp");
    Array.sort compare lat;
    (wall, lat)
  in
  row "%-10s %10s %12s %12s %12s@." "backend" "calls" "calls/s" "p50-us"
    "p99-us";
  let report name (wall, lat) =
    row "%-10s %10d %12.0f %12.1f %12.1f@." name ncalls
      (float_of_int ncalls /. wall)
      (percentile lat 0.50 *. 1e6)
      (percentile lat 0.99 *. 1e6)
  in
  report "sim" (run_backend `Sim);
  (match run_backend `Tcp with
  | r -> report "tcp" r
  | exception Unix.Unix_error (e, _, _) ->
      row "tcp: skipped (loopback unavailable: %s)@." (Unix.error_message e));
  row "@.%-10s %12s %12s %12s@." "payload" "wire-bytes" "overhead"
    "overhead-%";
  List.iter
    (fun size ->
      let sched = Sched.create () in
      match
        Tcp.create ~sched ~serving:[ 0 ]
          ~endpoints:[ (0, { Tcp.host = "127.0.0.1"; port = 0 }) ] ()
      with
      | exception Unix.Unix_error (e, _, _) ->
          row "%-10d skipped (loopback unavailable: %s)@." size
            (Unix.error_message e)
      | t ->
          let tr = Tcp.transport t in
          let got = ref false in
          Transport.set_handler tr 0
            (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len ->
              assert (len = size);
              got := true);
          Transport.send tr ~src:1 ~dst:0 ~kind:"m" (String.make size 'x');
          let t0 = Unix.gettimeofday () in
          while (not !got) && Unix.gettimeofday () -. t0 < 10.0 do
            ignore (Transport.pump tr ~timeout:0.01);
            ignore (Sched.run sched)
          done;
          let st = Transport.stats tr in
          (* [bytes] counts frame bodies; the length+flag header is
             [Frame.overhead] more on the wire. *)
          let wire = st.Transport.bytes + Frame.overhead in
          row "%-10d %12d %12d %12.2f@." size wire (wire - size)
            (100.0 *. float_of_int (wire - size) /. float_of_int (max 1 wire));
          Transport.close tr)
    [ 0; 16; 256; 4096; 65536 ]

(* ------------------------------------------------------------------ E22 *)

module Engine_sim = Netobj_engine.Engine_sim
module Engine_domains = Netobj_engine.Engine_domains

(* Engine scaling on the multi-space invoke storm that `netobj_sim par`
   runs (Scenario.storm): every space publishes a counter and runs 16
   mutator fibers, each looking up every other space's counter and then
   incrementing one drawn at random 25 times, so every shard both serves
   and issues calls concurrently.  The same storm runs on the
   deterministic sim engine (full virtual-clock packet simulation) and
   on the domains engine at 1, 2 and 4 shards (real inter-domain
   mailboxes, no packet simulation), under par's accounting oracle.
   Aggregate calls/sec is wall-clock over the storm phase.  On a host
   with fewer cores than shards the domains rows cannot exhibit true
   hardware parallelism, so the table reports every row and lets the
   ratio speak for itself. *)
let e22_par () =
  section "E22: engine scaling — multi-space invoke storm, sim vs domains";
  (* Each space runs [fibers] concurrent clients (pipelined RPC, the
     realistic shape for a storm): with one sequential caller per space
     every cross-shard hop pays a full domain handoff, which measures
     wake latency rather than throughput. *)
  let spaces = 8 and fibers = 16 and calls = 25 in
  let run_engine engine_mod ~domains =
    let rt =
      R.create
        (R.config ~seed:11L ~nspaces:spaces ~domains ~engine:engine_mod ())
    in
    let s = Scenario.storm ~fibers ~seed:11 ~calls rt in
    (match s.Scenario.problems with
    | [] -> ()
    | p :: _ -> Fmt.failwith "E22: %s" p);
    let rate = float_of_int s.Scenario.sent /. s.Scenario.wall in
    (s.Scenario.sent, s.Scenario.wall, rate)
  in
  row "%-12s %8s %8s %12s %12s@." "engine" "shards" "calls" "wall-ms"
    "calls/s";
  let report label shards (sent, wall, rate) =
    row "%-12s %8d %8d %12.1f %12.0f@." label shards sent (wall *. 1e3) rate;
    rate
  in
  let base =
    report "sim" 1 (run_engine (module Engine_sim : R.Engine.S) ~domains:1)
  in
  let dom n =
    report
      (Printf.sprintf "domains-%d" n)
      n
      (run_engine (module Engine_domains : R.Engine.S) ~domains:n)
  in
  let d1 = dom 1 in
  let d2 = dom 2 in
  let d4 = dom 4 in
  let speedup = d4 /. base in
  row "@.domains-4 vs sim baseline: %.2fx (domains-1 %.2fx, domains-2 %.2fx)@."
    speedup (d1 /. base) (d2 /. base)

(* ------------------------------------------------------------------ E23 *)

(* Cycle-heavy churn: mint [k] two-node cross-space cycles (a@s <-> b@s+1),
   drop every root, and drive reclamation — once with the trial-deletion
   detector run to quiescence, once with the listing collector alone,
   the no-detector baseline that provably cannot reclaim any of them.
   Headline: cycles reclaimed per wall second and the residual objects
   each configuration leaves behind. *)
let e23_cycle_churn () =
  section
    "E23: cycle-heavy churn — detector reclamation vs no-detector baseline";
  let spaces = 4 and k = 96 in
  let run ~detector =
    let rt = R.create (R.config ~seed:23L ~nspaces:spaces ()) in
    let wra = Array.make k None and wrb = Array.make k None in
    let sidx i = i mod spaces and tidx i = (i + 1) mod spaces in
    for i = 0 to k - 1 do
      let spa = R.space rt (sidx i) in
      let a = Scenario.node spa in
      wra.(i) <- Some (spa, R.wirerep a, a);
      R.publish spa (Printf.sprintf "e23-%d" i) a
    done;
    for i = 0 to k - 1 do
      let spb = R.space rt (tidx i) in
      R.spawn rt (fun () ->
          let b = Scenario.node spb in
          wrb.(i) <- Some (spb, R.wirerep b);
          let h = R.lookup spb ~at:(sidx i) (Printf.sprintf "e23-%d" i) in
          (* b -> a locally, a -> b through the wire *)
          R.link spb ~parent:b ~child:h;
          Stub.call spb h Scenario.m_set_peer b;
          R.release spb h;
          R.release spb b)
    done;
    ignore (R.run rt);
    (* drop the owner roots: every cycle is now garbage *)
    Array.iteri
      (fun i entry ->
        match entry with
        | Some (spa, _, a) ->
            R.unpublish spa (Printf.sprintf "e23-%d" i);
            R.release spa a
        | None -> ())
      wra;
    let settle () = Scenario.drain ~rounds:5 ~pending:(fun () -> true) rt in
    settle ();
    let leaked () =
      let c = ref 0 in
      Array.iter
        (function
          | Some (sp, wr, _) -> if R.resident sp wr then incr c | None -> ())
        wra;
      Array.iter
        (function
          | Some (sp, wr) -> if R.resident sp wr then incr c | None -> ())
        wrb;
      !c
    in
    let before = leaked () in
    let t0 = Unix.gettimeofday () in
    if detector then begin
      let rounds = ref 8 in
      while leaked () > 0 && !rounds > 0 do
        decr rounds;
        for s = 0 to spaces - 1 do
          R.spawn rt (fun () -> ignore (R.cycle_collect (R.space rt s)))
        done;
        ignore (R.run rt);
        settle ()
      done
    end
    else settle ();
    let wall = Unix.gettimeofday () -. t0 in
    let after = leaked () in
    let reclaimed = (before - after) / 2 in
    (before / 2, reclaimed, after, wall)
  in
  row "%-12s %8s %12s %14s@." "config" "cycles" "reclaimed/s" "residual objs";
  let report label (minted, reclaimed, residual, wall) =
    let rate = if wall > 0.0 then float_of_int reclaimed /. wall else 0.0 in
    row "%-12s %8d %12.0f %14d@." label minted rate residual;
    (reclaimed, residual)
  in
  let _, base_residual = report "baseline" (run ~detector:false) in
  let det_reclaimed, det_residual = report "detector" (run ~detector:true) in
  if det_residual > 0 then
    Fmt.failwith "E23: detector left %d nodes resident" det_residual;
  if base_residual <> 2 * k then
    Fmt.failwith "E23: baseline expected to leak all %d nodes, kept %d"
      (2 * k) base_residual;
  row "@.detector reclaimed all %d cycles; baseline leaked %d objects@."
    det_reclaimed base_residual

(* ------------------------------------------------------------------ E24 *)

(* Churn at scale: the aggregated lease plane over the compact int-keyed
   tables.  One owner, four clients, 10k and 100k live handles; measured:
   bytes of bookkeeping per handle, heartbeat messages per handle per
   second (one ping per (client, owner) pair per tick, so the aggregation
   gain is handles/clients), the wall cost of a lease tick (independent
   of table size), and the p99 run-slice pause through a churn phase and
   a whole-aggregate eviction. *)
let e24_scale_churn () =
  section "E24: churn at scale — aggregated leases over compact tables";
  let word_bytes = Sys.word_size / 8 in
  let clients = 4 in
  row "%-10s %13s %14s %17s %10s %12s@." "handles" "bytes/handle"
    "pings (6 ticks)" "beats/handle/s" "agg gain" "p99 pause";
  let tick_walls =
    List.map
      (fun size ->
        (* No background GC: the tick-cost window must contain lease
           traffic only.  Cleans are driven by explicit collects in the
           churn phase instead. *)
        let cfg =
          R.config ~seed:24L ~nspaces:(clients + 1) ~ping_period:1.0
            ~lease_misses:3 ~clean_batch:0.05 ()
        in
        let rt = R.create cfg in
        let owner = R.space rt 0 in
        let reg, _ = Scenario.registry owner size in
        R.publish owner "reg" reg;
        let mem0 = Obj.reachable_words (Obj.repr rt) in
        let slice = size / clients in
        let held = Array.make (clients + 1) [] in
        let import c =
          let sp = R.space rt c in
          let s = R.lookup sp ~at:0 "reg" in
          held.(c) <-
            held.(c) @ Stub.call sp s Scenario.m_range ((c - 1) * slice, slice);
          R.release sp s
        in
        for c = 1 to clients do
          R.spawn rt (fun () -> import c)
        done;
        ignore (R.run ~until:0.3 rt);
        let covered =
          List.init clients (fun c -> R.lease_entries owner (c + 1))
          |> List.fold_left ( + ) 0
        in
        (* slice entries + the agent and registry surrogates each
           client still holds (no GC ran to clean them yet) *)
        if covered <> size + (2 * clients) then
          Fmt.failwith "E24: %d handles, leases cover %d entries" size covered;
        (match R.lease_check owner with
        | [] -> ()
        | p :: _ -> Fmt.failwith "E24: aggregates diverged: %s" p);
        let bytes_per_handle =
          (Obj.reachable_words (Obj.repr rt) - mem0) * word_bytes / size
        in
        (* six lease ticks, nothing else running *)
        let p0 = (R.gc_stats owner).R.pings in
        let t0 = Unix.gettimeofday () in
        ignore (R.run ~until:6.3 rt);
        let tick_wall = (Unix.gettimeofday () -. t0) /. 6.0 in
        let pings = (R.gc_stats owner).R.pings - p0 in
        if pings <> clients * 6 then
          Fmt.failwith "E24: %d handles but %d pings in 6 ticks (want %d)"
            size pings (clients * 6);
        let beats =
          float_of_int pings /. 6.0 /. float_of_int size
        in
        (* vs the per-entry scheme: one ping per handle per tick *)
        let gain = float_of_int size /. float_of_int clients in
        if gain < 10.0 then
          Fmt.failwith "E24: aggregation gain %.0fx below 10x" gain;
        (* churn: every client drops and re-imports the head of its
           slice; the last client then dies and one lease expiry drops
           its whole aggregate.  Run-slice pauses are sampled
           throughout. *)
        for c = 1 to clients do
          R.spawn_at rt ~space:c (fun () ->
              let sp = R.space rt c in
              let drop = min 1000 (slice / 2) in
              List.iteri
                (fun i h -> if i < drop then R.release sp h)
                held.(c);
              R.collect sp;
              held.(c) <- [];
              import c)
        done;
        let pauses = ref [] in
        let now = ref 6.3 in
        let t_evict = ref 0.0 in
        while !now < 12.0 do
          now := !now +. 0.25;
          let t = Unix.gettimeofday () in
          ignore (R.run ~until:!now rt);
          pauses := (Unix.gettimeofday () -. t) :: !pauses;
          if !now >= 8.0 && !t_evict = 0.0 then begin
            t_evict := !now;
            R.crash rt clients
          end
        done;
        if (R.gc_stats owner).R.evictions < slice then
          Fmt.failwith "E24: expected the dead client's %d entries dropped"
            slice;
        if R.lease_entries owner clients <> 0 then
          Fmt.failwith "E24: dead client still under lease";
        (match R.lease_check owner with
        | [] -> ()
        | p :: _ -> Fmt.failwith "E24: aggregates diverged after churn: %s" p);
        let p99 =
          let a = Array.of_list !pauses in
          Array.sort compare a;
          a.(min (Array.length a - 1) (Array.length a * 99 / 100))
        in
        row "%-10d %13d %15d %17.6f %9.0fx %10.2fms@." size bytes_per_handle
          pings beats gain (p99 *. 1e3);
        tick_wall)
      [ 10_000; 100_000 ]
  in
  (match tick_walls with
  | [ small; big ] ->
      row
        "@.lease tick wall: %.3fms at 10k vs %.3fms at 100k handles \
         (per-pair pings, not per-entry)@."
        (small *. 1e3) (big *. 1e3);
      (* a per-entry scheme would be ~25000x the small cost; allow wide
         noise while still catching any O(handles) regression *)
      if big > (10.0 *. small) +. 0.05 then
        Fmt.failwith
          "E24: lease tick cost grew with table size (%.4fs vs %.4fs)" big
          small
  | _ -> assert false)

(* ------------------------------------------------------------------ E25 *)

let m_step = Stub.declare "step" P.int P.int

(* End-to-end call reliability.  Part 1: chains of dependent calls (each
   link feeds the next) over a 10% lossy edge, bare vs with the
   reliability plane (retries + owner-side reply cache); the server's
   own execution counter is the at-most-once witness — with dedup armed
   it must never exceed the number of distinct calls the client issued,
   no matter how many retransmits the loss forced.  Part 2: a 64-caller
   herd against an owner whose method parks its serve fiber, with a
   4-slot inflight gate; shed calls must be rejected in O(RTT) — the
   gate runs before the target is even decoded — while admitted calls
   keep a bounded p99. *)
let e25_reliability () =
  section "E25: call reliability — retries under loss, shedding under overload";
  let chains = 40 and links = 10 in
  let lookup_retry sp ~at name =
    let rec go n =
      match R.lookup sp ~at name with
      | h -> h
      | exception R.Call_failed _ when n < 20 -> go (n + 1)
    in
    go 0
  in
  let run_lossy ~retries =
    let cfg =
      R.config ~seed:25L
        ~edge:(Net.bag_edge ~lo:0.01 ~hi:0.05 ())
        ~call_timeout:0.2 ~call_retries:retries ~pin_timeout:30.0 ~nspaces:2
        ()
    in
    let rt = R.create cfg in
    burst_everywhere rt ~loss:0.10 ();
    let owner = R.space rt 0 in
    let execs = ref 0 in
    let obj =
      R.allocate owner
        ~meths:
          [
            Stub.implement m_step (fun _ n ->
                incr execs;
                n + 1);
          ]
    in
    R.publish owner "step" obj;
    let sp = R.space rt 1 in
    let completed = ref 0 and distinct = ref 0 in
    R.spawn rt (fun () ->
        let h = lookup_retry sp ~at:0 "step" in
        for _ = 1 to chains do
          try
            let v = ref 0 in
            for _ = 1 to links do
              incr distinct;
              v := Stub.call sp h m_step !v
            done;
            incr completed
          with R.Call_failed _ -> ()
        done;
        R.release sp h);
    ignore (R.run rt);
    (* retries count at the client space, dedup hits at the owner *)
    ( !completed,
      !distinct,
      !execs,
      (R.call_stats sp).R.c_retried,
      (R.call_stats owner).R.c_deduped )
  in
  let base_done, base_distinct, base_execs, _, _ = run_lossy ~retries:0 in
  let rel_done, rel_distinct, rel_execs, retried, deduped =
    run_lossy ~retries:3
  in
  row "%-22s %10s %10s %10s %10s@." "10% loss, 40 chains" "complete"
    "calls" "execs" "dups";
  row "%-22s %10d %10d %10d %10d@." "bare (no retries)" base_done
    base_distinct base_execs
    (max 0 (base_execs - base_distinct));
  row "%-22s %10d %10d %10d %10d@." "retries=3 + dedup" rel_done rel_distinct
    rel_execs
    (max 0 (rel_execs - rel_distinct));
  row "client retries=%d, owner deduped=%d@." retried deduped;
  let gain = float_of_int rel_done /. float_of_int (max 1 base_done) in
  row "goodput gain: %.1fx@." gain;
  if gain < 5.0 then
    Fmt.failwith "E25: goodput gain %.1fx below 5x (bare %d, reliable %d)"
      gain base_done rel_done;
  if rel_execs > rel_distinct then
    Fmt.failwith "E25: duplicate executions: %d execs for %d distinct calls"
      rel_execs rel_distinct;
  if retried = 0 || deduped = 0 then
    Fmt.failwith "E25: loss run exercised no retransmit (%d) or dedup (%d)"
      retried deduped;
  (* Part 2: overload shedding. *)
  let cfg =
    R.config ~seed:26L
      ~edge:(Net.bag_edge ~lo:0.01 ~hi:0.02 ())
      ~call_timeout:5.0 ~max_inflight:4 ~nspaces:2 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 in
  let sched = R.sched rt in
  let obj =
    R.allocate owner
      ~meths:
        [
          Stub.implement m_step (fun _ n ->
              Sched.sleep sched 0.05;
              n + 1);
        ]
  in
  R.publish owner "busy" obj;
  let sp = R.space rt 1 in
  let ok_lat = ref [] and shed_lat = ref [] in
  R.spawn rt (fun () ->
      let h = lookup_retry sp ~at:0 "busy" in
      let herd = 64 in
      let left = ref herd in
      for _ = 1 to herd do
        R.spawn rt (fun () ->
            let t0 = Sched.now sched in
            (match Stub.call sp h m_step 0 with
            | _ -> ok_lat := (Sched.now sched -. t0) :: !ok_lat
            | exception R.Call_failed (Shed _) ->
                shed_lat := (Sched.now sched -. t0) :: !shed_lat
            | exception R.Call_failed _ -> ());
            decr left;
            if !left = 0 then R.release sp h)
      done);
  ignore (R.run rt);
  let st = R.call_stats owner in
  let p99 l =
    let a = Array.of_list l in
    Array.sort compare a;
    if Array.length a = 0 then 0.0
    else a.(min (Array.length a - 1) (Array.length a * 99 / 100))
  in
  let shed_p99 = p99 !shed_lat and ok_p99 = p99 !ok_lat in
  row
    "overload: herd=64 gate=4 — admitted=%d (p99 %.0fms) shed=%d (p99 \
     %.0fms)@."
    (List.length !ok_lat) (ok_p99 *. 1e3) st.R.c_shed (shed_p99 *. 1e3);
  if st.R.c_shed = 0 then Fmt.failwith "E25: inflight gate never shed";
  if List.length !shed_lat = 0 then
    Fmt.failwith "E25: no caller observed a shed";
  (* a shed is one round trip: the gate runs before the call is decoded *)
  if shed_p99 > 0.1 then
    Fmt.failwith "E25: shed rejection p99 %.3fs not O(RTT)" shed_p99;
  if ok_p99 > 0.5 then
    Fmt.failwith "E25: admitted p99 %.3fs unbounded under the gate" ok_p99

(* ------------------------------------------------------------------ main *)

let experiments =
  [
    ("race", e1_race);
    ("cube", e2_cube);
    ("invariants", e3_invariants);
    ("liveness", e4_liveness);
    ("family", e5_family);
    ("fifo", e6_fifo);
    ("owneropt", e7_owneropt);
    ("fault", e8_fault);
    ("rpc", e9_rpc);
    ("marshal", e10_marshal);
    ("transmit", e11_transmit);
    ("cleanchurn", e12_churn);
    ("ablation", e13_ablation);
    ("cycleleak", e14_cycles);
    ("scale", e15_scale);
    ("pool", e16_pool);
    ("chaos", e18_chaos);
    ("mc", e19_mc);
    ("recover", e20_recover);
    ("transport", e21_transport);
    ("par", e22_par);
    ("cycles", e23_cycle_churn);
    ("churn", e24_scale_churn);
    ("reliability", e25_reliability);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Fmt.epr "unknown experiment %s (have: %s)@." name
          (String.concat ", " (List.map fst experiments));
        exit 1
      end)
    requested;
  List.iter (fun name -> (List.assoc name experiments) ()) requested
