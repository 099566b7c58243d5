module R = Netobj_core.Runtime
module Store = Netobj_store.Store
module Stub = Netobj_core.Stub
module Wirerep = Netobj_core.Wirerep
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Sched = Netobj_sched.Sched
module Rng = Netobj_util.Rng
module P = Netobj_pickle.Pickle
module Workload = Netobj_dgc.Workload
module Obs = Netobj_obs.Obs
module Metrics = Netobj_obs.Metrics
module Trace = Netobj_obs.Trace

(* --- fault schedule ------------------------------------------------------- *)

type fault =
  | Partition of { a : int; b : int; duration : float }
  | Crash of { victim : int; downtime : float }
  | Crash_recover of { victim : int; downtime : float }
  | Disk_fault of { victim : int; fault : Store.fault }
  | Loss_burst of { src : int; dst : int; loss : float; duration : float }
  | Dup_burst of { src : int; dst : int; dup : float; duration : float }
  | Latency_spike of { src : int; dst : int; factor : float; duration : float }
  | Call_storm of { victim : int; callers : int; duration : float }

type event = { at : float; fault : fault }

let pp_disk_fault ppf = function
  | Store.Torn_tail -> Fmt.pf ppf "torn_tail"
  | Store.Lost_suffix -> Fmt.pf ppf "lost_suffix"
  | Store.Slow_fsync d -> Fmt.pf ppf "slow_fsync %.2fs" d

let pp_fault ppf = function
  | Partition { a; b; duration } ->
      Fmt.pf ppf "partition %d-%d for %.2fs" a b duration
  | Crash { victim; downtime } ->
      Fmt.pf ppf "crash %d for %.2fs" victim downtime
  | Crash_recover { victim; downtime } ->
      Fmt.pf ppf "crash+recover %d for %.2fs" victim downtime
  | Disk_fault { victim; fault } ->
      Fmt.pf ppf "disk fault %a at %d" pp_disk_fault fault victim
  | Loss_burst { src; dst; loss; duration } ->
      Fmt.pf ppf "loss %d->%d p=%.2f for %.2fs" src dst loss duration
  | Dup_burst { src; dst; dup; duration } ->
      Fmt.pf ppf "dup %d->%d p=%.2f for %.2fs" src dst dup duration
  | Latency_spike { src; dst; factor; duration } ->
      Fmt.pf ppf "spike %d->%d x%.1f for %.2fs" src dst factor duration
  | Call_storm { victim; callers; duration } ->
      Fmt.pf ppf "storm ->%d callers=%d for %.2fs" victim callers duration

let pp_event ppf e = Fmt.pf ppf "@%.2f %a" e.at pp_fault e.fault

(* JSON round trip for scripted nemeses, so a fault schedule (e.g. the
   one a model-checker counterexample ran under) can be exported and
   replayed with [run ?schedule]. *)
module Json = Netobj_obs.Json

let fault_to_json = function
  | Partition { a; b; duration } ->
      Json.Obj
        [
          ("kind", Json.Str "partition");
          ("a", Json.Int a);
          ("b", Json.Int b);
          ("duration", Json.Float duration);
        ]
  | Crash { victim; downtime } ->
      Json.Obj
        [
          ("kind", Json.Str "crash");
          ("victim", Json.Int victim);
          ("downtime", Json.Float downtime);
        ]
  | Crash_recover { victim; downtime } ->
      Json.Obj
        [
          ("kind", Json.Str "crash_recover");
          ("victim", Json.Int victim);
          ("downtime", Json.Float downtime);
        ]
  | Disk_fault { victim; fault } ->
      let fault_fields =
        match fault with
        | Store.Torn_tail -> [ ("fault", Json.Str "torn_tail") ]
        | Store.Lost_suffix -> [ ("fault", Json.Str "lost_suffix") ]
        | Store.Slow_fsync d ->
            [ ("fault", Json.Str "slow_fsync"); ("delay", Json.Float d) ]
      in
      Json.Obj
        (("kind", Json.Str "disk_fault") :: ("victim", Json.Int victim)
        :: fault_fields)
  | Loss_burst { src; dst; loss; duration } ->
      Json.Obj
        [
          ("kind", Json.Str "loss_burst");
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("loss", Json.Float loss);
          ("duration", Json.Float duration);
        ]
  | Dup_burst { src; dst; dup; duration } ->
      Json.Obj
        [
          ("kind", Json.Str "dup_burst");
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("dup", Json.Float dup);
          ("duration", Json.Float duration);
        ]
  | Latency_spike { src; dst; factor; duration } ->
      Json.Obj
        [
          ("kind", Json.Str "latency_spike");
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("factor", Json.Float factor);
          ("duration", Json.Float duration);
        ]
  | Call_storm { victim; callers; duration } ->
      Json.Obj
        [
          ("kind", Json.Str "call_storm");
          ("victim", Json.Int victim);
          ("callers", Json.Int callers);
          ("duration", Json.Float duration);
        ]

let event_to_json ev =
  Json.Obj [ ("at", Json.Float ev.at); ("fault", fault_to_json ev.fault) ]

let events_to_json evs = Json.List (List.map event_to_json evs)

type mix = {
  partitions : int;
  crashes : int;
  crash_recovers : int;
  disk_faults : int;
  loss_bursts : int;
  dup_bursts : int;
  spikes : int;
  storms : int;
}

let default_mix =
  {
    partitions = 3;
    crashes = 2;
    crash_recovers = 0;
    disk_faults = 0;
    loss_bursts = 3;
    dup_bursts = 2;
    spikes = 2;
    storms = 0;
  }

(* The runtime configuration the harness hardens against faults.  The
   oracle depends on these numbers: a registered-but-live client may be
   unreachable for up to [reachability_slack] seconds before the owner's
   lease ((lease_misses + 1) * ping_period + lease_grace = 4s) could
   legitimately evict it, so the schedule generator keeps each pair's
   fault windows shorter than that and separated by a cooldown. *)
let runtime_config ?(backoff = 2.0) ?(backoff_cap = 2.0)
    ?(backoff_jitter = 0.2) ?(durable = false) ?cycle_period ?call_retries
    ?max_inflight ~seed ~spaces () =
  R.config ~seed
    ~edge:(Net.bag_edge ~lo:0.01 ~hi:0.05 ())
    ~gc_period:0.4 ~ping_period:0.5 ~lease_misses:3 ~lease_grace:2.0
    ~call_timeout:3.0 ~dirty_timeout:3.0 ~clean_retry:0.3 ~dirty_retry:0.3
    ~backoff ~backoff_cap ~backoff_jitter ~pin_timeout:12.0 ~durable
    ~fsync_delay:0.02 ~snapshot_period:5.0 ~recover_grace:2.0 ?cycle_period
    ?call_retries ?max_inflight ~nspaces:spaces ()

let max_fault_duration = 2.5

let pair_cooldown = 5.0

let random_schedule ~seed ~spaces ~duration mix =
  let rng = Rng.create seed in
  let bag =
    List.concat
      [
        List.init mix.partitions (fun _ -> `P);
        List.init mix.crashes (fun _ -> `C);
        List.init mix.loss_bursts (fun _ -> `L);
        List.init mix.dup_bursts (fun _ -> `D);
        List.init mix.spikes (fun _ -> `S);
        (* New kinds append after the legacy ones so that mixes without
           them draw the same shuffled bag as before. *)
        List.init mix.crash_recovers (fun _ -> `R);
        List.init mix.disk_faults (fun _ -> `F);
        List.init mix.storms (fun _ -> `O);
      ]
  in
  let bag = Array.of_list bag in
  Rng.shuffle rng bag;
  let hi = Float.max 0.7 (duration -. max_fault_duration) in
  let times =
    Array.init (Array.length bag) (fun _ -> 0.6 +. (Rng.float rng *. (hi -. 0.6)))
  in
  Array.sort compare times;
  (* Reachability bookkeeping: a pair may suffer a new
     connectivity-threatening fault (partition, loss burst, crash of an
     endpoint) only after the previous one's window plus cooldown, so
     cumulative unreachability never outruns the lease. *)
  let pair_busy = Hashtbl.create 16 in
  let space_busy = Hashtbl.create 8 in
  let pkey a b = (min a b, max a b) in
  let pair_free at a b =
    Option.value ~default:neg_infinity (Hashtbl.find_opt pair_busy (pkey a b))
    <= at
  in
  let claim_pair at a b d =
    Hashtbl.replace pair_busy (pkey a b) (at +. d +. pair_cooldown)
  in
  let all_pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None)
          (List.init spaces Fun.id))
      (List.init spaces Fun.id)
  in
  let events = ref [] in
  Array.iteri
    (fun i kind ->
      let at = times.(i) in
      let d = 0.5 +. (Rng.float rng *. (max_fault_duration -. 0.5)) in
      let free_pairs = List.filter (fun (a, b) -> pair_free at a b) all_pairs in
      let directed (a, b) = if Rng.bool rng then (a, b) else (b, a) in
      match kind with
      | `P -> (
          match free_pairs with
          | [] -> ()
          | ps ->
              let a, b = Rng.pick rng ps in
              claim_pair at a b d;
              events := { at; fault = Partition { a; b; duration = d } } :: !events)
      | `C -> (
          let candidates =
            List.filter
              (fun v ->
                Option.value ~default:neg_infinity
                  (Hashtbl.find_opt space_busy v)
                <= at
                && List.for_all
                     (fun u -> u = v || pair_free at u v)
                     (List.init spaces Fun.id))
              (List.init spaces Fun.id)
          in
          match candidates with
          | [] -> ()
          | vs ->
              let v = Rng.pick rng vs in
              Hashtbl.replace space_busy v (at +. d +. pair_cooldown);
              List.iter (fun u -> if u <> v then claim_pair at u v d)
                (List.init spaces Fun.id);
              events := { at; fault = Crash { victim = v; downtime = d } } :: !events)
      | `R -> (
          (* Same reachability accounting as an amnesia crash: the victim
             is unreachable from everyone for the downtime window. *)
          let candidates =
            List.filter
              (fun v ->
                Option.value ~default:neg_infinity
                  (Hashtbl.find_opt space_busy v)
                <= at
                && List.for_all
                     (fun u -> u = v || pair_free at u v)
                     (List.init spaces Fun.id))
              (List.init spaces Fun.id)
          in
          match candidates with
          | [] -> ()
          | vs ->
              let v = Rng.pick rng vs in
              Hashtbl.replace space_busy v (at +. d +. pair_cooldown);
              List.iter (fun u -> if u <> v then claim_pair at u v d)
                (List.init spaces Fun.id);
              events :=
                { at; fault = Crash_recover { victim = v; downtime = d } }
                :: !events)
      | `F ->
          (* Arming a disk fault threatens nobody's reachability; it only
             shapes what the next crash of the victim loses. *)
          let victim = Rng.int rng spaces in
          let fault =
            match Rng.int rng 3 with
            | 0 -> Store.Lost_suffix
            | 1 -> Store.Torn_tail
            | _ -> Store.Slow_fsync (0.02 +. (Rng.float rng *. 0.08))
          in
          events := { at; fault = Disk_fault { victim; fault } } :: !events
      | `L -> (
          match free_pairs with
          | [] -> ()
          | ps ->
              let a, b = Rng.pick rng ps in
              claim_pair at a b d;
              let src, dst = directed (a, b) in
              let loss = 0.5 +. (Rng.float rng *. 0.4) in
              events := { at; fault = Loss_burst { src; dst; loss; duration = d } } :: !events)
      | `D ->
          let src, dst = directed (Rng.pick rng all_pairs) in
          let dup = 0.3 +. (Rng.float rng *. 0.5) in
          events := { at; fault = Dup_burst { src; dst; dup; duration = d } } :: !events
      | `S ->
          let src, dst = directed (Rng.pick rng all_pairs) in
          let factor = 2.0 +. (Rng.float rng *. 6.0) in
          events :=
            { at; fault = Latency_spike { src; dst; factor; duration = d } } :: !events
      | `O ->
          (* A storm threatens nobody's reachability — the victim stays
             up, just busy shedding — so no pair/space claims. *)
          let victim = Rng.int rng spaces in
          let callers = 8 + Rng.int rng 25 in
          events :=
            { at; fault = Call_storm { victim; callers; duration = d } }
            :: !events)
    bag;
  List.sort (fun e1 e2 -> compare e1.at e2.at) !events

(* --- configuration --------------------------------------------------------- *)

type cfg = {
  seed : int64;
  spaces : int;
  duration : float;
  objects : int;  (** published counters per space *)
  events : int;  (** churn operations per mutator *)
  cycles : int;  (** cross-space reference cycles minted per space *)
  mix : mix;
  drain_limit : float;
  backoff : float;
  backoff_cap : float;
  backoff_jitter : float;
}

let default =
  {
    seed = 1L;
    spaces = 3;
    duration = 20.0;
    objects = 2;
    events = 40;
    cycles = 0;
    mix = default_mix;
    drain_limit = 60.0;
    backoff = 2.0;
    backoff_cap = 2.0;
    backoff_jitter = 0.2;
  }

(* --- report ----------------------------------------------------------------- *)

type report = {
  r_seed : int64;
  r_spaces : int;
  r_end_time : float;
  r_faults : (string * int) list;
  r_ops_ok : int;
  r_ops_timeout : int;
  r_ops_error : int;
  r_orphans : int;
  r_retries : int;
  r_epoch_rejections : int;
  r_evictions : int;
  r_safety : string list;
  r_liveness : string list;
  r_drain_time : float option;
}

let survived r = r.r_safety = [] && r.r_liveness = []

let pp_report ppf r =
  Fmt.pf ppf "chaos seed=%Ld spaces=%d end=%.2f@." r.r_seed r.r_spaces
    r.r_end_time;
  Fmt.pf ppf "faults:%a@."
    (fun ppf fs ->
      if fs = [] then Fmt.pf ppf " none"
      else List.iter (fun (k, n) -> Fmt.pf ppf " %s=%d" k n) fs)
    r.r_faults;
  Fmt.pf ppf "ops: ok=%d timeout=%d error=%d orphans=%d@." r.r_ops_ok
    r.r_ops_timeout r.r_ops_error r.r_orphans;
  Fmt.pf ppf "protocol: retries=%d epoch_rejections=%d evictions=%d@."
    r.r_retries r.r_epoch_rejections r.r_evictions;
  match r.r_drain_time with
  | Some t -> Fmt.pf ppf "drain: converged in %.2fs@." t
  | None -> Fmt.pf ppf "drain: DID NOT CONVERGE@."

let finish r =
  let v = Scenario.verdict () in
  Scenario.report v
    (List.map (( ^ ) "safety: ") r.r_safety
    @ List.map (( ^ ) "liveness: ") r.r_liveness);
  Scenario.finish v

(* --- harness state ---------------------------------------------------------- *)

(* Ground truth for the safety oracle: every object minted through a
   factory, who owns it (and in which incarnation), and which clients
   currently hold a usable reference (and in which of {e their}
   incarnations).  A holder whose space restarted no longer counts — its
   heap died with the old incarnation. *)
type orphan_rec = {
  o_wr : Wirerep.t;
  o_owner : int;
  o_mint_epoch : int;
  mutable o_holders : (int * int) list;  (* client space, client epoch *)
  mutable o_flagged : bool;
}

type ctx = {
  rt : R.t;
  tr : Transport.t;
  sched : Sched.t;
  cfg : cfg;
  storms_armed : bool;
  stop : bool ref;
  mutable mutators_done : int;
  mutable ops_ok : int;
  mutable ops_timeout : int;
  mutable ops_error : int;
  mutable orphans_minted : int;
  fault_counts : (string, int ref) Hashtbl.t;
  mutable violations : string list;  (* newest first *)
  mutable orphans : orphan_rec list;
}

let bump ctx k =
  (match Hashtbl.find_opt ctx.fault_counts k with
  | Some r -> incr r
  | None -> Hashtbl.add ctx.fault_counts k (ref 1));
  Metrics.incr (Metrics.counter Metrics.global ("chaos." ^ k))

(* A reply that does not decode is counted wherever a call fails, by
   the callers that tolerate every other failure too (see
   [classify_failure]). *)
let tolerate ctx = function
  | R.Undecodable_reply _ -> bump ctx "undecodable_replies"
  | _ -> ()

let violate ctx fmt =
  Fmt.kstr
    (fun s ->
      ctx.violations <- s :: ctx.violations;
      bump ctx "violations";
      if Obs.on () then
        Trace.instant (Obs.trace ()) ~cat:"chaos" ~space:0
          ~args:[ ("what", Trace.S s) ]
          "violation")
    fmt

(* --- shared interface -------------------------------------------------------- *)

let m_make = Stub.declare "make" P.unit R.handle_codec

(* The factory mints an object and releases its own root {e before} the
   reply is encoded: from that instant the only thing keeping the object
   alive is the reply's transient dirty pin, until the client's dirty
   call lands and its copy_ack releases the pin.  This is the narrowest
   transfer window the protocol protects, run deliberately under fault
   injection. *)
let factory_meths () =
  [
    Stub.implement m_make (fun sp () ->
        let h = Scenario.counter ~tag:"counter" sp in
        R.release sp h;
        h);
  ]

let counter_name s i = Printf.sprintf "c%d.%d" s i

let factory_name s = Printf.sprintf "f%d" s

(* The storm target: a method that holds its serve fiber for a while, so
   a herd of concurrent callers genuinely overlaps at the owner and the
   inflight admission gate has something to shed.  An instant method
   would finish each serve before the next delivery fiber runs and never
   overlap. *)
let m_slow = Stub.declare "slow" P.int P.int

let slow_meths sched () =
  [
    Stub.implement m_slow (fun _ n ->
        Sched.sleep sched 0.05;
        n);
  ]

let slow_name s = Printf.sprintf "slow%d" s

(* --- cycle workload ----------------------------------------------------------- *)

(* Nodes are linkable objects for the cycle-churn workload: [set_peer]
   stores the argument in a slot of the node itself, so two nodes on
   different spaces that point at each other form exactly the
   cross-space cycle the listing collector leaks and the trial-deletion
   detector exists to reclaim. *)
let m_make_node = Stub.declare "make_node" P.unit R.handle_codec

let node_make sp = Scenario.node ~tag:"node" sp

(* Behaviour re-attached to nodes that crossed a durable recovery: the
   self-handle cannot be recovered into the closure, so [set_peer]
   degrades to releasing the argument — the node's {e existing} links
   were already restored from the WAL, which is what the cycle workload
   relies on. *)
let recovered_node_meths () =
  [ Stub.implement Scenario.m_set_peer (fun sp h -> R.release sp h) ]

(* Like the orphan factory: the mint's own root is released before the
   reply is encoded, so the transfer rides the transient pin alone. *)
let node_factory_meths () =
  [
    Stub.implement m_make_node (fun sp () ->
        let h = node_make sp in
        R.release sp h;
        h);
  ]

let node_factory_name s = Printf.sprintf "nf%d" s

(* Allocations are tagged with their method-suite factory so a durable
   recovery can re-attach behaviour to the recovered table entries; the
   counters' payload (the int) restarts at zero, which the harness never
   observes. *)
let setup ctx =
  R.register_factory ctx.rt "counter" Scenario.counter_meths;
  R.register_factory ctx.rt "chaos-factory" factory_meths;
  for s = 0 to ctx.cfg.spaces - 1 do
    let sp = R.space ctx.rt s in
    for i = 0 to ctx.cfg.objects - 1 do
      R.publish sp (counter_name s i) (Scenario.counter ~tag:"counter" sp)
    done;
    R.publish sp (factory_name s)
      (R.allocate ~tag:"chaos-factory" sp ~meths:(factory_meths ()))
  done;
  (* Storm targets are strictly additive: without storms in the mix (or
     a scripted schedule) nothing extra is published and legacy seeds
     replay byte-identically. *)
  if ctx.storms_armed then begin
    R.register_factory ctx.rt "chaos-slow" (slow_meths ctx.sched);
    for s = 0 to ctx.cfg.spaces - 1 do
      let sp = R.space ctx.rt s in
      R.publish sp (slow_name s)
        (R.allocate ~tag:"chaos-slow" sp ~meths:(slow_meths ctx.sched ()))
    done
  end;
  (* The cycle workload is strictly additive: with [cycles = 0] no node
     factory exists, no cycler runs and no extra rng is drawn, so legacy
     seeds replay byte-identically. *)
  if ctx.cfg.cycles > 0 then begin
    R.register_factory ctx.rt "node" recovered_node_meths;
    R.register_factory ctx.rt "chaos-node-factory" node_factory_meths;
    for s = 0 to ctx.cfg.spaces - 1 do
      let sp = R.space ctx.rt s in
      R.publish sp (node_factory_name s)
        (R.allocate ~tag:"chaos-node-factory" sp ~meths:(node_factory_meths ()))
    done
  end

(* --- nemesis ----------------------------------------------------------------- *)

(* A recorded holder (client space, epoch-at-acquisition) still counts
   if the client is up and its continuity floor reaches back to that
   epoch: an amnesia restart raises the floor past it (the heap died),
   but a durable recovery keeps the floor, so recovered roots remain
   binding ground truth. *)
let live_holders ctx o =
  List.filter
    (fun (c, e) ->
      (not (Transport.is_crashed ctx.tr c)) && R.cont (R.space ctx.rt c) <= e)
    o.o_holders

let apply_fault ctx ev =
  let sched = ctx.sched in
  if Obs.on () then
    Trace.instant (Obs.trace ()) ~cat:"chaos" ~space:0
      ~args:[ ("fault", Trace.S (Fmt.str "%a" pp_fault ev.fault)) ]
      "chaos_fault";
  match ev.fault with
  | Partition { a; b; duration } ->
      if not (Transport.partitioned ctx.tr a b) then begin
        Transport.set_partitioned ctx.tr a b true;
        bump ctx "partitions";
        Sched.spawn sched ~name:(Printf.sprintf "heal-%d-%d" a b) (fun () ->
            Sched.sleep sched duration;
            if Transport.partitioned ctx.tr a b then begin
              Transport.set_partitioned ctx.tr a b false;
              bump ctx "heals"
            end)
      end
  | Crash { victim; downtime } ->
      if not (Transport.is_crashed ctx.tr victim) then begin
        R.crash ctx.rt victim;
        bump ctx "crashes";
        Sched.spawn sched ~name:(Printf.sprintf "restart-%d" victim) (fun () ->
            Sched.sleep sched downtime;
            if Transport.is_crashed ctx.tr victim then begin
              R.restart ctx.rt victim;
              bump ctx "restarts"
            end)
      end
  | Crash_recover { victim; downtime } ->
      if
        (not (Transport.is_crashed ctx.tr victim))
        && R.durable (R.space ctx.rt victim)
      then begin
        R.crash ctx.rt victim;
        bump ctx "crash_recovers";
        Sched.spawn sched ~name:(Printf.sprintf "recover-%d" victim) (fun () ->
            Sched.sleep sched downtime;
            if Transport.is_crashed ctx.tr victim then begin
              R.recover ctx.rt victim;
              bump ctx "recoveries";
              (* Survival oracle: everything reachable from a live root
                 at the moment of the crash must still be resident after
                 recovery — the owner's commit-before-externalize barrier
                 guarantees a held reference implies a durable export. *)
              let osp = R.space ctx.rt victim in
              List.iter
                (fun o ->
                  if
                    o.o_owner = victim && (not o.o_flagged)
                    && R.cont osp <= o.o_mint_epoch
                    && live_holders ctx o <> []
                  then begin
                    bump ctx "survival_checks";
                    if not (R.resident osp o.o_wr) then begin
                      o.o_flagged <- true;
                      violate ctx
                        "survival: %d.%d held but lost across recovery of %d"
                        o.o_wr.Wirerep.space o.o_wr.Wirerep.index victim
                    end
                  end)
                ctx.orphans
            end)
      end
  | Disk_fault { victim; fault } ->
      if R.durable (R.space ctx.rt victim) then begin
        R.set_disk_fault ctx.rt victim (Some fault);
        bump ctx "disk_faults"
      end
  | Loss_burst { src; dst; loss; duration } ->
      Transport.set_burst ctx.tr ~src ~dst ~loss
        ~until:(Sched.now sched +. duration)
        ();
      bump ctx "loss_bursts"
  | Dup_burst { src; dst; dup; duration } ->
      Transport.set_burst ctx.tr ~src ~dst ~dup
        ~until:(Sched.now sched +. duration)
        ();
      bump ctx "dup_bursts"
  | Latency_spike { src; dst; factor; duration } ->
      Transport.set_latency_spike ctx.tr ~src ~dst ~factor
        ~until:(Sched.now sched +. duration);
      bump ctx "latency_spikes"
  | Call_storm { victim; callers; duration } ->
      (* Overload, not connectivity: a herd of short-lived callers hammers
         one of the victim's published counters in a tight loop, driving
         its inflight gate into shedding while the ordinary mutators
         keep running.  Callers originate round-robin at the
         other spaces, tolerate every failure, and release what they
         looked up when the window closes. *)
      if not (Transport.is_crashed ctx.tr victim) then begin
        bump ctx "storms";
        let until = Sched.now sched +. duration in
        for i = 0 to callers - 1 do
          let s =
            (victim + 1 + (i mod (ctx.cfg.spaces - 1))) mod ctx.cfg.spaces
          in
          R.spawn ctx.rt
            ~name:(Printf.sprintf "storm-%d-%d" victim i)
            (fun () ->
              let sp = R.space ctx.rt s in
              if not (Transport.is_crashed ctx.tr s) then
                match R.lookup sp ~at:victim (slow_name victim) with
                | h ->
                    let rec hammer () =
                      if
                        (not !(ctx.stop))
                        && Sched.now sched < until
                        && not (Transport.is_crashed ctx.tr s)
                      then begin
                        let t0 = Sched.now sched in
                        (try ignore (Stub.call sp h m_slow 1)
                         with R.Call_failed f -> tolerate ctx f);
                        (* A call that returns without the clock moving
                           failed at once (a dangling handle): calling
                           again would fail the same way, forever. *)
                        if Sched.now sched > t0 then hammer ()
                      end
                    in
                    hammer ();
                    (try R.release sp h with _ -> ())
                | exception R.Call_failed f -> tolerate ctx f)
        done
      end

let nemesis ctx schedule () =
  List.iter
    (fun ev ->
      if not !(ctx.stop) then begin
        let now = Sched.now ctx.sched in
        if ev.at > now then Sched.sleep ctx.sched (ev.at -. now);
        if not !(ctx.stop) then apply_fault ctx ev
      end)
    schedule

(* --- mutators ---------------------------------------------------------------- *)

type item = {
  ih : R.handle;
  iowner : int;
  imint : int;  (* owner epoch when acquired *)
  ihold : int;  (* our own epoch when acquired *)
  irec : orphan_rec option;
}

let remove_holder it s =
  match it.irec with
  | None -> ()
  | Some o ->
      let rec rm = function
        | [] -> []
        | (c, e) :: rest when c = s && e = it.ihold -> rest
        | h :: rest -> h :: rm rest
      in
      o.o_holders <- rm o.o_holders

(* Classify a failed operation, on a held reference when [it] is given.
   Timeouts are always legitimate (crash, partition, loss).  An overload
   shed says nothing about the object's existence — the owner rejected
   the call before even decoding the target — so it counts with the
   timeouts.  A reply that does not decode is counted apart: with no
   adversary that corrupts bytes, it can only be another call's reply.
   Any other failure is legitimate if the caller's own incarnation was
   reset under the call (a restart, or a recovery that keeps the
   continuity floor), or if one of the incarnations involved moved: if
   both the caller and the owner are up and in the same epochs as when
   the reference was acquired, the object cannot have disappeared —
   that is the safety property under test. *)
let classify_failure ctx s it (f : R.failure) =
  match f with
  | No_reply _ | Dirty_timeout ->
      ctx.ops_timeout <- ctx.ops_timeout + 1;
      bump ctx "ops_timeout"
  | Shed _ ->
      ctx.ops_timeout <- ctx.ops_timeout + 1;
      bump ctx "sheds"
  | _ -> (
      ctx.ops_error <- ctx.ops_error + 1;
      bump ctx "ops_error";
      match (f, it) with
      | Undecodable_reply _, _ -> tolerate ctx f
      | (Caller_crashed | Caller_restarted _), _ | _, None -> ()
      | _, Some it ->
          let sp = R.space ctx.rt s in
          let osp = R.space ctx.rt it.iowner in
          if
            (not (Transport.is_crashed ctx.tr s))
            && R.cont sp <= it.ihold
            && (not (Transport.is_crashed ctx.tr it.iowner))
            && R.cont osp <= it.imint
          then
            let wr = R.wirerep it.ih in
            violate ctx
              "space %d: held object %d.%d vanished with owner %d alive \
               (epoch %d): %a"
              s wr.Wirerep.space wr.Wirerep.index it.iowner it.imint
              R.pp_failure f)

let mutator ctx s ops () =
  let sp = R.space ctx.rt s in
  let rng =
    Rng.create (Int64.add ctx.cfg.seed (Int64.of_int ((s * 977) + 0x51ed)))
  in
  let held = ref [] in
  let my_epoch = ref (R.epoch sp) in
  let sync_epoch () =
    let e = R.epoch sp in
    if e <> !my_epoch then begin
      (* Our incarnation moved under us.  An amnesia restart raised the
         continuity floor past our epoch: the old heap died, forget the
         handles.  A durable recovery kept the floor: the roots were
         recovered with the image, so keep holding (and eventually
         releasing) them. *)
      if R.cont sp > !my_epoch then begin
        List.iter (fun it -> remove_holder it s) !held;
        held := []
      end;
      my_epoch := e
    end
  in
  let ok () =
    ctx.ops_ok <- ctx.ops_ok + 1;
    bump ctx "ops_ok"
  in
  let release_item it =
    remove_holder it s;
    R.release sp it.ih
  in
  let other_space () =
    let r = Rng.int rng (ctx.cfg.spaces - 1) in
    if r >= s then r + 1 else r
  in
  let import () =
    let t = other_space () in
    if not (Transport.is_crashed ctx.tr t) then begin
      let osp = R.space ctx.rt t in
      let epoch_before = R.epoch osp in
      let mint_orphan = Rng.int rng 2 = 0 in
      let acquire () =
        if mint_orphan then begin
          let f = R.lookup sp ~at:t (factory_name t) in
          let res =
            try Ok (Stub.call sp f m_make ()) with e -> Error e
          in
          (try R.release sp f with _ -> ());
          match res with Ok h -> h | Error e -> raise e
        end
        else R.lookup sp ~at:t (counter_name t (Rng.int rng ctx.cfg.objects))
      in
      match acquire () with
      | h ->
          (* Record ground truth only if the owner's incarnation was
             stable across the acquisition — otherwise the reference may
             already be dead, and wirerep indices of the new incarnation
             alias the old one's. *)
          if R.epoch osp = epoch_before && R.resident sp (R.wirerep h) then begin
            let irec =
              if mint_orphan then begin
                ctx.orphans_minted <- ctx.orphans_minted + 1;
                bump ctx "orphans";
                let o =
                  {
                    o_wr = R.wirerep h;
                    o_owner = t;
                    o_mint_epoch = epoch_before;
                    o_holders = [ (s, !my_epoch) ];
                    o_flagged = false;
                  }
                in
                ctx.orphans <- o :: ctx.orphans;
                Some o
              end
              else None
            in
            held :=
              { ih = h; iowner = t; imint = epoch_before; ihold = !my_epoch;
                irec }
              :: !held;
            ok ()
          end
          else (try R.release sp h with _ -> ())
      | exception R.Call_failed f -> classify_failure ctx s None f
    end
  in
  let poke () =
    match !held with
    | [] -> ()
    | items -> (
        let it = List.nth items (Rng.int rng (List.length items)) in
        match Stub.call sp it.ih Scenario.m_incr 1 with
        | _ -> ok ()
        | exception R.Call_failed ((No_reply _ | Dirty_timeout) as f) ->
            (* a timeout: the reference may still be good *)
            classify_failure ctx s (Some it) f
        | exception R.Call_failed f ->
            classify_failure ctx s (Some it) f;
            (* Any other failure leaves the reference unusable: drop it
               so the heap can converge. *)
            sync_epoch ();
            if List.memq it !held then begin
              held := List.filter (fun x -> x != it) !held;
              try release_item it with _ -> ()
            end)
  in
  let drop () =
    match !held with
    | [] -> ()
    | items ->
        let it = List.nth items (Rng.int rng (List.length items)) in
        held := List.filter (fun x -> x != it) !held;
        (try release_item it with _ -> ())
  in
  (* Pace the stream over the whole chaos window (the generator emits
     fewer ops than [events] when a draw has no eligible source), so the
     late faults still hit live traffic. *)
  let op_gap = ctx.cfg.duration /. float_of_int (max 1 (List.length ops)) in
  List.iter
    (fun op ->
      if not !(ctx.stop) then begin
        sync_epoch ();
        if not (Transport.is_crashed ctx.tr s) then
          (match op with
          | Workload.Send (0, _) -> import ()
          | Workload.Send (_, _) -> poke ()
          | Workload.Drop _ -> drop ()
          | Workload.Steps n ->
              Sched.sleep ctx.sched (0.01 *. float_of_int n));
        Sched.sleep ctx.sched op_gap
      end)
    ops;
  (* Teardown: release everything we still hold so the system can drain
     to the empty ground truth. *)
  sync_epoch ();
  if not (Transport.is_crashed ctx.tr s) then
    List.iter (fun it -> try release_item it with _ -> ()) !held;
  held := [];
  ctx.mutators_done <- ctx.mutators_done + 1

(* --- cycle churn --------------------------------------------------------------- *)

(* One cycler per space: mint [cfg.cycles] two-node cross-space cycles
   over the chaos window, dropping half of them immediately (garbage the
   moment the roots go — the detector demon must reclaim them {e during}
   the faults) and holding the rest until teardown (the continuous
   safety checker must see them survive every trial while rooted).  Both
   halves are recorded as ground-truth orphans, so the drain oracle's
   "unreachable but not reclaimed" clause demands that every isolated
   cycle is eventually reclaimed — the liveness half of the detector's
   contract. *)
let cycler ctx s n () =
  let sp = R.space ctx.rt s in
  let rng =
    Rng.create (Int64.add ctx.cfg.seed (Int64.of_int ((s * 613) + 0x2c97)))
  in
  let held = ref [] in
  let my_epoch = ref (R.epoch sp) in
  let sync_epoch () =
    let e = R.epoch sp in
    if e <> !my_epoch then begin
      if R.cont sp > !my_epoch then begin
        List.iter (fun it -> remove_holder it s) !held;
        held := []
      end;
      my_epoch := e
    end
  in
  let release_item it =
    remove_holder it s;
    try R.release sp it.ih with _ -> ()
  in
  let record h owner mint_epoch =
    ctx.orphans_minted <- ctx.orphans_minted + 1;
    let o =
      {
        o_wr = R.wirerep h;
        o_owner = owner;
        o_mint_epoch = mint_epoch;
        o_holders = [ (s, !my_epoch) ];
        o_flagged = false;
      }
    in
    ctx.orphans <- o :: ctx.orphans;
    { ih = h; iowner = owner; imint = mint_epoch; ihold = !my_epoch;
      irec = Some o }
  in
  let mint () =
    let t =
      let r = Rng.int rng (ctx.cfg.spaces - 1) in
      if r >= s then r + 1 else r
    in
    if not (Transport.is_crashed ctx.tr t) then begin
      let osp = R.space ctx.rt t in
      let t_epoch = R.epoch osp in
      let acquire () =
        let f = R.lookup sp ~at:t (node_factory_name t) in
        let res = try Ok (Stub.call sp f m_make_node ()) with e -> Error e in
        (try R.release sp f with _ -> ());
        match res with Ok h -> h | Error e -> raise e
      in
      match acquire () with
      | nr ->
          if R.epoch osp = t_epoch && R.resident sp (R.wirerep nr) then begin
            let nl = node_make sp in
            let items = [ record nl s !my_epoch; record nr t t_epoch ] in
            (* forward edge locally, back edge through the wire *)
            R.link sp ~parent:nl ~child:nr;
            (try Stub.call sp nr Scenario.m_set_peer nl
             with R.Call_failed f -> tolerate ctx f);
            bump ctx "cycles";
            sync_epoch ();
            if Rng.int rng 2 = 0 then
              (* instant garbage: only the detector can reclaim it *)
              List.iter release_item items
            else held := items @ !held
          end
          else (try R.release sp nr with _ -> ())
      | exception R.Call_failed f -> tolerate ctx f
    end
  in
  let gap = ctx.cfg.duration /. float_of_int (max 1 n) in
  for _ = 1 to n do
    if not !(ctx.stop) then begin
      sync_epoch ();
      if not (Transport.is_crashed ctx.tr s) then mint ();
      Sched.sleep ctx.sched gap
    end
  done;
  sync_epoch ();
  if not (Transport.is_crashed ctx.tr s) then
    List.iter (fun it -> try release_item it with _ -> ()) !held;
  held := [];
  ctx.mutators_done <- ctx.mutators_done + 1

(* --- safety checker ----------------------------------------------------------- *)

(* The direct safety oracle: while an object's owner carries the state
   of the incarnation that minted it (same epoch, or a later one whose
   continuity floor reaches back — i.e. durable recoveries only), and
   some client incarnation still holds it, the owner must not have
   reclaimed it.  Runs continuously, not just at quiescence. *)
let check_residency ctx =
  List.iter
    (fun o ->
      if not o.o_flagged then begin
        let osp = R.space ctx.rt o.o_owner in
        if
          (not (Transport.is_crashed ctx.tr o.o_owner))
          && R.cont osp <= o.o_mint_epoch
          && live_holders ctx o <> []
          && not (R.resident osp o.o_wr)
        then begin
          o.o_flagged <- true;
          violate ctx "premature collection: %d.%d held but reclaimed at %.2f"
            o.o_wr.Wirerep.space o.o_wr.Wirerep.index (Sched.now ctx.sched)
        end
      end)
    ctx.orphans

let checker ctx () =
  let rec loop () =
    if not !(ctx.stop) then begin
      Sched.sleep ctx.sched 0.25;
      check_residency ctx;
      loop ()
    end
  in
  loop ()

(* --- drain oracle -------------------------------------------------------------- *)

(* Convergence to ground truth after the faults stop and every mutator
   released: the kit's drain oracle (no fiber died, no surrogate anywhere
   — so no dirty entry anywhere — and no protocol invariant violated),
   plus every minted object reclaimed by its owner.  Returns [] when
   converged. *)
let drain_oracle ctx =
  Scenario.drain_problems ctx.rt
  @ List.filter_map
      (fun o ->
        let osp = R.space ctx.rt o.o_owner in
        if
          R.cont osp <= o.o_mint_epoch
          && live_holders ctx o = []
          && R.resident osp o.o_wr
        then
          Some
            (Printf.sprintf "orphan %d.%d unreachable but not reclaimed"
               o.o_wr.Wirerep.space o.o_wr.Wirerep.index)
        else None)
      ctx.orphans

(* --- the run ------------------------------------------------------------------- *)

let run ?schedule cfg =
  if cfg.spaces < 2 then invalid_arg "Chaos.run: need at least two spaces";
  (* Spaces are durable exactly when the run can exercise recovery —
     either through the mix or through a scripted schedule. *)
  let durable =
    cfg.mix.crash_recovers > 0
    || cfg.mix.disk_faults > 0
    ||
    match schedule with
    | None -> false
    | Some s ->
        List.exists
          (fun ev ->
            match ev.fault with
            | Crash_recover _ | Disk_fault _ -> true
            | _ -> false)
          s
  in
  (* With storms in play the run arms the call-reliability plane — a
     bounded inflight gate small enough for a herd to saturate, and
     retries so the shed mutator traffic recovers.  Strictly additive:
     at [storms = 0] the config is identical to builds without the
     storm fault and legacy seeds replay byte-identically. *)
  let storms_armed =
    cfg.mix.storms > 0
    ||
    match schedule with
    | None -> false
    | Some s ->
        List.exists
          (fun ev -> match ev.fault with Call_storm _ -> true | _ -> false)
          s
  in
  let rcfg =
    runtime_config ~backoff:cfg.backoff ~backoff_cap:cfg.backoff_cap
      ~backoff_jitter:cfg.backoff_jitter ~durable
      ?cycle_period:(if cfg.cycles > 0 then Some 0.7 else None)
      ?call_retries:(if storms_armed then Some 2 else None)
      ?max_inflight:(if storms_armed then Some 8 else None)
      ~seed:cfg.seed ~spaces:cfg.spaces ()
  in
  let rt = R.create rcfg in
  let ctx =
    {
      rt;
      tr = R.transport rt;
      sched = R.sched rt;
      cfg;
      storms_armed;
      stop = ref false;
      mutators_done = 0;
      ops_ok = 0;
      ops_timeout = 0;
      ops_error = 0;
      orphans_minted = 0;
      fault_counts = Hashtbl.create 16;
      violations = [];
      orphans = [];
    }
  in
  setup ctx;
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
        random_schedule
          ~seed:(Int64.logxor cfg.seed 0x6b8b4567L)
          ~spaces:cfg.spaces ~duration:cfg.duration cfg.mix
  in
  for s = 0 to cfg.spaces - 1 do
    let ops =
      Workload.churn_ops ~procs:2 ~events:cfg.events
        ~seed:(Int64.add cfg.seed (Int64.of_int ((s * 131) + 7)))
        ()
    in
    R.spawn rt ~name:(Printf.sprintf "mutator-%d" s) (mutator ctx s ops)
  done;
  if cfg.cycles > 0 then
    for s = 0 to cfg.spaces - 1 do
      R.spawn rt
        ~name:(Printf.sprintf "cycler-%d" s)
        (cycler ctx s cfg.cycles)
    done;
  R.spawn rt ~name:"nemesis" (nemesis ctx schedule);
  R.spawn rt ~name:"checker" (checker ctx);
  (* Chaos phase: mutators churn references while the nemesis injects
     faults, on a bounded clock (the periodic demons never go idle). *)
  ignore (R.run ~until:cfg.duration rt);
  ctx.stop := true;
  (* Quiesce: heal every partition, restart whoever is still down, then
     let the mutators notice the stop flag, finish their in-flight
     operation (bounded by the call timeout) and release what they hold. *)
  Transport.heal_all ctx.tr;
  for i = 0 to cfg.spaces - 1 do
    if Transport.is_crashed ctx.tr i then
      if durable then begin
        R.recover rt i;
        bump ctx "recoveries"
      end
      else begin
        R.restart rt i;
        bump ctx "restarts"
      end
  done;
  let quiesce_start = Sched.now ctx.sched in
  let mutator_deadline = quiesce_start +. 15.0 in
  let workers =
    if cfg.cycles > 0 then 2 * cfg.spaces else cfg.spaces
  in
  while
    ctx.mutators_done < workers && Sched.now ctx.sched < mutator_deadline
  do
    ignore (R.run ~until:(Sched.now ctx.sched +. 1.0) rt)
  done;
  if ctx.mutators_done < workers then
    violate ctx "%d mutators wedged after quiesce"
      (workers - ctx.mutators_done);
  (* Drain: drive the clock until cleans, retries, pings and epoch
     discovery settle the whole system back to ground truth.  Drain time
     is measured from the heal, so it includes the release traffic of the
     winding-down mutators. *)
  let drain_deadline = quiesce_start +. cfg.drain_limit in
  let remaining = ref (drain_oracle ctx) in
  while !remaining <> [] && Sched.now ctx.sched < drain_deadline do
    ignore (R.run ~until:(Sched.now ctx.sched +. 2.0) rt);
    remaining := drain_oracle ctx
  done;
  let drain_time =
    if !remaining = [] then Some (Sched.now ctx.sched -. quiesce_start)
    else None
  in
  let retries, rejections, evictions =
    List.fold_left
      (fun (r, j, e) sp ->
        let st = R.gc_stats sp in
        ( r + st.R.retries,
          j + st.R.epoch_rejections,
          e + st.R.evictions ))
      (0, 0, 0) (R.spaces rt)
  in
  let faults =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt ctx.fault_counts k with
        | Some r -> Some (k, !r)
        | None -> None)
      [
        "partitions";
        "heals";
        "crashes";
        "restarts";
        "crash_recovers";
        "recoveries";
        "disk_faults";
        "survival_checks";
        "loss_bursts";
        "dup_bursts";
        "latency_spikes";
        "storms";
        "sheds";
        "undecodable_replies";
        "cycles";
      ]
  in
  {
    r_seed = cfg.seed;
    r_spaces = cfg.spaces;
    r_end_time = Sched.now ctx.sched;
    r_faults = faults;
    r_ops_ok = ctx.ops_ok;
    r_ops_timeout = ctx.ops_timeout;
    r_ops_error = ctx.ops_error;
    r_orphans = ctx.orphans_minted;
    r_retries = retries;
    r_epoch_rejections = rejections;
    r_evictions = evictions;
    r_safety = List.rev ctx.violations;
    r_liveness = !remaining;
    r_drain_time = drain_time;
  }
