module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Runtime = Netobj_core.Runtime
module Store = Netobj_store.Store
module Chaos = Netobj_chaos.Chaos
module Json = Netobj_obs.Json
module Rng = Netobj_util.Rng
module P = Netobj_pickle.Pickle
module R = Runtime

type bounds = {
  max_schedules : int;
  max_depth : int;
  max_preemptions : int;
  slots : int;
}

let default_bounds =
  { max_schedules = 20_000; max_depth = 2_000; max_preemptions = 2; slots = 2 }

type choice = { c_kind : string; c_n : int; c_pick : int; c_label : string }

type schedule = choice list

type violation = {
  v_schedule : schedule;
  v_problems : string list;
  v_at_schedule : int;
}

type stats = {
  schedules : int;
  choices : int;
  states : int;
  pruned_sleep : int;
  pruned_state : int;
  deferred_preempt : int;
  deepest : int;
  exhausted : bool;
}

type result = { stats : stats; violation : violation option }

(* ------------------------------------------------------------------ *)
(* Schedule serialization                                              *)

let choice_to_json c =
  Json.Obj
    [
      ("kind", Json.Str c.c_kind);
      ("n", Json.Int c.c_n);
      ("pick", Json.Int c.c_pick);
      ("label", Json.Str c.c_label);
    ]

let schedule_to_json s = Json.List (List.map choice_to_json s)

let ( let* ) = Result.bind

let choice_of_json j =
  let str k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "choice: missing string %S" k)
  in
  let int k =
    match Json.member k j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "choice: missing int %S" k)
  in
  let* c_kind = str "kind" in
  let* c_n = int "n" in
  let* c_pick = int "pick" in
  let* c_label = str "label" in
  if c_pick < 0 || c_pick >= c_n then Error "choice: pick out of range"
  else Ok { c_kind; c_n; c_pick; c_label }

let schedule_of_json = function
  | Json.List l ->
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          let* c = choice_of_json j in
          Ok (c :: acc))
        (Ok []) l
      |> Result.map List.rev
  | _ -> Error "schedule: expected a list"

let counterexample_to_json ~scenario ~nemesis v =
  Json.Obj
    [
      ("schema", Json.Str "netobj.mc/1");
      ("scenario", Json.Str scenario);
      ("at_schedule", Json.Int v.v_at_schedule);
      ("violations", Json.List (List.map (fun s -> Json.Str s) v.v_problems));
      ("nemesis", Chaos.events_to_json nemesis);
      ("schedule", schedule_to_json v.v_schedule);
    ]

let counterexample_of_json j =
  let* scenario =
    match Json.member "scenario" j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "counterexample: missing scenario"
  in
  let* sched =
    match Json.member "schedule" j with
    | Some s -> schedule_of_json s
    | None -> Error "counterexample: missing schedule"
  in
  Ok (scenario, sched)

(* ------------------------------------------------------------------ *)
(* Label dependence approximation                                      *)

(* The locus of a label is the set of integers appearing in it: space
   ids, edge endpoints, demon indices.  Two actions are considered
   dependent when their loci intersect — or when either has no locus at
   all, which errs conservative (an unindexed label might touch
   anything). *)
let locus label =
  let out = ref [] and cur = ref (-1) in
  String.iter
    (fun ch ->
      if ch >= '0' && ch <= '9' then
        cur := (if !cur < 0 then 0 else !cur * 10) + (Char.code ch - 48)
      else if !cur >= 0 then begin
        out := !cur :: !out;
        cur := -1
      end)
    label;
  if !cur >= 0 then out := !cur :: !out;
  !out

let dependent l1 l2 =
  l1 = [] || l2 = [] || List.exists (fun a -> List.mem a l2) l1

(* ------------------------------------------------------------------ *)
(* The controller                                                      *)

(* One backtrack node per choice point of the most recent execution. *)
type node = {
  nd_kind : string;
  nd_labels : string array;
  mutable nd_pick : int;
  mutable nd_tried : string list;  (* labels of alternatives explored *)
  nd_preempt : int;  (* non-default picks strictly before this node *)
  nd_sleep : string list;  (* asleep labels when the node was created *)
  nd_expandable : bool;  (* may new alternatives be tried here *)
}

type mode =
  | Explore  (* DFS: replay forced prefix, default-extend, backtrack *)
  | Guided of int64  (* pure (seed, run, index) draws *)
  | Replay of choice array  (* follow a recording, note divergence *)

type x = {
  b : bounds;
  sc_name : string;
  mutable mode : mode;
  (* stack of the last run's nodes; entries [0, depth_used) are valid *)
  mutable stack : node option array;
  mutable depth_used : int;
  mutable forced_len : int;
  mutable bound : int;  (* current preemption bound *)
  seen : (int, int) Hashtbl.t;  (* fingerprint -> max remaining budget *)
  (* per-run state *)
  mutable rt : R.t option;
  mutable pos : int;
  mutable run_rev : choice list;
  mutable preempt_used : int;
  mutable cutoff : bool;  (* stop creating expandable nodes *)
  mutable asleep : (string * int list) list;
  mutable step_problems : string list;
  mutable diverged : string option;
  mutable run_index : int;  (* executions completed *)
  (* stats *)
  mutable st_choices : int;
  mutable st_pruned_sleep : int;
  mutable st_pruned_state : int;
  mutable st_deferred : int;
  mutable st_deepest : int;
  mutable deferred_this_bound : bool;
}

type exec = x

let make_x ?(bounds = default_bounds) ~mode sc_name =
  {
    b = bounds;
    sc_name;
    mode;
    stack = Array.make 64 None;
    depth_used = 0;
    forced_len = 0;
    bound = 0;
    seen = Hashtbl.create 4096;
    rt = None;
    pos = 0;
    run_rev = [];
    preempt_used = 0;
    cutoff = false;
    asleep = [];
    step_problems = [];
    diverged = None;
    run_index = 0;
    st_choices = 0;
    st_pruned_sleep = 0;
    st_pruned_state = 0;
    st_deferred = 0;
    st_deepest = 0;
    deferred_this_bound = false;
  }

let ensure_capacity x i =
  let n = Array.length x.stack in
  if i >= n then begin
    let arr = Array.make (max (2 * n) (i + 1)) None in
    Array.blit x.stack 0 arr 0 n;
    x.stack <- arr
  end

let note_divergence x msg =
  if x.diverged = None then x.diverged <- Some msg

(* Per-step oracle and state dedup, run at every choice point past the
   forced prefix (prefix states were fingerprinted by the run that first
   executed them). *)
let step_checks x =
  match x.rt with
  | None -> ()
  | Some rt ->
      (match R.check_safety rt with
      | [] -> ()
      | vs -> if x.step_problems = [] then x.step_problems <- vs);
      if (not x.cutoff) && x.mode = Explore then begin
        let fp = R.state_fingerprint rt in
        let remaining = x.bound - x.preempt_used in
        match Hashtbl.find_opt x.seen fp with
        | Some r when r >= remaining ->
            x.cutoff <- true;
            x.st_pruned_state <- x.st_pruned_state + 1
        | _ -> Hashtbl.replace x.seen fp remaining
      end
      else if x.mode <> Explore then
        (* guided/replay still count distinct states for reporting *)
        let fp = R.state_fingerprint rt in
        if not (Hashtbl.mem x.seen fp) then Hashtbl.replace x.seen fp 0

let wake x label =
  let loc = locus label in
  x.asleep <- List.filter (fun (_, l) -> not (dependent l loc)) x.asleep

(* The single decision function behind every chooser hook. *)
let decide x ~kind labels =
  let n = Array.length labels in
  x.st_choices <- x.st_choices + 1;
  let pos = x.pos in
  let pick =
    match x.mode with
    | Guided seed ->
        step_checks x;
        Rng.int_nth (Int64.add seed (Int64.of_int x.run_index)) pos n
    | Replay rec_ ->
        step_checks x;
        if pos < Array.length rec_ then begin
          let c = rec_.(pos) in
          if c.c_kind <> kind then
            note_divergence x
              (Printf.sprintf
                 "choice %d: recorded kind %s, execution offered %s" pos
                 c.c_kind kind);
          if c.c_n <> n then
            note_divergence x
              (Printf.sprintf
                 "choice %d: recorded %d alternatives, execution offered %d"
                 pos c.c_n n);
          let p = if c.c_pick < n then c.c_pick else n - 1 in
          if p < n && labels.(p) <> c.c_label then
            note_divergence x
              (Printf.sprintf
                 "choice %d: recorded label %S, execution offered %S" pos
                 c.c_label labels.(p));
          p
        end
        else begin
          note_divergence x
            (Printf.sprintf "choice %d beyond recorded schedule" pos);
          0
        end
    | Explore ->
        if pos < x.forced_len then begin
          (* replay the forced prefix, verifying determinism *)
          match x.stack.(pos) with
          | None ->
              note_divergence x (Printf.sprintf "choice %d: missing node" pos);
              0
          | Some nd ->
              if nd.nd_kind <> kind || nd.nd_labels <> labels then
                note_divergence x
                  (Printf.sprintf
                     "choice %d: prefix replay diverged (%s/%d vs %s/%d)" pos
                     nd.nd_kind
                     (Array.length nd.nd_labels)
                     kind n);
              if pos = x.forced_len - 1 then
                (* entering the freshly incremented node: its explored
                   siblings and inherited sleepers go to sleep for this
                   subtree (the wake below then filters out the ones
                   dependent on the action we are about to run) *)
                x.asleep <-
                  List.map
                    (fun l -> (l, locus l))
                    (nd.nd_tried @ nd.nd_sleep);
              min nd.nd_pick (n - 1)
        end
        else begin
          step_checks x;
          let expandable =
            (not x.cutoff) && pos < x.b.max_depth
          in
          let nd =
            {
              nd_kind = kind;
              nd_labels = labels;
              nd_pick = 0;
              nd_tried = [];
              nd_preempt = x.preempt_used;
              nd_sleep = List.map fst x.asleep;
              nd_expandable = expandable;
            }
          in
          ensure_capacity x pos;
          x.stack.(pos) <- Some nd;
          0
        end
  in
  let pick = if pick < 0 || pick >= n then 0 else pick in
  if pick <> 0 then x.preempt_used <- x.preempt_used + 1;
  if x.mode = Explore then wake x labels.(pick);
  x.run_rev <-
    { c_kind = kind; c_n = n; c_pick = pick; c_label = labels.(pick) }
    :: x.run_rev;
  x.pos <- pos + 1;
  if x.pos > x.st_deepest then x.st_deepest <- x.pos;
  pick

(* ------------------------------------------------------------------ *)
(* Scenario plumbing                                                   *)

type scenario = {
  sc_name : string;
  sc_spaces : int;
  sc_nemesis : Chaos.event list;
  sc_run : exec -> string list;
}

let apply_fault rt (fault : Chaos.fault) =
  let sched = R.sched rt and tr = R.transport rt in
  let now = Sched.now sched in
  match fault with
  | Chaos.Partition { a; b; duration } ->
      Transport.set_partitioned tr a b true;
      Sched.timer sched ~name:"nemesis-heal" duration (fun () ->
          Transport.set_partitioned tr a b false)
  | Chaos.Crash { victim; downtime } ->
      R.crash rt victim;
      Sched.timer sched ~name:"nemesis-restart" downtime (fun () ->
          R.restart rt victim)
  | Chaos.Crash_recover { victim; downtime } ->
      R.crash rt victim;
      Sched.timer sched ~name:"nemesis-recover" downtime (fun () ->
          R.recover rt victim)
  | Chaos.Disk_fault { victim; fault } ->
      if R.durable (R.space rt victim) then
        R.set_disk_fault rt victim (Some fault)
  | Chaos.Loss_burst { src; dst; loss; duration } ->
      Transport.set_burst tr ~src ~dst ~loss ~until:(now +. duration) ()
  | Chaos.Dup_burst { src; dst; dup; duration } ->
      Transport.set_burst tr ~src ~dst ~dup ~until:(now +. duration) ()
  | Chaos.Latency_spike { src; dst; factor; duration } ->
      Transport.set_latency_spike tr ~src ~dst ~factor ~until:(now +. duration)
  | Chaos.Call_storm _ ->
      (* A storm is extra workload, not an environment fault; under mc
         the workload is the scenario itself, so a scripted storm in a
         replayed chaos schedule has nothing to drive here. *)
      ()

let setup x cfg nemesis =
  let chooser ~kind labels =
    let k = match kind with Sched.Fiber -> "fiber" | Sched.Timer -> "timer" in
    decide x ~kind:k labels
  in
  let cfg = R.override ~policy:(Sched.Controlled chooser) cfg in
  let rt = R.create cfg in
  x.rt <- Some rt;
  if x.b.slots > 1 then
    Net.set_delivery_choice (R.net rt) ~slots:x.b.slots (fun ~label ~n ->
        decide x ~kind:"net" (Array.make n label));
  List.iter
    (fun (ev : Chaos.event) ->
      Sched.timer (R.sched rt) ~name:"nemesis" ev.Chaos.at (fun () ->
          apply_fault rt ev.Chaos.fault))
    nemesis;
  rt

(* Surrogate cleans are scheduled by the local collector's sweep, so
   draining takes alternating GC passes and protocol rounds: run to
   quiescence, then collect-and-run until no surrogate remains (each
   round clears one level of the reference chain) or a fixed number of
   rounds made no further progress. *)
let drain rt =
  ignore (R.run rt);
  let surrogates () =
    List.fold_left (fun acc sp -> acc + R.surrogate_count sp) 0 (R.spaces rt)
  in
  let rounds = ref 8 in
  while surrogates () > 0 && !rounds > 0 do
    decr rounds;
    R.collect_all rt;
    ignore (R.run rt)
  done

(* Oracle reports shared by the built-in scenarios: fiber crashes are
   violations, and after the system drained no surrogate may remain
   anywhere (hence no dirty entry — the drain oracle), with the
   quiescent consistency check on top. *)
let drain_problems rt =
  let problems = ref [] in
  List.iter
    (fun (name, exn) ->
      problems :=
        Printf.sprintf "fiber %s raised %s" name (Printexc.to_string exn)
        :: !problems)
    (Sched.failures (R.sched rt));
  List.iter
    (fun sp ->
      let n = R.surrogate_count sp in
      if n > 0 then begin
        problems :=
          Printf.sprintf "space %d: %d surrogate(s) failed to drain"
            (R.space_id sp) n
          :: !problems;
        List.iter
          (fun line -> problems := ("  " ^ line) :: !problems)
          (R.surrogate_summary sp)
      end)
    (R.spaces rt);
  List.rev_append !problems (R.check_consistency rt)

(* ------------------------------------------------------------------ *)
(* Built-in scenarios                                                  *)

let controlled_edge () = Net.bag_edge ~lo:0.005 ~hi:0.005 ()

let scenario_dgc2 () =
  let run x =
    let cfg = R.config ~nspaces:2 ~edge:(controlled_edge ()) () in
    let rt = setup x cfg [] in
    let sp0 = R.space rt 0 and sp1 = R.space rt 1 in
    let b = R.allocate sp0 ~meths:[] in
    let a =
      R.allocate sp0
        ~meths:
          [ R.meth "get" (fun _sp _r () w -> P.write R.handle_codec w b) ]
    in
    R.publish sp0 "a" a;
    R.spawn rt ~name:"client-1" (fun () ->
        let h = R.lookup sp1 ~at:0 "a" in
        let bh =
          R.invoke_raw sp1 h ~meth:"get"
            ~encode:(fun _ -> ())
            ~decode:(fun r -> P.read R.handle_codec r)
        in
        R.release sp1 bh;
        R.release sp1 h);
    drain rt;
    drain_problems rt
  in
  { sc_name = "dgc2"; sc_spaces = 2; sc_nemesis = []; sc_run = run }

let scenario_dgc3 () =
  let run x =
    let cfg = R.config ~nspaces:3 ~edge:(controlled_edge ()) () in
    let rt = setup x cfg [] in
    let sp0 = R.space rt 0
    and sp1 = R.space rt 1
    and sp2 = R.space rt 2 in
    let b = R.allocate sp0 ~meths:[] in
    let a =
      R.allocate sp0
        ~meths:
          [ R.meth "get" (fun _sp _r () w -> P.write R.handle_codec w b) ]
    in
    R.publish sp0 "a" a;
    let sink =
      R.allocate sp2
        ~meths:
          [
            R.meth "put" (fun sp r ->
                let bh = P.read R.handle_codec r in
                fun () ->
                  R.release sp bh;
                  fun _w -> ());
          ]
    in
    R.publish sp2 "sink" sink;
    R.spawn rt ~name:"client-1" (fun () ->
        let h = R.lookup sp1 ~at:0 "a" in
        let bh =
          R.invoke_raw sp1 h ~meth:"get"
            ~encode:(fun _ -> ())
            ~decode:(fun r -> P.read R.handle_codec r)
        in
        (* third-party transfer: hand space 0's object to space 2 *)
        let sk = R.lookup sp1 ~at:2 "sink" in
        R.invoke_raw sp1 sk ~meth:"put"
          ~encode:(fun w -> P.write R.handle_codec w bh)
          ~decode:(fun _ -> ());
        R.release sp1 sk;
        R.release sp1 bh;
        R.release sp1 h);
    drain rt;
    drain_problems rt
  in
  { sc_name = "dgc3"; sc_spaces = 3; sc_nemesis = []; sc_run = run }

let scenario_lookup ~leak () =
  let run x =
    (* call_timeout sits between the slot-0 and slot-1 reply arrival
       times (2*base = 0.010 vs 3*base = 0.015): a lookup whose reply is
       reordered behind the other client's — one delivery-slot choice —
       times out, every other schedule succeeds.  The race is decided
       purely by the schedule, no loss draws involved. *)
    let cfg =
      R.config ~nspaces:2 ~edge:(controlled_edge ()) ~call_timeout:0.012
        ~pin_timeout:3.0 ~bug_lookup_leak:leak ()
    in
    let rt = setup x cfg [] in
    let sp0 = R.space rt 0 and sp1 = R.space rt 1 in
    List.iter
      (fun name ->
        let obj = R.allocate sp0 ~meths:[] in
        R.publish sp0 name obj)
      [ "x"; "y" ];
    (* Two concurrent lookups: both replies are in flight on the same
       edge at the same instant, so their order is a choice point. *)
    List.iter
      (fun (fiber, name) ->
        R.spawn rt ~name:fiber (fun () ->
            try
              let h = R.lookup sp1 ~at:0 name in
              R.release sp1 h
            with R.Timeout _ | R.Remote_error _ -> ()))
      [ ("client-1", "x"); ("client-2", "y") ];
    drain rt;
    drain_problems rt
  in
  {
    sc_name = (if leak then "lookup-leak" else "lookup");
    sc_spaces = 2;
    sc_nemesis = [];
    sc_run = run;
  }

let scenario_recover () =
  (* A durable owner crashes while a dirty ack's group-commit fsync may
     still be pending, with a disk fault armed that drops the unsynced
     suffix at the crash: whether the "store-fsync" timer or the
     "nemesis" crash timer fires first is a schedule choice point, and
     the commit-before-externalize barrier must make the client's held
     reference survive recovery either way. *)
  let nemesis =
    [
      {
        Chaos.at = 0.002;
        fault = Chaos.Disk_fault { victim = 0; fault = Store.Lost_suffix };
      };
      {
        Chaos.at = 0.025;
        fault = Chaos.Crash_recover { victim = 0; downtime = 0.05 };
      };
    ]
  in
  let run x =
    let cfg =
      (* fsync_delay equals the edge latency, so group-commit fsyncs land
         on the same 5 ms grid as protocol events and the scripted crash:
         a pending fsync due at the crash instant is a genuine
         same-instant timer choice point. *)
      R.config ~nspaces:2 ~edge:(controlled_edge ()) ~durable:true
        ~fsync_delay:0.005 ~recover_grace:0.05 ~clean_retry:0.02
        ~dirty_retry:0.02 ~call_timeout:0.3 ()
    in
    let rt = setup x cfg nemesis in
    let sp0 = R.space rt 0 and sp1 = R.space rt 1 in
    let a = R.allocate sp0 ~meths:[ R.meth "poke" (fun _sp _r () _w -> ()) ] in
    R.publish sp0 "a" a;
    let survival = ref [] in
    R.spawn rt ~name:"client-1" (fun () ->
        match R.lookup sp1 ~at:0 "a" with
        | h ->
            (* hold the reference across the owner's crash + recovery *)
            Sched.sleep (R.sched rt) 0.2;
            (try
               R.invoke_raw sp1 h ~meth:"poke"
                 ~encode:(fun _ -> ())
                 ~decode:(fun _ -> ())
             with
            | R.Remote_error msg ->
                survival :=
                  Printf.sprintf "held object lost across recovery: %s" msg
                  :: !survival
            | R.Timeout _ -> ());
            R.release sp1 h
        | exception (R.Timeout _ | R.Remote_error _) -> ());
    drain rt;
    !survival @ drain_problems rt
  in
  { sc_name = "recover"; sc_spaces = 2; sc_nemesis = nemesis; sc_run = run }

let scenario_cycle ~broken () =
  (* A two-space reference cycle (a@0 <-> b@1) that the listing
     collector leaks, a live sink object at space 1, and a third party
     at space 2 that hands its rooted reference to the cycle over to the
     sink WHILE a detector trial is probing.  On some schedules the
     trial's probe of space 1 observes the cycle quiet before the
     transfer lands and its probe of space 2 after the client released —
     every report quiet, yet the cycle is live via the sink.  Only the
     confirm round (identical reports, unmoved touch counters, unmoved
     epochs) notices the movement.  With [broken]
     ([R.config ~bug_skip_confirm:true]) the coordinator commits on the
     probe round alone and reclaims the live cycle, stranding the sink's
     rooted surrogate — which the per-step safety oracle catches and the
     recorded schedule replays.  With the confirm round in place the
     same schedules abort the trial; after the sink is torn down a final
     pass reclaims the by-then genuinely dead cycle, so the drain oracle
     ends clean. *)
  let run x =
    let cfg =
      R.config ~nspaces:3 ~edge:(controlled_edge ()) ~bug_skip_confirm:broken
        ()
    in
    let rt = setup x cfg [] in
    let sp0 = R.space rt 0 and sp1 = R.space rt 1 and sp2 = R.space rt 2 in
    let a = R.allocate sp0 ~meths:[] in
    let b = R.allocate sp1 ~meths:[] in
    R.publish sp0 "a" a;
    R.publish sp1 "b" b;
    let rec sink =
      lazy
        (R.allocate sp1
           ~meths:
             [
               R.meth "put" (fun sp r ->
                   let h = P.read R.handle_codec r in
                   fun () ->
                     R.link sp ~parent:(Lazy.force sink) ~child:h;
                     R.release sp h;
                     fun _w -> ());
             ])
    in
    let sink = Lazy.force sink in
    R.publish sp1 "sink" sink;
    R.spawn rt ~name:"linker-0" (fun () ->
        let hb = R.lookup sp0 ~at:1 "b" in
        R.link sp0 ~parent:a ~child:hb;
        R.release sp0 hb);
    R.spawn rt ~name:"linker-1" (fun () ->
        let ha = R.lookup sp1 ~at:0 "a" in
        R.link sp1 ~parent:b ~child:ha;
        R.release sp1 ha);
    let held = ref None in
    R.spawn rt ~name:"client-2" (fun () ->
        let h_sink = R.lookup sp2 ~at:1 "sink" in
        let h_a = R.lookup sp2 ~at:0 "a" in
        held := Some (h_sink, h_a));
    drain rt;
    (* the cycle loses its roots; the client's reference keeps it live *)
    R.unpublish sp0 "a";
    R.release sp0 a;
    R.unpublish sp1 "b";
    R.release sp1 b;
    drain rt;
    (* race: a detector trial vs the third-party transfer into the sink *)
    (match !held with
    | None -> ()
    | Some (h_sink, h_a) ->
        R.spawn rt ~name:"detector-0" (fun () -> ignore (R.cycle_collect sp0));
        R.spawn rt ~name:"client-2" (fun () ->
            Sched.sleep (R.sched rt) 0.002;
            (try
               R.invoke_raw sp2 h_sink ~meth:"put"
                 ~encode:(fun w -> P.write R.handle_codec w h_a)
                 ~decode:(fun _ -> ())
             with R.Remote_error _ | R.Timeout _ -> ());
            R.release sp2 h_a;
            R.release sp2 h_sink));
    drain rt;
    (* teardown: the sink goes, then the detector finishes the job *)
    R.unpublish sp1 "sink";
    R.release sp1 sink;
    drain rt;
    List.iter
      (fun sp ->
        R.spawn rt ~name:"detector-final" (fun () ->
            ignore (R.cycle_collect sp));
        drain rt)
      [ sp0; sp1 ];
    drain_problems rt
  in
  {
    sc_name = (if broken then "dgc-cycle-broken" else "dgc-cycle");
    sc_spaces = 3;
    sc_nemesis = [];
    sc_run = run;
  }

let scenario_call_retry ~bug () =
  (* The retransmit-vs-reply race of at-most-once delivery.  As in the
     lookup scenario, call_timeout sits between the slot-0 and slot-1
     reply arrival times, so a delivery-slot choice decides whether the
     client's first attempt sees its reply or times out and retransmits
     — with retries armed, the same call_id goes back on the wire while
     the original reply (and the owner's completed execution) may still
     be in flight.  The owner's reply cache must recognise the
     retransmit and replay the cached reply; with [bug]
     ([R.config ~bug_no_dedup:true]) the cache and the in-flight drop
     are disabled and the retransmit re-executes the non-idempotent
     increment, which the end-of-run oracle reports as a double
     execution with a replayable schedule. *)
  let run x =
    let cfg =
      R.config ~nspaces:2 ~edge:(controlled_edge ()) ~call_timeout:0.012
        ~pin_timeout:3.0 ~call_retries:1 ~bug_no_dedup:bug ()
    in
    let rt = setup x cfg [] in
    let sp0 = R.space rt 0 and sp1 = R.space rt 1 in
    let count = ref 0 in
    let counter =
      R.allocate sp0
        ~meths:
          [
            R.meth "incr" (fun _sp _r () ->
                incr count;
                fun _w -> ());
          ]
    in
    R.publish sp0 "counter" counter;
    R.spawn rt ~name:"client-1" (fun () ->
        match R.lookup sp1 ~at:0 "counter" with
        | h ->
            (try
               R.invoke_raw sp1 h ~meth:"incr"
                 ~encode:(fun _ -> ())
                 ~decode:(fun _ -> ())
             with R.Timeout _ | R.Remote_error _ -> ());
            R.release sp1 h
        | exception (R.Timeout _ | R.Remote_error _) -> ());
    drain rt;
    let dups =
      if !count <= 1 then []
      else
        [
          Printf.sprintf
            "double execution: non-idempotent incr ran %d times for one call"
            !count;
        ]
    in
    dups @ drain_problems rt
  in
  {
    sc_name = (if bug then "call-retry-no-dedup" else "call-retry");
    sc_spaces = 2;
    sc_nemesis = [];
    sc_run = run;
  }

let scenario_names =
  [ "dgc2"; "dgc3"; "lookup"; "recover"; "dgc-cycle"; "call-retry" ]

let find_scenario name ~leak =
  match name with
  | "dgc2" -> Some (scenario_dgc2 ())
  | "dgc3" -> Some (scenario_dgc3 ())
  | "lookup" | "lookup-leak" -> Some (scenario_lookup ~leak ())
  | "recover" -> Some (scenario_recover ())
  | "dgc-cycle" -> Some (scenario_cycle ~broken:false ())
  | "dgc-cycle-broken" -> Some (scenario_cycle ~broken:true ())
  | "call-retry" -> Some (scenario_call_retry ~bug:false ())
  | "call-retry-no-dedup" -> Some (scenario_call_retry ~bug:true ())
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

let reset_run x =
  x.rt <- None;
  x.pos <- 0;
  x.run_rev <- [];
  x.preempt_used <- 0;
  x.cutoff <- false;
  x.asleep <- [];
  x.step_problems <- [];
  x.diverged <- None

(* Execute the scenario once under the current mode/prefix.  Returns the
   oracle problems (per-step first, then end-of-run). *)
let execute_once x (sc : scenario) =
  reset_run x;
  let end_problems = sc.sc_run x in
  x.run_index <- x.run_index + 1;
  (match x.diverged with
  | Some msg when x.mode = Explore ->
      (* a forced prefix must replay identically; anything else is a
         determinism bug in the harness, not a protocol bug *)
      failwith
        (Printf.sprintf "Mc(%s): nondeterministic replay: %s" x.sc_name msg)
  | _ -> ());
  if x.step_problems <> [] then x.step_problems else end_problems

(* Pick the next unexplored alternative at [nd], honouring the
   preemption bound and the sleep sets. *)
let next_candidate x nd =
  let n = Array.length nd.nd_labels in
  let rec go i =
    if i >= n then None
    else
      let lbl = nd.nd_labels.(i) in
      if List.mem lbl nd.nd_tried then begin
        (* an identically-labelled alternative was already explored from
           this state: symmetric, skip *)
        x.st_pruned_sleep <- x.st_pruned_sleep + 1;
        go (i + 1)
      end
      else if List.mem lbl nd.nd_sleep then begin
        x.st_pruned_sleep <- x.st_pruned_sleep + 1;
        go (i + 1)
      end
      else if i <> 0 && nd.nd_preempt + 1 > x.bound then begin
        x.st_deferred <- x.st_deferred + 1;
        x.deferred_this_bound <- true;
        go (i + 1)
      end
      else Some i
  in
  go (nd.nd_pick + 1)

(* Deepest node with an untried alternative; set up the forced prefix
   for the next run. *)
let backtrack x =
  let rec go d =
    if d < 0 then false
    else
      match x.stack.(d) with
      | Some nd when nd.nd_expandable -> (
          match next_candidate x nd with
          | Some i ->
              nd.nd_tried <- nd.nd_labels.(nd.nd_pick) :: nd.nd_tried;
              nd.nd_pick <- i;
              x.forced_len <- d + 1;
              (* entries beyond the prefix belong to the abandoned
                 branch *)
              for k = d + 1 to x.depth_used - 1 do
                x.stack.(k) <- None
              done;
              x.depth_used <- d + 1;
              true
          | None -> go (d - 1))
      | _ -> go (d - 1)
  in
  go (x.depth_used - 1)

let stats_of x ~exhausted =
  {
    schedules = x.run_index;
    choices = x.st_choices;
    states = Hashtbl.length x.seen;
    pruned_sleep = x.st_pruned_sleep;
    pruned_state = x.st_pruned_state;
    deferred_preempt = x.st_deferred;
    deepest = x.st_deepest;
    exhausted;
  }

let explore ?(bounds = default_bounds) (sc : scenario) =
  let x = make_x ~bounds ~mode:Explore sc.sc_name in
  let violation = ref None in
  let out_of_budget () =
    bounds.max_schedules > 0 && x.run_index >= bounds.max_schedules
  in
  let exhausted = ref false in
  (try
     let bound = ref 0 in
     let continue_bounds = ref true in
     while !continue_bounds do
       x.bound <- !bound;
       x.deferred_this_bound <- false;
       (* each bound restarts the tree walk from the root *)
       Array.fill x.stack 0 (Array.length x.stack) None;
       x.depth_used <- 0;
       x.forced_len <- 0;
       let more = ref true in
       while !more do
         if out_of_budget () then raise Exit;
         let problems = execute_once x sc in
         x.depth_used <- x.pos;
         if problems <> [] then begin
           violation :=
             Some
               {
                 v_schedule = List.rev x.run_rev;
                 v_problems = problems;
                 v_at_schedule = x.run_index;
               };
           raise Exit
         end;
         more := backtrack x
       done;
       (* nothing was deferred by the bound: deeper bounds add no new
          schedules, the tree is exhausted *)
       if (not x.deferred_this_bound) || !bound >= bounds.max_preemptions
       then begin
         exhausted := not x.deferred_this_bound;
         continue_bounds := false
       end
       else incr bound
     done
   with Exit -> ());
  { stats = stats_of x ~exhausted:!exhausted; violation = !violation }

let guided ?(bounds = default_bounds) ~seed (sc : scenario) =
  let x = make_x ~bounds ~mode:(Guided seed) sc.sc_name in
  let violation = ref None in
  let budget =
    if bounds.max_schedules > 0 then bounds.max_schedules else max_int
  in
  (try
     for _ = 1 to budget do
       let problems = execute_once x sc in
       if problems <> [] then begin
         violation :=
           Some
             {
               v_schedule = List.rev x.run_rev;
               v_problems = problems;
               v_at_schedule = x.run_index;
             };
         raise Exit
       end
     done
   with Exit -> ());
  { stats = stats_of x ~exhausted:false; violation = !violation }

let replay (sc : scenario) (s : schedule) =
  let x = make_x ~mode:(Replay (Array.of_list s)) sc.sc_name in
  let problems = execute_once x sc in
  match x.diverged with Some msg -> Error msg | None -> Ok problems
