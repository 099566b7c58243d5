(* The four workloads.  Each builds its world from the seed (set-up), runs
   a closed loop of remote calls for a fixed wall-clock window (measure),
   then drains and checks its oracle (finish). *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport
module Tcp = Netobj_transport.Tcp
module Faulty = Netobj_transport.Faulty
module Engine_domains = Netobj_engine.Engine_domains
module Pickle = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire

let now_ns = Spans.now_ns

(* Counters read at both ends of the measured window. *)
type snap = {
  s_cpu : float;
  s_tstats : Transport.stats;
  s_kinds : (string * (int * int)) list;
  s_dirty : int;
  s_clean : int;
  s_copy_ack : int;
  s_retried : int;
  s_shed : int;
  s_pool : int * int;
  s_payload : int;
  s_runs : int;
  s_pumps : int;
  s_idle_pumps : int;
  s_msgs : int;
  s_delivered : int;
}

type window = {
  recs : Recorder.t list;
  loop_ns : int;  (** wall time from [before] to [after] *)
  cpu_ops : int;
      (** ops completed between [before] and [after]: the window's on TCP,
          the whole episode's (prelude and tail too) on the domains engine *)
  before : snap;
  after : snap;
  shard_ops : int array;
}

type oracle = { errors : string list; residue : int }

type instance = {
  rt : R.t;
  tcp : bool;
  measure : seconds:float -> traced:bool -> window;
  finish : unit -> oracle;
  close : unit -> unit;
}

type driver = {
  mutable runs : int;
  mutable pumps : int;
  mutable idle_pumps : int;
}

let snapshot rt (probe : Probe.t option) d =
  let sum f = List.fold_left (fun a sp -> a + f sp) 0 (R.spaces rt) in
  let tr = R.transport rt in
  {
    s_cpu = Recorder.cpu_s ();
    s_tstats = Transport.stats tr;
    s_kinds = Transport.stats_by_kind tr;
    s_dirty = sum (fun sp -> (R.gc_stats sp).R.dirty_calls);
    s_clean = sum (fun sp -> (R.gc_stats sp).R.clean_calls);
    s_copy_ack = sum (fun sp -> (R.gc_stats sp).R.copy_acks);
    s_retried = sum (fun sp -> (R.call_stats sp).R.c_retried);
    s_shed = sum (fun sp -> (R.call_stats sp).R.c_shed);
    s_pool = Wire.Writer.pool_stats ();
    s_payload = Spans.payload_bytes ();
    s_runs = d.runs;
    s_pumps = d.pumps;
    s_idle_pumps = d.idle_pumps;
    s_msgs = (match probe with Some p -> p.Probe.msgs | None -> 0);
    s_delivered = (match probe with Some p -> p.Probe.delivered | None -> 0);
  }

(* The workload's interface.  Codecs and bodies go through Probe so the
   traced run can time them; untraced they only count payload bytes. *)
let m_incr = Stub.declare "incr" (Probe.codec Pickle.int) (Probe.codec Pickle.int)

let m_echo =
  Stub.declare "echo" (Probe.codec Pickle.string) (Probe.codec Pickle.string)

let m_get = Stub.declare "get" (Probe.codec Pickle.int) (Probe.codec R.handle_codec)

let m_all = Stub.declare "all" Pickle.unit (Pickle.array R.handle_codec)

(* Counters start high enough that every reply's zigzag varint is 5
   bytes for the whole run: payload per op must not grow with the number
   of ops a run manages. *)
let counter_base = 1 lsl 28

let counter sp =
  let v = ref counter_base in
  let h =
    R.allocate sp
      ~meths:
        [
          Stub.implement m_incr
            (Probe.method_body (fun _ n ->
                 v := !v + n;
                 !v));
        ]
  in
  (h, v)

let fail fmt = Printf.ksprintf failwith fmt

(* {1 TCP worlds}

   One process, one thread: every space of the world is served by a
   single Tcp endpoint over loopback, under an unarmed Faulty, with the
   5 s call and dirty timeouts of [netobj_sim serve]. *)

type tcp = { w_rt : R.t; w_tr : Transport.t; w_probe : Probe.t option; w_d : driver }

let tcp_world ~seed ~nspaces ~probe =
  let all = List.init nspaces Fun.id in
  let cfg =
    R.config ~seed:(Int64.of_int seed) ~nspaces ~call_timeout:5.0
      ~dirty_timeout:5.0
      ~transport:(fun sched _net ->
        let endpoints =
          List.map (fun a -> (a, { Tcp.host = "127.0.0.1"; port = 0 })) all
        in
        let tcp = Tcp.create ~sched ~serving:all ~endpoints () in
        let base =
          Faulty.wrap ~sched ~seed:(Int64.of_int seed) (Tcp.transport tcp)
        in
        match probe with Some p -> Probe.wrap p base | None -> base)
      ()
  in
  let rt = R.create cfg in
  {
    w_rt = rt;
    w_tr = R.transport rt;
    w_probe = probe;
    w_d = { runs = 0; pumps = 0; idle_pumps = 0 };
  }

(* One driver-loop step, the coupling loop of [netobj_sim serve]: a
   virtual-time slice, then one socket pump.  When neither clock moved a
   no-op timer nudges virtual time forward, which is how wall-clock
   waiting turns into timeout progress.  Returns fiber steps plus
   messages dispatched, 0 when nothing moved. *)
let step w =
  let sched = R.sched w.w_rt in
  let before = Sched.now sched in
  let id = Spans.enter Run in
  let steps = R.run w.w_rt ~until:(before +. 0.05) in
  Spans.leave id;
  let id = Spans.enter Pump in
  let n = Transport.pump w.w_tr ~timeout:0.001 in
  Spans.leave id;
  let d = w.w_d in
  d.runs <- d.runs + 1;
  d.pumps <- d.pumps + 1;
  if n = 0 then d.idle_pumps <- d.idle_pumps + 1;
  if n = 0 && Sched.now sched = before then
    Sched.timer sched ~name:"drive-tick" 0.05 (fun () -> ());
  steps + n

let drive_until ?(limit_s = 30.0) w pred =
  let deadline = now_ns () + int_of_float (limit_s *. 1e9) in
  while (not (pred ())) && now_ns () < deadline do
    ignore (step w)
  done;
  pred ()

(* Drive until nothing has moved for 20 consecutive steps (each waits up
   to 1 ms on the sockets): no fiber ran, no message arrived. *)
let settle w =
  let quiet = ref 0 in
  let deadline = now_ns () + 10_000_000_000 in
  while !quiet < 20 && now_ns () < deadline do
    if step w = 0 then incr quiet else quiet := 0
  done;
  !quiet >= 20

(* Run [n] ops on each of [fibers] fibers to completion (warm-up). *)
let tcp_warm w ~fibers ~n op =
  let live = ref fibers in
  for f = 0 to fibers - 1 do
    R.spawn w.w_rt (fun () ->
        for _ = 1 to n do
          op f
        done;
        decr live)
  done;
  if not (drive_until w (fun () -> !live = 0)) then fail "warm-up did not finish"

let run_op r op f =
  let t0 = now_ns () in
  match op f with
  | () -> Recorder.ok r ~t0 ~t1:(now_ns ())
  | exception e -> Recorder.fail r ~t1:(now_ns ()) (Printexc.to_string e)

(* Every window opens with this much unrecorded closed-loop running, so
   heaps, pools and buffers have reached their working size. *)
let prelude_ns = 1_000_000_000

(* The closed loop: [fibers] callers, each issuing its next op as soon as
   the previous one returns, recorded for [seconds] of wall clock. *)
let tcp_measure w ~fibers ~op ~seconds ~traced =
  let t_start = now_ns () + prelude_ns in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  let r = Recorder.create ~sample_cpu:true ~cap:(1 lsl 18) ~t_start ~t_end () in
  let stop = ref false and live = ref fibers in
  for f = 0 to fibers - 1 do
    R.spawn w.w_rt (fun () ->
        while not !stop do
          run_op r op f
        done;
        decr live)
  done;
  while now_ns () < t_start do
    ignore (step w)
  done;
  Spans.reset ();
  Spans.on := traced;
  let before = snapshot w.w_rt w.w_probe w.w_d in
  let t0 = now_ns () in
  while now_ns () < t_end do
    ignore (step w)
  done;
  let t1 = now_ns () in
  Spans.on := false;
  let after = snapshot w.w_rt w.w_probe w.w_d in
  stop := true;
  if not (drive_until w (fun () -> !live = 0)) then
    fail "callers did not stop";
  {
    recs = [ r ];
    loop_ns = t1 - t0;
    cpu_ops = r.Recorder.ok;
    before;
    after;
    shard_ops = [| r.Recorder.ok |];
  }

let tcp_close w () = Transport.close w.w_tr

let call_in_fiber w f =
  let res = ref None in
  R.spawn w.w_rt (fun () -> res := Some (f ()));
  if not (drive_until w (fun () -> !res <> None)) then
    fail "set-up call did not finish";
  Option.get !res

(* Drain to quiescence and run the runtime's own oracles. *)
let quiescent_checks w =
  if not (settle w) then [ "world did not quiesce" ]
  else R.check_consistency w.w_rt @ R.check_safety w.w_rt

let check cond fmt =
  Printf.ksprintf (fun s -> if cond then [] else [ s ]) fmt

(* The client drops its one handle and collects; the owner's dirty set
   and the client's table must empty. *)
let release_and_drain w ~owner ~client ~obj h =
  call_in_fiber w (fun () ->
      R.release client h;
      R.collect client);
  ignore
    (drive_until ~limit_s:10.0 w (fun () ->
         R.surrogate_count client = 0 && R.dirty_set owner obj = []));
  let residue = R.surrogate_count client + List.length (R.dirty_set owner obj) in
  { errors = quiescent_checks w; residue }

let null_tcp ~seed ~probe =
  let w = tcp_world ~seed ~nspaces:2 ~probe in
  let owner = R.space w.w_rt 0 and client = R.space w.w_rt 1 in
  let obj, v = counter owner in
  R.publish owner "counter" obj;
  let h = call_in_fiber w (fun () -> R.lookup client ~at:0 "counter") in
  let calls_ok = ref 0 in
  let op _ =
    ignore (Stub.call client h m_incr 1);
    incr calls_ok
  in
  tcp_warm w ~fibers:4 ~n:50 op;
  let finish () =
    let o = release_and_drain w ~owner ~client ~obj h in
    {
      o with
      errors =
        check (!v - counter_base = !calls_ok)
          "counter reads %d after %d completed calls" (!v - counter_base)
          !calls_ok
        @ o.errors;
    }
  in
  {
    rt = w.w_rt;
    tcp = true;
    measure = tcp_measure w ~fibers:4 ~op;
    finish;
    close = tcp_close w;
  }

let bulk_bytes = 65536

let bulk_tcp ~seed ~probe =
  let w = tcp_world ~seed ~nspaces:2 ~probe in
  let owner = R.space w.w_rt 0 and client = R.space w.w_rt 1 in
  let obj =
    R.allocate owner
      ~meths:[ Stub.implement m_echo (Probe.method_body (fun _ s -> s)) ]
  in
  R.publish owner "echo" obj;
  let rng = Random.State.make [| seed; 0xb01c |] in
  let payloads =
    Array.init 4 (fun _ ->
        String.init bulk_bytes (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let h = call_in_fiber w (fun () -> R.lookup client ~at:0 "echo") in
  let turn = Array.make 2 0 in
  let op f =
    let s = payloads.((f + turn.(f)) land 3) in
    turn.(f) <- turn.(f) + 1;
    let back = Stub.call client h m_echo s in
    if not (String.equal back s) then failwith "echo differs from its argument"
  in
  tcp_warm w ~fibers:2 ~n:10 op;
  let finish () = release_and_drain w ~owner ~client ~obj h in
  {
    rt = w.w_rt;
    tcp = true;
    measure = tcp_measure w ~fibers:2 ~op;
    finish;
    close = tcp_close w;
  }

(* Third-party transfer.  The pool size and the collect period fix the
   share of ops that find no surrogate for object [i] and must register
   one (a dirty call); the traced run reports it. *)
let refs_pool = 4096

let refs_collect_every = 64

let refs_tcp ~seed ~probe =
  let w = tcp_world ~seed ~nspaces:3 ~probe in
  let owner = R.space w.w_rt 0
  and broker = R.space w.w_rt 1
  and client = R.space w.w_rt 2 in
  let counters = Array.init refs_pool (fun _ -> counter owner) in
  let pool =
    R.allocate owner
      ~meths:[ Stub.implement m_all (fun _ () -> Array.map fst counters) ]
  in
  R.publish owner "pool" pool;
  let held =
    call_in_fiber w (fun () ->
        let p = R.lookup broker ~at:0 "pool" in
        let hs = Stub.call broker p m_all () in
        R.release broker p;
        hs)
  in
  let bobj =
    R.allocate broker
      ~meths:[ Stub.implement m_get (Probe.method_body (fun _ i -> held.(i))) ]
  in
  R.publish broker "broker" bobj;
  let b = call_in_fiber w (fun () -> R.lookup client ~at:1 "broker") in
  let succeeded = Array.make refs_pool 0 in
  let rngs = Array.init 4 (fun f -> Random.State.make [| seed; 0x7ef5; f |]) in
  let ops = ref 0 in
  let op f =
    let i = Random.State.int rngs.(f) refs_pool in
    let h = Stub.call client b m_get i in
    Fun.protect
      ~finally:(fun () -> R.release client h)
      (fun () -> ignore (Stub.call client h m_incr 1));
    succeeded.(i) <- succeeded.(i) + 1;
    incr ops;
    if !ops mod refs_collect_every = 0 then begin
      let id = Spans.enter Collect in
      R.collect client;
      Spans.leave id
    end
  in
  tcp_warm w ~fibers:4 ~n:32 op;
  (* Start every window from the same state: no stale surrogates. *)
  call_in_fiber w (fun () -> R.collect client);
  ignore (drive_until ~limit_s:10.0 w (fun () -> R.surrogate_count client <= 1));
  let pre = R.surrogate_count client in
  let finish () =
    call_in_fiber w (fun () -> R.collect client);
    ignore
      (drive_until ~limit_s:10.0 w (fun () -> R.surrogate_count client <= pre));
    let client_excess = max 0 (R.surrogate_count client - pre) in
    call_in_fiber w (fun () ->
        Array.iter (R.release broker) held;
        R.release client b;
        R.collect broker;
        R.collect client);
    let dirty () =
      Array.fold_left
        (fun a (h, _) -> a + List.length (R.dirty_set owner h))
        0 counters
    in
    ignore
      (drive_until ~limit_s:20.0 w (fun () ->
           dirty () = 0
           && R.surrogate_count client = 0
           && R.surrogate_count broker = 0));
    let residue =
      client_excess + dirty () + R.surrogate_count client
      + R.surrogate_count broker
    in
    let counted = ref [] in
    Array.iteri
      (fun i (_, v) ->
        if !v - counter_base <> succeeded.(i) && List.length !counted < 3 then
          counted :=
            Printf.sprintf "counter %d reads %d after %d completed calls" i
              (!v - counter_base) succeeded.(i)
            :: !counted)
      counters;
    let errors =
      List.rev !counted
      @ check (client_excess = 0)
          "client holds %d surrogates after the drain, %d before the run"
          (pre + client_excess) pre
      @ quiescent_checks w
    in
    { errors; residue }
  in
  {
    rt = w.w_rt;
    tcp = true;
    measure = tcp_measure w ~fibers:4 ~op;
    finish;
    close = tcp_close w;
  }

(* {1 The in-process ring on the domains engine} *)

let ring_spaces = 8

let ring_fibers = 16

let ring_domains ~seed ~probe:_ =
  let n = ring_spaces in
  let domains = 2 in
  let rt =
    R.create
      (R.config ~seed:(Int64.of_int seed) ~nspaces:n ~domains
         ~engine:(module Engine_domains : R.Engine.S)
         ())
  in
  let counters =
    Array.init n (fun i ->
        let sp = R.space rt i in
        let c, v = counter sp in
        R.publish sp (Printf.sprintf "cnt-%d" i) c;
        (c, v))
  in
  let until = ref 0.0 and episodes = ref 0 in
  let drive ?(limit_s = 60.0) pred =
    let deadline = now_ns () + int_of_float (limit_s *. 1e9) in
    while (not (pred ())) && now_ns () < deadline do
      until := !until +. 1.0;
      let id = Spans.enter Run in
      ignore (R.run rt ~until:!until);
      Spans.leave id;
      incr episodes
    done;
    pred ()
  in
  (* Each fiber looks up its own handle, as in E22.  [handles.(i)] and
     [sent.(i)] belong to space [i]'s shard. *)
  let handles = Array.init n (fun _ -> Array.make ring_fibers None) in
  let sent = Array.make n 0 in
  for i = 0 to n - 1 do
    for f = 0 to ring_fibers - 1 do
      R.spawn_at rt ~space:i (fun () ->
          let sp = R.space rt i in
          let target = (i + 1) mod n in
          let h = R.lookup sp ~at:target (Printf.sprintf "cnt-%d" target) in
          for _ = 1 to 4 do
            ignore (Stub.call sp h m_incr 1);
            sent.(i) <- sent.(i) + 1
          done;
          handles.(i).(f) <- Some h)
    done
  done;
  let ready () =
    Array.for_all (fun hs -> Array.for_all Option.is_some hs) handles
  in
  if not (drive ready) then fail "ring set-up did not finish";
  let nshards = R.nshards rt in
  let measure ~seconds ~traced =
    let t_start = now_ns () + prelude_ns in
    let t_end = t_start + int_of_float (seconds *. 1e9) in
    let recs =
      Array.init n (fun i ->
          Recorder.create ~sample_cpu:(i = 0) ~cap:(1 lsl 15) ~t_start ~t_end ())
    in
    let live = Array.make n ring_fibers in
    let sent0 = Array.fold_left ( + ) 0 sent in
    for i = 0 to n - 1 do
      let sp = R.space rt i in
      let op f =
        ignore (Stub.call sp (Option.get handles.(i).(f)) m_incr 1);
        sent.(i) <- sent.(i) + 1
      in
      for f = 0 to ring_fibers - 1 do
        R.spawn_at rt ~space:i (fun () ->
            while now_ns () < t_end do
              run_op recs.(i) op f
            done;
            live.(i) <- live.(i) - 1)
      done
    done;
    Spans.reset ();
    Spans.on := traced;
    let d = { runs = !episodes; pumps = 0; idle_pumps = 0 } in
    let before = snapshot rt None d in
    let t0 = now_ns () in
    let finished = drive (fun () -> Array.for_all (fun l -> l = 0) live) in
    let t1 = now_ns () in
    Spans.on := false;
    d.runs <- !episodes;
    let after = snapshot rt None d in
    if not finished then fail "ring callers did not stop";
    let shard_ops = Array.make nshards 0 in
    Array.iteri
      (fun i r ->
        let s = i * nshards / n in
        shard_ops.(s) <- shard_ops.(s) + r.Recorder.ok)
      recs;
    {
      recs = Array.to_list recs;
      loop_ns = t1 - t0;
      cpu_ops = Array.fold_left ( + ) 0 sent - sent0;
      before;
      after;
      shard_ops;
    }
  in
  let finish () =
    let mismatched =
      List.concat
        (List.init n (fun i ->
             let v = !(snd counters.((i + 1) mod n)) - counter_base in
             check (v = sent.(i)) "counter %d reads %d after %d completed calls"
               ((i + 1) mod n) v sent.(i)))
    in
    let released = Array.make n false in
    for i = 0 to n - 1 do
      R.spawn_at rt ~space:i (fun () ->
          let sp = R.space rt i in
          Array.iter (fun h -> R.release sp (Option.get h)) handles.(i);
          R.collect sp;
          released.(i) <- true)
    done;
    ignore (drive (fun () -> Array.for_all Fun.id released));
    let residue () =
      Array.fold_left ( + ) 0
        (Array.mapi
           (fun i (c, _) -> List.length (R.dirty_set (R.space rt i) c))
           counters)
      + List.fold_left (fun a sp -> a + R.surrogate_count sp) 0 (R.spaces rt)
    in
    ignore (drive ~limit_s:10.0 (fun () -> residue () = 0));
    (* One more episode with nothing to do settles in-flight acks. *)
    until := !until +. 1.0;
    ignore (R.run rt ~until:!until);
    let errors =
      mismatched @ R.check_consistency rt @ R.check_safety rt
    in
    { errors; residue = residue () }
  in
  { rt; tcp = false; measure; finish; close = (fun () -> ()) }

let all =
  [
    ("null-tcp", null_tcp);
    ("bulk-tcp", bulk_tcp);
    ("refs-tcp", refs_tcp);
    ("ring-domains", ring_domains);
  ]
