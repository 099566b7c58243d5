module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Obs = Netobj_obs.Obs

type monitor = { mon_lock : Mutex.t; mon_cond : Condition.t }

type t = {
  shards : Engine.shard array;
  nshards : int;
  nspaces : int;
  (* The native transport when no custom one is supplied.  With a hub
     the drive loops use the monitor park/probe protocol below; with a
     custom transport (e.g. TCP) the engine cannot observe enqueues, so
     it falls back to the polling double-collect protocol. *)
  hub : Engine_hub.t option;
  (* Worker pool: sharding (ownership, sequential consistency per
     space) is decoupled from OS parallelism.  [pool] worker domains
     each drive a contiguous block of shards; by default the pool is
     capped at [Domain.recommended_domain_count], so an oversubscribed
     host multiplexes shards instead of thrashing context switches. *)
  pool : int;
  worker_shards : int array array;  (* worker -> owned shard ids *)
  shard_worker : int array;  (* shard -> owning worker *)
  monitors : monitor array;  (* per worker; parking and wakes *)
  stop : bool Atomic.t;
  (* Hub path.  [parked.(w)] is published by worker [w] while holding
     all of its mailbox locks with every queue verified empty, and
     cleared by every enqueue to any of its shards (the hub's wake
     hook) under that mailbox's lock — so [parked.(w) = true] always
     means "all of w's mailboxes empty and untouched since".
     [probe_req] asks worker 0 to run a termination probe. *)
  parked : bool Atomic.t array;
  probe_req : bool Atomic.t;
  (* Polling fallback.  [ops] counts observable activity (messages
     dispatched + scheduler steps); [iters] and [idle] publish each
     worker's drive-loop progress for the double-collect check. *)
  ops : int Atomic.t;
  iters : int Atomic.t array;
  idle : bool Atomic.t array;
}

let name = "domains"

let deterministic = false

(* Block partition: contiguous spaces share a shard, so neighbour
   traffic tends to stay on one domain. *)
let shard_of_space_id t space = space * t.nshards / t.nspaces

let pool_size nshards =
  let hw = max 1 (Domain.recommended_domain_count ()) in
  let p =
    match Sys.getenv_opt "NETOBJ_DOMAINS_POOL" with
    | Some s -> (
        match int_of_string_opt s with Some n when n > 0 -> n | _ -> hw)
    | None -> hw
  in
  max 1 (min nshards p)

let create (p : Engine.params) =
  (match p.p_policy with
  | Sched.Controlled _ ->
      invalid_arg
        "Engine_domains: Controlled scheduling requires the sim engine"
  | Sched.Fifo | Sched.Random _ -> ());
  let nshards = max 1 (min p.p_nspaces p.p_domains) in
  let hub =
    match p.p_mk_transport with
    | Some _ -> None
    | None ->
        Some
          (Engine_hub.create ~nspaces:p.p_nspaces ~nshards
             ~shard_of_space:(fun space -> space * nshards / p.p_nspaces)
             ())
  in
  let shards =
    Array.init nshards (fun k ->
        let sched = Sched.create ~policy:p.p_policy () in
        let net =
          Net.create ~sched
            ~seed:(Int64.add p.p_seed (Int64.of_int k))
            ~edge:p.p_edge ()
        in
        let tr =
          match (p.p_mk_transport, hub) with
          | Some f, _ -> f sched net
          | None, Some h -> Engine_hub.view h ~shard:k ~sched
          | None, None -> assert false
        in
        { Engine.s_id = k; s_sched = sched; s_net = net; s_transport = tr })
  in
  (* Observability timestamps follow shard 0's clock; cross-shard traces
     are best-effort under this engine (see README). *)
  Obs.set_clock (fun () -> Sched.now shards.(0).Engine.s_sched);
  let pool = pool_size nshards in
  let worker_shards =
    Array.init pool (fun w ->
        let lo = w * nshards / pool and hi = (w + 1) * nshards / pool in
        Array.init (hi - lo) (fun i -> lo + i))
  in
  let shard_worker = Array.make nshards 0 in
  Array.iteri
    (fun w owned -> Array.iter (fun k -> shard_worker.(k) <- w) owned)
    worker_shards;
  let t =
    {
      shards;
      nshards;
      nspaces = p.p_nspaces;
      hub;
      pool;
      worker_shards;
      shard_worker;
      monitors =
        Array.init pool (fun _ ->
            { mon_lock = Mutex.create (); mon_cond = Condition.create () });
      stop = Atomic.make false;
      parked = Array.init pool (fun _ -> Atomic.make false);
      probe_req = Atomic.make false;
      ops = Atomic.make 0;
      iters = Array.init pool (fun _ -> Atomic.make 0);
      idle = Array.init pool (fun _ -> Atomic.make true);
    }
  in
  (match hub with
  | Some h ->
      (* Runs under the destination's mailbox lock on every enqueue:
         unpark the owning worker, and ask for a wake only if it was
         parked. *)
      Engine_hub.set_wake_hook h (fun shard ->
          Atomic.exchange t.parked.(t.shard_worker.(shard)) false);
      Engine_hub.set_waker h (fun shard ->
          let m = t.monitors.(t.shard_worker.(shard)) in
          Mutex.lock m.mon_lock;
          Condition.broadcast m.mon_cond;
          Mutex.unlock m.mon_lock)
  | None -> ());
  t

let shards t = t.shards

let shard_of_space t space = t.shards.(shard_of_space_id t space)

let spawn t ~shard ?name f =
  Sched.spawn t.shards.(shard).Engine.s_sched ?name f

(* Deliver whatever reached this shard, then run its world to quiescence
   at [until]. *)
let work t k ~max_steps ~until =
  let sh = t.shards.(k) in
  let d = Transport.pump sh.Engine.s_transport ~timeout:0.0 in
  let steps = Sched.run ?max_steps ~until sh.Engine.s_sched in
  (d, steps)

(* {2 Hub path: monitor park/probe}

   Idle workers park on their monitor; senders record wake debts that
   their drive loop settles once per sweep, so a whole batch of
   cross-domain messages costs one futex wake (and waking mid-batch
   would invite wake-up preemption — see {!Engine_hub}).

   Termination: when the last worker parks it raises [probe_req] and
   wakes worker 0.  Worker 0 sweeps its own shards once more; if that
   sweep does nothing and every worker is still parked, no message can
   exist anywhere — parked workers have verified-empty mailboxes
   (parked is cleared by enqueue under the same locks that published
   it), they are blocked so they cannot send, and worker 0 just proved
   it has nothing to send either — so the episode is over.

   Locks never nest across kinds: parked publication holds only mailbox
   locks (in shard order); parking, probe signalling and wake
   settlement each hold exactly one monitor lock. *)

let wake_worker t w =
  let m = t.monitors.(w) in
  Mutex.lock m.mon_lock;
  Condition.broadcast m.mon_cond;
  Mutex.unlock m.mon_lock

let workers_parked t =
  let ok = ref true in
  for w = 1 to t.pool - 1 do
    if not (Atomic.get t.parked.(w)) then ok := false
  done;
  !ok

(* One sweep: every owned shard delivers + runs, then the sweep's wake
   debts are settled.  Flushing after every sweep (in particular before
   any park) is what keeps the deferred-wake protocol live. *)
let sweep t hub w ~max_steps ~until =
  let n = ref 0 in
  let owned = t.worker_shards.(w) in
  Array.iter
    (fun k ->
      let d, steps = work t k ~max_steps ~until in
      n := !n + d + steps)
    owned;
  Array.iter (fun k -> Engine_hub.flush_wakes hub ~shard:k) owned;
  !n

(* Publish "worker [w] is parked": with all owned mailbox locks held and
   every queue verified empty, set the flag.  Any later enqueue to an
   owned shard clears it under that mailbox's lock, so readers of
   [parked] need no further synchronisation. *)
let publish_parked t hub w =
  let owned = t.worker_shards.(w) in
  Array.iter (fun k -> Engine_hub.lock_mailbox hub ~shard:k) owned;
  let empty =
    Array.for_all (fun k -> not (Engine_hub.has_mail hub ~shard:k)) owned
  in
  if empty then Atomic.set t.parked.(w) true;
  for i = Array.length owned - 1 downto 0 do
    Engine_hub.unlock_mailbox hub ~shard:owned.(i)
  done;
  empty

let park_worker t w =
  if workers_parked t then begin
    (* Last one in: ask worker 0 to run its termination probe. *)
    Atomic.set t.probe_req true;
    wake_worker t 0
  end;
  let m = t.monitors.(w) in
  Mutex.lock m.mon_lock;
  while Atomic.get t.parked.(w) && not (Atomic.get t.stop) do
    Condition.wait m.mon_cond m.mon_lock
  done;
  Mutex.unlock m.mon_lock

let wait_worker0 t =
  let m = t.monitors.(0) in
  Mutex.lock m.mon_lock;
  while
    Atomic.get t.parked.(0)
    && (not (Atomic.get t.stop))
    && (not (Atomic.get t.probe_req))
    && not (workers_parked t)
  do
    Condition.wait m.mon_cond m.mon_lock
  done;
  Atomic.set t.probe_req false;
  Mutex.unlock m.mon_lock

let hub_drive t hub w ~max_steps ~until =
  let total = ref 0 in
  let sweep () =
    let n = sweep t hub w ~max_steps ~until in
    total := !total + n;
    n
  in
  if w = 0 then
    while not (Atomic.get t.stop) do
      if sweep () = 0 then begin
        if publish_parked t hub 0 then wait_worker0 t;
        if (not (Atomic.get t.stop)) && workers_parked t then
          (* Termination probe: one final sweep of our own shards. *)
          if sweep () = 0 && workers_parked t then begin
            Atomic.set t.stop true;
            for j = 1 to t.pool - 1 do
              wake_worker t j
            done
          end
      end
    done
  else
    while not (Atomic.get t.stop) do
      if sweep () = 0 then
        if publish_parked t hub w then park_worker t w
    done;
  !total

(* {2 Polling fallback (custom transports)}

   External transports deliver without telling the engine, so idle
   workers must poll.  Publication order matters for the termination
   proof: activity lands in [ops] before the iteration is announced via
   [idle]/[iters]. *)

let iteration t w ~max_steps ~until =
  let n = ref 0 in
  Array.iter
    (fun k ->
      let d, steps = work t k ~max_steps ~until in
      n := !n + d + steps)
    t.worker_shards.(w);
  let n = !n in
  if n > 0 then ignore (Atomic.fetch_and_add t.ops n);
  Atomic.set t.idle.(w) (n = 0);
  Atomic.incr t.iters.(w);
  n

(* Worker 0's termination probe.  Sound because any undelivered message
   was sent inside an iteration that bumps [ops] at its end: either the
   bump precedes [ops0] (then the message is already enqueued, and the
   destination's fresh idle iteration — or our own re-pump — would have
   delivered it) or it follows [ops0] (then the final counter re-read
   aborts the stop). *)
let try_stop t ~until =
  let ops0 = Atomic.get t.ops in
  let it0 = Array.map Atomic.get t.iters in
  let fresh_and_idle w =
    Atomic.get t.iters.(w) > it0.(w) && Atomic.get t.idle.(w)
  in
  let rec wait spins =
    if Atomic.get t.ops <> ops0 then false
    else if
      (let ok = ref true in
       for w = 1 to t.pool - 1 do
         if not (fresh_and_idle w) then ok := false
       done;
       !ok)
    then true
    else if spins >= 10_000 then false
    else begin
      Domain.cpu_relax ();
      if spins land 0xff = 0xff then Unix.sleepf 0.0001;
      wait (spins + 1)
    end
  in
  if wait 0 then
    if iteration t 0 ~max_steps:None ~until = 0 && Atomic.get t.ops = ops0
    then Atomic.set t.stop true

let poll_drive t w ~max_steps ~until =
  let total = ref 0 in
  let idle_streak = ref 0 in
  while not (Atomic.get t.stop) do
    let n = iteration t w ~max_steps ~until in
    total := !total + n;
    if n > 0 then idle_streak := 0
    else begin
      incr idle_streak;
      if w = 0 then try_stop t ~until
      else if !idle_streak > 64 then Unix.sleepf 0.0002
      else Domain.cpu_relax ()
    end
  done;
  !total

let drive t w ~max_steps ~until =
  match t.hub with
  | Some hub -> hub_drive t hub w ~max_steps ~until
  | None -> poll_drive t w ~max_steps ~until

let run ?max_steps ?until t =
  let until =
    match until with
    | Some u -> u
    | None ->
        invalid_arg
          "Engine_domains.run: ~until is required (periodic demons re-arm \
           forever, an open-ended episode never quiesces)"
  in
  Atomic.set t.stop false;
  Atomic.set t.probe_req false;
  Array.iter (fun a -> Atomic.set a false) t.parked;
  Atomic.set t.ops 0;
  Array.iter (fun a -> Atomic.set a 0) t.iters;
  Array.iter (fun a -> Atomic.set a true) t.idle;
  let workers =
    Array.init (t.pool - 1) (fun j ->
        Domain.spawn (fun () -> drive t (j + 1) ~max_steps ~until))
  in
  let s0 = drive t 0 ~max_steps ~until in
  Array.fold_left (fun acc d -> acc + Domain.join d) s0 workers

let close _ = ()
