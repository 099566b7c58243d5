module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport

type msg = { m_src : int; m_dst : int; m_kind : string; m_payload : string }

type mailbox = { mb_lock : Mutex.t; mb_q : msg Queue.t }

type t = {
  shard_of_space : int -> int;
  mailboxes : mailbox array;  (* one per shard *)
  crashed : bool array;  (* per space; control-plane writes only *)
  handlers : Transport.handler option array;  (* per space, set at create *)
  mutable wake_hook : int -> bool;
      (* run on every enqueue, under the destination's mailbox lock;
         returns whether the destination's worker needs a wake *)
  mutable waker : int -> unit;
      (* settles one wake debt: signal the worker that owns the shard *)
  pending : bool array array;
      (* [pending.(k).(j)]: shard [k] owes shard [j] a wake.  Row [k] is
         touched only by shard [k]'s domain (send marks, flush clears),
         so rows need no locks. *)
  (* Stats are whole-hub (every view reports the same numbers); atomics
     because shards update them concurrently. *)
  sent : int Atomic.t;
  delivered : int Atomic.t;
  dropped : int Atomic.t;
  dropped_src : int Atomic.t;
  dropped_dst : int Atomic.t;
  bytes : int Atomic.t;
}

let create ~nspaces ~nshards ~shard_of_space () =
  {
    shard_of_space;
    mailboxes =
      Array.init nshards (fun _ ->
          { mb_lock = Mutex.create (); mb_q = Queue.create () });
    crashed = Array.make nspaces false;
    handlers = Array.make nspaces None;
    wake_hook = (fun _ -> true);
    waker = ignore;
    pending = Array.init nshards (fun _ -> Array.make nshards false);
    sent = Atomic.make 0;
    delivered = Atomic.make 0;
    dropped = Atomic.make 0;
    dropped_src = Atomic.make 0;
    dropped_dst = Atomic.make 0;
    bytes = Atomic.make 0;
  }

let set_wake_hook t f = t.wake_hook <- f
let set_waker t f = t.waker <- f

let lock_mailbox t ~shard = Mutex.lock t.mailboxes.(shard).mb_lock
let unlock_mailbox t ~shard = Mutex.unlock t.mailboxes.(shard).mb_lock
let has_mail t ~shard = not (Queue.is_empty t.mailboxes.(shard).mb_q)

let flush_wakes t ~shard =
  let row = t.pending.(shard) in
  for j = 0 to Array.length row - 1 do
    if row.(j) then begin
      row.(j) <- false;
      t.waker j
    end
  done

let send t ~from ~src ~dst ~kind payload =
  if t.crashed.(src) then begin
    Atomic.incr t.dropped;
    Atomic.incr t.dropped_src
  end
  else if t.crashed.(dst) then begin
    Atomic.incr t.dropped;
    Atomic.incr t.dropped_dst
  end
  else begin
    Atomic.incr t.sent;
    ignore (Atomic.fetch_and_add t.bytes (String.length payload));
    let shard = t.shard_of_space dst in
    let mb = t.mailboxes.(shard) in
    Mutex.lock mb.mb_lock;
    Queue.push { m_src = src; m_dst = dst; m_kind = kind; m_payload = payload }
      mb.mb_q;
    let want_wake = t.wake_hook shard in
    Mutex.unlock mb.mb_lock;
    (* Don't wake here: waking a parked destination mid-batch lets the
       OS preempt the sender at once (wake-up preemption), turning every
       cross-shard message into a context switch.  Record the debt; the
       sender's drive loop flushes it once per iteration, so a whole
       batch of messages costs one wake. *)
    if want_wake then t.pending.(from).(shard) <- true
  end

(* Drain this shard's mailbox and hand every message to its space's
   handler in a fresh fiber.  The crash check repeats at delivery so a
   message enqueued just before a crash still drops. *)
let pump t ~shard ~sched =
  let mb = t.mailboxes.(shard) in
  Mutex.lock mb.mb_lock;
  let batch = Queue.create () in
  Queue.transfer mb.mb_q batch;
  Mutex.unlock mb.mb_lock;
  let n = Queue.length batch in
  Queue.iter
    (fun m ->
      match t.handlers.(m.m_dst) with
      | Some h when not (t.crashed.(m.m_dst) || t.crashed.(m.m_src)) ->
          Atomic.incr t.delivered;
          (* The fiber name is the message kind, not a formatted
             src>dst label: this runs once per message and the sprintf
             showed up in E22 profiles. *)
          Sched.spawn sched ~name:m.m_kind (fun () ->
              h ~src:m.m_src ~kind:m.m_kind ~payload:m.m_payload ~off:0
                ~len:(String.length m.m_payload))
      | Some _ | None -> Atomic.incr t.dropped)
    batch;
  n

let unsupported what _ =
  invalid_arg
    (Printf.sprintf
       "Engine_hub: %s requires the deterministic sim engine" what)

let view t ~shard ~sched =
  let stats () =
    {
      Transport.zero_stats with
      Transport.sent = Atomic.get t.sent;
      delivered = Atomic.get t.delivered;
      dropped = Atomic.get t.dropped;
      dropped_src_crashed = Atomic.get t.dropped_src;
      dropped_dst_crashed = Atomic.get t.dropped_dst;
      bytes = Atomic.get t.bytes;
    }
  in
  let send ~src ~dst ~kind payload = send t ~from:shard ~src ~dst ~kind payload in
  {
    Transport.t_name = "hub";
    t_send = send;
    t_post = send;
    t_flush = ignore;
    t_set_handler = (fun a h -> t.handlers.(a) <- Some h);
    t_connect = (fun _ -> ());
    t_pump = (fun ~timeout:_ -> pump t ~shard ~sched);
    t_close = (fun () -> ());
    t_stats = stats;
    t_stats_by_kind = (fun () -> []);
    t_reset_stats =
      (fun () ->
        List.iter
          (fun a -> Atomic.set a 0)
          [ t.sent; t.delivered; t.dropped; t.dropped_src; t.dropped_dst;
            t.bytes ]);
    t_faults =
      {
        Transport.f_crash = (fun a -> t.crashed.(a) <- true);
        f_restore = (fun a -> t.crashed.(a) <- false);
        f_is_crashed = (fun a -> t.crashed.(a));
        f_set_partitioned = (fun _ _ _ -> unsupported "partitions" ());
        f_partitioned = (fun _ _ -> false);
        f_heal_all = (fun () -> ());
        f_set_burst =
          (fun ~src:_ ~dst:_ ~loss:_ ~dup:_ ~until:_ ->
            unsupported "bursts" ());
        f_set_latency_spike =
          (fun ~src:_ ~dst:_ ~factor:_ ~until:_ -> unsupported "spikes" ());
        f_set_filter = (fun _ -> unsupported "filters" ());
      };
  }
