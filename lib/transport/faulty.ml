module Sched = Netobj_sched.Sched
module Rng = Netobj_util.Rng
module Net = Netobj_net.Net
module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace
module Metrics = Netobj_obs.Metrics

(* Fault gates sit on both sides of the wrapped backend: the send gate
   drops before a message reaches the backend (crash/partition/filter/
   loss), the receive gate drops between the backend's delivery fiber
   and the user handler (so a crash or partition that happens while a
   message is in flight still eats it).  Burst and spike windows expire
   against the {e virtual} clock, so a chaos schedule drives every
   backend identically. *)

(* The fault-drop metrics keep the names the simulated network first
   gave them, so dumps read the same on every backend. *)
let m_dropped = Metrics.counter Metrics.global "net.dropped"

let m_drop_src_crashed = Metrics.counter Metrics.global "net.dropped.src_crashed"

let m_drop_dst_crashed = Metrics.counter Metrics.global "net.dropped.dst_crashed"

let m_duplicated = Metrics.counter Metrics.global "net.duplicated"

(* A fault level on one directed edge, in force while the virtual clock
   is before [until]: a loss or duplication probability, or a spike's
   latency factor.  Each axis keeps its own windows, so arming one never
   touches another. *)
type window = { level : float; until : float }

(* Stall applied per delivery while a latency spike is active over an
   opaque backend: the decorator cannot stretch the wire's real latency,
   so it sleeps the delivery fiber [factor × base] on the virtual clock
   instead. *)
let spike_base = 0.001

type cause = Src_crashed | Dst_crashed | Partitioned | Filtered | Loss

let reason = function
  | Src_crashed -> "src-crashed"
  | Dst_crashed -> "dst-crashed"
  | Partitioned -> "partitioned"
  | Filtered -> "filtered"
  | Loss -> "loss"

type state = {
  sched : Sched.t;
  rng : Rng.t;
  crashed : (int, unit) Hashtbl.t;
  partitions : (int * int, unit) Hashtbl.t;
  losses : (int * int, window) Hashtbl.t;
  dups : (int * int, window) Hashtbl.t;
  stalls : (int * int, window) Hashtbl.t;
      (* spikes to stall on; stays empty when spikes scale a latency model *)
  mutable filter : (src:int -> dst:int -> kind:string -> bool) option;
  (* fault accounting, per logical message *)
  mutable dropped : int;
  mutable drop_src : int;
  mutable drop_dst : int;
  mutable dup : int;
  mutable rx_dropped : int;  (* receive-gate drops the backend counted delivered *)
}

let pair a b = if a <= b then (a, b) else (b, a)

let partitioned st a b = Hashtbl.mem st.partitions (pair a b)

let is_crashed st a = Hashtbl.mem st.crashed a

let active st windows key =
  match Hashtbl.find_opt windows key with
  | Some w when Sched.now st.sched < w.until -> Some w.level
  | _ -> None

let probability st windows key =
  Option.value ~default:0.0 (active st windows key)

let msg_args ~src ~dst ~kind len =
  [
    ("kind", Trace.S kind);
    ("src", Trace.I src);
    ("dst", Trace.I dst);
    ("bytes", Trace.I len);
  ]

let drop st ~src ~dst ~kind len cause =
  st.dropped <- st.dropped + 1;
  (match cause with
  | Src_crashed -> st.drop_src <- st.drop_src + 1
  | Dst_crashed -> st.drop_dst <- st.drop_dst + 1
  | Partitioned | Filtered | Loss -> ());
  if Obs.on () then begin
    Metrics.incr m_dropped;
    (match cause with
    | Src_crashed -> Metrics.incr m_drop_src_crashed
    | Dst_crashed -> Metrics.incr m_drop_dst_crashed
    | Partitioned | Filtered | Loss -> ());
    Trace.instant (Obs.trace ()) ~cat:"net" ~space:src
      ~args:
        (msg_args ~src ~dst ~kind len
        @ [ ("reason", Trace.S (reason cause)); ("count", Trace.I 1) ])
      "drop"
  end

(* Send gate: why the message must not reach the backend, if it must
   not.  A crashed source cannot emit at all; a live source talking to a
   crashed destination loses the message on the wire.  The source check
   wins when both are down. *)
let send_cause st ~src ~dst ~kind =
  if is_crashed st src then Some Src_crashed
  else if is_crashed st dst then Some Dst_crashed
  else if partitioned st src dst then Some Partitioned
  else if
    match st.filter with Some keep -> not (keep ~src ~dst ~kind) | None -> false
  then Some Filtered
  else
    let p = probability st st.losses (src, dst) in
    if p > 0.0 && Rng.chance st.rng p then Some Loss else None

let duplicate_at_send st ~src ~dst ~kind len =
  let p = probability st st.dups (src, dst) in
  if p > 0.0 && Rng.chance st.rng p then begin
    st.dup <- st.dup + 1;
    if Obs.on () then begin
      Metrics.incr m_duplicated;
      Trace.instant (Obs.trace ()) ~cat:"net" ~space:src
        ~args:(msg_args ~src ~dst ~kind len)
        "dup"
    end;
    true
  end
  else false

(* Receive gate, run inside the backend's delivery fiber after any spike
   stall, so a fault that forms during the stall still applies.  A
   message in flight towards a crashed destination is lost; one whose
   source died mid-flight models the RPC bouncing (connection reset). *)
let receive_cause st ~src ~dst =
  if is_crashed st dst then Some Dst_crashed
  else if is_crashed st src then Some Src_crashed
  else if partitioned st src dst then Some Partitioned
  else None

let stall st ~src ~dst =
  if Hashtbl.length st.stalls > 0 then
    match active st st.stalls (src, dst) with
    | Some factor -> Sched.sleep st.sched (spike_base *. factor)
    | None -> ()

(* [latency_spike] is the backend's own latency model, when it has one;
   without it spikes stall the delivery fiber. *)
let stack ~sched ~rng ?latency_spike base =
  let st =
    {
      sched;
      rng;
      crashed = Hashtbl.create 8;
      partitions = Hashtbl.create 8;
      losses = Hashtbl.create 8;
      dups = Hashtbl.create 8;
      stalls = Hashtbl.create 8;
      filter = None;
      dropped = 0;
      drop_src = 0;
      drop_dst = 0;
      dup = 0;
      rx_dropped = 0;
    }
  in
  let gated forward ~src ~dst ~kind payload =
    match send_cause st ~src ~dst ~kind with
    | Some cause -> drop st ~src ~dst ~kind (String.length payload) cause
    | None ->
        forward ~src ~dst ~kind payload;
        if duplicate_at_send st ~src ~dst ~kind (String.length payload) then
          forward ~src ~dst ~kind payload
  in
  let set_handler addr h =
    base.Transport.t_set_handler addr (fun ~src ~kind ~payload ~off ~len ->
        stall st ~src ~dst:addr;
        match receive_cause st ~src ~dst:addr with
        | None -> h ~src ~kind ~payload ~off ~len
        | Some cause ->
            st.rx_dropped <- st.rx_dropped + 1;
            drop st ~src ~dst:addr ~kind len cause)
  in
  let stats () =
    let s = base.Transport.t_stats () in
    {
      s with
      Transport.delivered = s.Transport.delivered - st.rx_dropped;
      dropped = s.Transport.dropped + st.dropped;
      dropped_src_crashed = s.Transport.dropped_src_crashed + st.drop_src;
      dropped_dst_crashed = s.Transport.dropped_dst_crashed + st.drop_dst;
      duplicated = s.Transport.duplicated + st.dup;
    }
  in
  let reset_stats () =
    base.Transport.t_reset_stats ();
    st.dropped <- 0;
    st.drop_src <- 0;
    st.drop_dst <- 0;
    st.dup <- 0;
    st.rx_dropped <- 0
  in
  let send ~src ~dst ~kind payload =
    gated base.Transport.t_send ~src ~dst ~kind payload
  in
  {
    base with
    Transport.t_name = base.Transport.t_name ^ "+faulty";
    t_send = send;
    t_post = send;
    t_flush = ignore;
    t_set_handler = set_handler;
    t_stats = stats;
    t_reset_stats = reset_stats;
    t_faults =
      {
        Transport.f_crash = (fun a -> Hashtbl.replace st.crashed a ());
        f_restore = (fun a -> Hashtbl.remove st.crashed a);
        f_is_crashed = is_crashed st;
        f_set_partitioned =
          (fun a b on ->
            if on then Hashtbl.replace st.partitions (pair a b) ()
            else Hashtbl.remove st.partitions (pair a b));
        f_partitioned = partitioned st;
        f_heal_all = (fun () -> Hashtbl.reset st.partitions);
        f_set_burst =
          (fun ~src ~dst ~loss ~dup ~until ->
            (* a later setting on the same axis replaces the earlier one *)
            let arm windows =
              Option.iter (fun level ->
                  Hashtbl.replace windows (src, dst) { level; until })
            in
            arm st.losses loss;
            arm st.dups dup);
        f_set_latency_spike =
          (match latency_spike with
          | Some f -> f
          | None ->
              fun ~src ~dst ~factor ~until ->
                Hashtbl.replace st.stalls (src, dst) { level = factor; until });
        f_set_filter = (fun f -> st.filter <- f);
      };
  }

let wrap ~sched ~seed base = stack ~sched ~rng:(Rng.create seed) base

let of_net ~sched net =
  stack ~sched ~rng:(Net.rng net)
    ~latency_spike:(fun ~src ~dst ~factor ~until ->
      Net.set_latency_spike net ~src ~dst ~factor ~until)
    (Transport_sim.of_net net)
