module Sched = Netobj_sched.Sched
module Rng = Netobj_util.Rng
module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace
module Metrics = Netobj_obs.Metrics

(* Global-registry mirrors of the per-network stats, so enabled runs get
   per-experiment message/byte counts in metrics dumps for free. *)
let m_sent = Metrics.counter Metrics.global "net.sent"

let m_bytes = Metrics.counter Metrics.global "net.bytes"

let m_delivered = Metrics.counter Metrics.global "net.delivered"

let m_dropped = Metrics.counter Metrics.global "net.dropped"

type addr = int

type latency = Constant of float | Uniform of float * float

type semantics = Bag | Fifo

type edge_config = { semantics : semantics; latency : latency }

let default_edge = { semantics = Bag; latency = Uniform (0.001, 0.01) }

let bag_edge ?(lo = 0.001) ?(hi = 0.01) () =
  { default_edge with latency = Uniform (lo, hi) }

let fifo_edge ?(latency = 0.005) () =
  { semantics = Fifo; latency = Constant latency }

type edge_state = {
  mutable last_deadline : float;  (* enforces FIFO by monotone deadlines *)
  mutable in_flight : int;  (* scheduled but not yet delivered/dropped *)
  (* Latency spike window, consulted against the virtual clock so it
     expires without a timer: while [now < spike_until] drawn latencies
     are multiplied by [spike_factor]. *)
  mutable spike_factor : float;
  mutable spike_until : float;
}

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  bytes : int;
}

type handler =
  src:addr -> kind:string -> payload:string -> off:int -> len:int -> unit

type t = {
  sched : Sched.t;
  rng : Rng.t;
  edges : (addr * addr, edge_state) Hashtbl.t;
  handlers : (addr, handler) Hashtbl.t;
  config : edge_config;  (* every edge's *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  by_kind : (string, (int * int) ref) Hashtbl.t;
  mutable obs_seq : int;  (* correlation ids for message-flight spans *)
  (* Controlled delivery order (model checking): when set, Bag-edge
     deliveries stop drawing a random latency and instead ask the
     callback for a slot in [0, slots); see [set_delivery_choice]. *)
  mutable delivery_choice : (int * (label:string -> n:int -> int)) option;
}

let create ~sched ~seed ?(edge = default_edge) () =
  {
    sched;
    rng = Rng.create seed;
    edges = Hashtbl.create 64;
    handlers = Hashtbl.create 16;
    config = edge;
    sent = 0;
    delivered = 0;
    dropped = 0;
    bytes = 0;
    by_kind = Hashtbl.create 16;
    obs_seq = 0;
    delivery_choice = None;
  }

let set_delivery_choice t ?(slots = 2) choose =
  if slots < 1 then invalid_arg "Net.set_delivery_choice: slots must be >= 1";
  t.delivery_choice <- Some (slots, choose)

let rng t = t.rng

let edge t src dst =
  match Hashtbl.find_opt t.edges (src, dst) with
  | Some e -> e
  | None ->
      let e =
        {
          last_deadline = 0.0;
          in_flight = 0;
          spike_factor = 1.0;
          spike_until = neg_infinity;
        }
      in
      Hashtbl.add t.edges (src, dst) e;
      e

let set_handler t addr h = Hashtbl.replace t.handlers addr h

let set_latency_spike t ~src ~dst ~factor ~until =
  let e = edge t src dst in
  e.spike_factor <- factor;
  e.spike_until <- until

let draw_latency t e =
  let lat =
    match t.config.latency with
    | Constant c -> c
    | Uniform (lo, hi) -> lo +. (Rng.float t.rng *. (hi -. lo))
  in
  if Sched.now t.sched < e.spike_until then lat *. e.spike_factor else lat

let obs_msg_args ~src ~dst ~kind len =
  [
    ("kind", Trace.S kind);
    ("src", Trace.I src);
    ("dst", Trace.I dst);
    ("bytes", Trace.I len);
  ]

(* One unit per message, in [stats], [stats_by_kind] and their
   metrics. *)
let account t kind len =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + len;
  if Obs.on () then begin
    Metrics.incr (Metrics.counter Metrics.global ("net.sent." ^ kind));
    Metrics.add (Metrics.counter Metrics.global ("net.bytes." ^ kind)) len;
    Metrics.incr m_sent;
    Metrics.add m_bytes len
  end;
  let cell =
    match Hashtbl.find_opt t.by_kind kind with
    | Some c -> c
    | None ->
        let c = ref (0, 0) in
        Hashtbl.add t.by_kind kind c;
        c
  in
  let n, b = !cell in
  cell := (n + 1, b + len)

(* Account [payload], then hand it to [dst]'s handler after the edge's
   latency, in a fresh fiber. *)
let send t ~src ~dst ~kind payload =
  let len = String.length payload in
  account t kind len;
  let e = edge t src dst in
  let deadline =
    match (t.config.semantics, t.delivery_choice) with
    | Bag, Some (slots, choose) ->
        (* Controlled mode: delivery order on a non-FIFO edge is an
           explicit choice, not a latency draw.  Slot [k] arrives after
           [(k+1) * base], so a later send in a low slot can overtake an
           earlier one in a high slot — the reordering Bag semantics
           allows — while equal slots tie and fall to the scheduler's
           same-instant timer choice. *)
        let base =
          match t.config.latency with
          | Constant c -> c
          | Uniform (lo, hi) -> 0.5 *. (lo +. hi)
        in
        let base =
          if Sched.now t.sched < e.spike_until then base *. e.spike_factor
          else base
        in
        (* A slot beyond 0 only matters when there is a concurrent
           message on the edge to reorder against; with nothing in
           flight, branching on the slot would multiply schedules
           without changing any observable order. *)
        let slot =
          if slots = 1 || e.in_flight = 0 then 0
          else
            choose
              ~label:(Printf.sprintf "deliver:%d>%d:%s" src dst kind)
              ~n:slots
        in
        if slot < 0 || slot >= slots then
          invalid_arg "Net: delivery chooser returned bad slot";
        Sched.now t.sched +. (base *. float_of_int (slot + 1))
    | Bag, None -> Sched.now t.sched +. draw_latency t e
    | Fifo, _ ->
        (* A FIFO edge never lets a later send be delivered earlier: clamp
           deadlines to be monotone; ties break by timer sequence. *)
        let d = Sched.now t.sched +. draw_latency t e in
        let d = Float.max d e.last_deadline in
        e.last_deadline <- d;
        d
  in
  t.obs_seq <- t.obs_seq + 1;
  let obs_id = t.obs_seq in
  (* One async span per message: begin at send, end at delivery or at a
     delivery-time drop. *)
  if Obs.on () then
    Trace.async_begin (Obs.trace ()) ~cat:"net" ~space:src ~id:obs_id
      ~args:(obs_msg_args ~src ~dst ~kind len)
      kind;
  let obs_arrival delivered =
    if Obs.on () then begin
      Trace.async_end (Obs.trace ()) ~cat:"net" ~space:dst ~id:obs_id
        ~args:[ ("delivered", Trace.I (Bool.to_int delivered)) ]
        kind;
      if delivered then Metrics.incr m_delivered
      else begin
        (* {!Faulty}'s drop schema, [count] included, so one reader sums
           drops from either layer. *)
        Metrics.incr m_dropped;
        Trace.instant (Obs.trace ()) ~cat:"net" ~space:src
          ~args:
            (obs_msg_args ~src ~dst ~kind len
            @ [ ("reason", Trace.S "no-handler"); ("count", Trace.I 1) ])
          "drop"
      end
    end
  in
  e.in_flight <- e.in_flight + 1;
  Sched.spawn t.sched
    ~name:(Printf.sprintf "net-delivery-%d>%d:%s" src dst kind)
    (fun () ->
      Sched.sleep t.sched (deadline -. Sched.now t.sched);
      e.in_flight <- e.in_flight - 1;
      match Hashtbl.find_opt t.handlers dst with
      | None ->
          t.dropped <- t.dropped + 1;
          obs_arrival false
      | Some h ->
          t.delivered <- t.delivered + 1;
          obs_arrival true;
          h ~src ~kind ~payload ~off:0 ~len)

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    bytes = t.bytes;
  }

let stats_by_kind t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.by_kind []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_stats t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.bytes <- 0;
  Hashtbl.reset t.by_kind
