module Sched = Netobj_sched.Sched
module Rng = Netobj_util.Rng
module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace
module Metrics = Netobj_obs.Metrics
module Wire = Netobj_pickle.Wire

(* Global-registry mirrors of the per-network stats, so enabled runs get
   per-experiment message/byte counts in metrics dumps for free. *)
let m_sent = Metrics.counter Metrics.global "net.sent"

let m_bytes = Metrics.counter Metrics.global "net.bytes"

let m_delivered = Metrics.counter Metrics.global "net.delivered"

let m_dropped = Metrics.counter Metrics.global "net.dropped"

let m_duplicated = Metrics.counter Metrics.global "net.duplicated"

let m_frames = Metrics.counter Metrics.global "net.frames"

let m_coalesced = Metrics.counter Metrics.global "net.coalesced"

type addr = int

type latency = Constant of float | Uniform of float * float

type semantics = Bag | Fifo

type edge_config = {
  semantics : semantics;
  latency : latency;
  loss : float;
  dup : float;
}

let default_edge =
  { semantics = Bag; latency = Uniform (0.001, 0.01); loss = 0.0; dup = 0.0 }

let bag_edge ?(lo = 0.001) ?(hi = 0.01) () =
  { default_edge with latency = Uniform (lo, hi) }

let fifo_edge ?(latency = 0.005) () =
  { semantics = Fifo; latency = Constant latency; loss = 0.0; dup = 0.0 }

type edge_state = {
  mutable config : edge_config;
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
  duplicated : int;
  bytes : int;
  frames : int;
  coalesced : int;
}

type handler =
  src:addr -> kind:string -> payload:string -> off:int -> len:int -> unit

(* Pending coalesced messages for one directed edge: submessages are
   serialised into the writer as they are posted ([string kind; string
   payload] each), so flushing is a single buffer snapshot. *)
type outbox = { ob_w : Wire.Writer.t; mutable ob_n : int }

type t = {
  sched : Sched.t;
  rng : Rng.t;
  edges : (addr * addr, edge_state) Hashtbl.t;
  handlers : (addr, handler) Hashtbl.t;
  mutable default : edge_config;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable bytes : int;
  mutable frames : int;
  mutable coalesced : int;
  by_kind : (string, (int * int) ref) Hashtbl.t;
  outboxes : (addr * addr, outbox) Hashtbl.t;
  mutable flush_armed : bool;
  mutable obs_seq : int;  (* correlation ids for message-flight spans *)
  (* Controlled delivery order (model checking): when set, Bag-edge
     deliveries stop drawing a random latency and instead ask the
     callback for a slot in [0, slots); see [set_delivery_choice]. *)
  mutable delivery_choice : (int * (label:string -> n:int -> int)) option;
}

let create ~sched ~seed () =
  {
    sched;
    rng = Rng.create seed;
    edges = Hashtbl.create 64;
    handlers = Hashtbl.create 16;
    default = default_edge;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    bytes = 0;
    frames = 0;
    coalesced = 0;
    by_kind = Hashtbl.create 16;
    outboxes = Hashtbl.create 16;
    flush_armed = false;
    obs_seq = 0;
    delivery_choice = None;
  }

let set_delivery_choice t ?(slots = 2) choose =
  if slots < 1 then invalid_arg "Net.set_delivery_choice: slots must be >= 1";
  t.delivery_choice <- Some (slots, choose)

let clear_delivery_choice t = t.delivery_choice <- None

let rng t = t.rng

let edge t src dst =
  match Hashtbl.find_opt t.edges (src, dst) with
  | Some e -> e
  | None ->
      let e =
        {
          config = t.default;
          last_deadline = 0.0;
          in_flight = 0;
          spike_factor = 1.0;
          spike_until = neg_infinity;
        }
      in
      Hashtbl.add t.edges (src, dst) e;
      e

let set_edge t ~src ~dst config = (edge t src dst).config <- config

let set_all_edges t config =
  t.default <- config;
  Hashtbl.iter (fun _ e -> e.config <- config) t.edges

let set_handler t addr h = Hashtbl.replace t.handlers addr h

let set_latency_spike t ~src ~dst ~factor ~until =
  let e = edge t src dst in
  e.spike_factor <- factor;
  e.spike_until <- until

let draw_latency t e =
  let lat =
    match e.config.latency with
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

(* [count] is the number of logical messages lost — a dropped coalesced
   frame is [count] drop events, not one, so the metric and the trace
   agree with the per-constituent [stats.dropped] accounting. *)
let obs_drop ?(count = 1) ~src ~dst ~kind len reason =
  if Obs.on () then begin
    Metrics.add m_dropped count;
    Trace.instant (Obs.trace ()) ~cat:"net" ~space:src
      ~args:
        (obs_msg_args ~src ~dst ~kind len
        @ [ ("reason", Trace.S reason); ("count", Trace.I count) ])
      "drop"
  end

(* Logical accounting: one unit per application message, whether it later
   travels alone or packed into a frame.  [stats_by_kind] and the
   per-kind metrics always see logical counts. *)
let account_logical t kind len =
  if Obs.on () then begin
    Metrics.incr (Metrics.counter Metrics.global ("net.sent." ^ kind));
    Metrics.add (Metrics.counter Metrics.global ("net.bytes." ^ kind)) len
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

(* Physical accounting: one unit per payload actually handed to the
   network.  [stats.sent]/[stats.bytes] count these, so a coalesced run
   reports fewer, larger sends. *)
let account_physical t len =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + len;
  if Obs.on () then begin
    Metrics.incr m_sent;
    Metrics.add m_bytes len
  end

(* [count] is the number of logical messages riding on this payload (1
   for a direct send); drop/delivery counters advance by [count] so
   coalesced and direct runs agree on logical totals.  [dispatch h] is
   called with the destination handler once the payload arrives. *)
let schedule_delivery t ~src ~dst ~kind ~count payload dispatch =
  let e = edge t src dst in
  let deadline =
    match (e.config.semantics, t.delivery_choice) with
    | Bag, Some (slots, choose) ->
        (* Controlled mode: delivery order on a non-FIFO edge is an
           explicit choice, not a latency draw.  Slot [k] arrives after
           [(k+1) * base], so a later send in a low slot can overtake an
           earlier one in a high slot — the reordering Bag semantics
           allows — while equal slots tie and fall to the scheduler's
           same-instant timer choice. *)
        let base =
          match e.config.latency with
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
  let len = String.length payload in
  t.obs_seq <- t.obs_seq + 1;
  let obs_id = t.obs_seq in
  (* One async span per scheduled delivery (duplicates get their own):
     begin at send, end at delivery or at a delivery-time drop. *)
  if Obs.on () then
    Trace.async_begin (Obs.trace ()) ~cat:"net" ~space:src ~id:obs_id
      ~args:(obs_msg_args ~src ~dst ~kind len)
      kind;
  let obs_arrival delivered reason =
    if Obs.on () then begin
      Trace.async_end (Obs.trace ()) ~cat:"net" ~space:dst ~id:obs_id
        ~args:[ ("delivered", Trace.I (Bool.to_int delivered)) ]
        kind;
      if delivered then Metrics.add m_delivered count
      else obs_drop ~count ~src ~dst ~kind len reason
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
          t.dropped <- t.dropped + count;
          obs_arrival false "no-handler"
      | Some h ->
          t.delivered <- t.delivered + count;
          obs_arrival true "";
          dispatch h)

(* The edge's loss axiom, drawn at send time.  Returns [true] when the
   message was dropped (and accounted). *)
let lost_at_send t ~src ~dst ~kind len =
  let p = (edge t src dst).config.loss in
  if p > 0.0 && Rng.chance t.rng p then begin
    t.dropped <- t.dropped + 1;
    obs_drop ~src ~dst ~kind len "loss";
    true
  end
  else false

(* The edge's duplication axiom, drawn once the original is on its way.
   Returns [true] when a second copy must travel (already accounted). *)
let duplicated_at_send t ~src ~dst ~kind len =
  let p = (edge t src dst).config.dup in
  if p > 0.0 && Rng.chance t.rng p then begin
    t.duplicated <- t.duplicated + 1;
    if Obs.on () then begin
      Metrics.incr m_duplicated;
      Trace.instant (Obs.trace ()) ~cat:"net" ~space:src
        ~args:(obs_msg_args ~src ~dst ~kind len)
        "dup"
    end;
    true
  end
  else false

let send t ~src ~dst ~kind payload =
  let len = String.length payload in
  account_logical t kind len;
  account_physical t len;
  if not (lost_at_send t ~src ~dst ~kind len) then begin
    let deliver h = h ~src ~kind ~payload ~off:0 ~len in
    schedule_delivery t ~src ~dst ~kind ~count:1 payload deliver;
    if duplicated_at_send t ~src ~dst ~kind len then
      schedule_delivery t ~src ~dst ~kind ~count:1 payload deliver
  end

(* {2 Coalescing}

   [post] queues a message into the per-edge outbox instead of sending it
   immediately; all outboxes are flushed as single framed payloads either
   explicitly ([flush]) or automatically once the scheduler reaches the
   end of the current instant (a 0-delay timer armed on first post — the
   run loop drains every ready fiber before releasing due timers, so any
   messages its peers post at the same instant join the same frame).

   Loss and duplication are applied per logical message at post time, so
   the edge axioms and their accounting are the same as for [send];
   only latency is drawn per frame.  Within a frame submessages are
   dispatched in post order, and frames on a Fifo edge keep the monotone
   deadline clamp, so Fifo edges still deliver in order. *)

let frame_kind = "frame"

let submsg_append w ~kind payload =
  Wire.Writer.string w kind;
  Wire.Writer.string w payload

let outbox_for t key =
  match Hashtbl.find_opt t.outboxes key with
  | Some ob -> ob
  | None ->
      let ob = { ob_w = Wire.Writer.checkout (); ob_n = 0 } in
      Hashtbl.add t.outboxes key ob;
      ob

(* Each submessage gets its own fiber, matching the fresh-fiber-per-
   delivery contract of direct sends (handlers may block); spawn order
   follows frame order, so Fifo edges stay in order under a Fifo
   scheduling policy. *)
let dispatch_frame t ~src ~count payload h =
  let r = Wire.Reader.of_string payload in
  for _ = 1 to count do
    let kind = Wire.Reader.string r in
    let len = Wire.Reader.uvarint r in
    let off = Wire.Reader.pos r in
    Wire.Reader.skip r len;
    Sched.spawn t.sched
      ~name:(Printf.sprintf "net-delivery-%d:%s" src kind)
      (fun () -> h ~src ~kind ~payload ~off ~len)
  done

let flush t =
  t.flush_armed <- false;
  if Hashtbl.length t.outboxes > 0 then begin
    let pending =
      Hashtbl.fold (fun key ob acc -> (key, ob) :: acc) t.outboxes []
      |> List.sort (fun ((a, b), _) ((c, d), _) ->
             match Int.compare a c with 0 -> Int.compare b d | n -> n)
    in
    Hashtbl.reset t.outboxes;
    List.iter
      (fun ((src, dst), ob) ->
        let payload = Bytes.unsafe_to_string (Wire.Writer.to_bytes ob.ob_w) in
        let count = ob.ob_n in
        Wire.Writer.return ob.ob_w;
        account_physical t (String.length payload);
        t.frames <- t.frames + 1;
        t.coalesced <- t.coalesced + count;
        if Obs.on () then begin
          Metrics.incr m_frames;
          Metrics.add m_coalesced count
        end;
        schedule_delivery t ~src ~dst ~kind:frame_kind ~count payload
          (dispatch_frame t ~src ~count payload))
      pending
  end

let post t ~src ~dst ~kind payload =
  let len = String.length payload in
  account_logical t kind len;
  if not (lost_at_send t ~src ~dst ~kind len) then begin
    let ob = outbox_for t (src, dst) in
    let append () =
      submsg_append ob.ob_w ~kind payload;
      ob.ob_n <- ob.ob_n + 1
    in
    append ();
    if duplicated_at_send t ~src ~dst ~kind len then append ();
    if not t.flush_armed then begin
      t.flush_armed <- true;
      Sched.timer t.sched ~name:"net-flush" 0.0 (fun () -> flush t)
    end
  end

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
    bytes = t.bytes;
    frames = t.frames;
    coalesced = t.coalesced;
  }

let stats_by_kind t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.by_kind []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_stats t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.duplicated <- 0;
  t.bytes <- 0;
  t.frames <- 0;
  t.coalesced <- 0;
  Hashtbl.reset t.by_kind
