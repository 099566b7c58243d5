(* Layer spans recorded around the calls the benchmark makes into the
   program's public functions.  Each domain keeps its own open-span stack
   and per-layer totals (registered globally, because the domains engine
   spawns fresh worker domains every episode); the totals are summed only
   between episodes, when no worker runs.

   A span's self time is its duration minus the durations of the spans
   opened inside it on the same domain.  Every span the benchmark opens
   closes without yielding the fiber, so spans nest properly; a span that
   closes out of order is counted in [misnested] and charged anyway, which
   the traced run reports and checks. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = Run | Pump | Send | Recv | Pickle | Method | Collect

let nlayers = 7

let index = function
  | Run -> 0
  | Pump -> 1
  | Send -> 2
  | Recv -> 3
  | Pickle -> 4
  | Method -> 5
  | Collect -> 6

let names =
  [|
    "engine.run";
    "transport.pump";
    "transport.send";
    "runtime.recv";
    "pickle";
    "stub.method";
    "runtime.collect";
  |]

(* Tracing is switched only while no span is open on any domain: between
   driver-loop steps on the TCP workloads, between episodes on the
   domains engine (domain spawn publishes the write to the workers). *)
let on = ref false

let max_depth = 64

(* Spans kept for the written trace, per domain: id, parent id, layer,
   start, end. *)
let sample_cap = 20_000

type dstate = {
  dom : int;
  self_ns : int array;
  total_ns : int array;
  count : int array;
  mutable root_ns : int;  (** summed durations of spans opened at depth 0 *)
  mutable depth : int;
  lay : int array;
  start : int array;
  child : int array;
  ids : int array;
  mutable next_id : int;
  mutable misnested : int;
  mutable payload_bytes : int;
      (** bytes the workload's codecs wrote plus bytes they read *)
  sample : int array;
  mutable nsample : int;
}

let registry = ref []

let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          dom = (Domain.self () :> int);
          self_ns = Array.make nlayers 0;
          total_ns = Array.make nlayers 0;
          count = Array.make nlayers 0;
          root_ns = 0;
          depth = 0;
          lay = Array.make max_depth 0;
          start = Array.make max_depth 0;
          child = Array.make max_depth 0;
          ids = Array.make max_depth 0;
          next_id = 0;
          misnested = 0;
          payload_bytes = 0;
          sample = Array.make (5 * sample_cap) 0;
          nsample = 0;
        }
      in
      Mutex.protect registry_lock (fun () -> registry := d :: !registry);
      d)

(* Returns the span's token, or -1 when tracing is off. *)
let enter l =
  if not !on then -1
  else
    let d = Domain.DLS.get key in
    let i = d.depth in
    if i >= max_depth then begin
      d.misnested <- d.misnested + 1;
      -1
    end
    else begin
      let id = d.next_id in
      d.next_id <- id + 1;
      d.lay.(i) <- index l;
      d.child.(i) <- 0;
      d.ids.(i) <- id;
      d.depth <- i + 1;
      d.start.(i) <- now_ns ();
      id
    end

let leave id =
  if id >= 0 then begin
    let t = now_ns () in
    let d = Domain.DLS.get key in
    let rec find i = if i < 0 || d.ids.(i) = id then i else find (i - 1) in
    let i = find (d.depth - 1) in
    if i < 0 then d.misnested <- d.misnested + 1
    else begin
      (* Spans still open above [i] are abandoned, uncharged. *)
      if i <> d.depth - 1 then d.misnested <- d.misnested + 1;
      let dur = t - d.start.(i) and l = d.lay.(i) in
      d.self_ns.(l) <- d.self_ns.(l) + dur - d.child.(i);
      d.total_ns.(l) <- d.total_ns.(l) + dur;
      d.count.(l) <- d.count.(l) + 1;
      let parent = if i = 0 then -1 else d.ids.(i - 1) in
      if i = 0 then d.root_ns <- d.root_ns + dur
      else d.child.(i - 1) <- d.child.(i - 1) + dur;
      if d.nsample < sample_cap then begin
        let o = 5 * d.nsample in
        d.sample.(o) <- id;
        d.sample.(o + 1) <- parent;
        d.sample.(o + 2) <- l;
        d.sample.(o + 3) <- d.start.(i);
        d.sample.(o + 4) <- t;
        d.nsample <- d.nsample + 1
      end;
      d.depth <- i
    end
  end

let span l f =
  let id = enter l in
  match f () with
  | v ->
      leave id;
      v
  | exception e ->
      leave id;
      raise e

let add_payload_bytes n =
  let d = Domain.DLS.get key in
  d.payload_bytes <- d.payload_bytes + n

let states () = Mutex.protect registry_lock (fun () -> !registry)

type totals = {
  t_self : int array;
  t_total : int array;
  t_count : int array;
  t_root : int;
  t_misnested : int;
}

let totals () =
  let self = Array.make nlayers 0
  and total = Array.make nlayers 0
  and count = Array.make nlayers 0 in
  let root = ref 0 and mis = ref 0 in
  List.iter
    (fun d ->
      for l = 0 to nlayers - 1 do
        self.(l) <- self.(l) + d.self_ns.(l);
        total.(l) <- total.(l) + d.total_ns.(l);
        count.(l) <- count.(l) + d.count.(l)
      done;
      root := !root + d.root_ns;
      mis := !mis + d.misnested + d.depth)
    (states ());
  { t_self = self; t_total = total; t_count = count; t_root = !root; t_misnested = !mis }

let payload_bytes () =
  List.fold_left (fun acc d -> acc + d.payload_bytes) 0 (states ())

(* Zero every domain's totals; only legal with no span open. *)
let reset () =
  List.iter
    (fun d ->
      Array.fill d.self_ns 0 nlayers 0;
      Array.fill d.total_ns 0 nlayers 0;
      Array.fill d.count 0 nlayers 0;
      d.root_ns <- 0;
      d.depth <- 0;
      d.misnested <- 0;
      d.nsample <- 0)
    (states ())

(* The kept spans as one JSON array, times in monotonic-clock ns. *)
let write_json path =
  let oc = open_out path in
  output_string oc "[";
  let first = ref true in
  List.iter
    (fun d ->
      for k = 0 to d.nsample - 1 do
        let o = 5 * k in
        Printf.fprintf oc "%s\n{\"dom\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}"
          (if !first then "" else ",")
          d.dom d.sample.(o) d.sample.(o + 1)
          names.(d.sample.(o + 2))
          d.sample.(o + 3) d.sample.(o + 4);
        first := false
      done)
    (states ());
  output_string oc "\n]\n";
  close_out oc
