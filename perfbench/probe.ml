(* Instruments installed from outside the program: a decorator on the
   Transport.t handed to [Runtime.config ~transport], and wrappers around
   the workload's own codecs and method bodies. *)

module Transport = Netobj_transport.Transport
module Pickle = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire

(* A seeded reservoir of each kind's real payloads, replayed afterwards
   through the envelope and frame codecs (see Replay). *)
let capture_per_kind = 64

type capture = {
  rng : Random.State.t;
  kinds : (string, string array * int ref) Hashtbl.t;
      (** kept payloads, and how many of the kind were offered *)
}

let capture_create ~seed =
  { rng = Random.State.make [| seed; 0x5eed |]; kinds = Hashtbl.create 16 }

let capture_add c kind payload =
  let keep, seen =
    match Hashtbl.find_opt c.kinds kind with
    | Some e -> e
    | None ->
        let e = (Array.make capture_per_kind "", ref 0) in
        Hashtbl.add c.kinds kind e;
        e
  in
  let n = !seen in
  incr seen;
  if n < capture_per_kind then keep.(n) <- payload
  else
    let j = Random.State.int c.rng (n + 1) in
    if j < capture_per_kind then keep.(j) <- payload

let captured c =
  Hashtbl.fold
    (fun kind (keep, seen) acc ->
      (kind, Array.sub keep 0 (min !seen capture_per_kind)) :: acc)
    c.kinds []
  |> List.sort compare

type t = {
  mutable msgs : int;  (** messages handed to t_send/t_post *)
  mutable delivered : int;  (** handler invocations *)
  capture : capture;
  inject_ns : int;
}

let create ~seed ~inject_ns =
  { msgs = 0; delivered = 0; capture = capture_create ~seed; inject_ns }

(* The attribution self-test's fixed cost, charged inside the send span. *)
let spin ns =
  if ns > 0 then begin
    let t0 = Spans.now_ns () in
    while Spans.now_ns () - t0 < ns do
      ()
    done
  end

let wrap p (base : Transport.t) : Transport.t =
  let outgoing f ~src ~dst ~kind payload =
    Spans.span Send (fun () ->
        p.msgs <- p.msgs + 1;
        if !Spans.on then capture_add p.capture kind payload;
        spin p.inject_ns;
        f ~src ~dst ~kind payload)
  in
  {
    base with
    t_send = outgoing base.t_send;
    t_post = outgoing base.t_post;
    t_flush = (fun () -> Spans.span Send base.t_flush);
    t_set_handler =
      (fun addr h ->
        base.t_set_handler addr (fun ~src ~kind ~payload ~off ~len ->
            p.delivered <- p.delivered + 1;
            Spans.span Recv (fun () -> h ~src ~kind ~payload ~off ~len)));
  }

(* The workload's codec, counting its bytes (always) and timing itself
   under the pickle layer (when tracing). *)
let codec (c : 'a Pickle.t) : 'a Pickle.t =
  Pickle.custom ~name:(Pickle.describe c)
    ~write:(fun w v ->
      let id = Spans.enter Pickle in
      let p0 = Wire.Writer.length w in
      Pickle.write c w v;
      Spans.add_payload_bytes (Wire.Writer.length w - p0);
      Spans.leave id)
    ~read:(fun r ->
      let id = Spans.enter Pickle in
      let p0 = Wire.Reader.pos r in
      let v = Pickle.read c r in
      Spans.add_payload_bytes (Wire.Reader.pos r - p0);
      Spans.leave id;
      v)

let method_body f sp x = Spans.span Method (fun () -> f sp x)
