(* Envelope and frame cost, timed on the workload's own messages: the
   payloads Probe captured at the transport decorator during the traced
   window are decoded and re-encoded with [Proto.packet_codec], and framed
   and unframed with [Frame], the way Tcp lays out a single-message send. *)

module Proto = Netobj_core.Proto
module Pickle = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire
module Frame = Netobj_transport.Frame

(* Repeat [f] over the sample until at least 20 ms have passed; returns
   ns per pass. *)
let time_passes f =
  let budget = 20_000_000 in
  let t0 = Spans.now_ns () in
  let passes = ref 0 in
  while Spans.now_ns () - t0 < budget do
    f ();
    incr passes
  done;
  float_of_int (Spans.now_ns () - t0) /. float_of_int !passes

type kind_cost = { kind : string; encode_ns : float; decode_ns : float }

type result = {
  per_kind : kind_cost list;
  encode_ns : float;  (** per message, weighted by the sample *)
  decode_ns : float;
  frame_encode_ns_per_kib : float;
  frame_decode_ns_per_kib : float;
}

(* Tcp's body for a direct send from space 0 to space 1. *)
let body kind payload =
  let w = Wire.Writer.create () in
  Wire.Writer.uvarint w 0;
  Wire.Writer.uvarint w 1;
  Wire.Writer.uvarint w 1;
  Wire.Writer.string w kind;
  Wire.Writer.string w payload;
  Bytes.to_string (Wire.Writer.to_bytes w)

let run (sample : (string * string array) list) =
  let per_kind =
    List.filter_map
      (fun (kind, payloads) ->
        let n = Array.length payloads in
        if n = 0 then None
        else
          let packets = Array.map (Pickle.decode Proto.packet_codec) payloads in
          let decode_ns =
            time_passes (fun () ->
                Array.iter
                  (fun p -> ignore (Pickle.decode Proto.packet_codec p))
                  payloads)
            /. float_of_int n
          in
          let encode_ns =
            time_passes (fun () ->
                Array.iter
                  (fun p -> ignore (Pickle.encode Proto.packet_codec p))
                  packets)
            /. float_of_int n
          in
          Some ({ kind; encode_ns; decode_ns }, n))
      sample
  in
  let weighted get =
    let num, den =
      List.fold_left
        (fun (a, b) (k, n) -> (a +. (get k *. float_of_int n), b + n))
        (0.0, 0) per_kind
    in
    if den = 0 then 0.0 else num /. float_of_int den
  in
  let bodies =
    List.concat_map
      (fun (kind, payloads) -> Array.to_list (Array.map (body kind) payloads))
      sample
    |> Array.of_list
  in
  let kib =
    float_of_int (Array.fold_left (fun a b -> a + String.length b) 0 bodies)
    /. 1024.0
  in
  let frames = Array.map (fun b -> Frame.encode b) bodies in
  let frame_encode_ns_per_kib, frame_decode_ns_per_kib =
    if Array.length bodies = 0 then (0.0, 0.0)
    else
      ( time_passes (fun () ->
            Array.iter (fun b -> ignore (Frame.encode b)) bodies)
        /. kib,
        time_passes (fun () ->
            let dec = Frame.decoder () in
            Array.iter
              (fun f ->
                Frame.feed dec f;
                match Frame.next dec with
                | Some _ -> ()
                | None -> failwith "replayed frame did not decode")
              frames)
        /. kib )
  in
  {
    per_kind = List.map fst per_kind;
    encode_ns = weighted (fun k -> k.encode_ns);
    decode_ns = weighted (fun k -> k.decode_ns);
    frame_encode_ns_per_kib;
    frame_decode_ns_per_kib;
  }
