(* The call plane: invocation and serving.  See calls.mli. *)

open Space
open Collector

(* Any of the plane's knobs arms it; default configurations keep the
   classic wire behaviour exactly (no cancel traffic, no reply caching,
   no admission bookkeeping) so pinned traces stay stable. *)
let reliability_on sp =
  let c = sp.rt.config in
  c.call_retries > 0 || c.deadline <> None || c.max_inflight <> None

let count_call_retry sp =
  sp.s_call_retried <- sp.s_call_retried + 1;
  if Obs.on () then Metrics.incr m_call_retried

(* Encode a payload under a fresh message id; embedded handles become
   transient pins attached to that id.  Returns whether any reference was
   embedded (an ack-free message needs no transient entry at all), and
   the payload as a slice of its own encoded string. *)
let encode_with_pins sp f =
  let msg_id = fresh_msg_id sp in
  let pinned = ref [] in
  let payload =
    Wire.Writer.with_pooled (fun w ->
        with_ctx (Enc { esp = sp; e_pinned = pinned }) (fun () -> f w);
        Wire.slice (Bytes.unsafe_to_string (Wire.Writer.to_bytes w)))
  in
  let has_refs = !pinned <> [] in
  if has_refs then begin
    Hashtbl.replace sp.tdirty msg_id !pinned;
    wal sp (Wal.Pins { msg = msg_id.Proto.seq; wrs = !pinned });
    (* The transient-pin lifetime: begins when references are embedded in
       an outgoing message, ends at the receiver's copy_ack. *)
    if Obs.on () then
      Trace.async_begin (Obs.trace ()) ~cat:"gc" ~space:sp.id
        ~id:(obs_msg_span_id msg_id)
        ~args:[ ("refs", Trace.I (List.length !pinned)) ]
        "pins";
    (* TR §2.2: transient entries are "removed by a conservative timeout"
       when the ack is lost with the message or the receiver.  The timeout
       must exceed any in-flight window (latency + call timeout + retry),
       so an ack that is merely late never races it.  Release is
       idempotent, so no cancellation is needed when the ack does arrive;
       the epoch guard keeps a timer armed before a restart from touching
       the reincarnation's reused message ids. *)
    match sp.rt.config.pin_timeout with
    | None -> ()
    | Some dt ->
        let gen = sp.epoch in
        Sched.timer (ssched sp) dt (fun () ->
            if sp.epoch = gen then release_pins_for sp msg_id)
  end;
  (msg_id, has_refs, payload)

(* Decode a payload in place; returns the value, the acquired references
   (already pinned once each) and the registrations to await.  The
   surrogates the decode created register when it ends, failed or not,
   one dirty call per owner.  A decode that fails part-way unpins the
   references it had already acquired. *)
let decode_with_acquire sp payload f =
  let d = { dsp = sp; d_acquired = []; d_pending = []; d_fresh = [] } in
  let r = Wire.Reader.of_slice payload in
  match with_ctx (Dec d) (fun () -> f r) with
  | v ->
      register sp d.d_fresh;
      (v, d.d_acquired, d.d_pending)
  | exception e ->
      register sp d.d_fresh;
      List.iter (unpin sp) d.d_acquired;
      raise e

(* Block until every registration triggered by a decode has completed.
   This is the spec's suspended deserialisation; with a configured
   dirty_timeout it fails with [Dirty_timeout] instead of waiting
   forever. *)
let await_registrations sp pending =
  List.iter
    (fun iv ->
      let ok =
        match sp.rt.config.dirty_timeout with
        | None -> Sched.Ivar.read iv
        | Some dt -> (
            match Sched.read_timeout (ssched sp) iv ~timeout:dt with
            | Some ok -> ok
            | None -> raise (Call_failed Dirty_timeout))
      in
      if not ok then raise (Call_failed Registration_failed))
    pending

(* Record a settled call in [client]'s bounded reply cache. *)
let cache_reply sp ~client ~call_id env =
  let rc =
    match Hashtbl.find_opt sp.reply_cache client with
    | Some rc -> rc
    | None ->
        let rc =
          { rc_replies = Hashtbl.create 16; rc_order = Queue.create () }
        in
        Hashtbl.add sp.reply_cache client rc;
        rc
  in
  if not (Hashtbl.mem rc.rc_replies call_id) then begin
    Hashtbl.replace rc.rc_replies call_id env;
    Queue.push call_id rc.rc_order;
    (* FIFO eviction; ids already removed by a cancel leave stale queue
       entries behind, skipped here because removing them is a no-op. *)
    while Hashtbl.length rc.rc_replies > reply_cache_cap do
      Hashtbl.remove rc.rc_replies (Queue.pop rc.rc_order)
    done
  end

(* Serve a call at the owner: decode (phase 1), await registrations, ack
   the copy, compute (phase 2), reply under a fresh encode context.  The
   copy_ack goes back as soon as the arguments' registrations complete;
   a call flagged [needs_ack:false] carried no references and is not
   acknowledged at all. *)
let serve_call sp ~src ~call_id ~msg_id ~needs_ack ~target ~meth_name ~args
    ~deadline =
  let ron = reliability_on sp in
  let ack_now () = if needs_ack then send_copy_ack sp ~dst:src msg_id in
  (* At-most-once: a retransmission of a settled call replays the cached
     reply verbatim (and re-acks the copy — the original ack may have
     been lost along with the reply); one of a still-executing call is
     dropped outright, its reply already owed. *)
  let cached =
    (* [bug_no_dedup] reintroduces retry-without-at-most-once — every
       retransmission re-executes — as a known-bug target for the model
       checker's call-retry scenario.  Never set it outside that. *)
    if (not ron) || sp.rt.config.bug_no_dedup then None
    else
      match Hashtbl.find_opt sp.reply_cache src with
      | None -> None
      | Some rc -> Hashtbl.find_opt rc.rc_replies call_id
  in
  match cached with
  | Some env ->
      sp.s_call_deduped <- sp.s_call_deduped + 1;
      if Obs.on () then Metrics.incr m_call_deduped;
      ack_now ();
      send_env sp ~dst:src env
  | None
    when ron
         && (not sp.rt.config.bug_no_dedup)
         && Hashtbl.mem sp.inflight (src, call_id) ->
      sp.s_call_deduped <- sp.s_call_deduped + 1;
      if Obs.on () then Metrics.incr m_call_deduped
  | None -> (
      match sp.rt.config.max_inflight with
      | Some cap when sp.inflight_count >= cap ->
          (* O(1) shed: nothing decoded, nothing pinned, no state.  The
             refusal carries no references, takes no message id from
             the sequence and is not cached. *)
          sp.s_call_shed <- sp.s_call_shed + 1;
          if Obs.on () then Metrics.incr m_call_shed;
          send_env sp ~dst:src
            (Proto.Reply
               {
                 call_id;
                 msg_id = { Proto.origin = sp.id; seq = 0 };
                 needs_ack = false;
                 result = Error Proto.V_shed;
               })
      | Some _ | None ->
          let sched = ssched sp in
          let ic = { if_cancelled = false } in
          let client_epoch = Hashtbl.find_opt sp.peer_epoch src in
          if ron then begin
            Hashtbl.replace sp.inflight (src, call_id) ic;
            sp.inflight_count <- sp.inflight_count + 1
          end;
          (* The serve fiber inherits the call's remaining budget:
             nested and third-party calls made by the method body clamp
             to it through the fiber-local binding. *)
          let until =
            if deadline > 0. then Some (Sched.now sched +. deadline) else None
          in
          Sched.Fls.set sched deadline_key until;
          let reply result =
            let rmsg_id, rneeds_ack, payload_or_err =
              match result with
              | Ok fill ->
                  let id, has_refs, s = encode_with_pins sp fill in
                  (id, has_refs, Ok s)
              | Error v -> (fresh_msg_id sp, false, Error v)
            in
            let env =
              Proto.Reply
                {
                  call_id;
                  msg_id = rmsg_id;
                  needs_ack = rneeds_ack;
                  result = payload_or_err;
                }
            in
            if ic.if_cancelled then begin
              (* The caller abandoned this call: swallow the reply and
                 release its transient pins now, not at [pin_timeout]. *)
              if rneeds_ack then release_pins_for sp rmsg_id;
              sp.s_call_cancelled <- sp.s_call_cancelled + 1;
              if Obs.on () then Metrics.incr m_call_cancelled
            end
            else if Hashtbl.find_opt sp.peer_epoch src <> client_epoch then begin
              (* The caller's incarnation ended under the call, failing
                 its pending calls.  A restarted caller counts call ids
                 from 0 again: this reply, sent or cached, would answer
                 the new incarnation's call with the same id. *)
              if rneeds_ack then release_pins_for sp rmsg_id
            end
            else begin
              if ron then cache_reply sp ~client:src ~call_id env;
              send_env sp ~dst:src env
            end
          in
          let raised e = Error (Proto.V_raised (Printexc.to_string e)) in
          let serve () =
            match
              Option.map
                (fun c -> List.assoc_opt meth_name c.c_meths)
                (find_concrete sp target)
            with
            | None ->
                ack_now ();
                reply (Error Proto.V_no_object)
            | Some None ->
                ack_now ();
                reply (Error Proto.V_no_method)
            | Some (Some m) -> (
                match decode_with_acquire sp args (fun r -> m.m_run sp r) with
                | exception e ->
                    ack_now ();
                    reply (raised e)
                | compute, acquired, pending -> (
                    match await_registrations sp pending with
                    | exception e ->
                        List.iter (unpin sp) acquired;
                        ack_now ();
                        reply (raised e)
                    | () -> (
                        ack_now ();
                        match until with
                        | Some u when Sched.now sched > u ->
                            (* The budget ran out while the arguments'
                               registrations were in flight: skip the
                               method body.  No reply: the caller's
                               deadline, one transit earlier than this
                               one, has passed and it no longer waits. *)
                            List.iter (unpin sp) acquired;
                            sp.s_call_expired <- sp.s_call_expired + 1;
                            if Obs.on () then Metrics.incr m_deadline_expired
                        | Some _ | None -> (
                            sp.s_call_executed <- sp.s_call_executed + 1;
                            (* Phase 2: run the implementation (it may
                               itself block). *)
                            match compute () with
                            | fill ->
                                reply (Ok fill);
                                List.iter (unpin sp) acquired
                            | exception e ->
                                reply (raised e);
                                List.iter (unpin sp) acquired))))
          in
          if ron then begin
            let gen = sp.epoch in
            Fun.protect serve ~finally:(fun () ->
                (* Epoch guard: a restart mid-serve resets the admission
                   state; this completion must not debit the new
                   incarnation's gate.  The identity check keeps a
                   clobbered table entry (double execution under
                   [bug_no_dedup]) owned by its live serve. *)
                if sp.epoch = gen then begin
                  sp.inflight_count <- sp.inflight_count - 1;
                  match Hashtbl.find_opt sp.inflight (src, call_id) with
                  | Some ic' when ic' == ic ->
                      Hashtbl.remove sp.inflight (src, call_id)
                  | Some _ | None -> ()
                end)
          end
          else serve ())

let handle_reply sp ~call_id ~msg_id ~needs_ack ~result =
  match Hashtbl.find_opt sp.pending_calls call_id with
  | None -> () (* timed out and forgotten, or a stale earlier attempt *)
  | Some iv ->
      Hashtbl.remove sp.pending_calls call_id;
      Sched.Ivar.fill iv (Ok (msg_id, needs_ack, result))

(* The caller abandoned [call_id]: drop its cached reply (releasing the
   reply's transient pins) or flag the still-executing instance so its
   completion swallows the reply.  Idempotent; a late or duplicated
   cancel finds nothing to do. *)
let handle_cancel sp ~src ~call_id ~msg_id:_ =
  if reliability_on sp then begin
    (match Hashtbl.find_opt sp.reply_cache src with
    | None -> ()
    | Some rc -> (
        match Hashtbl.find_opt rc.rc_replies call_id with
        | Some (Proto.Reply { msg_id = rmsg; needs_ack; _ }) ->
            Hashtbl.remove rc.rc_replies call_id;
            if needs_ack then release_pins_for sp rmsg;
            sp.s_call_cancelled <- sp.s_call_cancelled + 1;
            if Obs.on () then Metrics.incr m_call_cancelled
        | Some _ | None -> ()));
    match Hashtbl.find_opt sp.inflight (src, call_id) with
    | Some ic ->
        (* counted when the suppressed completion actually happens *)
        ic.if_cancelled <- true
    | None -> ()
  end

(* --- invocation ------------------------------------------------------------ *)

let fresh_call_id sp =
  let id = sp.next_call in
  sp.next_call <- sp.next_call + 1;
  id

(* Wait until a surrogate is usable (it may be mid-resurrection). *)
let await_usable sp h =
  match Wirerep.Tbl.find_opt sp.table h.wr with
  | Some (Concrete _) -> ()
  | Some (Surrogate st) -> (
      match !st with
      | Usable _ -> ()
      | Creating iv | Cleaning { resurrect = Some iv; _ } ->
          if not (Sched.Ivar.read iv) then
            raise (Call_failed Registration_failed)
      | Cleaning { resurrect = None; _ } ->
          raise (Call_failed Surrogate_cleaning))
  | None -> raise (Call_failed Dangling_handle)

(* Local invocation: the owner calls one of its own objects.  Runs the
   same three phases without touching the network. *)
let invoke_local sp c ~meth:meth_name ~encode ~decode =
  let m =
    match List.assoc_opt meth_name c.c_meths with
    | Some m -> m
    | None -> raise (Call_failed (No_such_method meth_name))
  in
  let msg_id, _, payload = encode_with_pins sp encode in
  let compute, acquired, pending =
    decode_with_acquire sp payload (fun r -> m.m_run sp r)
  in
  await_registrations sp pending;
  release_pins_for sp msg_id;
  let fill = compute () in
  let rmsg_id, _, rpayload = encode_with_pins sp fill in
  let (v, racq, rpend) = decode_with_acquire sp rpayload decode in
  await_registrations sp rpend;
  release_pins_for sp rmsg_id;
  List.iter (unpin sp) acquired;
  (* The caller owns the result's references. *)
  List.iter
    (fun wr ->
      root sp wr;
      unpin sp wr)
    racq;
  v

let invoke_raw sp h ~meth:meth_name ~encode ~decode =
  if sp.crashed then raise (Call_failed Caller_crashed);
  match Wirerep.Tbl.find_opt sp.table h.wr with
  | Some (Concrete c) -> invoke_local sp c ~meth:meth_name ~encode ~decode
  | Some (Surrogate _) | None -> (
      await_usable sp h;
      let call_id = fresh_call_id sp in
      let obs_id = obs_call_span_id ~client:sp.id call_id in
      if Obs.on () then begin
        Metrics.incr m_calls;
        Trace.async_begin (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
          ~args:
            (("meth", Trace.S meth_name)
            :: [
                 ("target_owner", Trace.I h.wr.Wirerep.space);
                 ("target_index", Trace.I h.wr.Wirerep.index);
               ])
          "call"
      end;
      let cfg = sp.rt.config in
      let sched = ssched sp in
      let owner = h.wr.Wirerep.space in
      (* Effective deadline: the tighter of the budget inherited from
         the call this fiber is itself serving (fiber-local binding set
         by [serve_call]) and this space's configured per-call
         deadline. *)
      let until =
        let inherited = Sched.Fls.get sched deadline_key in
        let configured =
          match cfg.deadline with
          | Some d -> Some (Sched.now sched +. d)
          | None -> None
        in
        match (inherited, configured) with
        | Some a, Some b -> Some (Float.min a b)
        | (Some _ as s), None | None, (Some _ as s) -> s
        | None, None -> None
      in
      let t0 = Sched.now sched in
      let epoch0 = sp.epoch in
      let retries = cfg.call_retries in
      let fail ?(args = [ ("ok", Trace.I 0) ]) f =
        if Obs.on () then
          Trace.async_end (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
            ~args "call";
        raise (Call_failed f)
      in
      let msg_id, has_refs, args = encode_with_pins sp encode in
      let send_attempt () =
        (* The envelope carries the remaining budget as a relative
           duration (meaningful between processes with independent
           clocks); 0. means no deadline. *)
        let budget =
          match until with
          | Some u -> Float.max 1e-9 (u -. Sched.now sched)
          | None -> 0.
        in
        send_env sp ~dst:owner
          (Proto.Call
             {
               call_id;
               msg_id;
               needs_ack = has_refs;
               target = h.wr;
               meth = meth_name;
               args;
               deadline = budget;
             })
      in
      let abandon ~attempts =
        Hashtbl.remove sp.pending_calls call_id;
        (* Tell the owner to settle the abandoned call: drop its cached
           reply or suppress the in-flight one, releasing the reply's
           transient pins now rather than at [pin_timeout].  Only when
           the plane is armed — the classic configuration must stay
           byte-identical on the wire. *)
        if reliability_on sp && attempts > 0 then
          send_env sp ~dst:owner (Proto.Cancel { call_id; msg_id });
        fail
          ~args:[ ("timeout", Trace.I 1) ]
          (No_reply
             {
               meth = meth_name;
               attempts;
               elapsed = Sched.now sched -. t0;
               timeout = cfg.call_timeout;
               deadline = Option.map (fun u -> u -. t0) until;
             })
      in
      let budget_left () =
        match until with Some u -> Sched.now sched < u | None -> true
      in
      let rec attempt k =
        if not (budget_left ()) then abandon ~attempts:k
        else begin
          (* Fresh ivar per attempt; a straggling reply for a removed
             ivar is dropped by [handle_reply].  Retransmissions reuse
             the call_id, msg_id and encoded args — the owner's dedup
             keys on them. *)
          let iv = Sched.Ivar.create () in
          Hashtbl.replace sp.pending_calls call_id iv;
          send_attempt ();
          let dt =
            let per_attempt =
              match cfg.call_timeout with
              | None -> None
              | Some b ->
                  (* Attempt [k]'s window doubles as the retransmission
                     timer, following the capped/jittered backoff
                     schedule.  With retries off it is exactly the
                     classic [call_timeout] — and draws no jitter, so
                     runs that never retry replay unperturbed. *)
                  Some
                    (if retries = 0 then b
                     else retry_delay sp ~attempt:k ~base:b)
            in
            match (per_attempt, until) with
            | None, None -> None
            | Some d, None -> Some d
            | None, Some u -> Some (u -. Sched.now sched)
            | Some d, Some u -> Some (Float.min d (u -. Sched.now sched))
          in
          let outcome =
            match dt with
            | None -> Some (Sched.Ivar.read iv)
            | Some d when d <= 0. -> None
            | Some d -> Sched.read_timeout sched iv ~timeout:d
          in
          match outcome with
          | Some (Ok (rmsg_id, rneeds_ack, Ok payload)) ->
              (rmsg_id, rneeds_ack, payload)
          | Some (Error f) -> fail f
          | Some (Ok (_, _, Error Proto.V_no_object)) ->
              fail (No_such_object h.wr)
          | Some (Ok (_, _, Error Proto.V_no_method)) ->
              fail (No_such_method meth_name)
          | Some (Ok (_, _, Error (Proto.V_raised text))) -> fail (Raised text)
          | Some (Ok (_, _, Error Proto.V_shed)) ->
              Hashtbl.remove sp.pending_calls call_id;
              if k < retries && budget_left () then begin
                (* Retryable-with-backoff: wait out the owner's burst
                   before the next attempt. *)
                count_call_retry sp;
                let base = Option.value cfg.call_timeout ~default:0.01 in
                let pause =
                  let d = retry_delay sp ~attempt:k ~base in
                  match until with
                  | Some u -> Float.min d (u -. Sched.now sched)
                  | None -> d
                in
                if pause > 0. then Sched.sleep sched pause;
                (* The space restarted or recovered while this fiber
                   slept: the reset failed every other call of the dead
                   incarnation, and this one's id is the new
                   incarnation's to reuse. *)
                if sp.epoch <> epoch0 then
                  fail (Caller_restarted { recovering = sp.cont < sp.epoch });
                attempt (k + 1)
              end
              else
                fail
                  ~args:[ ("busy", Trace.I 1) ]
                  (Shed { meth = meth_name; owner; attempts = k + 1 })
          | None ->
              if k < retries && budget_left () then begin
                count_call_retry sp;
                attempt (k + 1)
              end
              else abandon ~attempts:(k + 1)
        end
      in
      let rmsg_id, rneeds_ack, payload = attempt 0 in
      if Obs.on () then
        Trace.async_end (Obs.trace ()) ~cat:"rpc" ~space:sp.id ~id:obs_id
          ~args:[ ("ok", Trace.I 1) ]
          "call";
      let ack_reply () =
        if rneeds_ack then send_copy_ack sp ~dst:h.wr.Wirerep.space rmsg_id
      in
      let v, acquired, pending =
        match decode_with_acquire sp payload decode with
        | decoded -> decoded
        | exception Wire.Error { msg; _ } ->
            ack_reply ();
            raise (Call_failed (Undecodable_reply { meth = meth_name; msg }))
      in
      (match await_registrations sp pending with
      | () -> ()
      | exception e ->
          ack_reply ();
          List.iter (unpin sp) acquired;
          raise e);
      ack_reply ();
      (* Transfer: pins become caller-owned roots. *)
      List.iter
        (fun wr ->
          root sp wr;
          unpin sp wr)
        acquired;
      v)
