module P = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire

type msg_id = { origin : int; seq : int }

let msg_id_codec =
  P.map ~name:"msg_id"
    (fun (origin, seq) -> { origin; seq })
    (fun { origin; seq } -> (origin, seq))
    (P.pair P.int P.int)

let pp_msg_id ppf { origin; seq } = Fmt.pf ppf "#%d.%d" origin seq

(* One space's answer about one cycle-trial target: live (reachable
   here, or in a transient state, or the space is inside its recovery
   moratorium), gone (no table entry), or quiet — unreachable, with the
   target's local touch counter, the owner-side dirty set and the
   locally-unreachable concretes that still hold a slot path to it. *)
type cycle_report =
  | Cr_live
  | Cr_gone
  | Cr_quiet of { touch : int; dirty : int list; ancestors : Wirerep.t list }

let cycle_report_codec =
  P.sum "cycle_report"
    [
      P.case 0 "live" P.unit
        (fun () -> Cr_live)
        (function Cr_live -> Some () | _ -> None);
      P.case 1 "gone" P.unit
        (fun () -> Cr_gone)
        (function Cr_gone -> Some () | _ -> None);
      P.case 2 "quiet"
        (P.triple P.int (P.list P.int) (P.list Wirerep.codec))
        (fun (touch, dirty, ancestors) -> Cr_quiet { touch; dirty; ancestors })
        (function
          | Cr_quiet { touch; dirty; ancestors } ->
              Some (touch, dirty, ancestors)
          | _ -> None);
    ]

let pp_cycle_report ppf = function
  | Cr_live -> Fmt.string ppf "live"
  | Cr_gone -> Fmt.string ppf "gone"
  | Cr_quiet { touch; dirty; ancestors } ->
      Fmt.pf ppf "quiet(touch=%d dirty=%d anc=%d)" touch (List.length dirty)
        (List.length ancestors)

(* Why a call produced no result, in a [Reply]'s error arm: the target
   is not in the owner's table, it has no such method, the admission
   gate shed the call, or the method raised (its exception's text).
   Tag 3 is unused; the tags after it keep their bytes. *)
type verdict =
  | V_no_object
  | V_no_method
  | V_shed
  | V_raised of string

let verdict_codec =
  P.sum "verdict"
    [
      P.case 0 "no_object" P.unit
        (fun () -> V_no_object)
        (function V_no_object -> Some () | _ -> None);
      P.case 1 "no_method" P.unit
        (fun () -> V_no_method)
        (function V_no_method -> Some () | _ -> None);
      P.case 2 "shed" P.unit
        (fun () -> V_shed)
        (function V_shed -> Some () | _ -> None);
      P.case 4 "raised" P.string
        (fun text -> V_raised text)
        (function V_raised text -> Some text | _ -> None);
    ]

let pp_verdict ppf = function
  | V_no_object -> Fmt.string ppf "no such object"
  | V_no_method -> Fmt.string ppf "no such method"
  | V_shed -> Fmt.string ppf "shed"
  | V_raised text -> Fmt.string ppf text

type envelope =
  | Call of {
      call_id : int;
      msg_id : msg_id;
      needs_ack : bool;
      target : Wirerep.t;
      meth : string;
      args : Wire.slice;
      deadline : float;
          (** remaining budget in seconds at send time; [0.] = none.
              Relative rather than absolute so it stays meaningful
              between processes with independent clocks. *)
    }
  | Reply of {
      call_id : int;
      msg_id : msg_id;
      needs_ack : bool;
      result : (Wire.slice, verdict) result;
    }
  | Copy_ack of { msg_id : msg_id }
  | Dirty of { items : (Wirerep.t * int) list }
  | Dirty_ack of { items : (Wirerep.t * bool) list }
  | Clean of { items : (Wirerep.t * int) list }
  | Clean_ack of { wrs : Wirerep.t list }
  | Ping of { nonce : int }
  | Ping_ack of { nonce : int }
  | Recover of { nonce : int }
  | Reassert of { items : (Wirerep.t * int) list }
  | Reassert_ack of { ok : Wirerep.t list; gone : Wirerep.t list }
  | Cycle_probe of { probe_id : int; confirm : bool; targets : Wirerep.t list }
  | Cycle_reply of {
      probe_id : int;
      epoch : int;
      reports : (Wirerep.t * cycle_report) list;
    }
  | Cycle_commit of { wrs : Wirerep.t list }
  (* Call-reliability plane (deadlines / at-most-once retries /
     cancellation / overload shedding); its rejections are verdicts in
     a [Reply]: *)
  | Cancel of { call_id : int; msg_id : msg_id }
      (** caller abandoned call [call_id] (timeout, deadline, fiber
          death); [msg_id] is the original call message, so the callee
          can drop its reply state and release the reply's transient
          pins immediately instead of waiting for the pin timeout *)

let codec =
  P.sum "envelope"
    [
      P.case 0 "call"
        (P.quad P.int msg_id_codec
           (P.pair P.bool Wirerep.codec)
           (P.triple P.string P.slice P.float))
        (fun (call_id, msg_id, (needs_ack, target), (meth, args, deadline)) ->
          Call { call_id; msg_id; needs_ack; target; meth; args; deadline })
        (function
          | Call { call_id; msg_id; needs_ack; target; meth; args; deadline }
            ->
              Some (call_id, msg_id, (needs_ack, target), (meth, args, deadline))
          | _ -> None);
      P.case 1 "reply"
        (P.quad P.int msg_id_codec P.bool (P.result P.slice verdict_codec))
        (fun (call_id, msg_id, needs_ack, result) ->
          Reply { call_id; msg_id; needs_ack; result })
        (function
          | Reply { call_id; msg_id; needs_ack; result } ->
              Some (call_id, msg_id, needs_ack, result)
          | _ -> None);
      P.case 2 "copy_ack" msg_id_codec
        (fun msg_id -> Copy_ack { msg_id })
        (function Copy_ack { msg_id } -> Some msg_id | _ -> None);
      P.case 3 "dirty"
        (P.list (P.pair Wirerep.codec P.int))
        (fun items -> Dirty { items })
        (function Dirty { items } -> Some items | _ -> None);
      P.case 4 "dirty_ack"
        (P.list (P.pair Wirerep.codec P.bool))
        (fun items -> Dirty_ack { items })
        (function Dirty_ack { items } -> Some items | _ -> None);
      P.case 5 "clean"
        (P.list (P.pair Wirerep.codec P.int))
        (fun items -> Clean { items })
        (function Clean { items } -> Some items | _ -> None);
      P.case 6 "clean_ack" (P.list Wirerep.codec)
        (fun wrs -> Clean_ack { wrs })
        (function Clean_ack { wrs } -> Some wrs | _ -> None);
      P.case 7 "ping" P.int
        (fun nonce -> Ping { nonce })
        (function Ping { nonce } -> Some nonce | _ -> None);
      P.case 8 "ping_ack" P.int
        (fun nonce -> Ping_ack { nonce })
        (function Ping_ack { nonce } -> Some nonce | _ -> None);
      (* Tags 9 and 10 (a separate clean batch and its ack) are retired. *)
      P.case 11 "recover" P.int
        (fun nonce -> Recover { nonce })
        (function Recover { nonce } -> Some nonce | _ -> None);
      P.case 12 "reassert"
        (P.list (P.pair Wirerep.codec P.int))
        (fun items -> Reassert { items })
        (function Reassert { items } -> Some items | _ -> None);
      P.case 13 "reassert_ack"
        (P.pair (P.list Wirerep.codec) (P.list Wirerep.codec))
        (fun (ok, gone) -> Reassert_ack { ok; gone })
        (function Reassert_ack { ok; gone } -> Some (ok, gone) | _ -> None);
      P.case 14 "cycle_probe"
        (P.triple P.int P.bool (P.list Wirerep.codec))
        (fun (probe_id, confirm, targets) ->
          Cycle_probe { probe_id; confirm; targets })
        (function
          | Cycle_probe { probe_id; confirm; targets } ->
              Some (probe_id, confirm, targets)
          | _ -> None);
      P.case 15 "cycle_reply"
        (P.triple P.int P.int
           (P.list (P.pair Wirerep.codec cycle_report_codec)))
        (fun (probe_id, epoch, reports) ->
          Cycle_reply { probe_id; epoch; reports })
        (function
          | Cycle_reply { probe_id; epoch; reports } ->
              Some (probe_id, epoch, reports)
          | _ -> None);
      P.case 16 "cycle_commit" (P.list Wirerep.codec)
        (fun wrs -> Cycle_commit { wrs })
        (function Cycle_commit { wrs } -> Some wrs | _ -> None);
      P.case 17 "cancel"
        (P.pair P.int msg_id_codec)
        (fun (call_id, msg_id) -> Cancel { call_id; msg_id })
        (function
          | Cancel { call_id; msg_id } -> Some (call_id, msg_id) | _ -> None);
    ]

(* Every envelope travels wrapped in a packet stamped with the sender's
   own incarnation epoch and the epoch it believes the destination is in.
   Receivers use the first to reject messages from a peer's previous
   incarnation and to notice restarts, and the second to reject messages
   addressed to their own previous incarnation (e.g. a dirty call that
   was in flight across a crash+restart).  [src_cont] is the sender's
   continuity floor: the oldest epoch whose state this incarnation still
   carries.  An amnesia restart sets it to the new epoch; a durable
   recovery keeps the floor, which is how a receiver that sees the
   src_epoch bump distinguishes "forget everything about this peer"
   from "same logical space, reconcile". *)
type packet = { src_epoch : int; src_cont : int; dst_epoch : int; env : envelope }

let packet_codec =
  P.map ~name:"packet"
    (fun (src_epoch, src_cont, dst_epoch, env) ->
      { src_epoch; src_cont; dst_epoch; env })
    (fun { src_epoch; src_cont; dst_epoch; env } ->
      (src_epoch, src_cont, dst_epoch, env))
    (P.quad P.int P.int P.int codec)

let kind = function
  | Call _ -> "call"
  | Reply _ -> "reply"
  | Copy_ack _ -> "copy_ack"
  | Dirty _ -> "dirty"
  | Dirty_ack _ -> "dirty_ack"
  | Clean _ -> "clean"
  | Clean_ack _ -> "clean_ack"
  | Ping _ -> "ping"
  | Ping_ack _ -> "ping_ack"
  | Recover _ -> "recover"
  | Reassert _ -> "reassert"
  | Reassert_ack _ -> "reassert_ack"
  | Cycle_probe _ -> "cycle_probe"
  | Cycle_reply _ -> "cycle_reply"
  | Cycle_commit _ -> "cycle_commit"
  | Cancel _ -> "cancel"

let pp ppf = function
  | Call { call_id; target; meth; deadline; _ } ->
      Fmt.pf ppf "call#%d %a.%s" call_id Wirerep.pp target meth;
      if deadline > 0. then Fmt.pf ppf " dl=%.3fs" deadline
  | Reply { call_id; result; _ } ->
      Fmt.pf ppf "reply#%d " call_id;
      (match result with
      | Ok _ -> Fmt.string ppf "ok"
      | Error v -> Fmt.pf ppf "error: %a" pp_verdict v)
  | Copy_ack { msg_id } -> Fmt.pf ppf "copy_ack %a" pp_msg_id msg_id
  | Dirty { items } -> Fmt.pf ppf "dirty(%d)" (List.length items)
  | Dirty_ack { items } -> Fmt.pf ppf "dirty_ack(%d)" (List.length items)
  | Clean { items } -> Fmt.pf ppf "clean(%d)" (List.length items)
  | Clean_ack { wrs } -> Fmt.pf ppf "clean_ack(%d)" (List.length wrs)
  | Ping { nonce } -> Fmt.pf ppf "ping %d" nonce
  | Ping_ack { nonce } -> Fmt.pf ppf "ping_ack %d" nonce
  | Recover { nonce } -> Fmt.pf ppf "recover %d" nonce
  | Reassert { items } -> Fmt.pf ppf "reassert(%d)" (List.length items)
  | Reassert_ack { ok; gone } ->
      Fmt.pf ppf "reassert_ack ok=%d gone=%d" (List.length ok)
        (List.length gone)
  | Cycle_probe { probe_id; confirm; targets } ->
      Fmt.pf ppf "cycle_probe#%d %s(%d)" probe_id
        (if confirm then "confirm" else "probe")
        (List.length targets)
  | Cycle_reply { probe_id; epoch; reports } ->
      Fmt.pf ppf "cycle_reply#%d epoch=%d %a" probe_id epoch
        Fmt.(list ~sep:sp (pair ~sep:(any "=") Wirerep.pp pp_cycle_report))
        reports
  | Cycle_commit { wrs } -> Fmt.pf ppf "cycle_commit(%d)" (List.length wrs)
  | Cancel { call_id; msg_id } ->
      Fmt.pf ppf "cancel#%d %a" call_id pp_msg_id msg_id
