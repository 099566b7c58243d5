(* Write-ahead-log records for durable spaces.  The store ships opaque
   byte strings; this module owns the schema.  One record per
   GC-relevant state transition, logged at the commit point that makes
   the transition visible (see Runtime); a snapshot is the list of
   records that rebuilds the whole image. *)

module P = Netobj_pickle.Pickle

type record =
  | Epoch of { epoch : int; cont : int }
      (* incarnation bump; [cont] is the continuity floor *)
  | Export of { wr : Wirerep.t; tag : string }
      (* a concrete object entered the table; [tag] picks the method
         suite factory at recovery *)
  | Reclaim of Wirerep.t (* the collector removed a dead concrete *)
  | Root of { wr : Wirerep.t; delta : int }
      (* local root count change: +-1 in the log, the whole count in a
         snapshot *)
  | Link of { parent : Wirerep.t; child : Wirerep.t; add : bool }
      (* heap edge between local concretes *)
  | Bind of { name : string; wr : Wirerep.t } (* agent name-table bind *)
  | Unbind of string
  | Dirty of { wr : Wirerep.t; client : int; seq : int; add : bool }
      (* dirty-set add/remove at the owner, with the client's seqno *)
  | Evict of int (* lease eviction: drop every entry of this client *)
  | Forget of int
      (* the peer restarted with amnesia: drop its dirty entries AND its
         sequence-number history (its new incarnation counts from 1) *)
  | Surrogate of { wr : Wirerep.t; add : bool }
      (* a usable surrogate appeared/disappeared at this space *)
  | Seqno of { wr : Wirerep.t; n : int }
      (* client-side idempotence watermark for dirty/clean calls *)
  | Pins of { msg : int; wrs : Wirerep.t list }
      (* transient dirty pins for an outgoing message (msg = local seq) *)
  | Unpins of int (* the message was acknowledged; pins released *)
  | Peer of { peer : int; epoch : int }
      (* highest incarnation epoch seen from this peer: guards the
         forget-vs-reconcile decision across our own recovery *)
  | Watermarks of { next_index : int; next_msg : int; next_call : int }
      (* the id counters, carried only by a snapshot: the log suffix
         after it advances them past anything it mentions *)

let record_codec =
  P.sum "wal"
    [
      P.case 0 "epoch" (P.pair P.int P.int)
        (fun (epoch, cont) -> Epoch { epoch; cont })
        (function Epoch { epoch; cont } -> Some (epoch, cont) | _ -> None);
      P.case 1 "export"
        (P.pair Wirerep.codec P.string)
        (fun (wr, tag) -> Export { wr; tag })
        (function Export { wr; tag } -> Some (wr, tag) | _ -> None);
      P.case 2 "reclaim" Wirerep.codec
        (fun wr -> Reclaim wr)
        (function Reclaim wr -> Some wr | _ -> None);
      P.case 3 "root"
        (P.pair Wirerep.codec P.int)
        (fun (wr, delta) -> Root { wr; delta })
        (function Root { wr; delta } -> Some (wr, delta) | _ -> None);
      P.case 4 "link"
        (P.triple Wirerep.codec Wirerep.codec P.bool)
        (fun (parent, child, add) -> Link { parent; child; add })
        (function
          | Link { parent; child; add } -> Some (parent, child, add)
          | _ -> None);
      P.case 5 "bind"
        (P.pair P.string Wirerep.codec)
        (fun (name, wr) -> Bind { name; wr })
        (function Bind { name; wr } -> Some (name, wr) | _ -> None);
      P.case 6 "unbind" P.string
        (fun name -> Unbind name)
        (function Unbind name -> Some name | _ -> None);
      P.case 7 "dirty"
        (P.quad Wirerep.codec P.int P.int P.bool)
        (fun (wr, client, seq, add) -> Dirty { wr; client; seq; add })
        (function
          | Dirty { wr; client; seq; add } -> Some (wr, client, seq, add)
          | _ -> None);
      P.case 8 "evict" P.int
        (fun client -> Evict client)
        (function Evict client -> Some client | _ -> None);
      P.case 9 "surrogate"
        (P.pair Wirerep.codec P.bool)
        (fun (wr, add) -> Surrogate { wr; add })
        (function Surrogate { wr; add } -> Some (wr, add) | _ -> None);
      P.case 10 "seqno"
        (P.pair Wirerep.codec P.int)
        (fun (wr, n) -> Seqno { wr; n })
        (function Seqno { wr; n } -> Some (wr, n) | _ -> None);
      P.case 11 "pins"
        (P.pair P.int (P.list Wirerep.codec))
        (fun (msg, wrs) -> Pins { msg; wrs })
        (function Pins { msg; wrs } -> Some (msg, wrs) | _ -> None);
      P.case 12 "unpins" P.int
        (fun msg -> Unpins msg)
        (function Unpins msg -> Some msg | _ -> None);
      P.case 13 "forget" P.int
        (fun client -> Forget client)
        (function Forget client -> Some client | _ -> None);
      P.case 14 "peer" (P.pair P.int P.int)
        (fun (peer, epoch) -> Peer { peer; epoch })
        (function Peer { peer; epoch } -> Some (peer, epoch) | _ -> None);
      P.case 15 "watermarks" (P.triple P.int P.int P.int)
        (fun (next_index, next_msg, next_call) ->
          Watermarks { next_index; next_msg; next_call })
        (function
          | Watermarks { next_index; next_msg; next_call } ->
              Some (next_index, next_msg, next_call)
          | _ -> None);
    ]

let pp_record ppf = function
  | Epoch { epoch; cont } -> Fmt.pf ppf "epoch %d cont=%d" epoch cont
  | Export { wr; tag } -> Fmt.pf ppf "export %a tag=%s" Wirerep.pp wr tag
  | Reclaim wr -> Fmt.pf ppf "reclaim %a" Wirerep.pp wr
  | Root { wr; delta } -> Fmt.pf ppf "root %a %+d" Wirerep.pp wr delta
  | Link { parent; child; add } ->
      Fmt.pf ppf "%s %a -> %a"
        (if add then "link" else "unlink")
        Wirerep.pp parent Wirerep.pp child
  | Bind { name; wr } -> Fmt.pf ppf "bind %s=%a" name Wirerep.pp wr
  | Unbind name -> Fmt.pf ppf "unbind %s" name
  | Dirty { wr; client; seq; add } ->
      Fmt.pf ppf "dirty%s %a client=%d seq=%d"
        (if add then "+" else "-")
        Wirerep.pp wr client seq
  | Evict client -> Fmt.pf ppf "evict client=%d" client
  | Forget client -> Fmt.pf ppf "forget client=%d" client
  | Surrogate { wr; add } ->
      Fmt.pf ppf "surrogate%s %a" (if add then "+" else "-") Wirerep.pp wr
  | Seqno { wr; n } -> Fmt.pf ppf "seqno %a n=%d" Wirerep.pp wr n
  | Pins { msg; wrs } -> Fmt.pf ppf "pins msg=%d (%d)" msg (List.length wrs)
  | Unpins msg -> Fmt.pf ppf "unpins msg=%d" msg
  | Peer { peer; epoch } -> Fmt.pf ppf "peer %d epoch=%d" peer epoch
  | Watermarks { next_index; next_msg; next_call } ->
      Fmt.pf ppf "watermarks index=%d msg=%d call=%d" next_index next_msg
        next_call
