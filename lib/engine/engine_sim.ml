module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Faulty = Netobj_transport.Faulty
module Obs = Netobj_obs.Obs

type t = { shard : Engine.shard }

let name = "sim"

let deterministic = true

(* The construction order (scheduler, then clock hookup, then network,
   then transport) is the frozen pre-engine sequence: seeds and RNG
   streams derive identically, so mc schedules and chaos traces recorded
   before the engine split replay byte-for-byte. *)
let create (p : Engine.params) =
  let sched = Sched.create ~policy:p.p_policy () in
  (* Trace timestamps follow the virtual clock from here on (enable
     observability *before* creating the runtime so nothing is emitted
     against the default event-counter clock). *)
  Obs.set_clock (fun () -> Sched.now sched);
  let net = Net.create ~sched ~seed:p.p_seed ~edge:p.p_edge () in
  (* The simulated network is always created and handed to a custom
     transport hook (the model checker sets its delivery choice there);
     the hook's type fixes it even for a transport that routes traffic
     elsewhere and leaves it idle.  The default stacks the fault gates
     on the network, drawing from its RNG, so fault draws interleave
     with latency draws deterministically. *)
  let tr =
    match p.p_mk_transport with
    | Some f -> f sched net
    | None -> Faulty.of_net ~sched net
  in
  {
    shard =
      { Engine.s_id = 0; s_sched = sched; s_transport = tr };
  }

let shards t = [| t.shard |]

let shard_of_space t _ = t.shard

let spawn t ~shard:_ ?name f = Sched.spawn t.shard.Engine.s_sched ?name f

let run ?max_steps ?until t =
  Sched.run ?max_steps ?until t.shard.Engine.s_sched

let close _ = ()
