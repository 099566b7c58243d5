module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport

type shard = {
  s_id : int;
  s_sched : Sched.t;
  s_transport : Transport.t;
}

type params = {
  p_seed : int64;
  p_nspaces : int;
  p_policy : Sched.policy;
  p_edge : Net.edge_config;
  p_domains : int;
  p_mk_transport : (Sched.t -> Net.t -> Transport.t) option;
}

module type S = sig
  type t

  val name : string

  val deterministic : bool

  val create : params -> t

  val shards : t -> shard array

  val shard_of_space : t -> int -> shard

  val spawn : t -> shard:int -> ?name:string -> (unit -> unit) -> unit

  val run : ?max_steps:int -> ?until:float -> t -> int

  val close : t -> unit
end

type instance = Inst : (module S with type t = 'a) * 'a -> instance

let make (module E : S) params = Inst ((module E), E.create params)

let name (Inst ((module E), _)) = E.name

let deterministic (Inst ((module E), _)) = E.deterministic

let shards (Inst ((module E), t)) = E.shards t

let shard_of_space (Inst ((module E), t)) i = E.shard_of_space t i

let spawn (Inst ((module E), t)) ~shard ?name f = E.spawn t ~shard ?name f

let run ?max_steps ?until (Inst ((module E), t)) = E.run ?max_steps ?until t

let close (Inst ((module E), t)) = E.close t
