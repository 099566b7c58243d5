type addr = int

type handler =
  src:addr -> kind:string -> payload:string -> off:int -> len:int -> unit

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  dropped_src_crashed : int;
  dropped_dst_crashed : int;
  duplicated : int;
  bytes : int;
  reconnects : int;
}

let zero_stats =
  {
    sent = 0;
    delivered = 0;
    dropped = 0;
    dropped_src_crashed = 0;
    dropped_dst_crashed = 0;
    duplicated = 0;
    bytes = 0;
    reconnects = 0;
  }

type faults = {
  f_crash : addr -> unit;
  f_restore : addr -> unit;
  f_is_crashed : addr -> bool;
  f_set_partitioned : addr -> addr -> bool -> unit;
  f_partitioned : addr -> addr -> bool;
  f_heal_all : unit -> unit;
  f_set_burst :
    src:addr ->
    dst:addr ->
    loss:float option ->
    dup:float option ->
    until:float ->
    unit;
  f_set_latency_spike : src:addr -> dst:addr -> factor:float -> until:float -> unit;
  f_set_filter : (src:addr -> dst:addr -> kind:string -> bool) option -> unit;
}

type t = {
  t_name : string;
  t_send : src:addr -> dst:addr -> kind:string -> string -> unit;
  t_post : src:addr -> dst:addr -> kind:string -> string -> unit;
  t_flush : unit -> unit;
  t_set_handler : addr -> handler -> unit;
  t_connect : addr -> unit;
  t_pump : timeout:float -> int;
  t_close : unit -> unit;
  t_stats : unit -> stats;
  t_stats_by_kind : unit -> (string * (int * int)) list;
  t_reset_stats : unit -> unit;
  t_faults : faults;
}

let send t = t.t_send

let set_handler t a h = t.t_set_handler a h

let connect t a = t.t_connect a

let pump t ~timeout = t.t_pump ~timeout

let close t = t.t_close ()

let stats t = t.t_stats ()

let stats_by_kind t = t.t_stats_by_kind ()

let reset_stats t = t.t_reset_stats ()

let crash t a = t.t_faults.f_crash a

let restore t a = t.t_faults.f_restore a

let is_crashed t a = t.t_faults.f_is_crashed a

let set_partitioned t a b on = t.t_faults.f_set_partitioned a b on

let partitioned t a b = t.t_faults.f_partitioned a b

let heal_all t = t.t_faults.f_heal_all ()

let set_burst t ~src ~dst ?loss ?dup ~until () =
  t.t_faults.f_set_burst ~src ~dst ~loss ~dup ~until

let set_latency_spike t ~src ~dst ~factor ~until =
  t.t_faults.f_set_latency_spike ~src ~dst ~factor ~until

let set_filter t f = t.t_faults.f_set_filter f

let no_faults ~name =
  let nope what _ =
    invalid_arg
      (Printf.sprintf
         "Transport.%s: backend %s has no fault hooks (wrap it in \
          Transport.Faulty)"
         what name)
  in
  {
    f_crash = nope "crash";
    f_restore = nope "restore";
    f_is_crashed = (fun _ -> false);
    f_set_partitioned = (fun a _ _ -> nope "set_partitioned" a);
    f_partitioned = (fun _ _ -> false);
    f_heal_all = (fun () -> ());
    f_set_burst =
      (fun ~src ~dst:_ ~loss:_ ~dup:_ ~until:_ -> nope "set_burst" src);
    f_set_latency_spike =
      (fun ~src ~dst:_ ~factor:_ ~until:_ -> nope "set_latency_spike" src);
    f_set_filter =
      (fun f -> match f with None -> () | Some _ -> nope "set_filter" ());
  }
