module Net = Netobj_net.Net

let of_net net =
  let stats () =
    let s = Net.stats net in
    {
      Transport.zero_stats with
      sent = s.Net.sent;
      delivered = s.Net.delivered;
      dropped = s.Net.dropped;
      bytes = s.Net.bytes;
    }
  in
  let send ~src ~dst ~kind payload = Net.send net ~src ~dst ~kind payload in
  {
    Transport.t_name = "sim";
    t_send = send;
    t_post = send;
    t_flush = ignore;
    t_set_handler = (fun a h -> Net.set_handler net a h);
    t_connect = (fun _ -> ());
    t_pump = (fun ~timeout:_ -> 0);
    t_close = (fun () -> ());
    t_stats = stats;
    t_stats_by_kind = (fun () -> Net.stats_by_kind net);
    t_reset_stats = (fun () -> Net.reset_stats net);
    t_faults = Transport.no_faults ~name:"sim";
  }
