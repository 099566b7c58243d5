module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport
module Rng = Netobj_util.Rng
module P = Netobj_pickle.Pickle

(* --- objects ---------------------------------------------------------------- *)

let m_incr = Stub.declare "incr" P.int P.int

let m_get = Stub.declare "get" P.unit P.int

let counter_meths ?(value = ref 0) () =
  [
    Stub.implement m_incr (fun _ n ->
        value := !value + n;
        !value);
    Stub.implement m_get (fun _ () -> !value);
  ]

let counter ?tag ?value sp = R.allocate ?tag sp ~meths:(counter_meths ?value ())

let m_set_peer = Stub.declare "set_peer" R.handle_codec P.unit

let node ?tag sp =
  let rec node =
    lazy
      (R.allocate ?tag sp
         ~meths:
           [
             Stub.implement m_set_peer (fun sp' h ->
                 R.link sp' ~parent:(Lazy.force node) ~child:h);
           ])
  in
  Lazy.force node

let ring rt ~nodes:k =
  let n = List.length (R.spaces rt) in
  let name i = Printf.sprintf "node%d" i in
  let nodes =
    Array.init k (fun i ->
        let sp = R.space rt (i mod n) in
        let h = node sp in
        R.publish sp (name i) h;
        (sp, h))
  in
  Array.iteri
    (fun i (sp, h) ->
      let j = (i + 1) mod k in
      R.spawn rt ~name:(Printf.sprintf "linker-%d" i) (fun () ->
          let peer = R.lookup sp ~at:(j mod n) (name j) in
          R.link sp ~parent:h ~child:peer;
          R.release sp peer))
    nodes;
  nodes

let m_all = Stub.declare "all" P.unit (P.list R.handle_codec)

let m_range = Stub.declare "range" (P.pair P.int P.int) (P.list R.handle_codec)

let registry sp n =
  let objs = Array.init n (fun _ -> R.allocate sp ~meths:[]) in
  let reg =
    R.allocate sp
      ~meths:
        [
          Stub.implement m_all (fun _ () -> Array.to_list objs);
          Stub.implement m_range (fun _ (off, len) ->
              Array.to_list (Array.sub objs off len));
        ]
  in
  (reg, objs)

(* --- the drain oracle --------------------------------------------------------- *)

let surrogates rt =
  List.fold_left (fun acc sp -> acc + R.surrogate_count sp) 0 (R.spaces rt)

let drain ?(quiesce = false) ?(rounds = 8) ?horizon ?pending rt =
  let pending =
    match pending with Some p -> p | None -> fun () -> surrogates rt > 0
  in
  let run () =
    match horizon with
    | None -> ignore (R.run rt)
    | Some h -> ignore (R.run rt ~until:(Sched.now (R.sched rt) +. h))
  in
  if quiesce then ignore (R.run rt);
  let rounds = ref rounds in
  while pending () && !rounds > 0 do
    decr rounds;
    R.collect_all rt;
    run ()
  done

let fiber_problems rt =
  List.map
    (fun (name, exn) ->
      Printf.sprintf "fiber %s raised %s" name (Printexc.to_string exn))
    (Sched.failures (R.sched rt))

let drain_problems rt =
  let undrained sp =
    match R.surrogate_count sp with
    | 0 -> []
    | n ->
        Printf.sprintf "space %d: %d surrogate(s) failed to drain"
          (R.space_id sp) n
        :: List.map (fun line -> "  " ^ line) (R.surrogate_summary sp)
  in
  fiber_problems rt
  @ List.concat_map undrained (R.spaces rt)
  @ R.check_consistency rt

let safety_problems rt = List.map (fun p -> "safety: " ^ p) (R.check_safety rt)

(* --- the verdict ------------------------------------------------------------- *)

type verdict = { mutable failed : bool }

let verdict () = { failed = false }

let fail v fmt =
  Fmt.kpf (fun _ -> v.failed <- true) Fmt.stdout ("FAIL: " ^^ fmt ^^ "@.")

let report v problems = List.iter (fun p -> fail v "%s" p) problems

let finish v =
  Fmt.pr "result: %s@." (if v.failed then "FAILED" else "SURVIVED");
  if v.failed then 1 else 0

(* --- real sockets ------------------------------------------------------------- *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

let wait_port port ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () ->
        Unix.close fd;
        true
    | exception Unix.Unix_error (_, _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.02;
          loop ()
        end
        else false
  in
  loop ()

let drive ?(pump = 0.005) rt ~deadline ~stop =
  let sched = R.sched rt in
  let tr = R.transport rt in
  while (not (stop ())) && Unix.gettimeofday () < deadline do
    let before = Sched.now sched in
    ignore (R.run rt ~until:(before +. 0.05));
    let n = Transport.pump tr ~timeout:pump in
    if n = 0 && Sched.now sched = before then
      Sched.timer sched ~name:"drive-tick" 0.05 (fun () -> ())
  done

(* --- the storm ---------------------------------------------------------------- *)

type storm = {
  sent : int;
  counted : int;
  wall : float;
  drained : bool;
  problems : string list;
}

let storm ?(fibers = 1) ~seed ~calls rt =
  let spaces = List.length (R.spaces rt) in
  let name i = Printf.sprintf "cnt-%d" i in
  let counters =
    Array.init spaces (fun i ->
        let sp = R.space rt i in
        let c = counter sp in
        R.publish sp (name i) c;
        c)
  in
  (* [sent.(i)] and [left.(i)] are mutated only by space [i]'s fibers
     (one shard); this thread reads them between runs. *)
  let sent = Array.make spaces 0 in
  let left = Array.make spaces fibers in
  for i = 0 to spaces - 1 do
    for f = 0 to fibers - 1 do
      R.spawn_at rt ~space:i
        ~name:(Printf.sprintf "storm-%d" i)
        (fun () ->
          let sp = R.space rt i in
          let rng =
            Rng.create (Int64.of_int ((seed * 1299709) + i + (f * spaces)))
          in
          let handles =
            Array.init spaces (fun j ->
                if j = i then None else Some (R.lookup sp ~at:j (name j)))
          in
          for _ = 1 to calls do
            match handles.(Rng.int rng spaces) with
            | None -> ()
            | Some h ->
                ignore (Stub.call sp h m_incr 1);
                sent.(i) <- sent.(i) + 1
          done;
          Array.iter (Option.iter (R.release sp)) handles;
          R.collect sp;
          left.(i) <- left.(i) - 1)
    done
  done;
  let until = ref 1.0 in
  let run_while cond ~cap =
    let t0 = Unix.gettimeofday () in
    while cond () && Unix.gettimeofday () -. t0 < cap do
      ignore (R.run rt ~until:!until);
      until := !until +. 1.0
    done
  in
  let t0 = Unix.gettimeofday () in
  let finished () = Array.for_all (fun n -> n = 0) left in
  run_while (fun () -> not (finished ())) ~cap:120.0;
  let wall = Unix.gettimeofday () -. t0 in
  let drained () =
    Array.for_all Fun.id
      (Array.mapi (fun i c -> R.dirty_set (R.space rt i) c = []) counters)
  in
  run_while (fun () -> not (drained ())) ~cap:60.0;
  let values = Array.make spaces None in
  Array.iteri
    (fun i c ->
      R.spawn_at rt ~space:i (fun () ->
          values.(i) <- Some (Stub.call (R.space rt i) c m_get ())))
    counters;
  let read () = Array.for_all Option.is_some values in
  run_while (fun () -> not (read ())) ~cap:30.0;
  let sent = Array.fold_left ( + ) 0 sent in
  let counted =
    Array.fold_left (fun acc v -> acc + Option.value v ~default:0) 0 values
  in
  let drained = drained () in
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        (finished (), "storm did not converge");
        (read (), "counter reads stuck");
        ( counted = sent,
          Printf.sprintf "lost/invented calls: sent %d, counted %d" sent
            counted );
        (drained, "dirty sets did not drain");
      ]
  in
  { sent; counted; wall; drained; problems }
