(* Stress tests: the full runtime under uniformly random fiber scheduling
   and random application churn, judged by the runtime-level oracle
   ("an object is resident at its owner iff somebody may still need it"),
   plus long-haul mixed scenarios. *)

module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle

let m_put = Stub.declare "put" R.handle_codec P.unit

let m_fetch = Stub.declare "fetch" P.unit (P.option R.handle_codec)

(* A cell holding at most one reference, with an emptying method. *)
let cell_obj sp =
  let stored = ref None in
  let rec cell =
    lazy
      (R.allocate sp
         ~meths:
           [
             Stub.implement m_put (fun sp' h ->
                 (match !stored with
                 | Some old ->
                     R.unlink sp' ~parent:(Lazy.force cell) ~child:old;
                     R.release sp' old
                 | None -> ());
                 R.retain sp' h;
                 R.link sp' ~parent:(Lazy.force cell) ~child:h;
                 stored := Some h);
             Stub.implement m_fetch (fun _ () -> !stored);
           ])
  in
  Lazy.force cell

let no_failures rt =
  match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

let consistent msg rt =
  match R.check_consistency rt with
  | [] -> ()
  | ps -> Alcotest.failf "%s: %s" msg (String.concat "; " ps)

(* Random scheduling: clients hammer a shared counter while GC demons run
   aggressively; every call must succeed and the final count must be
   exact. *)
let test_random_schedule_calls () =
  for seed = 1 to 15 do
    let cfg =
      R.config ~seed:(Int64.of_int seed)
        ~policy:(Sched.Random (Int64.of_int (seed * 7)))
        ~gc_period:0.005 ~nspaces:4 ()
    in
    let rt = R.create cfg in
    let owner = R.space rt 0 in
    let counter = Scenario.counter owner in
    R.publish owner "c" counter;
    let calls = ref 0 in
    for i = 1 to 3 do
      R.spawn rt (fun () ->
          let sp = R.space rt i in
          for _ = 1 to 4 do
            let h = R.lookup sp ~at:0 "c" in
            ignore (Stub.call sp h Scenario.m_incr 1);
            incr calls;
            R.release sp h
          done)
    done;
    ignore (R.run ~until:30.0 rt);
    no_failures rt;
    consistent (Printf.sprintf "seed %d" seed) rt;
    Alcotest.(check int) (Printf.sprintf "seed %d: all calls" seed) 12 !calls;
    (* the object survived throughout *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: resident" seed)
      true
      (R.resident owner (R.wirerep counter))
  done

(* Random churn of the reference through cells on random spaces; the
   oracle: while any cell holds it, it must stay resident; when no one
   does, it must eventually be reclaimed. *)
let test_random_churn_oracle () =
  for seed = 1 to 10 do
    let n = 4 in
    let cfg =
      R.config ~seed:(Int64.of_int (seed * 3)) ~gc_period:0.01 ~nspaces:n ()
    in
    let rt = R.create cfg in
    let owner = R.space rt 0 in
    let target = Scenario.counter owner in
    let wr = R.wirerep target in
    R.publish owner "target" target;
    (* one cell per client space *)
    let cells = Array.init n (fun i -> if i = 0 then None else Some (cell_obj (R.space rt i))) in
    Array.iteri
      (fun i c ->
        match c with
        | Some cell -> R.publish (R.space rt i) "cell" cell
        | None -> ())
      cells;
    let rng = Netobj_util.Rng.create (Int64.of_int (seed * 11)) in
    (* churn: random client moves the ref into its cell, then empties it *)
    for _round = 1 to 6 do
      let i = 1 + Netobj_util.Rng.int rng (n - 1) in
      R.spawn rt (fun () ->
          let sp = R.space rt i in
          let h = R.lookup sp ~at:0 "target" in
          let cell = R.lookup sp ~at:i "cell" in
          Stub.call sp cell m_put h;
          R.release sp h;
          R.release sp cell)
    done;
    ignore (R.run ~until:60.0 rt);
    no_failures rt;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: resident while a cell holds it" seed)
      true (R.resident owner wr);
    (* Now empty every cell by overwriting with a dummy. *)
    for i = 1 to n - 1 do
      R.spawn rt (fun () ->
          let sp = R.space rt i in
          let dummy = Scenario.counter sp in
          let cell = R.lookup sp ~at:i "cell" in
          Stub.call sp cell m_put dummy;
          R.release sp cell;
          R.release sp dummy)
    done;
    ignore (R.run ~until:120.0 rt);
    no_failures rt;
    (* Owner unpublishes and lets go. *)
    R.publish owner "target" (Scenario.counter owner);
    R.release owner target;
    ignore (R.run ~until:200.0 rt);
    R.collect_all rt;
    ignore (R.run ~until:260.0 rt);
    R.collect owner;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: reclaimed when nobody holds it" seed)
      false (R.resident owner wr);
    consistent (Printf.sprintf "seed %d teardown" seed) rt
  done

(* Deep forwarding chains: the reference hops through k spaces in nested
   calls, exercising nested invocations from method bodies. *)
let test_forwarding_chain () =
  let n = 5 in
  let rt =
    R.create (R.config ~seed:77L ~nspaces:n ())
  in
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  (* each space i>0 has a cell *)
  for i = 1 to n - 1 do
    R.publish (R.space rt i) "cell" (cell_obj (R.space rt i))
  done;
  R.spawn rt (fun () ->
      (* space 1 fetches and forwards to 2, which forwards to 3, ... *)
      let sp1 = R.space rt 1 in
      let h = R.lookup sp1 ~at:0 "c" in
      let rec forward i h sp =
        if i < n then begin
          let cell = R.lookup sp ~at:i "cell" in
          Stub.call sp cell m_put h;
          R.release sp h;
          R.release sp cell;
          (* next hop pulls it out again *)
          let sp' = R.space rt i in
          let cell' = R.lookup sp' ~at:i "cell" in
          match Stub.call sp' cell' m_fetch () with
          | Some h' ->
              R.release sp' cell';
              forward (i + 1) h' sp'
          | None -> Alcotest.fail "cell empty"
        end
        else ignore (Stub.call sp h Scenario.m_incr 1)
      in
      forward 2 h sp1);
  ignore (R.run rt);
  no_failures rt;
  (* the last space's app ended holding a rooted result handle; dirty set
     reflects the whole journey's survivors after GC *)
  R.collect_all rt;
  ignore (R.run rt);
  Alcotest.(check bool)
    "still resident (cells hold it)" true
    (R.resident owner (R.wirerep counter))

(* Many objects, interleaved lifetimes. *)
let test_many_objects () =
  let rt = R.create (R.config ~seed:31L ~nspaces:3 ()) in
  let owner = R.space rt 0 in
  let objs = Array.init 20 (fun i -> (i, Scenario.counter owner)) in
  Array.iter (fun (i, o) -> R.publish owner (Printf.sprintf "o%d" i) o) objs;
  R.spawn rt (fun () ->
      let sp = R.space rt 1 in
      Array.iter
        (fun (i, _) ->
          let h = R.lookup sp ~at:0 (Printf.sprintf "o%d" i) in
          ignore (Stub.call sp h Scenario.m_incr i);
          (* hold on to even ones, release odd ones *)
          if i mod 2 = 1 then R.release sp h)
        objs);
  ignore (R.run rt);
  no_failures rt;
  R.collect (R.space rt 1);
  ignore (R.run rt);
  Array.iter
    (fun (i, o) ->
      let ds = R.dirty_set owner o in
      if i mod 2 = 0 then
        Alcotest.(check (list int)) (Printf.sprintf "o%d held" i) [ 1 ] ds
      else Alcotest.(check (list int)) (Printf.sprintf "o%d released" i) [] ds)
    objs

let () =
  Alcotest.run "stress"
    [
      ( "runtime",
        [
          Alcotest.test_case "random schedules" `Quick
            test_random_schedule_calls;
          Alcotest.test_case "random churn oracle" `Quick
            test_random_churn_oracle;
          Alcotest.test_case "forwarding chain" `Quick test_forwarding_chain;
          Alcotest.test_case "many objects" `Quick test_many_objects;
        ] );
    ]
