(* Tests for the cooperative fiber scheduler: interleaving, virtual time,
   ivars, mailboxes, failure capture and deadlock (stall) reporting. *)

module Sched = Netobj_sched.Sched

let test_spawn_run () =
  let s = Sched.create () in
  let log = ref [] in
  Sched.spawn s (fun () -> log := 1 :: !log);
  Sched.spawn s (fun () -> log := 2 :: !log);
  let steps = Sched.run s in
  Alcotest.(check bool) "steps > 0" true (steps > 0);
  Alcotest.(check (list int)) "fifo order" [ 2; 1 ] !log;
  Alcotest.(check int) "no alive fibers" 0 (Sched.alive s)

let test_yield_interleaves () =
  let s = Sched.create () in
  let log = Buffer.create 16 in
  let worker c () =
    for _ = 1 to 3 do
      Buffer.add_char log c;
      Sched.yield s
    done
  in
  Sched.spawn s (worker 'a');
  Sched.spawn s (worker 'b');
  ignore (Sched.run s);
  Alcotest.(check string) "round robin" "ababab" (Buffer.contents log)

let test_virtual_time () =
  let s = Sched.create () in
  let t_end = ref 0.0 in
  Sched.spawn s (fun () ->
      Sched.sleep s 5.0;
      Sched.sleep s 2.5;
      t_end := Sched.now s);
  ignore (Sched.run s);
  Alcotest.(check (float 1e-9)) "clock advanced" 7.5 !t_end

let test_timer_order () =
  let s = Sched.create () in
  let log = ref [] in
  Sched.spawn s (fun () ->
      Sched.sleep s 3.0;
      log := "c" :: !log);
  Sched.spawn s (fun () ->
      Sched.sleep s 1.0;
      log := "a" :: !log);
  Sched.spawn s (fun () ->
      Sched.sleep s 2.0;
      log := "b" :: !log);
  ignore (Sched.run s);
  Alcotest.(check (list string)) "deadline order" [ "c"; "b"; "a" ] !log

let test_run_until () =
  let s = Sched.create () in
  let fired = ref false in
  Sched.spawn s (fun () ->
      Sched.sleep s 10.0;
      fired := true);
  ignore (Sched.run ~until:5.0 s);
  Alcotest.(check bool) "timer past bound not fired" false !fired;
  ignore (Sched.run s);
  Alcotest.(check bool) "fires when unbounded" true !fired

let test_ivar () =
  let s = Sched.create () in
  let v = Sched.Ivar.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Sched.spawn s (fun () ->
        let x = Sched.Ivar.read v in
        got := (i, x) :: !got)
  done;
  Sched.spawn s (fun () ->
      Sched.sleep s 1.0;
      Sched.Ivar.fill v 42);
  ignore (Sched.run s);
  Alcotest.(check int) "all readers woke" 3 (List.length !got);
  List.iter (fun (_, x) -> Alcotest.(check int) "value" 42 x) !got;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Sched.Ivar.fill v 0)

let test_mailbox () =
  let s = Sched.create () in
  let mb = Sched.Mailbox.create () in
  let received = ref [] in
  Sched.spawn s (fun () ->
      for _ = 1 to 3 do
        received := Sched.Mailbox.recv mb :: !received
      done);
  Sched.spawn s (fun () ->
      List.iter
        (fun x ->
          Sched.Mailbox.send mb x;
          Sched.yield s)
        [ "x"; "y"; "z" ]);
  ignore (Sched.run s);
  Alcotest.(check (list string)) "fifo delivery" [ "z"; "y"; "x" ] !received

let test_failure_capture () =
  let s = Sched.create () in
  Sched.spawn s ~name:"boom" (fun () -> failwith "bang");
  Sched.spawn s (fun () -> ());
  ignore (Sched.run s);
  match Sched.failures s with
  | [ ("boom", Failure msg) ] when String.equal msg "bang" -> ()
  | _ -> Alcotest.fail "failure not captured"

let test_stall_detection () =
  let s = Sched.create () in
  let v : unit Sched.Ivar.var = Sched.Ivar.create () in
  Sched.spawn s (fun () -> Sched.Ivar.read v);
  ignore (Sched.run s);
  Alcotest.(check int) "one stalled fiber" 1 (Sched.stalled s)

let test_random_policy_deterministic () =
  let run_once seed =
    let s = Sched.create ~policy:(Sched.Random seed) () in
    let log = Buffer.create 16 in
    for i = 0 to 4 do
      Sched.spawn s (fun () ->
          Buffer.add_string log (string_of_int i);
          Sched.yield s;
          Buffer.add_string log (string_of_int i))
    done;
    ignore (Sched.run s);
    Buffer.contents log
  in
  Alcotest.(check string)
    "same seed same schedule" (run_once 11L) (run_once 11L);
  (* Different seeds should (virtually always) differ on 10 events. *)
  if String.equal (run_once 1L) (run_once 2L) && String.equal (run_once 2L) (run_once 3L)
  then Alcotest.fail "random policy looks constant"

(* Replay parity: [Random] draws are a pure function of
   (seed, choice-point index) — never of how the ready queue happens to
   be split internally — so two same-seed executions mixing timers,
   sleeps and nested spawns interleave identically, event for event. *)
let test_random_replay_parity () =
  let run_once seed =
    let s = Sched.create ~policy:(Sched.Random seed) () in
    let log = ref [] in
    let ev fmt = Printf.ksprintf (fun e -> log := e :: !log) fmt in
    for i = 0 to 3 do
      Sched.spawn s
        ~name:(Printf.sprintf "f%d" i)
        (fun () ->
          ev "a%d" i;
          Sched.sleep s (0.001 *. float_of_int (1 + (i mod 2)));
          ev "b%d" i;
          Sched.yield s;
          ev "c%d" i)
    done;
    Sched.spawn s ~name:"nest" (fun () ->
        Sched.sleep s 0.001;
        for j = 0 to 2 do
          Sched.spawn s
            ~name:(Printf.sprintf "n%d" j)
            (fun () ->
              ev "n%d" j;
              Sched.yield s;
              ev "m%d" j)
        done);
    ignore (Sched.run s);
    List.rev !log
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld replays" seed)
        (run_once seed) (run_once seed))
    [ 1L; 3L; 11L; 42L ];
  if List.for_all (fun s -> run_once s = run_once 1L) [ 2L; 3L; 4L ] then
    Alcotest.fail "random policy ignores the seed"

let test_nested_spawn () =
  let s = Sched.create () in
  let count = ref 0 in
  Sched.spawn s (fun () ->
      for _ = 1 to 5 do
        Sched.spawn s (fun () -> incr count)
      done);
  ignore (Sched.run s);
  Alcotest.(check int) "children ran" 5 !count

let test_read_timeout () =
  let s = Sched.create () in
  let v = Sched.Ivar.create () in
  let outcomes = ref [] in
  (* times out: nothing ever fills it *)
  Sched.spawn s (fun () ->
      let r = Sched.read_timeout s v ~timeout:1.0 in
      outcomes := ("a", r) :: !outcomes);
  (* wins the race: filled before the timer *)
  let w = Sched.Ivar.create () in
  Sched.spawn s (fun () ->
      let r = Sched.read_timeout s w ~timeout:5.0 in
      outcomes := ("b", r) :: !outcomes);
  Sched.spawn s (fun () ->
      Sched.sleep s 2.0;
      Sched.Ivar.fill w 42);
  ignore (Sched.run s);
  Alcotest.(check (option int)) "timed out" None (List.assoc "a" !outcomes);
  Alcotest.(check (option int)) "filled in time" (Some 42)
    (List.assoc "b" !outcomes)

(* A fill must cancel the race's timer: left armed, the no-op timer would
   drag the clock to its 5.0 deadline before [run] could quiesce. *)
let test_read_timeout_cancels_timer () =
  let s = Sched.create () in
  let v = Sched.Ivar.create () in
  let got = ref None in
  Sched.spawn s (fun () -> got := Sched.read_timeout s v ~timeout:5.0);
  Sched.timer s 0.1 (fun () -> Sched.Ivar.fill v 7);
  ignore (Sched.run s);
  Alcotest.(check (option int)) "filled" (Some 7) !got;
  Alcotest.(check (float 1e-9)) "clock stopped at the fill" 0.1 (Sched.now s)

(* Cancelling most timers triggers heap rebuilds; the survivors must still
   fire in (deadline, arming) order, same-deadline ties included. *)
let test_cancel_rebuild_order () =
  let s = Sched.create () in
  let fired = ref [] in
  let cancels =
    List.init 300 (fun i ->
        let dt = float_of_int ((i * 37) mod 50) in
        (i, dt, Sched.timer_cancel s dt (fun () -> fired := i :: !fired)))
  in
  List.iter (fun (i, _, cancel) -> if i mod 3 <> 0 then cancel ()) cancels;
  let expect =
    List.filter (fun (i, _, _) -> i mod 3 = 0) cancels
    |> List.map (fun (i, dt, _) -> (dt, i))
    |> List.sort compare |> List.map snd
  in
  ignore (Sched.run s);
  Alcotest.(check (list int)) "survivors in order" expect (List.rev !fired)

let test_timer_callback () =
  let s = Sched.create () in
  let fired_at = ref nan in
  Sched.timer s 3.5 (fun () -> fired_at := Sched.now s);
  ignore (Sched.run s);
  Alcotest.(check (float 1e-9)) "timer fired on time" 3.5 !fired_at

let test_sleep_zero_yields () =
  let s = Sched.create () in
  let log = ref [] in
  Sched.spawn s (fun () ->
      log := "a1" :: !log;
      Sched.sleep s 0.0;
      log := "a2" :: !log);
  Sched.spawn s (fun () -> log := "b" :: !log);
  ignore (Sched.run s);
  Alcotest.(check (list string)) "sleep 0 lets b in" [ "a2"; "b"; "a1" ] !log

let () =
  Alcotest.run "sched"
    [
      ( "fibers",
        [
          Alcotest.test_case "spawn/run" `Quick test_spawn_run;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "failure capture" `Quick test_failure_capture;
          Alcotest.test_case "stall detection" `Quick test_stall_detection;
          Alcotest.test_case "random policy" `Quick
            test_random_policy_deterministic;
          Alcotest.test_case "random replay parity" `Quick
            test_random_replay_parity;
        ] );
      ( "time",
        [
          Alcotest.test_case "virtual time" `Quick test_virtual_time;
          Alcotest.test_case "timer order" `Quick test_timer_order;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "sleep zero" `Quick test_sleep_zero_yields;
          Alcotest.test_case "read timeout" `Quick test_read_timeout;
          Alcotest.test_case "read timeout cancels its timer" `Quick
            test_read_timeout_cancels_timer;
          Alcotest.test_case "cancel rebuild keeps order" `Quick
            test_cancel_rebuild_order;
          Alcotest.test_case "timer callback" `Quick test_timer_callback;
        ] );
      ( "sync",
        [
          Alcotest.test_case "ivar" `Quick test_ivar;
          Alcotest.test_case "mailbox" `Quick test_mailbox;
        ] );
    ]
