(* The allocation budget of a large argument: a 64 KiB string echoed
   over loopback TCP, owner and client in one process, may allocate at
   most [budget] payloads' worth of major-heap words per echo.  A
   payload that large is allocated straight in the major heap, so every
   copy of it the runtime makes (pickling, the packet, the frame, the
   read, the body, the decoded argument) shows in [major_words]. *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Scenario = Netobj_chaos.Scenario
module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport
module Tcp = Netobj_transport.Tcp
module Faulty = Netobj_transport.Faulty
module P = Netobj_pickle.Pickle

let payload_bytes = 64 * 1024

let payload_words = payload_bytes / (Sys.word_size / 8)

(* Each direction copies the payload into its pickle, its packet and
   its body, and decodes it once: eight payloads per echo, plus the
   small-message traffic around them. *)
let budget = 10

let echoes = 200

let m_echo = Stub.declare "echo" P.string P.string

let test_echo_budget () =
  let endpoints =
    [
      (0, { Tcp.host = "127.0.0.1"; port = 0 });
      (1, { Tcp.host = "127.0.0.1"; port = 0 });
    ]
  in
  let cfg =
    R.config ~seed:7L ~nspaces:2 ~call_timeout:5.0 ~dirty_timeout:5.0
      ~transport:(fun sched _net ->
        let tcp = Tcp.create ~sched ~serving:[ 0; 1 ] ~endpoints () in
        Faulty.wrap ~sched ~seed:7L (Tcp.transport tcp))
      ()
  in
  match R.create cfg with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | rt ->
      Fun.protect ~finally:(fun () -> Transport.close (R.transport rt))
      @@ fun () ->
      let owner = R.space rt 0 and client = R.space rt 1 in
      let obj =
        R.allocate owner ~meths:[ Stub.implement m_echo (fun _ s -> s) ]
      in
      R.publish owner "echo" obj;
      let s = String.init payload_bytes (fun i -> Char.chr (i * 7 land 0xff)) in
      let words = ref None in
      R.spawn rt (fun () ->
          let h = R.lookup client ~at:0 "echo" in
          let echo () =
            if not (String.equal (Stub.call client h m_echo s) s) then
              failwith "echo differs from its argument"
          in
          (* Warm up: buffers grow to the frame size once. *)
          for _ = 1 to 10 do
            echo ()
          done;
          let w0 = (Gc.quick_stat ()).Gc.major_words in
          for _ = 1 to echoes do
            echo ()
          done;
          words := Some ((Gc.quick_stat ()).Gc.major_words -. w0));
      Scenario.drive ~pump:0.002 rt
        ~deadline:(Unix.gettimeofday () +. 30.0)
        ~stop:(fun () -> !words <> None);
      match !words with
      | None -> Alcotest.fail "echoes did not finish"
      | Some w ->
          let per_echo = w /. float_of_int echoes /. float_of_int payload_words in
          Printf.printf "major words per echo: %.2f payloads\n%!" per_echo;
          if per_echo > float_of_int budget then
            Alcotest.failf "%.2f payloads of major words per echo, budget %d"
              per_echo budget

let () =
  Alcotest.run "alloc"
    [
      ( "budget",
        [ Alcotest.test_case "64 KiB echo over tcp" `Quick test_echo_budget ] );
    ]
