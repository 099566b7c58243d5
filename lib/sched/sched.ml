open Effect
open Effect.Deep
module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace

type choice_kind = Fiber | Timer

type chooser = kind:choice_kind -> string array -> int

type policy = Fifo | Random of int64 | Controlled of chooser

(* The single effect: park the calling fiber and hand a wakeup thunk to
   [register].  Everything blocking (sleep, ivars, mailboxes) is built on
   it, so the handler stays trivial. *)
type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

module Timerq = struct
  (* Pairing-heap-free simple implementation: a sorted association list
     would be O(n); use a binary heap in an array for the timer volume the
     lease demons generate. Keys are (deadline, seq) for stable order. *)
  (* [live] is cleared by cancellation; dead entries are skipped by
     [peek]/[pop] so a cancelled timer neither fires nor keeps [run]
     advancing the clock towards its deadline.  [queued] is true while
     the entry sits in the heap, so [dead] counts exactly the cancelled
     entries still occupying slots; once they are the majority the heap
     is rebuilt without them.  Pop order is the total order on
     (deadline, seq), so the rebuild cannot reorder anything. *)
  type entry = {
    deadline : float;
    seq : int;
    name : string;
    wake : unit -> unit;
    mutable live : bool;
    mutable queued : bool;
  }

  type t = { mutable heap : entry array; mutable size : int; mutable dead : int }

  (* Fills the slots past [size], so they pin no wake closure. *)
  let vacant =
    { deadline = 0.; seq = 0; name = ""; wake = ignore; live = false; queued = false }

  let create () = { heap = Array.make 16 vacant; size = 0; dead = 0 }

  let lt a b = a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

  let sift_up t i =
    let i = ref i in
    while !i > 0 && lt t.heap.(!i) t.heap.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = t.heap.(p) in
      t.heap.(p) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := p
    done

  let sift_down t i =
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && lt t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && lt t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
    done

  let push t e =
    e.queued <- true;
    if t.size = Array.length t.heap then begin
      let bigger = Array.make (2 * t.size) vacant in
      Array.blit t.heap 0 bigger 0 t.size;
      t.heap <- bigger
    end;
    t.heap.(t.size) <- e;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  (* Keep the live entries, then heapify bottom-up. *)
  let rebuild t =
    let n = ref 0 in
    for i = 0 to t.size - 1 do
      let e = t.heap.(i) in
      if e.live then begin
        t.heap.(!n) <- e;
        incr n
      end
      else e.queued <- false
    done;
    Array.fill t.heap !n (t.size - !n) vacant;
    t.size <- !n;
    t.dead <- 0;
    for i = (t.size / 2) - 1 downto 0 do
      sift_down t i
    done

  let cancel t e =
    if e.live then begin
      e.live <- false;
      if e.queued then begin
        t.dead <- t.dead + 1;
        if 2 * t.dead > t.size then rebuild t
      end
    end

  let rec peek t =
    if t.size = 0 then None
    else if t.heap.(0).live then Some t.heap.(0)
    else begin
      drop_root t;
      peek t
    end

  and drop_root t =
    let root = t.heap.(0) in
    root.queued <- false;
    if not root.live then t.dead <- t.dead - 1;
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- vacant;
    sift_down t 0

  let pop t =
    match peek t with
    | None -> None
    | Some e ->
        drop_root t;
        Some e
end

(* [phase] counts the fiber's resumptions: it distinguishes a fiber
   about to run for the first time from the same fiber resumed after a
   block in {!pending_fingerprint} (the protocol state can be identical
   while the continuations differ), without polluting the label shown at
   choice points. *)
(* Fiber-local storage: one binding list per fiber, created at [spawn],
   carried across every resumption of that fiber, and dropped with it.
   The runtime uses it to propagate per-call context (the deadline
   budget of the call a fiber is serving) through the blocking extent of
   a method body without threading it through every signature.  Values
   are embedded in [exn] — the standard universal type without [Obj]. *)
type fls_binding = { f_uid : int; f_val : exn }

type fls = fls_binding list ref

type task = { label : string; phase : int; fls : fls; thunk : unit -> unit }

type t = {
  mutable ready : task list;  (* reversed enqueue order *)
  mutable ready_front : task list;
  timers : Timerq.t;
  mutable clock : float;
  mutable timer_seq : int;
  mutable alive : int;
  mutable failures : (string * exn) list;
  policy : policy;
  mutable choices : int;
      (* scheduling choice points consumed so far; indexes the [Random]
         stream so each draw is a pure function of (seed, index) *)
  mutable current : string;
      (* label of the fiber being executed; names [sleep] timers so
         pending-work fingerprints and timer choice points identify the
         sleeper instead of an anonymous "sleep" *)
  root_fls : fls;
      (* the store seen outside any fiber (timer callbacks, main): always
         empty in practice, but keeps [cur_fls] total *)
  mutable cur_fls : fls;
}

let create ?(policy = Fifo) () =
  let root_fls = ref [] in
  {
    ready = [];
    ready_front = [];
    timers = Timerq.create ();
    clock = 0.0;
    timer_seq = 0;
    alive = 0;
    failures = [];
    policy;
    choices = 0;
    current = "main";
    root_fls;
    cur_fls = root_fls;
  }

let enqueue t ?(phase = 0) ?fls label thunk =
  let fls = match fls with Some f -> f | None -> ref [] in
  t.ready <- { label; phase; fls; thunk } :: t.ready

let ready_count t = List.length t.ready + List.length t.ready_front

(* Remove and return element [i] of [ready_front @ List.rev ready],
   leaving the rest in order. *)
let take_nth t i =
  let all = t.ready_front @ List.rev t.ready in
  let picked = List.nth all i in
  t.ready_front <- List.filteri (fun j _ -> j <> i) all;
  t.ready <- [];
  picked

let dequeue t =
  (match t.ready_front with
  | [] ->
      t.ready_front <- List.rev t.ready;
      t.ready <- []
  | _ -> ());
  match t.ready_front with
  | [] -> None
  | x :: rest -> (
      match t.policy with
      | Fifo ->
          t.ready_front <- rest;
          Some x
      | Random seed ->
          (* Pick a uniform index across both segments.  The draw is
             [Rng.int_nth seed i]: a pure function of the seed and the
             choice-point index, never of how the queue happens to be
             split between [ready_front] and [ready], so a recorded
             schedule replays identically.  A lone ready fiber is not a
             choice point and consumes no draw. *)
          let n = ready_count t in
          if n = 1 then begin
            t.ready_front <- rest;
            Some x
          end
          else begin
            let i = Netobj_util.Rng.int_nth seed t.choices n in
            t.choices <- t.choices + 1;
            Some (take_nth t i)
          end
      | Controlled choose ->
          let n = ready_count t in
          if n = 1 then begin
            t.ready_front <- rest;
            Some x
          end
          else begin
            let labels =
              Array.of_list
                (List.map (fun task -> task.label)
                   (t.ready_front @ List.rev t.ready))
            in
            let i = choose ~kind:Fiber labels in
            if i < 0 || i >= n then
              invalid_arg "Sched: controlled chooser returned bad index";
            t.choices <- t.choices + 1;
            Some (take_nth t i)
          end)

let now t = t.clock

let add_timer t ?(name = "timer") ~deadline wake =
  t.timer_seq <- t.timer_seq + 1;
  Timerq.push t.timers
    { deadline; seq = t.timer_seq; name; wake; live = true; queued = false }

let add_timer_cancel t ?(name = "timer") ~deadline wake =
  t.timer_seq <- t.timer_seq + 1;
  let e =
    { Timerq.deadline; seq = t.timer_seq; name; wake; live = true; queued = false }
  in
  Timerq.push t.timers e;
  fun () -> Timerq.cancel t.timers e

(* Fiber life-cycle events (cat "sched", space -1: the scheduler is
   global).  Guarded so the disabled hot path pays one branch. *)
let obs_fiber event name =
  if Obs.on () then
    Trace.instant (Obs.trace ()) ~cat:"sched" ~space:(-1)
      ~args:[ ("fiber", Trace.S name) ]
      event

let exec t ~fls name f =
  let resumes = ref 0 in
  match_with f ()
    {
      retc =
        (fun () ->
          t.alive <- t.alive - 1;
          obs_fiber "finish" name);
      exnc =
        (fun e ->
          t.alive <- t.alive - 1;
          obs_fiber "fail" name;
          t.failures <- (name, e) :: t.failures);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  obs_fiber "block" name;
                  register (fun () ->
                      obs_fiber "resume" name;
                      incr resumes;
                      enqueue t ~phase:!resumes ~fls name (fun () ->
                          continue k ())))
          | _ -> None);
    }

let spawn t ?(name = "fiber") f =
  t.alive <- t.alive + 1;
  obs_fiber "spawn" name;
  let fls = ref [] in
  enqueue t ~fls name (fun () -> exec t ~fls name f)

let suspend register = perform (Suspend register)

let yield _t = suspend (fun wake -> wake ())

let sleep t dt =
  if dt <= 0.0 then yield t
  else
    suspend (fun wake ->
        add_timer t
          ~name:("sleep:" ^ t.current)
          ~deadline:(t.clock +. dt) wake)

let timer t ?name dt f = add_timer t ?name ~deadline:(t.clock +. dt) f

let timer_cancel t ?name dt f = add_timer_cancel t ?name ~deadline:(t.clock +. dt) f

let run ?(max_steps = max_int) ?(until = infinity) t =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    match dequeue t with
    | Some task ->
        incr steps;
        t.current <- task.label;
        t.cur_fls <- task.fls;
        task.thunk ()
    | None -> (
        match Timerq.peek t.timers with
        | Some e when e.deadline <= until ->
            (* Timer callbacks run outside any fiber; give them the root
               store so they never read a stale fiber's locals. *)
            t.cur_fls <- t.root_fls;
            t.clock <- Float.max t.clock e.deadline;
            if Obs.on () then
              Trace.instant (Obs.trace ()) ~cat:"sched" ~space:(-1)
                ~args:[ ("t", Trace.F t.clock) ]
                "clock";
            (* Release every timer due at this instant before running.
               Under [Controlled] the release order of same-instant
               timers is a choice point (timer callbacks run inline and
               may mutate state); otherwise they fire in (deadline, seq)
               order as before. *)
            let rec drain () =
              (* Pop all live entries due now, in seq order. *)
              let rec collect acc =
                match Timerq.peek t.timers with
                | Some e' when e'.deadline <= t.clock -> (
                    match Timerq.pop t.timers with
                    | Some e'' -> collect (e'' :: acc)
                    | None -> collect acc)
                | _ -> List.rev acc
              in
              match collect [] with
              | [] -> ()
              | [ e' ] ->
                  e'.Timerq.wake ();
                  drain ()
              | due -> (
                  match t.policy with
                  | Fifo | Random _ ->
                      (* Re-check [live]: an earlier same-instant callback
                         may have cancelled a later sibling. *)
                      List.iter
                        (fun e' -> if e'.Timerq.live then e'.Timerq.wake ())
                        due;
                      drain ()
                  | Controlled choose ->
                      (* Wake one at a time; a callback may cancel a
                         not-yet-woken entry, so re-filter each round. *)
                      let rec go pending =
                        match
                          List.filter (fun e' -> e'.Timerq.live) pending
                        with
                        | [] -> ()
                        | [ e' ] -> e'.Timerq.wake ()
                        | pending ->
                            let labels =
                              Array.of_list
                                (List.map
                                   (fun e' ->
                                     Printf.sprintf "%s#%d" e'.Timerq.name
                                       e'.Timerq.seq)
                                   pending)
                            in
                            let i = choose ~kind:Timer labels in
                            if i < 0 || i >= List.length pending then
                              invalid_arg
                                "Sched: controlled chooser returned bad index";
                            t.choices <- t.choices + 1;
                            (List.nth pending i).Timerq.wake ();
                            go (List.filteri (fun j _ -> j <> i) pending)
                      in
                      go due;
                      drain ())
            in
            drain ()
        | _ -> continue := false)
  done;
  !steps

let alive t = t.alive

let pending_fingerprint t =
  let buf = Buffer.create 256 in
  List.iter
    (fun task ->
      Buffer.add_string buf task.label;
      Buffer.add_string buf (Printf.sprintf "@%d;" task.phase))
    (t.ready_front @ List.rev t.ready);
  Buffer.add_char buf '|';
  (* Timer identity deliberately omits [seq] (monotone per run) and the
     absolute clock: two executions pending the same work relative to now
     fingerprint equal.  Heap array order is layout-dependent, so sort. *)
  let entries = ref [] in
  for i = 0 to t.timers.Timerq.size - 1 do
    let e = t.timers.Timerq.heap.(i) in
    if e.Timerq.live then
      entries := (e.Timerq.deadline -. t.clock, e.Timerq.name) :: !entries
  done;
  List.iter
    (fun (dt, name) -> Buffer.add_string buf (Printf.sprintf "%.9g:%s;" dt name))
    (List.sort compare !entries);
  Hashtbl.hash (Buffer.contents buf)

let stalled t =
  (* Alive fibers minus those with a queued resumption; valid only after
     [run] returned with empty queues. *)
  t.alive - ready_count t

let failures t = t.failures

module Fls = struct
  type 'a key = { uid : int; inj : 'a -> exn; prj : exn -> 'a option }

  (* Keys are minted at module-initialisation time (one per context kind),
     before any domain forks, so a plain counter suffices. *)
  let next_uid = ref 0

  let key (type a) () =
    let module M = struct
      exception V of a
    end in
    incr next_uid;
    {
      uid = !next_uid;
      inj = (fun x -> M.V x);
      prj = (function M.V x -> Some x | _ -> None);
    }

  let get t k =
    let rec find = function
      | [] -> None
      | b :: rest -> if b.f_uid = k.uid then k.prj b.f_val else find rest
    in
    find !(t.cur_fls)

  let set t k v =
    let rest = List.filter (fun b -> b.f_uid <> k.uid) !(t.cur_fls) in
    match v with
    | None -> t.cur_fls := rest
    | Some x -> t.cur_fls := { f_uid = k.uid; f_val = k.inj x } :: rest
end

module Ivar = struct
  type 'a var = { mutable value : 'a option; mutable waiters : (unit -> unit) list }

  let create () = { value = None; waiters = [] }

  let fill v x =
    match v.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
        v.value <- Some x;
        let ws = List.rev v.waiters in
        v.waiters <- [];
        List.iter (fun w -> w ()) ws

  let is_filled v = Option.is_some v.value

  let peek v = v.value

  let rec read v =
    match v.value with
    | Some x -> x
    | None ->
        suspend (fun wake -> v.waiters <- wake :: v.waiters);
        read v

  let on_fill v f =
    match v.value with Some _ -> f () | None -> v.waiters <- f :: v.waiters
end

let read_timeout t iv ~timeout =
  if Ivar.is_filled iv then Some (Ivar.read iv)
  else begin
    (* Race the fill against a timer; whichever fires first resumes the
       fiber exactly once.  A fill cancels the timer: left armed, it
       would sit in the heap until virtual time reached its deadline,
       which under a driving loop that never idles is never. *)
    suspend (fun wake ->
        let woken = ref false in
        let once () =
          if not !woken then begin
            woken := true;
            wake ()
          end
        in
        let cancel = timer_cancel t timeout once in
        Ivar.on_fill iv (fun () ->
            cancel ();
            once ()));
    Ivar.peek iv
  end

module Mailbox = struct
  type 'a mb = { q : 'a Queue.t; mutable waiters : (unit -> unit) list }

  let create () = { q = Queue.create (); waiters = [] }

  let send mb x =
    Queue.push x mb.q;
    match mb.waiters with
    | [] -> ()
    | ws ->
        (* Wake all waiters; they re-check the queue on resumption, so a
           spurious wakeup is harmless. *)
        mb.waiters <- [];
        List.iter (fun w -> w ()) (List.rev ws)

  let try_recv mb = Queue.take_opt mb.q

  let rec recv mb =
    match Queue.take_opt mb.q with
    | Some x -> x
    | None ->
        suspend (fun wake -> mb.waiters <- wake :: mb.waiters);
        recv mb

  let length mb = Queue.length mb.q
end
