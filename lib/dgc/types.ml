type proc = int

type rref = { owner : proc; index : int }

type msg_id = { origin : proc; seq : int }

type message =
  | Copy of rref * msg_id
  | Copy_ack of rref * msg_id
  | Dirty of rref
  | Dirty_ack of rref
  | Clean of rref
  | Clean_ack of rref

type rstate = Bot | Nil | Ok | Ccit | Ccitnil

let compare_rref a b =
  match Int.compare a.owner b.owner with
  | 0 -> Int.compare a.index b.index
  | c -> c

let compare_msg_id a b =
  match Int.compare a.origin b.origin with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let message_tag = function
  | Copy _ -> 0
  | Copy_ack _ -> 1
  | Dirty _ -> 2
  | Dirty_ack _ -> 3
  | Clean _ -> 4
  | Clean_ack _ -> 5

let compare_message a b =
  match (a, b) with
  | Copy (r1, i1), Copy (r2, i2) | Copy_ack (r1, i1), Copy_ack (r2, i2) -> (
      match compare_rref r1 r2 with 0 -> compare_msg_id i1 i2 | c -> c)
  | Dirty r1, Dirty r2
  | Dirty_ack r1, Dirty_ack r2
  | Clean r1, Clean r2
  | Clean_ack r1, Clean_ack r2 ->
      compare_rref r1 r2
  | _ -> Int.compare (message_tag a) (message_tag b)

let rstate_rank = function Bot -> 0 | Nil -> 1 | Ok -> 2 | Ccit -> 3 | Ccitnil -> 4

let compare_rstate a b = Int.compare (rstate_rank a) (rstate_rank b)

let pp_proc ppf p = Fmt.pf ppf "p%d" p

let pp_rref ppf r = Fmt.pf ppf "r%d@p%d" r.index r.owner

let pp_msg_id ppf i = Fmt.pf ppf "#%d.%d" i.origin i.seq

let pp_message ppf = function
  | Copy (r, i) -> Fmt.pf ppf "copy(%a,%a)" pp_rref r pp_msg_id i
  | Copy_ack (r, i) -> Fmt.pf ppf "copy_ack(%a,%a)" pp_rref r pp_msg_id i
  | Dirty r -> Fmt.pf ppf "dirty(%a)" pp_rref r
  | Dirty_ack r -> Fmt.pf ppf "dirty_ack(%a)" pp_rref r
  | Clean r -> Fmt.pf ppf "clean(%a)" pp_rref r
  | Clean_ack r -> Fmt.pf ppf "clean_ack(%a)" pp_rref r

let pp_rstate ppf s =
  Fmt.string ppf
    (match s with
    | Bot -> "⊥"
    | Nil -> "nil"
    | Ok -> "OK"
    | Ccit -> "ccit"
    | Ccitnil -> "ccitnil")
