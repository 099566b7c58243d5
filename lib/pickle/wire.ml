exception Error of { pos : int; msg : string }

let error ~pos msg = raise (Error { pos; msg })

let uvarint_size n =
  if n < 0 then invalid_arg "Wire.uvarint_size: negative";
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let rec put_uvarint b off n =
  if n < 0x80 then begin
    Bytes.set_uint8 b off n;
    off + 1
  end
  else begin
    Bytes.set_uint8 b off (0x80 lor (n land 0x7f));
    put_uvarint b (off + 1) (n lsr 7)
  end

(* A string is its length as a uvarint, then its bytes. *)
let string_size s = uvarint_size (String.length s) + String.length s

let put_string b off s =
  let n = String.length s in
  let off = put_uvarint b off n in
  Bytes.blit_string s 0 b off n;
  off + n

let () =
  Printexc.register_printer (function
    | Error { pos; msg } ->
        Some (Printf.sprintf "Netobj_pickle.Wire.Error(%d): %s" pos msg)
    | _ -> None)

module Writer = struct
  type t = Buffer.t

  let create ?(initial_size = 256) () = Buffer.create initial_size

  let length = Buffer.length

  let to_bytes = Buffer.to_bytes

  let blit = Buffer.blit

  (* Per-domain pool of writers.  Checkout reuses a previously returned
     buffer (its capacity already grown by earlier encodes), so steady-state
     encoding stops allocating fresh backing stores.  The pool is bounded and
     drops oversized buffers on return to keep the retained footprint
     predictable.  Domain-local state (not a shared pool behind a lock):
     each domain encodes on its own buffers, so a multi-domain engine never
     contends — or races — here.  Stats are likewise per-domain; callers
     report the stats of the domain they run on (the sim engine's single
     domain sees everything). *)
  type pool_state = {
    stack : Buffer.t Stack.t;
    mutable hits : int;
    mutable misses : int;
  }

  let pool_key : pool_state Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { stack = Stack.create (); hits = 0; misses = 0 })

  let pool_capacity = 64

  (* Buffers whose backing store grew past this are not retained: one huge
     encode should not pin megabytes for the rest of the run. *)
  let max_retained_size = 1 lsl 16

  let checkout () =
    let p = Domain.DLS.get pool_key in
    match Stack.pop_opt p.stack with
    | Some b ->
        p.hits <- p.hits + 1;
        b
    | None ->
        p.misses <- p.misses + 1;
        Buffer.create 256

  let return b =
    let p = Domain.DLS.get pool_key in
    if Stack.length p.stack < pool_capacity
       && Buffer.length b <= max_retained_size
    then begin
      Buffer.clear b;
      Stack.push b p.stack
    end

  let with_pooled f =
    let b = checkout () in
    Fun.protect ~finally:(fun () -> return b) (fun () -> f b)

  let pool_stats () =
    let p = Domain.DLS.get pool_key in
    (p.hits, p.misses)

  let reset_pool_stats () =
    let p = Domain.DLS.get pool_key in
    p.hits <- 0;
    p.misses <- 0

  let byte w n = Buffer.add_char w (Char.chr (n land 0xff))

  (* Scratch is per-domain: a module-level [Bytes.t] would be a
     write-write race when two domains encode concurrently.  Ten bytes
     hold any native int as a uvarint, and every fixed-width value. *)
  let scratch_key : Bytes.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Bytes.create 10)

  let uvarint w n =
    if n < 0 then invalid_arg "Wire.Writer.uvarint: negative";
    if n < 0x80 then byte w n
    else begin
      let scratch = Domain.DLS.get scratch_key in
      Buffer.add_subbytes w scratch 0 (put_uvarint scratch 0 n)
    end

  (* Unsigned LEB128 over the full 64-bit range. *)
  let uvarint64 w n =
    let rec go n =
      if Int64.unsigned_compare n 0x80L < 0 then byte w (Int64.to_int n)
      else begin
        byte w (0x80 lor (Int64.to_int n land 0x7f));
        go (Int64.shift_right_logical n 7)
      end
    in
    go n

  (* Zigzag: maps 0,-1,1,-2,... to 0,1,2,3,... so small magnitudes stay
     short on the wire regardless of sign.  Encoded through int64 so the
     full native-int range survives the shift. *)
  let varint w n =
    let n64 = Int64.of_int n in
    uvarint64 w Int64.(logxor (shift_left n64 1) (shift_right n64 63))

  let int32 w n =
    let scratch = Domain.DLS.get scratch_key in
    Bytes.set_int32_le scratch 0 n;
    Buffer.add_subbytes w scratch 0 4

  let int64 w n =
    let scratch = Domain.DLS.get scratch_key in
    Bytes.set_int64_le scratch 0 n;
    Buffer.add_subbytes w scratch 0 8

  let u32_be w n =
    if n < 0 || n > 0xffffffff then
      invalid_arg "Wire.Writer.u32_be: out of range";
    let scratch = Domain.DLS.get scratch_key in
    Bytes.set_int32_be scratch 0 (Int32.of_int n);
    Buffer.add_subbytes w scratch 0 4

  let float w f = int64 w (Int64.bits_of_float f)

  let raw w s = Buffer.add_string w s

  let string w s =
    uvarint w (String.length s);
    raw w s
end

module Reader = struct
  (* A reader is a window [base, base+limit) into [data]; [pos] and error
     positions are relative to [base] so a slice reader reports the same
     positions as a reader over a copy of the slice. *)
  type t = { data : string; base : int; limit : int; mutable pos : int }

  let of_string ?(off = 0) ?len data =
    let n = String.length data in
    let len = match len with Some l -> l | None -> n - off in
    if off < 0 || len < 0 || off > n - len then
      invalid_arg "Wire.Reader.of_string: slice out of bounds";
    { data; base = off; limit = len; pos = 0 }

  (* The bytes are never mutated through the reader, so viewing them as an
     immutable string is safe as long as the caller does not mutate [data]
     while decoding — the same contract [of_string] already implies. *)
  let of_bytes ?off ?len data =
    of_string ?off ?len (Bytes.unsafe_to_string data)

  let pos r = r.pos

  let remaining r = r.limit - r.pos

  let at_end r = remaining r = 0

  let fail r msg = error ~pos:r.pos msg

  let byte r =
    if r.pos >= r.limit then fail r "unexpected end of input";
    let c = Char.code (String.unsafe_get r.data (r.base + r.pos)) in
    r.pos <- r.pos + 1;
    c

  let uvarint r =
    let rec go shift acc =
      if shift > 62 then fail r "uvarint overflow";
      let b = byte r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let uvarint64 r =
    let rec go shift acc =
      if shift > 63 then fail r "uvarint64 overflow";
      let b = byte r in
      let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0L

  let varint r =
    let n = uvarint64 r in
    Int64.to_int
      Int64.(logxor (shift_right_logical n 1) (neg (logand n 1L)))

  let raw r n =
    if n < 0 then fail r "negative length";
    if remaining r < n then fail r "unexpected end of input";
    let s = String.sub r.data (r.base + r.pos) n in
    r.pos <- r.pos + n;
    s

  let skip r n =
    if n < 0 then fail r "negative length";
    if remaining r < n then fail r "unexpected end of input";
    r.pos <- r.pos + n

  let int32 r =
    if remaining r < 4 then fail r "unexpected end of input";
    let v = String.get_int32_le r.data (r.base + r.pos) in
    r.pos <- r.pos + 4;
    v

  let int64 r =
    if remaining r < 8 then fail r "unexpected end of input";
    let v = String.get_int64_le r.data (r.base + r.pos) in
    r.pos <- r.pos + 8;
    v

  let u32_be r =
    if remaining r < 4 then fail r "unexpected end of input";
    let v = String.get_int32_be r.data (r.base + r.pos) in
    r.pos <- r.pos + 4;
    Int32.to_int v land 0xffffffff

  let float r = Int64.float_of_bits (int64 r)

  let string r =
    let n = uvarint r in
    raw r n
end
