exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Frame.Corrupt(%s)" msg)
    | _ -> None)

let max_frame = 64 * 1024 * 1024

let overhead = 5

(* The length field for a [body_len]-byte body. *)
let checked_len body_len =
  let len = body_len + 1 in
  if len > max_frame then
    raise (Corrupt (Printf.sprintf "frame too large: %d bytes" len));
  len

let size ~body_len = 4 + checked_len body_len

let write_header b off ~body_len =
  let len = checked_len body_len in
  Bytes.set_int32_be b off (Int32.of_int len);
  Bytes.set_uint8 b (off + 4) 0

let encode body =
  let n = String.length body in
  let b = Bytes.create (size ~body_len:n) in
  write_header b 0 ~body_len:n;
  Bytes.blit_string body 0 b overhead n;
  Bytes.unsafe_to_string b

(* The decoder accumulates raw bytes in a growable buffer and consumes
   complete frames off the front.  [pos] is the read cursor; the
   consumed prefix is compacted away lazily (when it exceeds half the
   buffer, or at once when nothing is pending) so a long-lived
   connection doesn't grow without bound while staying O(bytes)
   overall. *)
type decoder = { mutable buf : Bytes.t; mutable len : int; mutable pos : int }

let decoder () = { buf = Bytes.create 4096; len = 0; pos = 0 }

let compact d =
  if d.pos > 0 && d.pos * 2 > Bytes.length d.buf then begin
    Bytes.blit d.buf d.pos d.buf 0 (d.len - d.pos);
    d.len <- d.len - d.pos;
    d.pos <- 0
  end

(* Make room for [n] more bytes after [len]. *)
let reserve d n =
  if d.pos = d.len then begin
    d.pos <- 0;
    d.len <- 0
  end
  else compact d;
  let need = d.len + n in
  if need > Bytes.length d.buf then begin
    let cap = ref (Bytes.length d.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.buf 0 nb 0 d.len;
    d.buf <- nb
  end

let feed d ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Frame.feed: slice out of bounds";
  reserve d len;
  Bytes.blit_string s off d.buf d.len len;
  d.len <- d.len + len

(* The smallest free space a [fill] offers its reader. *)
let min_fill = 4096

let room d = Bytes.length d.buf - d.len

let fill d read src =
  reserve d min_fill;
  let n = read src d.buf d.len (room d) in
  d.len <- d.len + n;
  n

let pending d = d.len - d.pos

let next d =
  if pending d < 4 then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_be d.buf d.pos) land 0xffffffff in
    if len < 1 || len > max_frame then
      raise (Corrupt (Printf.sprintf "bad frame length %d" len));
    if pending d < 4 + len then None
    else begin
      let flag = Bytes.get_uint8 d.buf (d.pos + 4) in
      if flag <> 0 then
        raise (Corrupt (Printf.sprintf "unknown flag byte 0x%02x" flag));
      let body = Bytes.sub_string d.buf (d.pos + 5) (len - 1) in
      d.pos <- d.pos + 4 + len;
      Some body
    end
  end

let decode_exact s =
  let d = decoder () in
  feed d s;
  match next d with
  | Some f when pending d = 0 -> f
  | Some _ -> raise (Corrupt "trailing bytes after frame")
  | None -> raise (Corrupt "truncated frame")
