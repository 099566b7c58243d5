type 'a t = {
  write : Wire.Writer.t -> 'a -> unit;
  read : Wire.Reader.t -> 'a;
  descr : string;
}

let write c = c.write

let read c = c.read

let describe c = c.descr

(* FNV-1a on the structure descriptor: two codecs with the same shape get
   the same fingerprint, so interoperating stubs agree without codegen. *)
let fingerprint c =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    c.descr;
  !h

let magic = 0x4e4f504bl (* "NOPK" *)

let version = 1

let encode c v =
  Wire.Writer.with_pooled (fun w ->
      c.write w v;
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

let decode c s =
  let r = Wire.Reader.of_string s in
  let v = c.read r in
  if not (Wire.Reader.at_end r) then Wire.Reader.fail r "trailing bytes";
  v

let decode_slice c s ~off ~len =
  let r = Wire.Reader.of_string ~off ~len s in
  let v = c.read r in
  if not (Wire.Reader.at_end r) then Wire.Reader.fail r "trailing bytes";
  v

let pickle c v =
  Wire.Writer.with_pooled (fun w ->
      Wire.Writer.int32 w magic;
      Wire.Writer.uvarint w version;
      Wire.Writer.int64 w (fingerprint c);
      c.write w v;
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

let unpickle c s =
  let r = Wire.Reader.of_string s in
  if Wire.Reader.int32 r <> magic then Wire.Reader.fail r "bad pickle magic";
  let v = Wire.Reader.uvarint r in
  if v <> version then
    Wire.Reader.fail r (Printf.sprintf "unsupported pickle version %d" v);
  let fp = Wire.Reader.int64 r in
  if fp <> fingerprint c then
    Wire.Reader.fail r
      (Printf.sprintf "pickle fingerprint mismatch (expected %s)" c.descr);
  let x = c.read r in
  if not (Wire.Reader.at_end r) then Wire.Reader.fail r "trailing bytes";
  x

let unit =
  { write = (fun _ () -> ()); read = (fun _ -> ()); descr = "unit" }

let bool =
  {
    write = (fun w b -> Wire.Writer.byte w (if b then 1 else 0));
    read =
      (fun r ->
        match Wire.Reader.byte r with
        | 0 -> false
        | 1 -> true
        | n -> Wire.Reader.fail r (Printf.sprintf "bad bool byte %d" n));
    descr = "bool";
  }

let char =
  {
    write = (fun w c -> Wire.Writer.byte w (Char.code c));
    read = (fun r -> Char.chr (Wire.Reader.byte r));
    descr = "char";
  }

let int =
  { write = Wire.Writer.varint; read = Wire.Reader.varint; descr = "int" }

let int32 =
  { write = Wire.Writer.int32; read = Wire.Reader.int32; descr = "int32" }

let int64 =
  { write = Wire.Writer.int64; read = Wire.Reader.int64; descr = "int64" }

let float =
  { write = Wire.Writer.float; read = Wire.Reader.float; descr = "float" }

let string =
  { write = Wire.Writer.string; read = Wire.Reader.string; descr = "string" }

(* Wire-identical to [string] (same descriptor too); reads a view of
   the input instead of a copy. *)
let slice =
  {
    write =
      (fun w (sl : Wire.slice) ->
        Wire.Writer.uvarint w sl.len;
        Wire.Writer.slice w sl);
    read = (fun r -> Wire.Reader.slice r (Wire.Reader.uvarint r));
    descr = "string";
  }

let bytes =
  {
    write = (fun w b -> Wire.Writer.string w (Bytes.to_string b));
    read = (fun r -> Bytes.of_string (Wire.Reader.string r));
    descr = "bytes";
  }

let option c =
  {
    write =
      (fun w -> function
        | None -> Wire.Writer.byte w 0
        | Some v ->
            Wire.Writer.byte w 1;
            c.write w v);
    read =
      (fun r ->
        match Wire.Reader.byte r with
        | 0 -> None
        | 1 -> Some (c.read r)
        | n -> Wire.Reader.fail r (Printf.sprintf "bad option byte %d" n));
    descr = Printf.sprintf "(option %s)" c.descr;
  }

(* A container's element count.  Every supported element occupies at
   least one byte, so a count beyond the bytes left is malformed: it
   fails here, before any element is read or any slot allocated. *)
let count r =
  let n = Wire.Reader.uvarint r in
  if n > Wire.Reader.remaining r then
    Wire.Reader.fail r
      (Printf.sprintf "count %d exceeds the %d bytes left" n
         (Wire.Reader.remaining r));
  n

let list c =
  {
    write =
      (fun w xs ->
        Wire.Writer.uvarint w (List.length xs);
        List.iter (c.write w) xs);
    read =
      (fun r ->
        let n = count r in
        List.init n (fun _ -> c.read r));
    descr = Printf.sprintf "(list %s)" c.descr;
  }

let array c =
  {
    write =
      (fun w xs ->
        Wire.Writer.uvarint w (Array.length xs);
        Array.iter (c.write w) xs);
    read =
      (fun r ->
        let n = count r in
        Array.init n (fun _ -> c.read r));
    descr = Printf.sprintf "(array %s)" c.descr;
  }

let pair a b =
  {
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
    descr = Printf.sprintf "(pair %s %s)" a.descr b.descr;
  }

let triple a b c =
  {
    write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        (x, y, z));
    descr = Printf.sprintf "(triple %s %s %s)" a.descr b.descr c.descr;
  }

let quad a b c d =
  {
    write =
      (fun w (x, y, z, u) ->
        a.write w x;
        b.write w y;
        c.write w z;
        d.write w u);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        let u = d.read r in
        (x, y, z, u));
    descr =
      Printf.sprintf "(quad %s %s %s %s)" a.descr b.descr c.descr d.descr;
  }

let result ok err =
  {
    write =
      (fun w -> function
        | Ok v ->
            Wire.Writer.byte w 0;
            ok.write w v
        | Error e ->
            Wire.Writer.byte w 1;
            err.write w e);
    read =
      (fun r ->
        match Wire.Reader.byte r with
        | 0 -> Ok (ok.read r)
        | 1 -> Error (err.read r)
        | n -> Wire.Reader.fail r (Printf.sprintf "bad result byte %d" n));
    descr = Printf.sprintf "(result %s %s)" ok.descr err.descr;
  }

let map ?name into from c =
  {
    write = (fun w v -> c.write w (from v));
    read = (fun r -> into (c.read r));
    descr = (match name with None -> c.descr | Some n -> n);
  }

type 'a case =
  | Case : {
      tag : int;
      name : string;
      codec : 'b t;
      inj : 'b -> 'a;
      prj : 'a -> 'b option;
    }
      -> 'a case

let case tag name codec inj prj = Case { tag; name; codec; inj; prj }

let sum name cases =
  let tags = List.map (fun (Case c) -> c.tag) cases in
  let sorted = List.sort_uniq Int.compare tags in
  if List.length sorted <> List.length tags then
    invalid_arg (Printf.sprintf "Pickle.sum %s: duplicate tags" name);
  let descr =
    Printf.sprintf "(sum %s %s)" name
      (String.concat " "
         (List.map
            (fun (Case c) -> Printf.sprintf "%d:%s" c.tag c.codec.descr)
            cases))
  in
  let write w v =
    let rec go = function
      | [] -> invalid_arg (Printf.sprintf "Pickle.sum %s: no case matches" name)
      | Case c :: rest -> (
          match c.prj v with
          | Some payload ->
              Wire.Writer.uvarint w c.tag;
              c.codec.write w payload
          | None -> go rest)
    in
    go cases
  in
  let read r =
    let tag = Wire.Reader.uvarint r in
    let rec go = function
      | [] ->
          Wire.Reader.fail r
            (Printf.sprintf "sum %s: unknown tag %d" name tag)
      | Case c :: rest ->
          if c.tag = tag then c.inj (c.codec.read r) else go rest
    in
    go cases
  in
  { write; read; descr }

let fix f =
  let rec self =
    {
      write = (fun w v -> (Lazy.force body).write w v);
      read = (fun r -> (Lazy.force body).read r);
      descr = "(fix)";
    }
  and body = lazy (f self) in
  self

let custom ~name ~write ~read = { write; read; descr = name }
