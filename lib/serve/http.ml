(* Hand-rolled HTTP/1.1 subset; see http.mli for scope. *)

(* ----- readers ----- *)

(* A reader is the window [pos, lim) of unconsumed bytes in [buf] plus
   the fd it refills from. An in-memory reader has no fd, and its [buf]
   is the caller's string itself, never written: only refills write
   into [buf], and such a reader never refills. Reads from sockets
   propagate [Unix_error] (in particular EAGAIN/EWOULDBLOCK when a
   receive timeout is set on the fd); an expired deadline surfaces as
   [Deadline.Expired]. *)
type reader = {
  src : (Fault_net.t option * Unix.file_descr) option;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  mutable deadline : Deadline.t;
  mutable continue_owed : bool;
      (* an [Expect: 100-continue] request passed admission and its
         client is still waiting for the interim response *)
}

let refill_size = 8192
let continue_sent = Fsdata_obs.Metrics.counter "serve.continue_sent"

let set_deadline r d = r.deadline <- d

let reader_of_fd ?fault fd =
  {
    src = Some (fault, fd);
    buf = Bytes.create refill_size;
    pos = 0;
    lim = 0;
    deadline = Deadline.never;
    continue_owed = false;
  }

let reader_of_string s =
  {
    src = None;
    buf = Bytes.unsafe_of_string s;
    pos = 0;
    lim = String.length s;
    deadline = Deadline.never;
    continue_owed = false;
  }

let available r = r.lim - r.pos

(* One read of at most [len] bytes into [dst] at [off]; 0 at end of
   stream. The deadline is absolute, so a peer trickling one byte per
   receive-timeout window (slowloris) still runs out of time: each read
   both checks expiry and shrinks the socket timeout to the time
   actually left. *)
let rec read_into r dst off len =
  match r.src with
  | None -> 0
  | Some (fault, fd) -> (
      Deadline.check r.deadline;
      (match Deadline.remaining_seconds r.deadline with
      | s when s = infinity -> ()
      | s -> (
          try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max 0.001 s)
          with Unix.Unix_error _ | Invalid_argument _ -> ()));
      match Fault_net.read fault fd dst off len with
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into r dst off len)

(* Append one refill's worth of bytes at [lim]; false at end of stream.
   Room comes from sliding the unconsumed bytes to the front, and the
   buffer doubles only when they fill it, so no byte is copied more
   than a constant number of times. *)
let grow r =
  Option.is_some r.src
  && begin
       let avail = available r in
       if Bytes.length r.buf - r.lim < refill_size then begin
         let buf =
           if Bytes.length r.buf - avail >= refill_size then r.buf
           else Bytes.create (2 * Bytes.length r.buf)
         in
         Bytes.blit r.buf r.pos buf 0 avail;
         r.buf <- buf;
         r.pos <- 0;
         r.lim <- avail
       end;
       match read_into r r.buf r.lim refill_size with
       | 0 -> false
       | n ->
           r.lim <- r.lim + n;
           true
     end

(* The interim response an [Expect: 100-continue] client waits for
   before sending its body: owed once the request passed admission,
   written just before the first refill that needs body bytes, so a
   handler that answers without the body never asks for it. *)
let pay_continue r =
  if r.continue_owed then begin
    r.continue_owed <- false;
    match r.src with
    | None -> ()
    | Some (fault, fd) ->
        Fault_net.write_all fault fd "HTTP/1.1 100 Continue\r\n\r\n";
        Fsdata_obs.Metrics.incr continue_sent
  end

(* ----- request parsing ----- *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  version : [ `Http_1_0 | `Http_1_1 ];
  headers : (string * string) list;
  body : string;
}

type limits = {
  max_request_line : int;
  max_header_count : int;
  max_header_line : int;
  max_body : int;
}

let default_limits =
  {
    max_request_line = 8 * 1024;
    max_header_count = 64;
    max_header_line = 8 * 1024;
    max_body = 64 * 1024 * 1024;
  }

type error = { status : int; reason : string }

exception Bad of error

let bad status reason = raise (Bad { status; reason })

(* Read up to and including "\n" (tolerating bare LF as well as CRLF,
   like most servers); the returned line has the terminator stripped.
   [None] at end of stream with nothing buffered. *)
let read_line ~max_len r =
  let rec find_nl i =
    if i >= r.lim then None
    else if Bytes.get r.buf i = '\n' then Some i
    else find_nl (i + 1)
  in
  let rec go scanned =
    match find_nl (r.pos + scanned) with
    | Some i ->
        if i - r.pos > max_len then bad 431 "header or request line too long";
        let stop = if i > r.pos && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i in
        let line = Bytes.sub_string r.buf r.pos (stop - r.pos) in
        r.pos <- i + 1;
        Some line
    | None ->
        if available r > max_len then bad 431 "header or request line too long";
        let before = available r in
        if grow r then go before
        else if available r = 0 then None
        else bad 400 "truncated request: missing line terminator"
  in
  go 0

(* The next [n] body bytes. Bytes past what is buffered are read
   straight into the result, so a body is copied once whatever its
   size. *)
let read_exact r n =
  let have = available r in
  if have >= n then begin
    let s = Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    s
  end
  else begin
    let out = Bytes.create n in
    Bytes.blit r.buf r.pos out 0 have;
    r.pos <- r.lim;
    pay_continue r;
    let rec fill got =
      if got < n then
        match read_into r out got (Stdlib.min refill_size (n - got)) with
        | 0 -> bad 400 "truncated body: peer closed mid-request"
        | k -> fill (got + k)
    in
    fill have;
    Bytes.unsafe_to_string out
  end

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char buf ' '
    | '%' when !i + 2 < n && hex_value s.[!i + 1] >= 0 && hex_value s.[!i + 2] >= 0 ->
        Buffer.add_char buf
          (Char.chr ((hex_value s.[!i + 1] * 16) + hex_value s.[!i + 2]));
        i := !i + 2
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (percent_decode kv, "")
             | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) ))

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
      ( percent_decode (String.sub target 0 i),
        parse_query (String.sub target (i + 1) (String.length target - i - 1)) )

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
      if meth = "" || target = "" then bad 400 "malformed request line";
      let version =
        match version with
        | "HTTP/1.1" -> `Http_1_1
        | "HTTP/1.0" -> `Http_1_0
        | _ -> bad 505 (Printf.sprintf "unsupported protocol %S" version)
      in
      let path, query = split_target target in
      (meth, path, query, version)
  | _ -> bad 400 "malformed request line"

let parse_header line =
  match String.index_opt line ':' with
  | None | Some 0 -> bad 400 (Printf.sprintf "malformed header line %S" line)
  | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      if String.exists (fun c -> c = ' ' || c = '\t') name then
        bad 400 "whitespace in header name";
      (name, value)

let find_header headers name =
  List.assoc_opt (String.lowercase_ascii name) headers

(* Whether the request carries [Expect: 100-continue]: every member of
   every [Expect] header, compared case-insensitively, must be
   [100-continue], the only expectation RFC 9110 §10.1.1 defines;
   anything else is a 417. *)
let expects_continue headers =
  let members =
    List.concat_map
      (fun (name, value) ->
        if name <> "expect" then []
        else
          String.split_on_char ',' value
          |> List.filter_map (fun m ->
                 match String.lowercase_ascii (String.trim m) with
                 | "" -> None
                 | m -> Some m))
      headers
  in
  match List.find_opt (( <> ) "100-continue") members with
  | Some m -> bad 417 (Printf.sprintf "unsupported expectation %S" m)
  | None -> members <> []

let header req name = find_header req.headers name
let query_param req name = List.assoc_opt name req.query

let keep_alive req =
  let conn =
    Option.map String.lowercase_ascii (header req "connection")
  in
  match req.version with
  | `Http_1_1 -> conn <> Some "close"
  | `Http_1_0 -> conn = Some "keep-alive"

(* A body deliberately left on the wire: [remaining] declared bytes not
   yet pulled off [br]. *)
type body_rest = { br : reader; mutable remaining : int }

let body_remaining rest = rest.remaining

let read_body_chunk rest =
  if rest.remaining = 0 then ""
  else begin
    let r = rest.br in
    if available r = 0 then begin
      pay_continue r;
      if not (grow r) then bad 400 "truncated body: peer closed mid-request"
    end;
    let n = Stdlib.min (available r) rest.remaining in
    let s = Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    rest.remaining <- rest.remaining - n;
    s
  end

let read_body_all rest =
  let buf = Buffer.create (Stdlib.min rest.remaining 65536) in
  let rec go () =
    match read_body_chunk rest with
    | "" -> Buffer.contents buf
    | s ->
        Buffer.add_string buf s;
        go ()
  in
  go ()

let read_request_stream ?(limits = default_limits) ?reserve
    ?(stream_over = max_int) r =
  (* Distinguish "peer closed / went idle between requests" (a normal
     keep-alive ending: Ok None) from a fault mid-request (an error the
     peer should hear about). [started] flips once the request line is
     in hand. *)
  let started = ref false in
  let parse_from line =
    started := true;
    let meth, path, query, version = parse_request_line line in
    let rec read_headers acc n =
      if n > limits.max_header_count then bad 431 "too many headers";
      match read_line ~max_len:limits.max_header_line r with
      | None -> bad 400 "truncated request: missing blank line"
      | Some "" -> List.rev acc
      | Some line -> read_headers (parse_header line :: acc) (n + 1)
    in
    let headers = read_headers [] 0 in
    if find_header headers "transfer-encoding" <> None then
      bad 501 "transfer-encoding is not supported; send Content-Length";
    let expects_continue = version = `Http_1_1 && expects_continue headers in
    (* A client-supplied deadline must govern the body bytes too, so
       tighten the reader before the body is read (the server re-derives
       the same minimum for the handler). Malformed values are ignored
       here and rejected with 400 by the server once the request is in
       hand. *)
    (match find_header headers "x-fsdata-deadline-ms" with
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some ms when ms > 0 ->
            r.deadline <- Deadline.min r.deadline (Deadline.after_ms ms)
        | _ -> ())
    | None -> ());
    let body, rest =
      match find_header headers "content-length" with
      | None -> ("", None)
      | Some v -> (
          match int_of_string_opt (String.trim v) with
          | None ->
              bad 400 (Printf.sprintf "malformed Content-Length %S" v)
          | Some n when n < 0 ->
              bad 400 (Printf.sprintf "malformed Content-Length %S" v)
          | Some n when n > limits.max_body ->
              bad 413
                (Printf.sprintf "body of %d bytes exceeds the %d-byte limit" n
                   limits.max_body)
          | Some n ->
              (* admission control happens on the declared length,
                 before a single body byte is buffered *)
              (match reserve with
              | Some f when n > 0 && not (f n) ->
                  bad 503 "in-flight body budget exhausted"
              | _ -> ());
              (* body bytes already in hand mean the client went ahead
                 without waiting for the interim *)
              r.continue_owed <- expects_continue && n > 0 && available r = 0;
              if n > stream_over then ("", Some { br = r; remaining = n })
              else (read_exact r n, None))
    in
    ({ meth; path; query; version; headers; body }, rest)
  in
  try
    match read_line ~max_len:limits.max_request_line r with
    | None -> Ok None
    | Some "" -> (
        (* tolerate one stray blank line between pipelined requests *)
        match read_line ~max_len:limits.max_request_line r with
        | None -> Ok None
        | Some line -> Ok (Some (parse_from line)))
    | Some line -> Ok (Some (parse_from line))
  with
  | Bad e -> Error e
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* a partial request line left in the buffer is a started request
         too: a slowloris peer stalling mid-line hears 408, only a truly
         idle keep-alive connection is closed silently *)
      if !started || available r > 0 then
        Error { status = 408; reason = "request timed out" }
      else Ok None
  | Deadline.Expired ->
      if !started || available r > 0 then
        Error { status = 408; reason = "request timed out" }
      else Ok None

let read_request ?limits r =
  (* [stream_over] defaults to [max_int], so the rest is always [None] *)
  match read_request_stream ?limits r with
  | Ok (Some (req, _)) -> Ok (Some req)
  | Ok None -> Ok None
  | Error _ as e -> e

(* ----- responses ----- *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  content_type : string;
  resp_body : string;
}

let response ?(headers = []) ?(content_type = "application/json") ~status body =
  { status; resp_headers = headers; content_type; resp_body = body }

let status_reason = function
  | 100 -> "Continue"
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 406 -> "Not Acceptable"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 417 -> "Expectation Failed"
  | 422 -> "Unprocessable Content"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Unknown"

let serialize_response ~keep_alive resp =
  let buf = Buffer.create (String.length resp.resp_body + 256) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" resp.status (status_reason resp.status));
  Buffer.add_string buf ("content-type: " ^ resp.content_type ^ "\r\n");
  Buffer.add_string buf
    (Printf.sprintf "content-length: %d\r\n" (String.length resp.resp_body));
  Buffer.add_string buf
    (if keep_alive then "connection: keep-alive\r\n" else "connection: close\r\n");
  List.iter
    (fun (k, v) -> Buffer.add_string buf (k ^ ": " ^ v ^ "\r\n"))
    resp.resp_headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf resp.resp_body;
  Buffer.contents buf
