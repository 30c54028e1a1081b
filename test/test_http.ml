(* Unit tests for the hand-rolled HTTP/1.1 request parser
   (lib/serve/http.ml), driven through in-memory string readers — the
   same code path the live server runs on sockets. *)

module Http = Fsdata_serve.Http
module Fault_net = Fsdata_serve.Fault_net
module Metrics = Fsdata_obs.Metrics

let check = Alcotest.check
let tc = Alcotest.test_case

let parse ?limits s = Http.read_request ?limits (Http.reader_of_string s)

let get_request ?limits s =
  match parse ?limits s with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.fail "expected a request, got end of stream"
  | Error e -> Alcotest.failf "expected a request, got %d %s" e.status e.reason

let get_error ?limits s =
  match parse ?limits s with
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_simple_get () =
  let r = get_request "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n" in
  check Alcotest.string "method" "GET" r.Http.meth;
  check Alcotest.string "path" "/healthz" r.Http.path;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "no query" [] r.Http.query;
  check Alcotest.string "body" "" r.Http.body;
  check Alcotest.bool "1.1 is keep-alive by default" true (Http.keep_alive r);
  (* header names are lowercased, lookup is case-insensitive *)
  check (Alcotest.option Alcotest.string) "host header" (Some "localhost")
    (Http.header r "HOST")

let test_query_decoding () =
  let r =
    get_request "GET /infer?format=json&max-errors=5%25&note=a+b%41 HTTP/1.1\r\n\r\n"
  in
  check (Alcotest.option Alcotest.string) "plain" (Some "json")
    (Http.query_param r "format");
  check (Alcotest.option Alcotest.string) "percent escape" (Some "5%")
    (Http.query_param r "max-errors");
  check (Alcotest.option Alcotest.string) "+ is space, %41 is A" (Some "a bA")
    (Http.query_param r "note");
  check (Alcotest.option Alcotest.string) "absent param" None
    (Http.query_param r "jobs")

let test_percent_decode_malformed () =
  check Alcotest.string "bad hex kept verbatim" "%zz%4" (Http.percent_decode "%zz%4");
  check Alcotest.string "good escape" "A b" (Http.percent_decode "%41+b")

let test_post_body_and_pipelining () =
  let reader =
    Http.reader_of_string
      ("POST /infer HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello"
      ^ "GET /metrics HTTP/1.1\r\n\r\n")
  in
  (match Http.read_request reader with
  | Ok (Some r) ->
      check Alcotest.string "first body" "hello" r.Http.body;
      check Alcotest.string "first path" "/infer" r.Http.path
  | _ -> Alcotest.fail "first request");
  (match Http.read_request reader with
  | Ok (Some r) ->
      check Alcotest.string "second path after body" "/metrics" r.Http.path
  | _ -> Alcotest.fail "second pipelined request");
  match Http.read_request reader with
  | Ok None -> ()
  | _ -> Alcotest.fail "clean end of stream after the pipeline"

let test_bare_lf_lines () =
  let r = get_request "GET /x HTTP/1.1\nhost: y\n\n" in
  check Alcotest.string "path with bare LF" "/x" r.Http.path;
  check (Alcotest.option Alcotest.string) "header with bare LF" (Some "y")
    (Http.header r "host")

let test_keep_alive_semantics () =
  let ka s = Http.keep_alive (get_request s) in
  check Alcotest.bool "1.1 default" true (ka "GET / HTTP/1.1\r\n\r\n");
  check Alcotest.bool "1.1 close" false
    (ka "GET / HTTP/1.1\r\nConnection: Close\r\n\r\n");
  check Alcotest.bool "1.0 default" false (ka "GET / HTTP/1.0\r\n\r\n");
  check Alcotest.bool "1.0 opt-in" true
    (ka "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")

let test_malformed_request_line () =
  check Alcotest.int "garbage" 400 (get_error "GARBAGE\r\n\r\n").Http.status;
  check Alcotest.int "two tokens" 400 (get_error "GET /\r\n\r\n").Http.status;
  check Alcotest.int "empty method" 400
    (get_error " / HTTP/1.1\r\n\r\n").Http.status

let test_unknown_version () =
  check Alcotest.int "HTTP/2.0" 505 (get_error "GET / HTTP/2.0\r\n\r\n").Http.status

let test_oversized_request_line () =
  let limits = { Http.default_limits with Http.max_request_line = 32 } in
  let e = get_error ~limits ("GET /" ^ String.make 100 'a' ^ " HTTP/1.1\r\n\r\n") in
  check Alcotest.int "431" 431 e.Http.status

let test_oversized_header () =
  let limits = { Http.default_limits with Http.max_header_line = 32 } in
  let e =
    get_error ~limits
      ("GET / HTTP/1.1\r\nx: " ^ String.make 100 'v' ^ "\r\n\r\n")
  in
  check Alcotest.int "431" 431 e.Http.status

let test_too_many_headers () =
  let limits = { Http.default_limits with Http.max_header_count = 3 } in
  let headers =
    String.concat "" (List.init 5 (fun i -> Printf.sprintf "h%d: v\r\n" i))
  in
  let e = get_error ~limits ("GET / HTTP/1.1\r\n" ^ headers ^ "\r\n") in
  check Alcotest.int "431" 431 e.Http.status

let test_malformed_header () =
  check Alcotest.int "no colon" 400
    (get_error "GET / HTTP/1.1\r\nnocolon\r\n\r\n").Http.status;
  check Alcotest.int "space in name" 400
    (get_error "GET / HTTP/1.1\r\nbad name: v\r\n\r\n").Http.status

let test_truncated_body () =
  let e = get_error "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc" in
  check Alcotest.int "400 on short body" 400 e.Http.status;
  let e2 = get_error "GET / HTTP/1.1\r\nhost: x" in
  check Alcotest.int "400 on missing terminator" 400 e2.Http.status;
  let e3 = get_error "GET / HTTP/1.1\r\nhost: x\r\n" in
  check Alcotest.int "400 on missing blank line" 400 e3.Http.status

let test_content_length_validation () =
  check Alcotest.int "malformed" 400
    (get_error "POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n").Http.status;
  check Alcotest.int "negative" 400
    (get_error "POST / HTTP/1.1\r\ncontent-length: -1\r\n\r\n").Http.status;
  let limits = { Http.default_limits with Http.max_body = 4 } in
  check Alcotest.int "over limit" 413
    (get_error ~limits "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\n0123456789")
      .Http.status

let test_transfer_encoding_rejected () =
  let e =
    get_error "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
  in
  check Alcotest.int "501" 501 e.Http.status

let test_header_line_limit_boundary () =
  let limits = { Http.default_limits with Http.max_header_line = 32 } in
  let pad n = String.make n 'v' in
  (* "h: " + 28 value bytes + CR is exactly the 32-byte limit (the CR
     counts; only the LF is outside the measured line) *)
  let r = get_request ~limits ("GET / HTTP/1.1\r\nh: " ^ pad 28 ^ "\r\n\r\n") in
  check (Alcotest.option Alcotest.string) "a line at the limit parses"
    (Some (pad 28)) (Http.header r "h");
  let e0 = get_error ~limits ("GET / HTTP/1.1\r\nh: " ^ pad 29 ^ "\r\n\r\n") in
  check Alcotest.int "431 one byte over, terminated" 431 e0.Http.status;
  (* one byte over, never terminated: oversized, not truncated *)
  let e = get_error ~limits ("GET / HTTP/1.1\r\nh: " ^ pad 30) in
  check Alcotest.int "431 over the limit without CRLF" 431 e.Http.status;
  (* exactly at the limit but the stream ends with no terminator: a
     truncated request, not an oversized one *)
  let e2 = get_error ~limits ("GET / HTTP/1.1\r\nh: " ^ pad 29) in
  check Alcotest.int "400 at the limit without CRLF" 400 e2.Http.status

(* ----- read_request_stream: bodies left on the wire ----- *)

let test_stream_body_rest () =
  let r =
    Http.reader_of_string
      ("POST /infer HTTP/1.1\r\ncontent-length: 10\r\n\r\n0123456789"
      ^ "GET /healthz HTTP/1.1\r\n\r\n")
  in
  match Http.read_request_stream ~stream_over:4 r with
  | Ok (Some (req, Some rest)) ->
      check Alcotest.string "body left on the wire" "" req.Http.body;
      check Alcotest.int "declared bytes remaining" 10 (Http.body_remaining rest);
      let chunk = Http.read_body_chunk rest in
      check Alcotest.bool "first chunk is nonempty" true (String.length chunk > 0);
      let all = chunk ^ Http.read_body_all rest in
      check Alcotest.string "streamed body round-trips" "0123456789" all;
      check Alcotest.int "drained" 0 (Http.body_remaining rest);
      check Alcotest.string "chunks after the drain are empty" ""
        (Http.read_body_chunk rest);
      (* the connection is usable again once the body is consumed *)
      (match Http.read_request r with
      | Ok (Some nxt) ->
          check Alcotest.string "next pipelined request parses" "/healthz"
            nxt.Http.path
      | _ -> Alcotest.fail "expected a pipelined request after the body")
  | _ -> Alcotest.fail "expected a streamed body"

let test_stream_small_body_buffered () =
  let r = Http.reader_of_string "POST / HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc" in
  match Http.read_request_stream ~stream_over:4 r with
  | Ok (Some (req, None)) ->
      check Alcotest.string "at or under the threshold buffers" "abc" req.Http.body
  | _ -> Alcotest.fail "expected a buffered body"

let test_stream_reserve_admission () =
  let parse ~reserve s =
    Http.read_request_stream ~reserve (Http.reader_of_string s)
  in
  (* the declared length is offered to [reserve] before any body byte *)
  let offered = ref 0 in
  (match
     parse
       ~reserve:(fun n ->
         offered := n;
         true)
       "POST / HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"
   with
  | Ok (Some (req, None)) ->
      check Alcotest.int "reserve saw the declared length" 3 !offered;
      check Alcotest.string "admitted body reads" "abc" req.Http.body
  | _ -> Alcotest.fail "expected an admitted request");
  (* refusal is a 503 before the body is touched *)
  (match
     parse ~reserve:(fun _ -> false)
       "POST / HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"
   with
  | Error e ->
      check Alcotest.int "refused admission is 503" 503 e.Http.status;
      check Alcotest.bool "names the budget" true
        (Astring.String.is_infix ~affix:"budget" e.Http.reason)
  | _ -> Alcotest.fail "expected a 503");
  (* bodiless requests never consult the budget *)
  match parse ~reserve:(fun _ -> false) "GET / HTTP/1.1\r\n\r\n" with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "expected a bodiless request to pass"

let test_stream_truncated_body () =
  let r =
    Http.reader_of_string "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\n012345"
  in
  match Http.read_request_stream ~stream_over:4 r with
  | Ok (Some (_, Some rest)) -> (
      match Http.read_body_all rest with
      | _ -> Alcotest.fail "expected the truncation to surface"
      | exception Http.Bad e ->
          check Alcotest.int "peer closing mid-stream is a 400" 400 e.Http.status)
  | _ -> Alcotest.fail "expected a streamed body"

(* ----- Expect: 100-continue ----- *)

let interim = "HTTP/1.1 100 Continue\r\n\r\n"

(* A socketpair stands in for the connection: the reader parses the
   server end and whatever it writes back arrives on the client end,
   which [written] drains without blocking. The client writes the whole
   request up front, but with [clamp] the reader's first read stops at
   the end of the head, so the body is still on the wire when the head
   is parsed, as it is while a client waits for the interim. *)
let with_wire ?(clamp = true) ~head ~rest f =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close client;
      Unix.close server)
  @@ fun () ->
  let fault = Fault_net.create () in
  if clamp then Fault_net.set_max_read fault (String.length head);
  Fault_net.write_all None client (head ^ rest);
  Unix.set_nonblock client;
  let written () =
    let buf = Buffer.create 64 and b = Bytes.create 256 in
    let rec go () =
      match Unix.read client b 0 (Bytes.length b) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf b 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    go ();
    Buffer.contents buf
  in
  f (Http.reader_of_fd ~fault server) written

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let continue_sent () = Metrics.value (Metrics.counter "serve.continue_sent")

let expect_head ?(version = "HTTP/1.1") ?(expect = Some "100-Continue") n =
  Printf.sprintf "POST /infer %s\r\n%scontent-length: %d\r\n\r\n" version
    (match expect with Some e -> "expect: " ^ e ^ "\r\n" | None -> "")
    n

let test_continue_after_admission () =
  with_metrics @@ fun () ->
  let before = continue_sent () in
  with_wire ~head:(expect_head 5) ~rest:"helloGET /healthz HTTP/1.1\r\n\r\n"
  @@ fun r written ->
  let at_reserve = ref "unset" in
  let reserve _ =
    at_reserve := written ();
    true
  in
  (match Http.read_request_stream ~reserve r with
  | Ok (Some (req, None)) ->
      check Alcotest.string "the body follows the interim" "hello" req.Http.body
  | _ -> Alcotest.fail "expected a buffered request");
  check Alcotest.string "nothing written before admission" "" !at_reserve;
  check Alcotest.string "one interim, before the body" interim (written ());
  (match Http.read_request_stream ~reserve r with
  | Ok (Some (req, None)) ->
      check Alcotest.string "pipelined request parses" "/healthz" req.Http.path
  | _ -> Alcotest.fail "expected the pipelined request");
  check Alcotest.string "no interim for a bodiless request" "" (written ());
  check Alcotest.int "counted once" (before + 1) (continue_sent ())

let test_continue_streamed () =
  with_wire ~head:(expect_head 10) ~rest:"0123456789" @@ fun r written ->
  match Http.read_request_stream ~stream_over:4 r with
  | Ok (Some (_, Some rest)) ->
      check Alcotest.string "owed, not yet written" "" (written ());
      let all = Http.read_body_all rest in
      check Alcotest.string "body intact" "0123456789" all;
      check Alcotest.string "written on the first body refill, once" interim
        (written ())
  | _ -> Alcotest.fail "expected a streamed request"

let test_no_continue () =
  let case ?clamp ?(limits = Http.default_limits) ?(reserve = fun _ -> true)
      name head rest want =
    with_wire ?clamp ~head ~rest @@ fun r written ->
    let got =
      match Http.read_request_stream ~limits ~reserve r with
      | Ok (Some (req, None)) -> req.Http.body
      | Ok _ -> "unexpected streamed or empty result"
      | Error e -> string_of_int e.Http.status
    in
    check Alcotest.string (name ^ ": outcome") want got;
    check Alcotest.string (name ^ ": no interim") "" (written ())
  in
  case "413"
    ~limits:{ Http.default_limits with Http.max_body = 4 }
    (expect_head 5) "hello" "413";
  case "503" ~reserve:(fun _ -> false) (expect_head 5) "hello" "503";
  case "417" (expect_head ~expect:(Some "100-continue, x-later") 5) "hello" "417";
  case "HTTP/1.0 ignores Expect" (expect_head ~version:"HTTP/1.0" 5) "hello" "hello";
  case "HTTP/1.0 ignores even unknown expectations"
    (expect_head ~version:"HTTP/1.0" ~expect:(Some "x-later") 5) "hello" "hello";
  case "no Expect" (expect_head ~expect:None 5) "hello" "hello";
  case "Content-Length 0" (expect_head 0) "" "";
  case "body already buffered" ~clamp:false (expect_head 5) "hello" "hello"

(* Reading a buffered body costs allocation linear in its size: the
   reader once re-concatenated its whole buffer on every 8 KiB refill,
   19.5x the body at 256 KiB. *)
let test_buffered_body_linear () =
  let n = 256 * 1024 in
  let path = Filename.temp_file "fsdata_http" ".req" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (expect_head ~expect:None n);
      output_string oc (String.make n 'x'));
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let r = Http.reader_of_fd fd in
  let before = Gc.allocated_bytes () in
  let len =
    match Http.read_request_stream r with
    | Ok (Some (req, None)) -> String.length req.Http.body
    | _ -> Alcotest.fail "expected a buffered request"
  in
  let ratio = (Gc.allocated_bytes () -. before) /. float_of_int n in
  check Alcotest.int "whole body" n len;
  if ratio > 4. then Alcotest.failf "allocated %.1fx the body" ratio

let test_end_of_stream () =
  (match parse "" with
  | Ok None -> ()
  | _ -> Alcotest.fail "empty stream is a clean end");
  match parse "\r\n" with
  | Ok None -> ()
  | _ -> Alcotest.fail "a stray blank line then EOF is a clean end"

let test_response_serialization () =
  let resp =
    Http.response ~headers:[ ("x-extra", "1") ] ~status:200 "{\"ok\":true}"
  in
  let wire = Http.serialize_response ~keep_alive:true resp in
  let expect =
    "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
     content-length: 11\r\nconnection: keep-alive\r\nx-extra: 1\r\n\r\n\
     {\"ok\":true}"
  in
  check Alcotest.string "wire bytes (no Date header)" expect wire;
  let closed = Http.serialize_response ~keep_alive:false resp in
  check Alcotest.bool "connection: close variant" true
    (Astring.String.is_infix ~affix:"connection: close\r\n" closed)

let suite =
  [
    tc "simple GET" `Quick test_simple_get;
    tc "query decoding" `Quick test_query_decoding;
    tc "percent-decode malformed escapes" `Quick test_percent_decode_malformed;
    tc "POST body and pipelining" `Quick test_post_body_and_pipelining;
    tc "bare LF line endings" `Quick test_bare_lf_lines;
    tc "keep-alive semantics" `Quick test_keep_alive_semantics;
    tc "malformed request line" `Quick test_malformed_request_line;
    tc "unknown protocol version" `Quick test_unknown_version;
    tc "oversized request line" `Quick test_oversized_request_line;
    tc "oversized header line" `Quick test_oversized_header;
    tc "too many headers" `Quick test_too_many_headers;
    tc "malformed header line" `Quick test_malformed_header;
    tc "truncated requests" `Quick test_truncated_body;
    tc "content-length validation" `Quick test_content_length_validation;
    tc "transfer-encoding rejected" `Quick test_transfer_encoding_rejected;
    tc "header line at the limit boundary" `Quick test_header_line_limit_boundary;
    tc "streamed body rest" `Quick test_stream_body_rest;
    tc "small bodies stay buffered" `Quick test_stream_small_body_buffered;
    tc "reserve hook gates admission" `Quick test_stream_reserve_admission;
    tc "truncated streamed body" `Quick test_stream_truncated_body;
    tc "100-continue: one interim, after admission" `Quick
      test_continue_after_admission;
    tc "100-continue: streamed body pulls the interim" `Quick
      test_continue_streamed;
    tc "100-continue: never sent when not owed" `Quick test_no_continue;
    tc "buffered body read allocates linearly" `Quick
      test_buffered_body_linear;
    tc "clean end of stream" `Quick test_end_of_stream;
    tc "response serialization" `Quick test_response_serialization;
  ]
