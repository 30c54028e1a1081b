(* Tests for the inference service handlers (lib/serve/server.ml) and
   the LRU response cache, exercised directly on Server.handle — no
   sockets. The cram test test/cli/serve.t covers the live server. *)

module Server = Fsdata_serve.Server
module Http = Fsdata_serve.Http
module Cache = Fsdata_serve.Cache
module Shape = Fsdata_core.Shape
module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json

let check = Alcotest.check
let tc = Alcotest.test_case

(* ----- the LRU cache ----- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  check Alcotest.int "no eviction below capacity" 0 (Cache.add c "a" 1);
  check Alcotest.int "still none" 0 (Cache.add c "b" 2);
  check Alcotest.int "adding over capacity evicts one" 1 (Cache.add c "c" 3);
  check (Alcotest.option Alcotest.int) "LRU entry evicted" None (Cache.find c "a");
  check (Alcotest.option Alcotest.int) "newer kept" (Some 2) (Cache.find c "b");
  check (Alcotest.option Alcotest.int) "newest kept" (Some 3) (Cache.find c "c");
  check Alcotest.int "length" 2 (Cache.length c)

let test_cache_hit_refreshes () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.add c "a" 1);
  ignore (Cache.add c "b" 2);
  (* touch a, making b the least recently used *)
  ignore (Cache.find c "a");
  ignore (Cache.add c "c" 3);
  check (Alcotest.option Alcotest.int) "touched entry survives" (Some 1)
    (Cache.find c "a");
  check (Alcotest.option Alcotest.int) "untouched entry evicted" None
    (Cache.find c "b")

let test_cache_update_in_place () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.add c "a" 1);
  check Alcotest.int "re-add is not an eviction" 0 (Cache.add c "a" 9);
  check (Alcotest.option Alcotest.int) "value replaced" (Some 9) (Cache.find c "a");
  check Alcotest.int "length unchanged" 1 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  check Alcotest.int "add is a no-op" 0 (Cache.add c "a" 1);
  check (Alcotest.option Alcotest.int) "find always misses" None (Cache.find c "a");
  check Alcotest.int "empty" 0 (Cache.length c)

let test_cache_ttl_expires () =
  let c = Cache.create ~capacity:4 in
  ignore (Cache.add c ~ttl_ns:1_000_000L "fast" 1);
  ignore (Cache.add c "forever" 2);
  check (Alcotest.option Alcotest.int) "live before the deadline" (Some 1)
    (Cache.find c "fast");
  Unix.sleepf 0.005;
  check (Alcotest.option Alcotest.int) "expired entry is a miss" None
    (Cache.find c "fast");
  check Alcotest.int "and is dropped on the way out" 1 (Cache.length c);
  check (Alcotest.option Alcotest.int) "no TTL means no expiry" (Some 2)
    (Cache.find c "forever");
  (* re-adding refreshes the clock *)
  ignore (Cache.add c ~ttl_ns:60_000_000_000L "fast" 3);
  check (Alcotest.option Alcotest.int) "refreshed entry lives" (Some 3)
    (Cache.find c "fast")

let test_cache_invalidation () =
  let c = Cache.create ~capacity:8 in
  ignore (Cache.add c "stream:a:shape" 1);
  ignore (Cache.add c "stream:a:history" 2);
  ignore (Cache.add c "stream:b:shape" 3);
  ignore (Cache.add c "other" 4);
  check Alcotest.bool "remove an existing key" true (Cache.remove c "other");
  check Alcotest.bool "absent key reports false" false (Cache.remove c "other");
  check Alcotest.int "prefix removal takes the stream's entries" 2
    (Cache.remove_where c (String.starts_with ~prefix:"stream:a:"));
  check (Alcotest.option Alcotest.int) "sibling stream untouched" (Some 3)
    (Cache.find c "stream:b:shape");
  check Alcotest.int "clear drops the rest" 1 (Cache.clear c);
  check Alcotest.int "empty" 0 (Cache.length c)

let test_cache_concurrent_same_key () =
  (* hammer one key (plus per-domain keys to force evictions) from
     several domains: no crash, no corruption, and the shared key is
     either absent or holds a value some domain actually put there *)
  let c = Cache.create ~capacity:4 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 500 do
              ignore (Cache.add c "hot" (d * 1000 + i));
              ignore (Cache.find c "hot");
              ignore (Cache.add c (Printf.sprintf "cold-%d-%d" d i) i);
              ignore (Cache.find c (Printf.sprintf "cold-%d-%d" d (i - 1)))
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.bool "length bounded by capacity" true (Cache.length c <= 4);
  match Cache.find c "hot" with
  | None -> ()
  | Some v ->
      check Alcotest.bool "hot value is one that was put" true
        (v >= 1 && v <= 3500 && v mod 1000 <= 500 && v mod 1000 >= 1)

(* ----- handler plumbing ----- *)

let request ?(meth = "POST") ?(query = []) ?(body = "") path =
  {
    Http.meth;
    path;
    query;
    version = `Http_1_1;
    headers = [];
    body;
  }

let server () = Server.create Server.default_config

let body_fields resp =
  match Json.parse_result resp.Http.resp_body with
  | Ok (Dv.Record (_, fields)) -> fields
  | Ok _ -> Alcotest.fail "response body is not a JSON object"
  | Error m -> Alcotest.failf "response body is not JSON: %s" m

let field_string name resp =
  match List.assoc_opt name (body_fields resp) with
  | Some (Dv.String s) -> s
  | _ -> Alcotest.failf "missing string field %S" name

let field_int name resp =
  match List.assoc_opt name (body_fields resp) with
  | Some (Dv.Int n) -> n
  | _ -> Alcotest.failf "missing int field %S" name

let field_bool name resp =
  match List.assoc_opt name (body_fields resp) with
  | Some (Dv.Bool b) -> b
  | _ -> Alcotest.failf "missing bool field %S" name

let cache_header resp = List.assoc_opt "x-fsdata-cache" resp.Http.resp_headers

let corpus = "{\"name\": \"ada\", \"age\": 36}\n{\"name\": \"grace\"}\n"

(* ----- routing ----- *)

let test_healthz () =
  let resp = Server.handle (server ()) (request ~meth:"GET" "/healthz") in
  check Alcotest.int "200" 200 resp.Http.status;
  check Alcotest.string "status field" "ok" (field_string "status" resp)

let test_not_found () =
  let resp = Server.handle (server ()) (request ~meth:"GET" "/nope") in
  check Alcotest.int "404" 404 resp.Http.status

let test_method_not_allowed () =
  let t = server () in
  let resp = Server.handle t (request ~meth:"GET" "/infer") in
  check Alcotest.int "GET /infer is 405" 405 resp.Http.status;
  check (Alcotest.option Alcotest.string) "allow header" (Some "POST")
    (List.assoc_opt "allow" resp.Http.resp_headers);
  let resp = Server.handle t (request ~meth:"POST" "/metrics") in
  check Alcotest.int "POST /metrics is 405" 405 resp.Http.status

let test_metrics_endpoint () =
  let resp = Server.handle (server ()) (request ~meth:"GET" "/metrics") in
  check Alcotest.int "200" 200 resp.Http.status;
  (* the flat JSON object parses and carries the serve.* key family *)
  match Json.parse_result resp.Http.resp_body with
  | Ok (Dv.Record (_, fields)) ->
      check Alcotest.bool "serve.* keys present" true
        (List.mem_assoc "serve.requests.metrics" fields)
  | _ -> Alcotest.fail "metrics body is not a JSON object"

(* ----- /infer ----- *)

let test_infer_matches_cli_path () =
  let resp = Server.handle (server ()) (request ~body:corpus "/infer") in
  check Alcotest.int "200" 200 resp.Http.status;
  let expected =
    match Generators.strict_shape Json (Stream corpus) with
    | Ok s -> Fmt.str "%a" Shape.pp s
    | Error m -> Alcotest.fail m
  in
  check Alcotest.string "shape identical to the CLI inference path" expected
    (field_string "shape" resp);
  check Alcotest.int "total" 2 (field_int "total" resp);
  check Alcotest.int "quarantined" 0 (field_int "quarantined" resp)

let test_infer_cache_roundtrip () =
  let t = server () in
  let first = Server.handle t (request ~body:corpus "/infer") in
  let second = Server.handle t (request ~body:corpus "/infer") in
  check (Alcotest.option Alcotest.string) "first is a miss" (Some "miss")
    (cache_header first);
  check (Alcotest.option Alcotest.string) "second is a hit" (Some "hit")
    (cache_header second);
  check Alcotest.string "bodies byte-identical" first.Http.resp_body
    second.Http.resp_body;
  (* a different corpus, format or budget is a different key *)
  let other = Server.handle t (request ~body:"{\"x\": 1}" "/infer") in
  check (Alcotest.option Alcotest.string) "different body misses" (Some "miss")
    (cache_header other);
  let budgeted =
    Server.handle t
      (request ~query:[ ("max-errors", "1") ] ~body:corpus "/infer")
  in
  check (Alcotest.option Alcotest.string) "different budget misses"
    (Some "miss") (cache_header budgeted)

let test_infer_cache_disabled () =
  let t =
    Server.create { Server.default_config with Server.cache_entries = 0 }
  in
  let first = Server.handle t (request ~body:corpus "/infer") in
  let second = Server.handle t (request ~body:corpus "/infer") in
  check (Alcotest.option Alcotest.string) "always a miss" (Some "miss")
    (cache_header second);
  check Alcotest.string "bodies still identical" first.Http.resp_body
    second.Http.resp_body

let test_infer_quarantine () =
  let faulty = "{\"name\": \"ada\"}\n{\"name\": }\n{\"name\": \"bob\"}\n" in
  (* strict budget: the fault is fatal *)
  let strict = Server.handle (server ()) (request ~body:faulty "/infer") in
  check Alcotest.int "422 without a budget" 422 strict.Http.status;
  (* with a budget the fault is quarantined and reported *)
  let resp =
    Server.handle (server ())
      (request ~query:[ ("max-errors", "1") ] ~body:faulty "/infer")
  in
  check Alcotest.int "200 under budget" 200 resp.Http.status;
  check Alcotest.int "total" 3 (field_int "total" resp);
  check Alcotest.int "one quarantined" 1 (field_int "quarantined" resp);
  match List.assoc_opt "samples" (body_fields resp) with
  | Some (Dv.List [ Dv.Record (_, entry) ]) ->
      check Alcotest.bool "entry has index" true (List.mem_assoc "index" entry);
      check Alcotest.bool "entry has message" true
        (List.mem_assoc "message" entry)
  | _ -> Alcotest.fail "expected one quarantine entry"

let test_infer_formats () =
  let xml = Server.handle (server ())
      (request ~query:[ ("format", "xml") ]
         ~body:"<root id=\"1\"><item>a</item></root>" "/infer")
  in
  check Alcotest.int "xml 200" 200 xml.Http.status;
  let csv =
    Server.handle (server ())
      (request ~query:[ ("format", "csv") ] ~body:"A,B\n1,x\n2,y\n" "/infer")
  in
  check Alcotest.int "csv 200" 200 csv.Http.status;
  let bad =
    Server.handle (server ())
      (request ~query:[ ("format", "yaml") ] ~body:"x" "/infer")
  in
  check Alcotest.int "unknown format 400" 400 bad.Http.status

let test_infer_bad_params () =
  let t = server () in
  let bad_jobs =
    Server.handle t (request ~query:[ ("jobs", "many") ] ~body:corpus "/infer")
  in
  check Alcotest.int "bad jobs 400" 400 bad_jobs.Http.status;
  let bad_budget =
    Server.handle t
      (request ~query:[ ("max-errors", "lots") ] ~body:corpus "/infer")
  in
  check Alcotest.int "bad budget 400" 400 bad_budget.Http.status;
  let bad_body = Server.handle t (request ~body:"{\"x\": " "/infer") in
  check Alcotest.int "malformed corpus 422" 422 bad_body.Http.status

(* ----- /check and /explain ----- *)

let shape_expr = "{name: string, age: nullable float}"

let test_check () =
  let t = server () in
  let ok =
    Server.handle t
      (request ~query:[ ("shape", shape_expr) ]
         ~body:"{\"name\": \"ada\", \"age\": 36}" "/check")
  in
  check Alcotest.int "200" 200 ok.Http.status;
  check Alcotest.bool "has_shape" true (field_bool "has_shape" ok);
  check Alcotest.bool "preferred" true (field_bool "preferred" ok);
  let mismatch =
    Server.handle t
      (request ~query:[ ("shape", shape_expr) ] ~body:"{\"name\": 42}" "/check")
  in
  check Alcotest.int "still 200" 200 mismatch.Http.status;
  check Alcotest.bool "not preferred" false (field_bool "preferred" mismatch)

let test_check_errors () =
  let t = server () in
  check Alcotest.int "missing shape 400" 400
    (Server.handle t (request ~body:"{}" "/check")).Http.status;
  check Alcotest.int "bad shape 400" 400
    (Server.handle t (request ~query:[ ("shape", "{oops") ] ~body:"{}" "/check"))
      .Http.status;
  check Alcotest.int "bad document 422" 422
    (Server.handle t
       (request ~query:[ ("shape", shape_expr) ] ~body:"{\"x\": " "/check"))
      .Http.status

let test_explain () =
  let resp =
    Server.handle (server ())
      (request ~query:[ ("shape", shape_expr) ] ~body:"{\"name\": 42}" "/explain")
  in
  check Alcotest.int "200" 200 resp.Http.status;
  match List.assoc_opt "mismatches" (body_fields resp) with
  | Some (Dv.List (Dv.Record (_, m) :: _)) ->
      check Alcotest.bool "mismatch has a path" true (List.mem_assoc "at" m);
      check Alcotest.bool "mismatch has a reason" true
        (List.mem_assoc "reason" m)
  | _ -> Alcotest.fail "expected at least one mismatch"

let test_explain_clean () =
  let resp =
    Server.handle (server ())
      (request ~query:[ ("shape", shape_expr) ]
         ~body:"{\"name\": \"ada\", \"age\": 36}" "/explain")
  in
  match List.assoc_opt "mismatches" (body_fields resp) with
  | Some (Dv.List []) -> ()
  | _ -> Alcotest.fail "expected no mismatches for a conforming document"

(* ----- robustness: drain, deadlines and streamed bodies ----- *)

let test_healthz_draining () =
  let flag = Atomic.make false in
  let t = Server.create ~draining:flag Server.default_config in
  check Alcotest.int "healthy while live" 200
    (Server.handle t (request ~meth:"GET" "/healthz")).Http.status;
  Atomic.set flag true;
  let resp = Server.handle t (request ~meth:"GET" "/healthz") in
  check Alcotest.int "503 while draining" 503 resp.Http.status;
  check Alcotest.string "reports draining" "draining" (field_string "status" resp);
  Atomic.set (Server.draining t) false;
  check Alcotest.int "recovers when the flag clears" 200
    (Server.handle t (request ~meth:"GET" "/healthz")).Http.status

let test_handle_cancelled_504 () =
  let resp =
    Server.handle ~cancel:(fun () -> true) (server ())
      (request ~body:corpus "/infer")
  in
  check Alcotest.int "a tripped cancel token is 504" 504 resp.Http.status;
  check Alcotest.bool "names the deadline" true
    (Astring.String.is_infix ~affix:"deadline" (field_string "error" resp))

(* Build a streamed request the way the server does: parse off a string
   reader with a low stream threshold, leaving the body on the wire. *)
let streamed_request ?(target = "/infer") body =
  let raw =
    Printf.sprintf "POST %s HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s" target
      (String.length body) body
  in
  match Http.read_request_stream ~stream_over:4 (Http.reader_of_string raw) with
  | Ok (Some (req, Some rest)) -> (req, rest)
  | _ -> Alcotest.fail "expected a streamed request"

let test_streamed_infer_bypasses_cache () =
  let t = server () in
  let buffered = Server.handle t (request ~body:corpus "/infer") in
  let req, rest = streamed_request corpus in
  let streamed = Server.handle ~rest t req in
  check Alcotest.int "200" 200 streamed.Http.status;
  check (Alcotest.option Alcotest.string) "streamed JSON bypasses the cache"
    (Some "bypass") (cache_header streamed);
  check Alcotest.string "body identical to the buffered path"
    buffered.Http.resp_body streamed.Http.resp_body;
  (* a second streamed pass is another bypass, never a hit *)
  let req2, rest2 = streamed_request corpus in
  check (Alcotest.option Alcotest.string) "still a bypass" (Some "bypass")
    (cache_header (Server.handle ~rest:rest2 t req2))

let test_streamed_csv_drained_and_cached () =
  let t = server () in
  let body = "A,B\n1,x\n2,y\n" in
  let req, rest = streamed_request ~target:"/infer?format=csv" body in
  let first = Server.handle ~rest t req in
  check Alcotest.int "200" 200 first.Http.status;
  check (Alcotest.option Alcotest.string)
    "non-JSON formats drain the stream and stay cacheable" (Some "miss")
    (cache_header first);
  let second =
    Server.handle t (request ~query:[ ("format", "csv") ] ~body "/infer")
  in
  check (Alcotest.option Alcotest.string) "the drained body primed the cache"
    (Some "hit") (cache_header second);
  check Alcotest.string "bodies identical" first.Http.resp_body
    second.Http.resp_body

let test_streamed_other_endpoint_drained () =
  let doc = "{\"name\": \"ada\", \"age\": 36}" in
  let req, rest =
    streamed_request ~target:"/check?shape=%7Bname:%20string,%20age:%20nullable%20float%7D" doc
  in
  let resp = Server.handle ~rest (server ()) req in
  check Alcotest.int "/check drains a streamed body" 200 resp.Http.status;
  check Alcotest.bool "and judges the document" true (field_bool "has_shape" resp)

(* ----- the live shape registry endpoints ----- *)

(* ----- /query and /streams/:name/query ----- *)

let query_corpus =
  "{\"name\": \"ada\", \"age\": 36}\n{\"name\": \"bob\", \"age\": 25}\n\
   {\"name\": \"grace\"}\n"

let test_query_endpoint () =
  let t = server () in
  let run ?(query = []) ?(body = query_corpus) q =
    Server.handle t (request ~query:(("q", q) :: query) ~body "/query")
  in
  let r = run "where .age >= 30 | select .name" in
  check Alcotest.int "200" 200 r.Http.status;
  check Alcotest.string "reference engine by default" "eval"
    (field_string "engine" r);
  check Alcotest.int "scanned all documents" 3 (field_int "scanned" r);
  check Alcotest.int "one row matched" 1 (field_int "matched" r);
  let rf = run ~query:[ ("compiled", "1") ] "where .age >= 30 | select .name" in
  check Alcotest.string "compiled engine on request" "eval_fast"
    (field_string "engine" rf);
  (* same rows either way: everything but the engine label agrees *)
  check Alcotest.bool "rows agree across engines" true
    (List.assoc "rows" (body_fields r) = List.assoc "rows" (body_fields rf));
  (* repeat is a response-cache hit with an identical body *)
  let again = run "where .age >= 30 | select .name" in
  check (Alcotest.option Alcotest.string) "repeat hits" (Some "hit")
    (cache_header again);
  check Alcotest.string "hit body identical" r.Http.resp_body
    again.Http.resp_body;
  (* parameter validation *)
  check Alcotest.int "missing q is 400" 400
    (Server.handle t (request ~body:query_corpus "/query")).Http.status;
  check Alcotest.int "unparseable q is 400" 400 (run "where ==").Http.status;
  check Alcotest.int "bad compiled is 400" 400
    (run ~query:[ ("compiled", "yes") ] "count").Http.status;
  check Alcotest.int "bad limit is 400" 400
    (run ~query:[ ("limit", "0") ] "count").Http.status;
  check Alcotest.int "GET is 405" 405
    (Server.handle t (request ~meth:"GET" ~query:[ ("q", "count") ] "/query"))
      .Http.status;
  check Alcotest.int "malformed body without shape= is 422" 422
    (run ~body:"{\"x\": " "count").Http.status

let test_query_ill_typed () =
  let t = server () in
  let run ?(query = []) q =
    Server.handle t (request ~query:(("q", q) :: query) ~body:query_corpus "/query")
  in
  let r = run "where .zip == 1" in
  check Alcotest.int "ill-typed is 400" 400 r.Http.status;
  check Alcotest.string "offending path" ".zip" (field_string "at" r);
  check Alcotest.bool "expected names the missing field" true
    (Astring.String.is_infix ~affix:"field 'zip'" (field_string "expected" r));
  check Alcotest.bool "found carries σ" true
    (Astring.String.is_infix ~affix:"name" (field_string "found" r));
  (* with an explicit σ the corpus is never parsed: a body that would
     422 under inference still yields the typing error *)
  let r =
    Server.handle t
      (request
         ~query:[ ("q", "where .zip == 1"); ("shape", "{name: string}") ]
         ~body:"{\"x\": " "/query")
  in
  check Alcotest.int "rejected before the corpus is read" 400 r.Http.status;
  check Alcotest.string "same diagnostic" ".zip" (field_string "at" r)

let test_stream_query_recheck_on_growth () =
  let t = server () in
  let push body = Server.handle t (request ~body "/streams/people/push") in
  let run ?(query = []) q =
    Server.handle t
      (request ~query:(("q", q) :: query) ~body:query_corpus
         "/streams/people/query")
  in
  check Alcotest.int "unknown stream is 404" 404
    (Server.handle t
       (request ~query:[ ("q", "count") ] ~body:query_corpus
          "/streams/nope/query"))
      .Http.status;
  let _ = push "{\"name\": \"ada\"}" in
  (* v1 knows only .name: a query over .age is ill-typed *)
  let r = run "where .age >= 30 | count" in
  check Alcotest.int "rejected against v1" 400 r.Http.status;
  check Alcotest.string "offending path" ".age" (field_string "at" r);
  let ok = run ~query:[ ("compiled", "1") ] "select .name" in
  check Alcotest.int "well-typed against v1" 200 ok.Http.status;
  check Alcotest.int "response carries the version" 1 (field_int "version" ok);
  (* growth: v2 gains .age, and the same query now typechecks — the
     version-keyed plan cache cannot serve the stale rejection *)
  let _ = push "{\"name\": \"alan\", \"age\": 36}" in
  let r = run "where .age >= 30 | count" in
  check Alcotest.int "accepted against v2" 200 r.Http.status;
  check Alcotest.int "new version" 2 (field_int "version" r);
  check Alcotest.int "rows counted" 1 (field_int "matched" r);
  (* response cache: repeat hits, push invalidates *)
  let a = run "select .name" in
  check (Alcotest.option Alcotest.string) "fresh query misses" (Some "miss")
    (cache_header a);
  let b = run "select .name" in
  check (Alcotest.option Alcotest.string) "repeat hits" (Some "hit")
    (cache_header b);
  check Alcotest.string "hit body identical" a.Http.resp_body b.Http.resp_body;
  let _ = push "{\"name\": \"x\"}" in
  let c = run "select .name" in
  check (Alcotest.option Alcotest.string) "push evicts the stream's entries"
    (Some "miss") (cache_header c)

let test_stream_push_version_semantics () =
  let t = server () in
  let push body = Server.handle t (request ~body "/streams/people/push") in
  let r1 = push "{\"name\": \"ada\"}" in
  check Alcotest.int "first push 200" 200 r1.Http.status;
  check Alcotest.int "fresh stream bumps to 1" 1 (field_int "version" r1);
  check (Alcotest.option Alcotest.string) "push bypasses the cache"
    (Some "bypass") (cache_header r1);
  let r2 = push "{\"name\": \"grace\"}" in
  check Alcotest.int "same shape keeps the version" 1 (field_int "version" r2);
  check Alcotest.int "but tallies the documents" 2 (field_int "pushes" r2);
  let r3 = push "{\"name\": \"alan\", \"age\": 36}" in
  check Alcotest.int "strict growth bumps" 2 (field_int "version" r3);
  check Alcotest.bool "merged shape keeps both fields" true
    (Astring.String.is_infix ~affix:"age" (field_string "shape" r3));
  (* a batch body counts every clean document *)
  let r4 = push "{\"name\": \"x\"}\n{\"name\": \"y\"}\n" in
  check Alcotest.int "batch documents tallied" 5 (field_int "pushes" r4);
  let bad = Server.handle t (request ~meth:"GET" "/streams/people/push") in
  check Alcotest.int "push is POST-only" 405 bad.Http.status

let test_stream_shape_cached_until_push () =
  let t = server () in
  let get () =
    Server.handle t (request ~meth:"GET" "/streams/people/shape")
  in
  check Alcotest.int "unknown stream is 404" 404 (get ()).Http.status;
  let _ = Server.handle t (request ~body:"{\"name\": \"ada\"}" "/streams/people/push") in
  let r1 = get () in
  check Alcotest.int "200 after a push" 200 r1.Http.status;
  check (Alcotest.option Alcotest.string) "first read misses" (Some "miss")
    (cache_header r1);
  let r2 = get () in
  check (Alcotest.option Alcotest.string) "second read hits" (Some "hit")
    (cache_header r2);
  check Alcotest.string "bodies identical" r1.Http.resp_body r2.Http.resp_body;
  (* an applied push supersedes the cached rendering *)
  let _ =
    Server.handle t
      (request ~body:"{\"name\": \"alan\", \"age\": 36}" "/streams/people/push")
  in
  let r3 = get () in
  check (Alcotest.option Alcotest.string) "push invalidated the entry"
    (Some "miss") (cache_header r3);
  check Alcotest.int "and the version moved" 2 (field_int "version" r3);
  (* the JSON Schema export of the same shape *)
  let rs =
    Server.handle t
      (request ~meth:"GET" ~query:[ ("format", "schema") ] "/streams/people/shape")
  in
  check Alcotest.int "schema format 200" 200 rs.Http.status;
  check Alcotest.bool "schema is a JSON Schema document" true
    (Astring.String.is_infix ~affix:"$schema" rs.Http.resp_body);
  let rb =
    Server.handle t
      (request ~meth:"GET" ~query:[ ("format", "yaml") ] "/streams/people/shape")
  in
  check Alcotest.int "unknown format 400" 400 rb.Http.status

let test_stream_history_and_diff () =
  let t = server () in
  let push body = Server.handle t (request ~body "/streams/s/push") in
  let _ = push "{\"a\": 1}" in
  (* a heterogeneous field: the growth is not backward-compatible, so
     the diff must render Explain mismatches (compatible growth, like a
     new nullable field, legitimately renders none) *)
  let _ = push "{\"a\": \"x\"}" in
  let hist = Server.handle t (request ~meth:"GET" "/streams/s/history") in
  check Alcotest.int "history 200" 200 hist.Http.status;
  (match List.assoc_opt "history" (body_fields hist) with
  | Some (Dv.List entries) ->
      check Alcotest.int "one entry per bump" 2 (List.length entries)
  | _ -> Alcotest.fail "missing history list");
  let diff = Server.handle t (request ~meth:"GET" "/streams/s/diff") in
  check Alcotest.int "default diff is (current-1, current)" 200 diff.Http.status;
  check Alcotest.int "from" 1 (field_int "from" diff);
  check Alcotest.int "to" 2 (field_int "to" diff);
  check Alcotest.bool "the shape grew" true (field_bool "grew" diff);
  (match List.assoc_opt "changes" (body_fields diff) with
  | Some (Dv.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "growth must render at least one Explain mismatch");
  let full =
    Server.handle t
      (request ~meth:"GET"
         ~query:[ ("from", "0"); ("to", "2") ]
         "/streams/s/diff")
  in
  check Alcotest.int "explicit versions" 200 full.Http.status;
  check Alcotest.string "version 0 is bottom" "\xe2\x8a\xa5"
    (field_string "from_shape" full);
  let missing =
    Server.handle t (request ~meth:"GET" ~query:[ ("to", "9") ] "/streams/s/diff")
  in
  check Alcotest.int "unknown version is 404" 404 missing.Http.status;
  let bad =
    Server.handle t
      (request ~meth:"GET" ~query:[ ("from", "x") ] "/streams/s/diff")
  in
  check Alcotest.int "unparseable version is 400" 400 bad.Http.status

let test_cache_invalidate_endpoint () =
  let t = server () in
  let infer = request ~body:corpus "/infer" in
  let _ = Server.handle t infer in
  check (Alcotest.option Alcotest.string) "cache primed" (Some "hit")
    (cache_header (Server.handle t infer));
  let inv = Server.handle t (request "/cache/invalidate") in
  check Alcotest.int "invalidate 200" 200 inv.Http.status;
  check Alcotest.bool "something was dropped" true
    (field_int "invalidated" inv >= 1);
  check (Alcotest.option Alcotest.string) "cache cold again" (Some "miss")
    (cache_header (Server.handle t infer));
  (* stream-scoped invalidation leaves other entries alone *)
  let _ = Server.handle t infer in
  let _ = Server.handle t (request ~body:"{\"a\": 1}" "/streams/s/push") in
  let _ = Server.handle t (request ~meth:"GET" "/streams/s/shape") in
  let inv =
    Server.handle t (request ~query:[ ("stream", "s") ] "/cache/invalidate")
  in
  check Alcotest.int "one stream entry dropped" 1 (field_int "invalidated" inv);
  check (Alcotest.option Alcotest.string) "/infer entry survives" (Some "hit")
    (cache_header (Server.handle t infer));
  let bad = Server.handle t (request ~meth:"GET" "/cache/invalidate") in
  check Alcotest.int "invalidate is POST-only" 405 bad.Http.status

(* ----- concurrency: shapes stay byte-identical under parallel load ----- *)

let test_concurrent_infer_identical () =
  let t = server () in
  let reference = (Server.handle t (request ~body:corpus "/infer")).Http.resp_body in
  let corpora =
    [ corpus; "{\"x\": 1}\n{\"x\": 2.5}\n"; "{\"v\": [1, \"two\"]}\n" ]
  in
  let references =
    List.map
      (fun body -> (Server.handle t (request ~body "/infer")).Http.resp_body)
      corpora
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.init 25 (fun i ->
                let body = List.nth corpora ((d + i) mod 3) in
                (Server.handle t (request ~body "/infer")).Http.resp_body)))
  in
  let results = List.concat_map Domain.join domains in
  check Alcotest.int "all requests answered" 100 (List.length results);
  List.iteri
    (fun i body ->
      let expected =
        List.nth references ((i / 25 + i mod 25) mod 3)
      in
      check Alcotest.string
        (Printf.sprintf "concurrent response %d byte-identical" i)
        expected body)
    results;
  ignore reference

let suite =
  [
    tc "cache: LRU eviction order" `Quick test_cache_lru;
    tc "cache: hits refresh recency" `Quick test_cache_hit_refreshes;
    tc "cache: update in place" `Quick test_cache_update_in_place;
    tc "cache: capacity 0 disables" `Quick test_cache_disabled;
    tc "cache: TTL expiry is a miss" `Quick test_cache_ttl_expires;
    tc "cache: remove, remove_where, clear" `Quick test_cache_invalidation;
    tc "cache: concurrent put/get of one key" `Quick
      test_cache_concurrent_same_key;
    tc "healthz" `Quick test_healthz;
    tc "unknown endpoint is 404" `Quick test_not_found;
    tc "wrong method is 405" `Quick test_method_not_allowed;
    tc "metrics endpoint" `Quick test_metrics_endpoint;
    tc "infer matches the CLI path" `Quick test_infer_matches_cli_path;
    tc "infer cache round-trip" `Quick test_infer_cache_roundtrip;
    tc "infer with the cache disabled" `Quick test_infer_cache_disabled;
    tc "infer quarantine under budget" `Quick test_infer_quarantine;
    tc "infer xml and csv formats" `Quick test_infer_formats;
    tc "infer parameter validation" `Quick test_infer_bad_params;
    tc "check" `Quick test_check;
    tc "check parameter validation" `Quick test_check_errors;
    tc "explain mismatches" `Quick test_explain;
    tc "explain on a conforming document" `Quick test_explain_clean;
    tc "healthz reports draining" `Quick test_healthz_draining;
    tc "cancelled inference is 504" `Quick test_handle_cancelled_504;
    tc "streamed infer bypasses the cache" `Quick
      test_streamed_infer_bypasses_cache;
    tc "streamed csv drains and caches" `Quick
      test_streamed_csv_drained_and_cached;
    tc "streamed body drained for /check" `Quick
      test_streamed_other_endpoint_drained;
    tc "query: typed pushdown endpoint" `Quick test_query_endpoint;
    tc "query: ill-typed is 400 before the corpus" `Quick test_query_ill_typed;
    tc "stream query: re-checked on version bump" `Quick
      test_stream_query_recheck_on_growth;
    tc "stream push: version bumps only on growth" `Quick
      test_stream_push_version_semantics;
    tc "stream shape: cached until the next push" `Quick
      test_stream_shape_cached_until_push;
    tc "stream history and diff" `Quick test_stream_history_and_diff;
    tc "cache invalidate endpoint" `Quick test_cache_invalidate_endpoint;
    tc "concurrent infer responses byte-identical" `Quick
      test_concurrent_infer_identical;
  ]
