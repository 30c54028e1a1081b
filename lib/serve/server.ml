module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Shape_parser = Fsdata_core.Shape_parser
module Shape_check = Fsdata_core.Shape_check
module Shape_compile = Fsdata_core.Shape_compile
module Preference = Fsdata_core.Preference
module Explain = Fsdata_core.Explain
module Diagnostic = Fsdata_data.Diagnostic
module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Xml = Fsdata_data.Xml
module Metrics = Fsdata_obs.Metrics
module Clock = Fsdata_obs.Clock
module Registry = Fsdata_registry.Registry
module Notify = Fsdata_evolve.Notify
module Evolve = Fsdata_evolve.Service
module Delivery = Fsdata_evolve.Delivery

(* --- instruments (docs/OBSERVABILITY.md, "serve.*") --- *)

let req_infer = Metrics.counter "serve.requests.infer"
let req_check = Metrics.counter "serve.requests.check"
let req_explain = Metrics.counter "serve.requests.explain"
let req_metrics = Metrics.counter "serve.requests.metrics"
let req_healthz = Metrics.counter "serve.requests.healthz"
let req_stream = Metrics.counter "serve.requests.stream"
let req_query = Metrics.counter "serve.requests.query"
let req_other = Metrics.counter "serve.requests.other"
let plan_cache_hits = Metrics.counter "serve.plan_cache.hits"
let plan_cache_misses = Metrics.counter "serve.plan_cache.misses"
let resp_2xx = Metrics.counter "serve.responses.2xx"
let resp_4xx = Metrics.counter "serve.responses.4xx"
let resp_5xx = Metrics.counter "serve.responses.5xx"
let cache_hits = Metrics.counter "serve.cache.hits"
let cache_misses = Metrics.counter "serve.cache.misses"
let cache_evictions = Metrics.counter "serve.cache.evictions"
let cache_invalidations = Metrics.counter "serve.cache.invalidations"
let http_errors = Metrics.counter "serve.http_errors"
let connections = Metrics.counter "serve.connections"
let latency_ms = Metrics.histogram "serve.latency_ms"
let inflight = Metrics.gauge "serve.inflight"
let shed_total = Metrics.counter "serve.shed_total"
let deadline_expired = Metrics.counter "serve.deadline_expired"
let stream_bodies = Metrics.counter "serve.stream.bodies"
let inflight_bytes_gauge = Metrics.gauge "serve.inflight_bytes"

(* watch outcomes (docs/OBSERVABILITY.md, "evolve.*"): the waiter-table
   gauge itself lives with the table in Fsdata_evolve.Notify *)
let watch_notified = Metrics.counter "evolve.watch.notified"
let watch_timeouts = Metrics.counter "evolve.watch.timeouts"
let watch_shed = Metrics.counter "evolve.watch.shed"

(* --- configuration and handler state --- *)

type config = {
  port : int;
  host : string;
  workers : int;
  timeout_ms : int;
  cache_entries : int;
  max_body : int;
  port_file : string option;
  queue_depth : int;
  max_inflight_bytes : int;
  stream_threshold : int;
  fault : Fault_net.t option;
  state_dir : string option;
  state_fsync : Fsdata_registry.Wal.fsync_policy;
  snapshot_every : int;
  history_limit : int;
  cache_ttl_ms : int;  (* <= 0: cached responses never expire *)
  max_waiters : int;  (* concurrent long-polls admitted before shedding *)
  hook_retry_ms : int;  (* webhook delivery first-retry backoff *)
}

let default_config =
  {
    port = 8080;
    host = "127.0.0.1";
    workers = 4;
    timeout_ms = 10_000;
    cache_entries = 64;
    max_body = 64 * 1024 * 1024;
    port_file = None;
    queue_depth = 0;
    max_inflight_bytes = 256 * 1024 * 1024;
    stream_threshold = 256 * 1024;
    fault = None;
    state_dir = None;
    state_fsync = `Always;
    snapshot_every = 512;
    history_limit = 256;
    cache_ttl_ms = 0;
    max_waiters = 64;
    hook_retry_ms = 50;
  }

(* A checked (and possibly plan-compiled) stream query, cached per
   (stream, version, query, engine): the version rides in the cache key,
   so a version bump makes every cached plan unreachable and the next
   query re-checks against the stream's current σ — a stale plan can
   never decode against an outgrown contract. Pushes additionally evict
   the stream's entries (bounding memory, not just reachability). *)
type plan_entry = {
  pe_checked : Fsdata_query.Check.checked;
  pe_fast : Fsdata_query.Eval_fast.plan option;  (* Some iff compiled=1 *)
}

type t = {
  cfg : config;
  cache : string Cache.t;
  compiled : Compile_cache.t;
  plans : plan_entry Cache.t;
  registry : Fsdata_registry.Registry.t;
  watch : Notify.t;
  draining : bool Atomic.t;
  inflight_bytes : int Atomic.t;
}

(* Compiled parsers are small (proportional to the shape) and hot shapes
   are few; a fixed capacity decoupled from the response cache is
   enough. *)
let compiled_cache_capacity = 32

(* Checked stream queries are small too (a shape plus closures); one
   slot per distinct (stream, version, query) in recent use. *)
let plan_cache_capacity = 128

let create ?(draining = Atomic.make false) cfg =
  let registry =
    Fsdata_registry.Registry.open_ ~fsync:cfg.state_fsync
      ~snapshot_every:cfg.snapshot_every ~history_limit:cfg.history_limit
      ~dir:cfg.state_dir ()
  in
  let watch = Notify.create ~capacity:cfg.max_waiters in
  (* every strict-growth bump wakes that stream's long-polls and the
     delivery worker's wildcard waiter; the listener fires outside the
     registry lock *)
  Registry.set_listener registry (fun st -> Notify.notify watch st.Registry.name);
  {
    cfg;
    cache = Cache.create ~capacity:cfg.cache_entries;
    compiled = Compile_cache.create ~capacity:compiled_cache_capacity;
    plans = Cache.create ~capacity:plan_cache_capacity;
    registry;
    watch;
    draining;
    inflight_bytes = Atomic.make 0;
  }

let cache_ttl t =
  if t.cfg.cache_ttl_ms <= 0 then None
  else Some (Int64.mul (Int64.of_int t.cfg.cache_ttl_ms) 1_000_000L)

let draining t = t.draining
let registry t = t.registry

(* --- the in-flight body budget (admission control) --- *)

(* Reservations are taken on the declared Content-Length before the
   first body byte is read, so the sum of bodies resident across all
   workers — buffered or streaming — never exceeds the budget. *)
let try_reserve t n =
  let rec go () =
    let cur = Atomic.get t.inflight_bytes in
    if cur + n > t.cfg.max_inflight_bytes then false
    else if Atomic.compare_and_set t.inflight_bytes cur (cur + n) then begin
      Metrics.gauge_add inflight_bytes_gauge (float_of_int n);
      true
    end
    else go ()
  in
  n <= 0 || go ()

let release t n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add t.inflight_bytes (-n));
    Metrics.gauge_add inflight_bytes_gauge (float_of_int (-n))
  end

(* Load balancers should back off before the budget is exhausted, not
   after: report overloaded once less than 1/8 of it remains. *)
let overloaded t =
  t.cfg.max_inflight_bytes - Atomic.get t.inflight_bytes
  < t.cfg.max_inflight_bytes / 8

(* --- response helpers --- *)

let json_body fields =
  Json.to_string ~indent:2 (Dv.Record (Dv.json_record_name, fields)) ^ "\n"

let json_error status msg =
  Http.response ~status (json_body [ ("error", Dv.String msg) ])

let json_ok ?headers fields = Http.response ?headers ~status:200 (json_body fields)

let method_not_allowed allow =
  Http.response ~status:405
    ~headers:[ ("allow", allow) ]
    (json_body [ ("error", Dv.String (Printf.sprintf "use %s" allow)) ])

let shape_string s = Fmt.str "%a" Shape.pp s

(* --- /infer --- *)

(* The interning table is process-global; keep it from growing without
   bound on a long-lived server. 200k nodes is far beyond any hot set —
   clearing only costs future sharing, never correctness. *)
let hcons_guard () = if Shape.hcons_size () > 200_000 then Shape.hcons_clear ()

let quarantine_entry (q : Infer.quarantined) =
  let d = q.Infer.q_diagnostic in
  Dv.Record
    ( Dv.json_record_name,
      [
        ("index", Dv.Int q.Infer.q_index);
        ("line", Dv.Int d.Diagnostic.line);
        ("column", Dv.Int d.Diagnostic.column);
        ("message", Dv.String d.Diagnostic.message);
      ] )

let render_report ~format (report : Infer.report) shape =
  json_body
    [
      ("format", Dv.String format);
      ("shape", Dv.String (shape_string shape));
      ("total", Dv.Int report.Infer.total);
      ("quarantined", Dv.Int (List.length report.Infer.quarantined));
      ("samples", Dv.List (List.map quarantine_entry report.Infer.quarantined));
    ]

(* Content negotiation: the Accept header picks the response
   representation — the full JSON report (default), the shape's JSON
   Schema export, or the bare shape in paper notation. The first
   supported media type listed wins (q-weights are ignored: our three
   representations are disjoint enough that preference order is the
   whole signal); a header naming only types we cannot produce is
   406. *)
let negotiate_accept req =
  match Http.header req "accept" with
  | None -> Ok `Report
  | Some v -> (
      let media_of item =
        let item =
          match String.index_opt item ';' with
          | None -> item
          | Some i -> String.sub item 0 i
        in
        String.lowercase_ascii (String.trim item)
      in
      let supported = function
        | "application/json" | "application/*" | "*/*" -> Some `Report
        | "application/schema+json" -> Some `Schema
        | "text/x-fsdata-shape" | "text/plain" | "text/*" -> Some `Paper
        | _ -> None
      in
      match
        List.find_map supported (List.map media_of (String.split_on_char ',' v))
      with
      | Some a -> Ok a
      | None ->
          Error
            (Printf.sprintf
               "cannot satisfy Accept: %s (supported: application/json, \
                application/schema+json, text/x-fsdata-shape)"
               v))

let accept_tag = function
  | `Report -> "report"
  | `Schema -> "schema"
  | `Paper -> "paper"

let accept_content_type = function
  | `Report -> "application/json"
  | `Schema -> "application/schema+json"
  | `Paper -> "text/plain; charset=utf-8"

let render_ok t ~format ~accept ~cache_header report =
  let shape = Shape.hcons report.Infer.shape in
  hcons_guard ();
  (* warm the compiled-parser cache: a client that infers a shape and
     then re-parses documents against it (POST /check?compiled=1) hits
     compiled code immediately *)
  if format = "json" then ignore (Compile_cache.get t.compiled shape);
  let body =
    match accept with
    | `Report -> render_report ~format report shape
    | `Schema -> Fsdata_codegen.Json_schema.to_string shape ^ "\n"
    | `Paper -> shape_string shape ^ "\n"
  in
  (body, cache_header)

(* The ingestion parameters /infer and /streams/:name/push share: the
   [max-errors] budget (strict when absent) and the [format] (json when
   absent). *)
let ingest_params req =
  let budget =
    match Http.query_param req "max-errors" with
    | None -> Ok Diagnostic.Strict
    | Some s -> Diagnostic.budget_of_string s
  in
  match (budget, Option.value ~default:"json" (Http.query_param req "format")) with
  | (Error _ as e), _ -> e
  | Ok budget, "json" -> Ok (Diagnostic.Json, budget)
  | Ok budget, "csv" -> Ok (Diagnostic.Csv, budget)
  | Ok budget, "xml" -> Ok (Diagnostic.Xml, budget)
  | Ok _, fmt ->
      Error (Printf.sprintf "unsupported format %S (use json, csv or xml)" fmt)

let handle_infer t ~cancel ~rest req =
  if req.Http.meth <> "POST" then method_not_allowed "POST"
  else
    match negotiate_accept req with
    | Error m ->
        Http.response ~status:406 (json_body [ ("error", Dv.String m) ])
    | Ok accept -> (
    let content_type = accept_content_type accept in
    (* 0 asks for the recommended domain count, which {!Infer.run}
       picks *)
    let jobs =
      match Http.query_param req "jobs" with
      | None -> Ok 1
      | Some s -> (
          match int_of_string_opt s with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "bad jobs value %S" s))
    in
    match (jobs, ingest_params req) with
    | (Error m, _) | (_, Error m) -> json_error 400 m
    | Ok jobs, Ok (format, budget) -> (
        let format_name = Diagnostic.format_name format in
        let infer ~cache_header source =
          Infer.run ~cancel ~jobs ~budget format source
          |> Result.map (render_ok t ~format:format_name ~accept ~cache_header)
        in
        let respond (body, header) =
          Http.response ~content_type
            ~headers:[ ("x-fsdata-cache", header) ]
            ~status:200 body
        in
        match (format, rest) with
        | Diagnostic.Json, Some rest -> (
            (* Streamed JSON: the body never materializes — fragments
               feed the recovering cursor as they arrive off the socket.
               No digest key exists without the bytes, so this path
               bypasses the response cache. *)
            Metrics.incr stream_bodies;
            let rec feed push =
              match Http.read_body_chunk rest with
              | "" -> ()
              | s ->
                  push s;
                  feed push
            in
            match infer ~cache_header:"bypass" (Infer.Feed feed) with
            | Error m -> json_error 422 m
            | Ok rendered -> respond rendered)
        | _ -> (
            (* Buffered (or non-JSON streamed: drained here, still under
               the reservation) — the digest-keyed cache path. The
               negotiated representation rides in the key: the same body
               under a different Accept is a different response. *)
            let body_text =
              match rest with
              | None -> req.Http.body
              | Some rest -> Http.read_body_all rest
            in
            let key =
              Digest.to_hex
                (Digest.string
                   (String.concat "\x00"
                      [
                        format_name;
                        accept_tag accept;
                        string_of_int jobs;
                        Diagnostic.budget_to_string budget;
                        body_text;
                      ]))
            in
            match Cache.find t.cache key with
            | Some body ->
                Metrics.incr cache_hits;
                respond (body, "hit")
            | None -> (
                Metrics.incr cache_misses;
                match infer ~cache_header:"miss" (Infer.Stream body_text) with
                | Error m -> json_error 422 m
                | Ok ((body, _) as rendered) ->
                    Metrics.add cache_evictions
                      (Cache.add ?ttl_ns:(cache_ttl t) t.cache key body);
                    respond rendered))))

(* --- /check and /explain --- *)

let mismatch_entry (m : Explain.mismatch) =
  Dv.Record
    ( Dv.json_record_name,
      [
        ("at", Dv.String m.Explain.at);
        ("input", Dv.String (shape_string m.Explain.input));
        ("expected", Dv.String (shape_string m.Explain.expected));
        ("reason", Dv.String m.Explain.reason);
      ] )

let handle_checkish t ~explain req =
  if req.Http.meth <> "POST" then method_not_allowed "POST"
  else
    let compiled_mode =
      match Http.query_param req "compiled" with
      | None | Some "0" -> Ok false
      | Some ("1" | "true") -> Ok true
      | Some v -> Error (Printf.sprintf "bad compiled value %S (use 0 or 1)" v)
    in
    match (Http.query_param req "shape", compiled_mode) with
    | _, Error m -> json_error 400 m
    | None, _ -> json_error 400 "missing required query parameter shape"
    | Some text, Ok compiled_mode -> (
        match Shape_parser.parse_result text with
        | Error m -> json_error 400 m
        | Ok shape -> (
            let format =
              Option.value ~default:"json" (Http.query_param req "format")
            in
            if compiled_mode && (explain || format <> "json") then
              json_error 400 "compiled=1 applies to /check with format json"
            else
              let doc =
                match format with
                | "json" -> Json.parse_result req.Http.body
                | "xml" ->
                    Result.map
                      (fun tree -> Xml.to_data tree)
                      (Xml.parse_result req.Http.body)
                | f ->
                    Error
                      (Printf.sprintf "unsupported format %S (use json or xml)"
                         f)
              in
              match doc with
              | Error m -> json_error 422 m
              | Ok doc ->
                  let mode = if format = "xml" then `Xml else `Practical in
                  let input_shape = Infer.shape_of_value ~mode doc in
                  let conforms () =
                    if compiled_mode then begin
                      (* the shape-compiled engine: hot shapes hit a cached
                         parser; conformance is judged on the normalized
                         document (docs/COMPILED_PARSERS.md) *)
                      let shape = Shape.hcons shape in
                      hcons_guard ();
                      let parser = Compile_cache.get t.compiled shape in
                      match Shape_compile.parse parser req.Http.body with
                      | Shape_compile.Direct _ -> true
                      | Shape_compile.Fallback _ -> false
                    end
                    else Shape_check.has_shape shape doc
                  in
                  json_ok
                    (if explain then
                       [
                         ("input_shape", Dv.String (shape_string input_shape));
                         ("shape", Dv.String (shape_string shape));
                         ( "mismatches",
                           Dv.List
                             (List.map mismatch_entry
                                (Explain.explain input_shape shape)) );
                       ]
                     else
                       [
                         ("has_shape", Dv.Bool (conforms ()));
                         ( "preferred",
                           Dv.Bool (Preference.is_preferred input_shape shape)
                         );
                         ("input_shape", Dv.String (shape_string input_shape));
                         ("shape", Dv.String (shape_string shape));
                       ])))

(* --- /streams/:name/* — the durable live shape registry --- *)

(* Rendered stream responses live in the same LRU as /infer responses,
   under a recognizable prefix so a push can invalidate exactly the
   entries it supersedes. *)
let stream_cache_prefix name = "stream:" ^ name ^ ":"

let invalidate_prefix t prefix =
  let n = Cache.remove_where t.cache (String.starts_with ~prefix) in
  Metrics.add cache_invalidations n;
  n

let stream_fields (st : Registry.stream) =
  [
    ("stream", Dv.String st.Registry.name);
    ("version", Dv.Int st.Registry.version);
    ("pushes", Dv.Int st.Registry.pushes);
    ("shape", Dv.String (shape_string st.Registry.shape));
  ]

(* POST /streams/:name/push — fold the body's inferred shape into the
   stream in O(merge). Never cached and never served from cache: the
   response is the registry's word on the new version. A storage fault
   (the WAL append raised) answers 503 — the push was not acknowledged
   and the in-memory shape is unchanged, so the client may simply
   retry. *)
let handle_stream_push t ~cancel name req =
  if req.Http.meth <> "POST" then method_not_allowed "POST"
  else
    match ingest_params req with
    | Error m -> json_error 400 m
    | Ok (format, budget) -> (
        let result =
          Infer.run ~cancel ~jobs:1 ~budget format (Infer.Stream req.Http.body)
        in
        match result with
        | Error m -> json_error 422 m
        | Ok report -> (
            let delta = Shape.hcons report.Infer.shape in
            hcons_guard ();
            let clean =
              report.Infer.total - List.length report.Infer.quarantined
            in
            match
              Registry.push t.registry ~stream:name
                ~count:(max 1 clean) delta
            with
            | exception Unix.Unix_error (e, _, _) ->
                json_error 503
                  (Printf.sprintf "storage error, push not applied: %s"
                     (Unix.error_message e))
            | st ->
                ignore (invalidate_prefix t (stream_cache_prefix name));
                ignore
                  (Cache.remove_where t.plans
                     (String.starts_with ~prefix:(stream_cache_prefix name)));
                json_ok
                  ~headers:[ ("x-fsdata-cache", "bypass") ]
                  (stream_fields st
                  @ [
                      ("total", Dv.Int report.Infer.total);
                      ( "quarantined",
                        Dv.Int (List.length report.Infer.quarantined) );
                    ])))

(* GET /streams/:name/shape?format=paper|schema — the current shape, in
   the paper notation or as the exported JSON Schema. Responses are
   cached under the stream's prefix (with the configured TTL) and
   invalidated by the next applied push. *)
let handle_stream_shape t name req =
  if req.Http.meth <> "GET" then method_not_allowed "GET"
  else
    let format = Option.value ~default:"paper" (Http.query_param req "format") in
    match format with
    | "paper" | "schema" -> (
        match Registry.find t.registry name with
        | None -> json_error 404 (Printf.sprintf "no such stream %S" name)
        | Some st -> (
            let key = stream_cache_prefix name ^ "shape:" ^ format in
            match Cache.find t.cache key with
            | Some body ->
                Metrics.incr cache_hits;
                Http.response
                  ~headers:[ ("x-fsdata-cache", "hit") ]
                  ~status:200 body
            | None ->
                Metrics.incr cache_misses;
                let body =
                  if format = "schema" then
                    Fsdata_codegen.Json_schema.to_string st.Registry.shape
                    ^ "\n"
                  else json_body (stream_fields st)
                in
                Metrics.add cache_evictions
                  (Cache.add ?ttl_ns:(cache_ttl t) t.cache key body);
                Http.response
                  ~headers:[ ("x-fsdata-cache", "miss") ]
                  ~status:200 body))
    | fmt ->
        json_error 400
          (Printf.sprintf "unsupported format %S (use paper or schema)" fmt)

(* GET /streams/:name/history — one entry per version bump. *)
let handle_stream_history t name req =
  if req.Http.meth <> "GET" then method_not_allowed "GET"
  else
    match Registry.find t.registry name with
    | None -> json_error 404 (Printf.sprintf "no such stream %S" name)
    | Some st ->
        let entry (version, seq, shape) =
          Dv.Record
            ( Dv.json_record_name,
              [
                ("version", Dv.Int version);
                ("seq", Dv.Int seq);
                ("shape", Dv.String (shape_string shape));
              ] )
        in
        json_ok
          [
            ("stream", Dv.String st.Registry.name);
            ("version", Dv.Int st.Registry.version);
            ("history", Dv.List (List.map entry st.Registry.history));
          ]

(* GET /streams/:name/diff?from=A&to=B — what grew between two versions,
   rendered with Explain: the newer shape is checked against the older
   one, so each mismatch pinpoints a place where the stream outgrew the
   old contract. Defaults: [to] is the current version, [from] is the
   one before it. *)
let handle_stream_diff t name req =
  if req.Http.meth <> "GET" then method_not_allowed "GET"
  else
    match Registry.find t.registry name with
    | None -> json_error 404 (Printf.sprintf "no such stream %S" name)
    | Some st -> (
        let version_of param default =
          match Http.query_param req param with
          | None -> Ok default
          | Some s -> (
              match int_of_string_opt s with
              | Some v when v >= 0 -> Ok v
              | _ -> Error (Printf.sprintf "bad %s value %S" param s))
        in
        match version_of "to" st.Registry.version with
        | Error m -> json_error 400 m
        | Ok to_v -> (
            match version_of "from" (max 0 (to_v - 1)) with
            | Error m -> json_error 400 m
            | Ok from_v -> (
                match
                  ( Registry.version_shape st from_v,
                    Registry.version_shape st to_v )
                with
                | None, _ ->
                    json_error 404
                      (Printf.sprintf "stream %S never had version %d" name
                         from_v)
                | _, None ->
                    json_error 404
                      (Printf.sprintf "stream %S never had version %d" name
                         to_v)
                | Some from_shape, Some to_shape ->
                    json_ok
                      [
                        ("stream", Dv.String st.Registry.name);
                        ("from", Dv.Int from_v);
                        ("to", Dv.Int to_v);
                        ("from_shape", Dv.String (shape_string from_shape));
                        ("to_shape", Dv.String (shape_string to_shape));
                        ( "grew",
                          Dv.Bool (not (Shape.equal from_shape to_shape)) );
                        ( "changes",
                          Dv.List
                            (List.map mismatch_entry
                               (Explain.explain to_shape from_shape)) );
                      ])))

(* --- /streams/:name/{migrate,watch,hooks} — schema evolution --- *)

(* POST /streams/:name/migrate?since=V — rewrite the Foo program in the
   body from the provided type of version V to the current one
   (docs/EVOLUTION.md). Successes are cached under the stream's prefix
   with both versions in the key, so a push both invalidates them and
   makes them unreachable; errors are cheap and not cached. *)
let handle_stream_migrate t name req =
  if req.Http.meth <> "POST" then method_not_allowed "POST"
  else
    match Http.query_param req "since" with
    | None ->
        json_error 400
          "missing required query parameter since (the version the program \
           was compiled against)"
    | Some s -> (
        match int_of_string_opt s with
        | None -> json_error 400 (Printf.sprintf "bad since value %S" s)
        | Some since -> (
            let program = String.trim req.Http.body in
            if program = "" then
              json_error 400 "missing program: send it as the request body"
            else
              let current =
                match Registry.find t.registry name with
                | Some st -> st.Registry.version
                | None -> -1
              in
              let key =
                stream_cache_prefix name
                ^ Printf.sprintf "migrate:%d-%d:" since current
                ^ Digest.to_hex (Digest.string program)
              in
              match Cache.find t.cache key with
              | Some body ->
                  Metrics.incr cache_hits;
                  Http.response
                    ~headers:[ ("x-fsdata-cache", "hit") ]
                    ~status:200 body
              | None -> (
                  Metrics.incr cache_misses;
                  match
                    Evolve.migrate t.registry ~stream:name ~since ~program
                  with
                  | Error err ->
                      let status =
                        match err with
                        | Evolve.No_stream | Evolve.Unknown_version _ -> 404
                        | Evolve.Evicted _ -> 409
                        | Evolve.Parse_error _ -> 400
                        | Evolve.Ill_typed _ | Evolve.Unsupported _ -> 422
                        | Evolve.Internal _ -> 500
                      in
                      let extra =
                        match err with
                        | Evolve.Unknown_version (_, cur) ->
                            [ ("current_version", Dv.Int cur) ]
                        | Evolve.Evicted (_, oldest) ->
                            [ ("oldest_retained", Dv.Int oldest) ]
                        | _ -> []
                      in
                      Http.response ~status
                        (json_body
                           (("error", Dv.String (Fmt.str "%a" Evolve.pp_error err))
                           :: extra))
                  | Ok r ->
                      let body =
                        json_body
                          [
                            ("stream", Dv.String r.Evolve.stream);
                            ("from_version", Dv.Int r.Evolve.from_version);
                            ("to_version", Dv.Int r.Evolve.to_version);
                            ( "old_shape",
                              Dv.String (shape_string r.Evolve.old_shape) );
                            ( "new_shape",
                              Dv.String (shape_string r.Evolve.new_shape) );
                            ( "program",
                              Dv.String
                                (Fsdata_foo.Syntax.expr_to_string
                                   r.Evolve.program) );
                            ( "type",
                              Dv.String
                                (Fmt.str "%a" Fsdata_foo.Syntax.pp_ty
                                   r.Evolve.ty) );
                          ]
                      in
                      Metrics.add cache_evictions
                        (Cache.add ?ttl_ns:(cache_ttl t) t.cache key body);
                      Http.response
                        ~headers:[ ("x-fsdata-cache", "miss") ]
                        ~status:200 body)))

(* How long a watch may park when neither the deadline nor timeout-ms
   says otherwise (direct handler calls in tests; the live server's
   request deadline is always finite and tighter). *)
let watch_default_s = 25.

(* GET /streams/:name/watch?since=V[&timeout-ms=N] — long-poll until the
   stream's version exceeds V (default: its version at arrival, i.e.
   "the next bump"). 200 with the stream fields on a bump, 204 when the
   budget expires first, 503 when the waiter table is full. The wait is
   bounded by the request deadline less a write margin, so the answer
   always beats the socket timeout. *)
let handle_stream_watch t ~deadline name req =
  if req.Http.meth <> "GET" then method_not_allowed "GET"
  else
    match Registry.find t.registry name with
    | None -> json_error 404 (Printf.sprintf "no such stream %S" name)
    | Some st -> (
        let since =
          match Http.query_param req "since" with
          | None -> Ok st.Registry.version
          | Some s -> (
              match int_of_string_opt s with
              | Some v when v >= 0 -> Ok v
              | _ -> Error (Printf.sprintf "bad since value %S" s))
        in
        let timeout_param =
          match Http.query_param req "timeout-ms" with
          | None -> Ok None
          | Some s -> (
              match int_of_string_opt s with
              | Some ms when ms >= 0 -> Ok (Some ms)
              | _ -> Error (Printf.sprintf "bad timeout-ms value %S" s))
        in
        match (since, timeout_param) with
        | Error m, _ | _, Error m -> json_error 400 m
        | Ok since, Ok timeout_param -> (
            let poll () =
              match Registry.find t.registry name with
              | Some st when st.Registry.version > since -> Some st
              | _ -> None
            in
            let budget =
              let from_deadline =
                let r = Deadline.remaining_seconds deadline in
                if r = infinity then infinity else Float.max 0. (r -. 0.05)
              in
              let from_param =
                match timeout_param with
                | Some ms -> float_of_int ms /. 1e3
                | None -> watch_default_s
              in
              Float.min from_deadline from_param
            in
            match Notify.wait t.watch ~key:name ~seconds:budget ~poll with
            | `Ready st ->
                Metrics.incr watch_notified;
                json_ok
                  ~headers:[ ("x-fsdata-watch", "notified") ]
                  (stream_fields st)
            | `Timeout ->
                Metrics.incr watch_timeouts;
                Http.response ~status:204
                  ~headers:[ ("x-fsdata-watch", "timeout") ]
                  ""
            | `Capacity ->
                Metrics.incr watch_shed;
                Metrics.incr shed_total;
                Http.response ~status:503
                  ~headers:[ ("retry-after", "1") ]
                  (json_body
                     [ ("error", Dv.String "too many concurrent watchers") ])))

(* /streams/:name/hooks?url=U — webhook registration. POST registers
   (idempotently; the cursor starts at the current version, recorded
   durably in the WAL), DELETE removes, GET lists with delivery
   cursors. Registration is durable before it is acknowledged: a WAL
   append failure answers 503 and registers nothing. *)
let handle_stream_hooks t name req =
  let url_param () =
    match Http.query_param req "url" with
    | None -> Error "missing required query parameter url"
    | Some url when String.length url > 2048 -> Error "url too long"
    | Some url -> (
        match Fsdata_evolve.Client.parse_url url with
        | Ok _ -> Ok url
        | Error m -> Error m)
  in
  let hook_entry (h : Registry.hook) =
    Dv.Record
      ( Dv.json_record_name,
        [
          ("url", Dv.String h.Registry.url);
          ("delivered", Dv.Int h.Registry.delivered);
        ] )
  in
  let render (st : Registry.stream) =
    json_ok
      [
        ("stream", Dv.String st.Registry.name);
        ("version", Dv.Int st.Registry.version);
        ("hooks", Dv.List (List.map hook_entry st.Registry.hooks));
      ]
  in
  match req.Http.meth with
  | "GET" -> (
      match Registry.find t.registry name with
      | None -> json_error 404 (Printf.sprintf "no such stream %S" name)
      | Some st -> render st)
  | "POST" -> (
      match url_param () with
      | Error m -> json_error 400 m
      | Ok url -> (
          match Registry.add_hook t.registry ~stream:name ~url with
          | exception Unix.Unix_error (e, _, _) ->
              json_error 503
                (Printf.sprintf "storage error, hook not registered: %s"
                   (Unix.error_message e))
          | st -> render st))
  | "DELETE" -> (
      match url_param () with
      | Error m -> json_error 400 m
      | Ok url -> (
          match Registry.remove_hook t.registry ~stream:name ~url with
          | exception Unix.Unix_error (e, _, _) ->
              json_error 503
                (Printf.sprintf "storage error, hook not removed: %s"
                   (Unix.error_message e))
          | None -> json_error 404 (Printf.sprintf "no such stream %S" name)
          | Some st -> render st))
  | _ -> method_not_allowed "GET, POST, DELETE"

(* --- /query and /streams/:name/query — typed query pushdown --- *)

let default_query_limit = 1000

let query_args req =
  match Http.query_param req "q" with
  | None -> Error "missing required query parameter q"
  | Some qtext -> (
      let compiled =
        match Http.query_param req "compiled" with
        | None | Some "0" -> Ok false
        | Some "1" -> Ok true
        | Some v -> Error (Printf.sprintf "bad compiled value %S (use 0 or 1)" v)
      in
      let limit =
        match Http.query_param req "limit" with
        | None -> Ok default_query_limit
        | Some s -> (
            match int_of_string_opt s with
            | Some n when n > 0 -> Ok n
            | _ -> Error (Printf.sprintf "bad limit value %S" s))
      in
      match (compiled, limit) with
      | Error m, _ | _, Error m -> Error m
      | Ok compiled, Ok limit -> (
          match Fsdata_query.Parser.parse_result qtext with
          | Error m -> Error m
          | Ok query ->
              Ok (qtext, Fsdata_query.Syntax.ensure_limit limit query, compiled, limit)))

(* An ill-typed query is a client error: 400 with the Explain-style
   diagnostic split into fields the client can act on. *)
let query_rejection (e : Fsdata_query.Check.error) =
  Http.response ~status:400
    (json_body
       [
         ( "error",
           Dv.String
             (Fmt.str "query rejected: %a" Fsdata_query.Check.pp_error e) );
         ("at", Dv.String e.Fsdata_query.Check.at);
         ("expected", Dv.String e.Fsdata_query.Check.expected);
         ("found", Dv.String (shape_string e.Fsdata_query.Check.found));
       ])

let query_fields ~compiled (checked : Fsdata_query.Check.checked)
    (r : Fsdata_query.Value.result) =
  let st = r.Fsdata_query.Value.stats in
  [
    ("engine", Dv.String (if compiled then "eval_fast" else "eval"));
    ("output_shape", Dv.String (shape_string checked.Fsdata_query.Check.output));
    ( "rows",
      Dv.List
        (List.map Shape_compile.to_data r.Fsdata_query.Value.rows) );
    ("scanned", Dv.Int st.Fsdata_query.Value.scanned);
    ("matched", Dv.Int st.Fsdata_query.Value.matched);
    ("skipped", Dv.Int st.Fsdata_query.Value.skipped);
    ("malformed", Dv.Int st.Fsdata_query.Value.malformed);
  ]

(* POST /query?q=Q[&shape=S][&compiled=0|1][&limit=N] — run Q over the
   whitespace-separated JSON documents of the body. With [shape=] the
   query is checked against that σ and an ill-typed query is rejected
   before the corpus is even parsed; without it σ is first inferred
   from the body. Responses are digest-keyed in the same LRU as
   /infer. *)
let handle_query t ~cancel req =
  if req.Http.meth <> "POST" then method_not_allowed "POST"
  else
    match query_args req with
    | Error m -> json_error 400 m
    | Ok (qtext, query, compiled, limit) -> (
        let shape_param = Http.query_param req "shape" in
        let pre_checked =
          (* the explicit-σ path typechecks before touching the body *)
          match shape_param with
          | None -> Ok None
          | Some text -> (
              match Shape_parser.parse_result text with
              | Error m -> Error (json_error 400 m)
              | Ok sigma -> (
                  let sigma = Shape.hcons sigma in
                  hcons_guard ();
                  match Fsdata_query.Check.check sigma query with
                  | Error e -> Error (query_rejection e)
                  | Ok checked -> Ok (Some checked)))
        in
        match pre_checked with
        | Error resp -> resp
        | Ok pre_checked -> (
            let key =
              Digest.to_hex
                (Digest.string
                   (String.concat "\x00"
                      [
                        "query";
                        qtext;
                        string_of_bool compiled;
                        string_of_int limit;
                        Option.value ~default:"" shape_param;
                        req.Http.body;
                      ]))
            in
            match Cache.find t.cache key with
            | Some body ->
                Metrics.incr cache_hits;
                Http.response
                  ~headers:[ ("x-fsdata-cache", "hit") ]
                  ~status:200 body
            | None -> (
                Metrics.incr cache_misses;
                let checked =
                  match pre_checked with
                  | Some c -> Ok c
                  | None -> (
                      match
                        Infer.run ~cancel ~jobs:1 ~budget:Diagnostic.Strict
                          Json (Infer.Stream req.Http.body)
                      with
                      | Error m -> Error (json_error 422 m)
                      | Ok report -> (
                          let sigma = Shape.hcons report.Infer.shape in
                          hcons_guard ();
                          match Fsdata_query.Check.check sigma query with
                          | Error e -> Error (query_rejection e)
                          | Ok checked -> Ok checked))
                in
                match checked with
                | Error resp -> resp
                | Ok checked ->
                    let result =
                      if compiled then
                        Fsdata_query.Eval_fast.eval ~cancel
                          (Fsdata_query.Eval_fast.compile checked)
                          req.Http.body
                      else Fsdata_query.Eval.eval ~cancel checked req.Http.body
                    in
                    let body = json_body (query_fields ~compiled checked result) in
                    Metrics.add cache_evictions
                      (Cache.add ?ttl_ns:(cache_ttl t) t.cache key body);
                    Http.response
                      ~headers:[ ("x-fsdata-cache", "miss") ]
                      ~status:200 body)))

(* POST /streams/:name/query?q=Q[&compiled=0|1][&limit=N] — run Q over
   the body, checked against the stream's CURRENT shape. Both caches
   carry the stream version in their key, so a version bump re-checks
   the query against the new σ automatically — a plan compiled against
   version N can never serve version N+1 — and a push additionally
   evicts the stream's plans and responses outright. *)
let handle_stream_query t ~cancel name req =
  if req.Http.meth <> "POST" then method_not_allowed "POST"
  else
    match Registry.find t.registry name with
    | None -> json_error 404 (Printf.sprintf "no such stream %S" name)
    | Some st -> (
        match query_args req with
        | Error m -> json_error 400 m
        | Ok (qtext, query, compiled, limit) -> (
            let version = st.Registry.version in
            let vtag =
              Printf.sprintf "v%d:%s:%d:" version
                (if compiled then "fast" else "eval")
                limit
            in
            let resp_key =
              stream_cache_prefix name ^ "query:" ^ vtag
              ^ Digest.to_hex (Digest.string (qtext ^ "\x00" ^ req.Http.body))
            in
            match Cache.find t.cache resp_key with
            | Some body ->
                Metrics.incr cache_hits;
                Http.response
                  ~headers:[ ("x-fsdata-cache", "hit") ]
                  ~status:200 body
            | None -> (
                Metrics.incr cache_misses;
                let plan_key = stream_cache_prefix name ^ "plan:" ^ vtag ^ qtext in
                let entry =
                  match Cache.find t.plans plan_key with
                  | Some e ->
                      Metrics.incr plan_cache_hits;
                      Ok e
                  | None -> (
                      Metrics.incr plan_cache_misses;
                      let sigma = Shape.hcons st.Registry.shape in
                      hcons_guard ();
                      match Fsdata_query.Check.check sigma query with
                      | Error e -> Error (query_rejection e)
                      | Ok checked ->
                          let entry =
                            {
                              pe_checked = checked;
                              pe_fast =
                                (if compiled then
                                   Some (Fsdata_query.Eval_fast.compile checked)
                                 else None);
                            }
                          in
                          ignore (Cache.add t.plans plan_key entry);
                          Ok entry)
                in
                match entry with
                | Error resp -> resp
                | Ok entry ->
                    let result =
                      match entry.pe_fast with
                      | Some plan ->
                          Fsdata_query.Eval_fast.eval ~cancel plan req.Http.body
                      | None ->
                          Fsdata_query.Eval.eval ~cancel entry.pe_checked
                            req.Http.body
                    in
                    let body =
                      json_body
                        (( "stream", Dv.String st.Registry.name )
                         :: ("version", Dv.Int version)
                         :: query_fields ~compiled entry.pe_checked result)
                    in
                    Metrics.add cache_evictions
                      (Cache.add ?ttl_ns:(cache_ttl t) t.cache resp_key body);
                    Http.response
                      ~headers:[ ("x-fsdata-cache", "miss") ]
                      ~status:200 body)))

(* POST /cache/invalidate[?key=K|stream=NAME] — drop cached responses:
   one exact key, one stream's entries, or (with no parameter)
   everything. *)
let handle_cache_invalidate t req =
  if req.Http.meth <> "POST" then method_not_allowed "POST"
  else
    let n =
      match (Http.query_param req "key", Http.query_param req "stream") with
      | Some key, _ -> if Cache.remove t.cache key then 1 else 0
      | None, Some stream ->
          ignore
            (Cache.remove_where t.plans
               (String.starts_with ~prefix:(stream_cache_prefix stream)));
          Cache.remove_where t.cache
            (String.starts_with ~prefix:(stream_cache_prefix stream))
      | None, None ->
          ignore (Cache.clear t.plans);
          Cache.clear t.cache
    in
    Metrics.add cache_invalidations n;
    json_ok [ ("invalidated", Dv.Int n) ]

(* --- routing --- *)

let handle_metrics req =
  if req.Http.meth <> "GET" then method_not_allowed "GET"
  else Http.response ~status:200 (Metrics.to_json ())

(* Health degrades in the order a load balancer should learn about it:
   draining (the process is on its way out) beats overloaded (back off
   and retry), beats ok. Both degraded states answer 503 so the check
   itself is the back-off signal. *)
let handle_healthz t req =
  if req.Http.meth <> "GET" then method_not_allowed "GET"
  else if Atomic.get t.draining then
    Http.response ~status:503 (json_body [ ("status", Dv.String "draining") ])
  else if overloaded t then
    Http.response ~status:503
      ~headers:[ ("retry-after", "1") ]
      (json_body [ ("status", Dv.String "overloaded") ])
  else json_ok [ ("status", Dv.String "ok") ]

(* "/streams/:name/:op" *)
let split_stream_path p =
  match String.split_on_char '/' p with
  | [ ""; "streams"; name; op ] when name <> "" -> Some (name, op)
  | _ -> None

let route t ~cancel ~deadline ~rest req =
  match req.Http.path with
  | "/infer" -> handle_infer t ~cancel ~rest req
  | p -> (
      (* only /infer streams; any other endpoint needs the whole body *)
      let req =
        match rest with
        | None -> req
        | Some rest -> { req with Http.body = Http.read_body_all rest }
      in
      match p with
      | "/check" -> handle_checkish t ~explain:false req
      | "/explain" -> handle_checkish t ~explain:true req
      | "/metrics" -> handle_metrics req
      | "/healthz" -> handle_healthz t req
      | "/cache/invalidate" -> handle_cache_invalidate t req
      | "/query" -> handle_query t ~cancel req
      | p -> (
          match split_stream_path p with
          | Some (name, "push") -> handle_stream_push t ~cancel name req
          | Some (name, "query") -> handle_stream_query t ~cancel name req
          | Some (name, "shape") -> handle_stream_shape t name req
          | Some (name, "history") -> handle_stream_history t name req
          | Some (name, "diff") -> handle_stream_diff t name req
          | Some (name, "migrate") -> handle_stream_migrate t name req
          | Some (name, "watch") -> handle_stream_watch t ~deadline name req
          | Some (name, "hooks") -> handle_stream_hooks t name req
          | _ -> json_error 404 (Printf.sprintf "no such endpoint %s" p)))

let request_counter p =
  if String.starts_with ~prefix:"/streams/" p then req_stream
  else
    match p with
    | "/infer" -> req_infer
    | "/query" -> req_query
    | "/check" -> req_check
    | "/explain" -> req_explain
    | "/metrics" -> req_metrics
    | "/healthz" -> req_healthz
    | _ -> req_other

let handle ?(cancel = Fsdata_data.Cancel.never) ?(deadline = Deadline.never)
    ?rest t req =
  Metrics.incr (request_counter req.Http.path);
  Metrics.gauge_add inflight 1.0;
  let t0 = Clock.now_ns () in
  let resp =
    match route t ~cancel ~deadline ~rest req with
    | resp -> resp
    | exception Fsdata_data.Cancel.Cancelled ->
        (* the deadline tripped mid-inference: the cooperative token cut
           the drivers off between documents *)
        Metrics.incr deadline_expired;
        json_error 504 "deadline exceeded while processing request"
    | exception Deadline.Expired ->
        (* the deadline tripped while pulling a streamed body *)
        Metrics.incr deadline_expired;
        json_error 408 "request timed out reading body"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Metrics.incr deadline_expired;
        json_error 408 "request timed out reading body"
    | exception Http.Bad e ->
        (* a streamed body cut short: the peer closed mid-request *)
        json_error e.Http.status e.Http.reason
    | exception e -> json_error 500 (Printexc.to_string e)
  in
  Metrics.observe latency_ms
    (Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6);
  Metrics.gauge_add inflight (-1.0);
  (Metrics.incr
     (if resp.Http.status < 300 then resp_2xx
      else if resp.Http.status < 500 then resp_4xx
      else resp_5xx));
  resp

(* --- connection handling --- *)

let write_all ?fault fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Fault_net.write_substring fault fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* The client may tighten (never extend) the server deadline for its
   request. *)
let deadline_of_header req =
  match Http.header req "x-fsdata-deadline-ms" with
  | None -> Ok Deadline.never
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some ms when ms > 0 -> Ok (Deadline.after_ms ms)
      | _ -> Error (Printf.sprintf "bad X-Fsdata-Deadline-Ms value %S" v))

(* One keep-alive connection, start to close. Any socket fault (peer
   reset, send timeout, expired deadline) just ends the connection — the
   server never dies for a client's sake. Anything else escaping is a
   crash for the supervisor. *)
let serve_connection t fd =
  Metrics.incr connections;
  let fault = t.cfg.fault in
  let tmo = float_of_int t.cfg.timeout_ms /. 1000. in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO tmo;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO tmo
   with Unix.Unix_error _ -> ());
  let limits = { Http.default_limits with Http.max_body = t.cfg.max_body } in
  let r = Http.reader_of_fd ?fault fd in
  (* Admission bookkeeping lives with the connection: the reserve hook
     records what it took so every exit path — response written, error,
     peer reset — gives the bytes back exactly once. *)
  let reserved = ref 0 in
  let give_back () =
    release t !reserved;
    reserved := 0
  in
  let reserve n =
    try_reserve t n
    && begin
         reserved := !reserved + n;
         true
       end
  in
  let send ~keep_alive resp =
    write_all ?fault fd (Http.serialize_response ~keep_alive resp)
  in
  let rec loop () =
    (* the deadline covers the whole request: header read, body read
       (buffered or streamed) and handler work *)
    Http.set_deadline r (Deadline.after_ms t.cfg.timeout_ms);
    let result =
      Http.read_request_stream ~limits ~reserve
        ~stream_over:t.cfg.stream_threshold r
    in
    match result with
    | Ok None -> give_back ()
    | Error e ->
        Metrics.incr http_errors;
        if e.Http.status = 503 then Metrics.incr shed_total;
        Metrics.incr (if e.Http.status < 500 then resp_4xx else resp_5xx);
        let headers =
          if e.Http.status = 503 then [ ("retry-after", "1") ] else []
        in
        send ~keep_alive:false
          (Http.response ~headers ~status:e.Http.status
             (json_body [ ("error", Dv.String e.Http.reason) ]));
        give_back ()
    | Ok (Some (req, rest)) -> (
        match deadline_of_header req with
        | Error m ->
            (* can't trust the connection state with the body possibly
               unread: answer and close *)
            Metrics.incr resp_4xx;
            send ~keep_alive:false (json_error 400 m);
            give_back ()
        | Ok header_deadline ->
            let deadline =
              Deadline.min
                (Deadline.after_ms t.cfg.timeout_ms)
                header_deadline
            in
            Http.set_deadline r deadline;
            let resp =
              handle ~cancel:(Deadline.cancel deadline) ~deadline ?rest t req
            in
            let body_consumed =
              match rest with
              | None -> true
              | Some rest -> Http.body_remaining rest = 0
            in
            (* during a drain, answer what's in hand but don't linger; a
               part-read streamed body leaves the wire unusable *)
            let ka =
              body_consumed
              && Http.keep_alive req
              && not (Atomic.get t.draining)
            in
            send ~keep_alive:ka resp;
            give_back ();
            if ka then loop ())
  in
  (try loop () with
  | Unix.Unix_error _ | Deadline.Expired -> ()
  | crash ->
      (* a genuine crash (or an injected worker kill): still release the
         budget and the fd, then let the supervisor see it *)
      give_back ();
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise crash);
  give_back ();
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- bounded connection queue --- *)

type conn_queue = {
  items : Unix.file_descr option Queue.t;  (* [None] = worker shutdown *)
  lock : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
}

let queue_create capacity =
  {
    items = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    capacity;
  }

let queue_try_push q fd =
  Mutex.protect q.lock (fun () ->
      if Queue.length q.items >= q.capacity then false
      else begin
        Queue.add (Some fd) q.items;
        Condition.signal q.nonempty;
        true
      end)

let queue_push_sentinel q =
  Mutex.protect q.lock (fun () ->
      Queue.add None q.items;
      Condition.signal q.nonempty)

let queue_pop q =
  Mutex.lock q.lock;
  while Queue.is_empty q.items do
    Condition.wait q.nonempty q.lock
  done;
  let v = Queue.pop q.items in
  Mutex.unlock q.lock;
  v

let rec worker_loop t q =
  match queue_pop q with
  | None -> ()
  | Some fd ->
      serve_connection t fd;
      worker_loop t q

(* --- the accept loop --- *)

let run ?stop ?on_ready cfg =
  Metrics.set_enabled true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* In-process callers (tests) pass their own stop flag and keep the
     process's signal dispositions; standalone serving installs the
     drain-on-SIGINT/SIGTERM handlers. *)
  let stop =
    match stop with
    | Some stop -> stop
    | None ->
        let stop = Atomic.make false in
        let quit _ = Atomic.set stop true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
        stop
  in
  let quiet = on_ready <> None in
  let t = create ~draining:stop cfg in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen sock 128;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  if not quiet then
    Printf.printf "fsdata: serving on http://%s:%d\n%!" cfg.host port;
  (match cfg.port_file with
  | Some path ->
      let oc = open_out path in
      output_string oc (string_of_int port);
      output_char oc '\n';
      close_out oc
  | None -> ());
  (* From here on the port file exists and the socket is live: whatever
     takes the accept loop down — drain or crash — must clean both up,
     or a restarted server would be found through a stale port file. *)
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (try Registry.close t.registry with Unix.Unix_error _ -> ());
    match cfg.port_file with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ()
  in
  Fun.protect ~finally @@ fun () ->
  (match on_ready with Some f -> f port | None -> ());
  let workers = max 1 cfg.workers in
  let depth = if cfg.queue_depth > 0 then cfg.queue_depth else workers * 16 in
  let q = queue_create depth in
  let domains =
    List.init workers (fun i ->
        Domain.spawn (fun () ->
            (* crash-only: an exception out of a connection respawns the
               loop (backoff doubling from 10ms); the queue, the accept
               loop and the other workers never notice *)
            Supervisor.supervise
              ~name:(Printf.sprintf "worker-%d" i)
              ~should_restart:(fun () -> not (Atomic.get stop))
              (fun () -> worker_loop t q)))
  in
  (* the webhook delivery worker: its own domain, same crash-only
     supervision as the request workers *)
  let delivery_domain =
    Domain.spawn (fun () ->
        Supervisor.supervise ~name:"evolve-delivery"
          ~should_restart:(fun () -> not (Atomic.get stop))
          (fun () ->
            Delivery.loop
              ~cfg:
                {
                  Delivery.default_config with
                  Delivery.base_backoff_ms = max 1 cfg.hook_retry_ms;
                }
              ~notify:t.watch
              ~stop:(fun () -> Atomic.get stop)
              t.registry))
  in
  let overloaded =
    Http.serialize_response ~keep_alive:false
      (Http.response
         ~headers:[ ("retry-after", "1") ]
         ~status:503
         (json_body [ ("error", Dv.String "server over capacity") ]))
  in
  while not (Atomic.get stop) do
    (* select with a short timeout so termination signals are honoured
       within a bounded delay even on an idle listener *)
    match Unix.select [ sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept sock with
        | fd, _ ->
            if not (queue_try_push q fd) then begin
              Metrics.incr resp_5xx;
              Metrics.incr shed_total;
              (try write_all fd overloaded with Unix.Unix_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun _ -> queue_push_sentinel q) domains;
  List.iter Domain.join domains;
  Domain.join delivery_domain;
  if not quiet then print_endline "fsdata: shutting down"
