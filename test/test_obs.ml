(* Observability (Fsdata_obs): span nesting, merge-at-join attribution,
   counter monotonicity, export formats — and the property that turning
   the instruments on never changes what the pipeline computes.

   Every test restores the disabled state and clears the buffers on the
   way out: the registry is process-global and the rest of the suite
   must keep running uninstrumented. *)

module Trace = Fsdata_obs.Trace
module Metrics = Fsdata_obs.Metrics
module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Json = Fsdata_data.Json
module Dv = Fsdata_data.Data_value
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

(* Run [f] with tracing (and metrics) enabled, then disable and return
   [f ()]'s result together with the recorded spans. *)
let traced f =
  Trace.reset ();
  Metrics.reset ();
  Trace.set_enabled true;
  Metrics.set_enabled true;
  let finish () =
    Trace.set_enabled false;
    Metrics.set_enabled false
  in
  match f () with
  | v ->
      finish ();
      let spans = Trace.spans () in
      Trace.reset ();
      (v, spans)
  | exception e ->
      finish ();
      Trace.reset ();
      raise e

let span_named name spans =
  match List.filter (fun (s : Trace.span) -> s.name = name) spans with
  | [ s ] -> s
  | [] -> Alcotest.failf "no span named %s" name
  | _ -> Alcotest.failf "several spans named %s" name

(* ----- span nesting ----- *)

let test_nesting () =
  let (), spans =
    traced (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () -> ());
            Trace.with_span "inner2" (fun () -> ())))
  in
  check Alcotest.int "three spans" 3 (List.length spans);
  let outer = span_named "outer" spans in
  let inner = span_named "inner" spans in
  let inner2 = span_named "inner2" spans in
  check Alcotest.int "outer is a root" (-1) outer.Trace.parent;
  check Alcotest.int "inner nests under outer" outer.Trace.id inner.Trace.parent;
  check Alcotest.int "inner2 nests under outer" outer.Trace.id
    inner2.Trace.parent;
  check Alcotest.bool "inner contained in outer"
    true
    (Int64.compare inner.Trace.start_ns outer.Trace.start_ns >= 0
    && Int64.compare
         (Int64.add inner.Trace.start_ns inner.Trace.dur_ns)
         (Int64.add outer.Trace.start_ns outer.Trace.dur_ns)
       <= 0)

let test_sibling_after_nested () =
  (* a span opened after a nested one closed is a sibling, not a child *)
  let (), spans =
    traced (fun () ->
        Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ()));
        Trace.with_span "c" (fun () -> ()))
  in
  let a = span_named "a" spans and c = span_named "c" spans in
  check Alcotest.int "c is a root" (-1) c.Trace.parent;
  check Alcotest.int "a is a root" (-1) a.Trace.parent

let test_exception_span () =
  let exception Boom in
  let result =
    traced (fun () ->
        try
          Trace.with_span "raising" (fun () -> raise Boom)
        with Boom -> "caught")
  in
  let v, spans = result in
  check Alcotest.string "exception propagated" "caught" v;
  let s = span_named "raising" spans in
  check Alcotest.bool "span recorded despite raise" true
    (Int64.compare s.Trace.dur_ns 0L >= 0)

let test_args () =
  let (), spans =
    traced (fun () ->
        Trace.with_span ~args:[ ("k", "v") ] "annotated" (fun () -> ()))
  in
  let s = span_named "annotated" spans in
  check
    Alcotest.(list (pair string string))
    "args kept" [ ("k", "v") ] s.Trace.args

(* ----- merge at join: spans never lose their recording domain ----- *)

let test_merge_at_join () =
  let worker_ids, spans =
    traced (fun () ->
        Trace.with_span "parent" (fun () ->
            let ds =
              List.init 3 (fun i ->
                  Domain.spawn (fun () ->
                      Trace.with_span
                        (Printf.sprintf "worker%d" i)
                        (fun () -> (Domain.self () :> int))))
            in
            List.map Domain.join ds))
  in
  check Alcotest.int "four spans" 4 (List.length spans);
  let parent = span_named "parent" spans in
  List.iteri
    (fun i did ->
      let w = span_named (Printf.sprintf "worker%d" i) spans in
      check Alcotest.int
        (Printf.sprintf "worker%d attributed to its own domain" i)
        did w.Trace.domain;
      check Alcotest.bool
        (Printf.sprintf "worker%d not on the joining domain" i)
        true
        (w.Trace.domain <> parent.Trace.domain);
      (* a worker's first span is a root of its own timeline — never a
         child of a span on the spawning domain *)
      check Alcotest.int
        (Printf.sprintf "worker%d is a root in its domain" i)
        (-1) w.Trace.parent)
    worker_ids

(* ----- counters ----- *)

let test_counter_monotonic () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let c = Metrics.counter "test.monotonic" in
  let last = ref (Metrics.value c) in
  for i = 1 to 100 do
    if i mod 3 = 0 then Metrics.add c 2 else Metrics.incr c;
    let v = Metrics.value c in
    check Alcotest.bool "counter never decreases" true (v >= !last);
    last := v
  done;
  Metrics.set_enabled false;
  let frozen = Metrics.value c in
  Metrics.incr c;
  check Alcotest.int "disabled incr is a no-op" frozen (Metrics.value c);
  Metrics.reset ()

let test_counter_concurrent () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let c = Metrics.counter "test.concurrent" in
  let per_domain = 10_000 and domains = 4 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  Metrics.set_enabled false;
  check Alcotest.int "no lost updates across domains" (per_domain * domains)
    (Metrics.value c);
  Metrics.reset ()

let test_histogram_export () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 2.0 ];
  Metrics.set_enabled false;
  let e = Metrics.export () in
  let get k = List.assoc ("test.hist." ^ k) e in
  check Alcotest.bool "count" true (get "count" = `Int 3);
  check Alcotest.bool "sum" true (get "sum" = `Float 6.0);
  check Alcotest.bool "min" true (get "min" = `Float 1.0);
  check Alcotest.bool "max" true (get "max" = `Float 3.0);
  check Alcotest.bool "mean" true (get "mean" = `Float 2.0);
  Metrics.reset ()

(* ----- export formats parse with our own parsers ----- *)

let test_metrics_json_parses () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Metrics.incr (Metrics.counter "test.json_export");
  Metrics.set_enabled false;
  let j = Metrics.to_json () in
  (match Json.parse j with
  | Dv.Record (_, fields) ->
      let keys = List.map fst fields in
      check Alcotest.bool "keys sorted" true
        (keys = List.sort String.compare keys);
      check Alcotest.bool "registered key present" true
        (List.mem "test.json_export" keys)
  | _ -> Alcotest.fail "metrics JSON is not an object");
  Metrics.reset ()

let test_trace_json_parses () =
  Trace.reset ();
  Trace.set_enabled true;
  Trace.with_span "outer" (fun () ->
      Trace.with_span ~args:[ ("n", "1") ] "inner \"quoted\"" (fun () -> ()));
  Trace.set_enabled false;
  let j = Trace.to_trace_event_json () in
  Trace.reset ();
  match Json.parse j with
  | Dv.Record (_, fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Dv.List events) ->
          check Alcotest.int "one event per span" 2 (List.length events);
          List.iter
            (fun ev ->
              match ev with
              | Dv.Record (_, fs) ->
                  List.iter
                    (fun k ->
                      check Alcotest.bool
                        (Printf.sprintf "event has %s" k)
                        true
                        (List.mem_assoc k fs))
                    [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ]
              | _ -> Alcotest.fail "event is not an object")
            events
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "trace JSON is not an object"

(* ----- ingest counters reconcile ----- *)

let test_ingest_reconciliation () =
  let budget = Fsdata_data.Diagnostic.Count 5 in
  (* both faults re-balance their brackets, so a stream resynchronizes
     right after each and sees the same five documents as the samples *)
  let texts =
    [ "{\"a\": 1}"; "{\"a\" 2}"; "{\"a\": 2}"; "[1, tru]"; "{\"a\": 3}" ]
  in
  let src = String.concat "\n" texts in
  let counts label source =
    Metrics.reset ();
    Metrics.set_enabled true;
    let result = Infer.run ~jobs:1 ~budget Json source in
    Metrics.set_enabled false;
    (match result with
    | Ok r ->
        check Alcotest.int (label ^ ": two quarantined") 2
          (List.length r.Infer.quarantined)
    | Error e -> Alcotest.fail e);
    let v name = Metrics.value (Metrics.counter name) in
    check Alcotest.int
      (label ^ ": total = clean + quarantined")
      (v "ingest.samples_total")
      (v "ingest.samples_clean" + v "ingest.samples_quarantined");
    check Alcotest.int (label ^ ": total counts every sample") 5
      (v "ingest.samples_total");
    check Alcotest.int (label ^ ": quarantined counts the faults") 2
      (v "ingest.samples_quarantined");
    List.map v
      [
        "parse.json.documents";
        "ingest.samples_total";
        "ingest.samples_clean";
        "ingest.samples_quarantined";
      ]
  in
  let samples = counts "samples" (Samples texts) in
  check
    Alcotest.(list int)
    "a stream counts what the samples count" samples
    (counts "stream" (Stream src));
  check
    Alcotest.(list int)
    "a feed counts what the samples count" samples
    (counts "feed"
       (Feed (fun push -> String.iter (fun c -> push (String.make 1 c)) src)));
  Metrics.reset ()

(* ----- observability never changes the pipeline's answer ----- *)

let prop_tracing_preserves_shapes jobs =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "enabling observability never changes shapes (jobs %d)"
         jobs)
    ~count:100
    ~print:(fun ds -> String.concat " | " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 12) gen_data)
    (fun ds ->
      let plain = Infer.shape_of_samples_par ~mode:`Practical ~jobs ds in
      let observed, _spans =
        traced (fun () -> Infer.shape_of_samples_par ~mode:`Practical ~jobs ds)
      in
      Shape.equal plain observed)

let suite =
  [
    tc "span nesting records parents" `Quick test_nesting;
    tc "siblings are not nested" `Quick test_sibling_after_nested;
    tc "span recorded when body raises" `Quick test_exception_span;
    tc "span args preserved" `Quick test_args;
    tc "spans keep their domain across join" `Quick test_merge_at_join;
    tc "counter monotonicity" `Quick test_counter_monotonic;
    tc "concurrent counter updates" `Quick test_counter_concurrent;
    tc "histogram export" `Quick test_histogram_export;
    tc "metrics JSON parses, keys sorted" `Quick test_metrics_json_parses;
    tc "trace JSON parses as trace_event" `Quick test_trace_json_parses;
    tc "ingest counters reconcile" `Quick test_ingest_reconciliation;
    QCheck_alcotest.to_alcotest (prop_tracing_preserves_shapes 1);
    QCheck_alcotest.to_alcotest (prop_tracing_preserves_shapes 7);
  ]
