(* The robustness suite: fault-tolerant ingestion under error budgets.

   The central contract, stated as properties over fault-injected corpora
   (see {!Fault_inject}): inference with at most [budget] malformed
   samples quarantined equals strict inference over the clean subset —
   same shape, same totals, and the quarantined indices are exactly the
   corrupted ones — sequentially, in parallel at several job counts, and
   streaming through [Json.fold_many]'s recovering mode. *)

module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Csv = Fsdata_data.Csv
module Xml = Fsdata_data.Xml
module Diagnostic = Fsdata_data.Diagnostic
module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Metrics = Fsdata_obs.Metrics
module Ops = Fsdata_runtime.Ops
open Generators
open Fault_inject

let contains ~affix s = Astring.String.is_infix ~affix s

(* the job counts the acceptance criteria name: sequential, even split,
   and a count that does not divide typical corpus sizes *)
let jobs_grid = [ 1; 2; 7 ]

(* ----- The quarantine contract ----- *)

let report_matches (c : corpus) expect = function
  | Error e -> QCheck2.Test.fail_reportf "tolerant inference failed: %s" e
  | Ok (r : Infer.report) ->
      Shape.equal r.Infer.shape expect
      && r.Infer.total = List.length c.texts
      && List.map (fun q -> q.Infer.q_index) r.Infer.quarantined = c.faulty
      && List.for_all2
           (fun q i -> q.Infer.q_diagnostic.Diagnostic.index = Some i)
           r.Infer.quarantined c.faulty

let budget_for c =
  match List.length c.faulty with
  | 0 -> Diagnostic.Strict
  | k -> Diagnostic.Count k

let prop_samples_tolerant =
  QCheck2.Test.make ~count:100
    ~name:"k ≤ budget faults ≡ clean subset (samples, jobs 1/2/7)"
    ~print:print_corpus (gen_corpus ())
    (fun c ->
      let budget = budget_for c in
      let expect = Infer.shape_of_samples (List.map Json.parse c.clean) in
      List.for_all
        (fun jobs ->
          report_matches c expect
            (Infer.run ~jobs ~budget Json (Samples c.texts)))
        jobs_grid
      (* one fault over budget must fail the whole run *)
      && (c.faulty = []
         ||
         let tight = Diagnostic.Count (List.length c.faulty - 1) in
         List.for_all
           (fun jobs ->
             Result.is_error
               (Infer.run ~jobs ~budget:tight Json (Samples c.texts)))
           [ 1; 2 ]))

(* A fed body is cut into merge batches by documents and bytes consumed,
   never at fragment boundaries, so however the socket reads fall the
   fold sees the same chunks as the buffered stream: the same report,
   and the same number of csh merges, for 1 B, 4 KiB and whole-body
   fragments. *)
let prop_stream_tolerant =
  QCheck2.Test.make ~count:100
    ~name:"k ≤ budget faults ≡ clean subset (streaming, jobs 1/2/7)"
    ~print:print_corpus
    (gen_corpus ~faults:stream_safe_faults ())
    (fun c ->
      let budget = budget_for c in
      let src = String.concat "\n" c.texts in
      let expect = Infer.shape_of_samples (List.map Json.parse c.clean) in
      let merges = Metrics.counter "csh.merges" in
      let run ~jobs source =
        Metrics.set_enabled true;
        let m0 = Metrics.value merges in
        let r =
          Fun.protect
            ~finally:(fun () -> Metrics.set_enabled false)
            (fun () -> Infer.run ~jobs ~chunk_size:3 ~budget Json source)
        in
        (r, Metrics.value merges - m0)
      in
      let fragments size push =
        let n = String.length src in
        let rec go i =
          if i < n then begin
            push (String.sub src i (min size (n - i)));
            go (i + size)
          end
        in
        go 0
      in
      report_matches c expect (Infer.run ~jobs:1 ~budget Json (Stream src))
      && List.for_all
           (fun jobs ->
             let ((report, _) as streamed) = run ~jobs (Stream src) in
             report_matches c expect report
             && List.for_all
                  (fun size -> run ~jobs (Feed (fragments size)) = streamed)
                  [ 1; 4096; max 1 (String.length src) ])
           jobs_grid)

let prop_xml_tolerant =
  QCheck2.Test.make ~count:80
    ~name:"k ≤ budget faults ≡ clean subset (XML samples)"
    ~print:print_corpus (gen_xml_corpus ())
    (fun c ->
      let budget = budget_for c in
      let expect =
        Infer.shape_of_samples ~mode:`Xml
          (List.map
             (fun t -> Xml.to_data ~convert_primitives:false (Xml.parse t))
             c.clean)
      in
      List.for_all
        (fun jobs ->
          report_matches c expect (Infer.run ~jobs ~budget Xml (Samples c.texts)))
        [ 1; 2 ])

(* ----- Compiled-parser parity under error budgets ----- *)

module Sc = Fsdata_core.Shape_compile
module Prim = Fsdata_data.Primitive

(* Mixed corpora separate the two failure currencies: an *unparseable*
   document is quarantined (eating into the error budget) identically on
   the compiled and interpreted paths, while a parseable-but-deviant
   document is data — the compiled decoder falls back to the generic
   path with a conformance diagnostic and must never touch the budget. *)
let prop_compiled_ingestion_parity =
  QCheck2.Test.make ~count:100
    ~name:"compiled ingestion ≡ interpreted under budgets (jobs 1/7)"
    ~print:print_mixed_corpus (gen_mixed_corpus ())
    (fun m ->
      let src = String.concat "\n" m.m_texts in
      let sigma =
        Shape.hcons (Infer.shape_of_samples (List.map Json.parse m.m_clean))
      in
      let compiled = Sc.compile sigma in
      (* interpreted reference: recovering fold_many *)
      let gen_errs = ref [] in
      let docs =
        Json.fold_many
          ~on_error:(fun d ~skipped -> gen_errs := (d, skipped) :: !gen_errs)
          (fun acc ds -> acc @ ds)
          [] src
      in
      let comp_errs = ref [] and fbs = ref [] in
      let vs, st =
        Sc.parse_corpus
          ~on_fallback:(fun d -> fbs := d :: !fbs)
          ~on_error:(fun d ~skipped -> comp_errs := (d, skipped) :: !comp_errs)
          compiled src
      in
      let comp_errs = List.rev !comp_errs
      and gen_errs = List.rev !gen_errs
      and fbs = List.rev !fbs in
      (* survivors, paired with their global stream indices *)
      let surviving =
        List.init (List.length m.m_texts) Fun.id
        |> List.filter (fun i -> not (List.mem i m.m_malformed))
        |> fun idx -> List.combine idx docs
      in
      let expected_fb =
        List.filter_map
          (fun (i, d) ->
            Option.map (Diagnostic.with_index i)
              (Sc.diagnose sigma (Prim.normalize d)))
          surviving
      in
      (* quarantine parity: same documents, same diagnostics, same text *)
      List.length comp_errs = List.length gen_errs
      && List.for_all2
           (fun (d1, s1) (d2, s2) -> diag_equal d1 d2 && String.equal s1 s2)
           comp_errs gen_errs
      && List.map (fun (d, _) -> d.Diagnostic.index) comp_errs
         = List.map Option.some m.m_malformed
      && st.Sc.skipped = List.length m.m_malformed
      (* survivor values equal the interpreted convert-or-fallback *)
      && List.length vs = List.length docs
      && List.for_all2
           (fun v (_, d) ->
             let n = Prim.normalize d in
             let r =
               match Sc.convert sigma n with
               | v -> v
               | exception Sc.Mismatch -> Sc.Vany n
             in
             Sc.equal_tvalue v r)
           vs surviving
      (* fallbacks carry exactly the strict path's diagnoses, and only
         deviant documents fall back (inference soundness keeps every
         clean document on the direct path) *)
      && st.Sc.fallback = List.length expected_fb
      && List.for_all2 diag_equal fbs expected_fb
      && List.for_all
           (fun (d : Diagnostic.t) ->
             match d.Diagnostic.index with
             | Some i -> List.mem i m.m_deviant
             | None -> false)
           fbs
      && st.Sc.direct = List.length docs - List.length expected_fb
      (* the budget counts malformed documents only: |malformed| absorbs
         the corpus at jobs 1 and 7, deviants notwithstanding; one less
         fails *)
      && (let budget =
            match m.m_malformed with
            | [] -> Diagnostic.Strict
            | l -> Diagnostic.Count (List.length l)
          in
          List.for_all
            (fun jobs ->
              match Infer.run ~jobs ~chunk_size:3 ~budget Json (Stream src) with
              | Error e ->
                  QCheck2.Test.fail_reportf "tolerant ingestion failed: %s" e
              | Ok r ->
                  List.map (fun q -> q.Infer.q_index) r.Infer.quarantined
                  = m.m_malformed
                  && r.Infer.total = List.length m.m_texts)
            [ 1; 7 ])
      && (m.m_malformed = []
         || Result.is_error
              (Infer.run ~jobs:7 ~chunk_size:3
                 ~budget:(Diagnostic.Count (List.length m.m_malformed - 1))
                 Json (Stream src))))

(* ----- Per-sample isolation across domain chunks ----- *)

(* Poisoned samples at a chunk boundary: with jobs=2 over 8 samples the
   split is [0..3][4..7], so indices 3 and 4 poison the last sample of
   one chunk and the first of the next. Quarantine must name the global
   indices whatever the chunking. *)
let test_chunk_boundary_poison () =
  let texts =
    List.init 8 (fun i ->
        if i = 3 || i = 4 then "{\"v\": " else Printf.sprintf "{\"v\": %d}" i)
  in
  let clean = List.filter (fun t -> contains ~affix:"}" t) texts in
  let expect = Infer.shape_of_samples (List.map Json.parse clean) in
  List.iter
    (fun jobs ->
      match Infer.run ~jobs ~budget:(Diagnostic.Count 2) Json (Samples texts) with
      | Error e -> Alcotest.failf "jobs=%d: %s" jobs e
      | Ok r ->
          Alcotest.(check (list int))
            (Printf.sprintf "global indices at jobs=%d" jobs)
            [ 3; 4 ]
            (List.map (fun q -> q.Infer.q_index) r.Infer.quarantined);
          List.iter
            (fun (q : Infer.quarantined) ->
              Alcotest.(check (option int))
                "diagnostic carries the global index" (Some q.Infer.q_index)
                q.Infer.q_diagnostic.Diagnostic.index)
            r.Infer.quarantined;
          Alcotest.check shape_testable
            (Printf.sprintf "clean-subset shape at jobs=%d" jobs)
            expect r.Infer.shape;
          Alcotest.(check int) "total counts every sample" 8 r.Infer.total)
    [ 1; 2; 4; 7; 8 ];
  (* a strict parallel run reports the earliest fault as a result,
     never as an exception escaping Domain.join *)
  match strict_shape ~jobs:4 Json (Samples texts) with
  | Ok _ -> Alcotest.fail "strict driver accepted a poisoned corpus"
  | Error e ->
      let seq =
        match strict_shape Json (Samples texts) with
        | Error e -> e
        | Ok _ -> Alcotest.fail "sequential driver accepted a poisoned corpus"
      in
      Alcotest.(check string) "earliest-fault parity with sequential" seq e

(* The isolation boundary converts even non-parse exceptions into an
   indexed diagnostic — a crash in one worker's sample must surface as a
   quarantine naming that sample, not kill the run. *)
let test_worker_crash_attributed () =
  match
    Infer.shape_of_sample ~mode:`Practical ~format:Diagnostic.Json ~index:42
      ~parse:(fun _ -> failwith "boom") "{}"
  with
  | Ok _ -> Alcotest.fail "expected the crash to surface"
  | Error d ->
      Alcotest.(check (option int)) "global index" (Some 42) d.Diagnostic.index;
      Alcotest.(check bool) "names the exception" true
        (contains ~affix:"boom" d.Diagnostic.message);
      Alcotest.(check bool) "flagged as unexpected" true
        (contains ~affix:"unexpected error" d.Diagnostic.message)

(* ----- JSON resynchronization ----- *)

let parse_record s = Json.parse s

let test_fold_many_resync_structural () =
  (* the garbage document is balanced: recovery is the '}' that
     re-balances it, and only that document is lost *)
  let errs = ref [] in
  let docs =
    Json.fold_many ~chunk_size:2
      ~on_error:(fun d ~skipped -> errs := (d, skipped) :: !errs)
      (fun acc ds -> acc @ ds)
      []
      "{\"a\": 1}\n{\"a\" 2}\n{\"a\": 3}"
  in
  Alcotest.(check (list data_testable))
    "clean documents survive"
    [ parse_record "{\"a\": 1}"; parse_record "{\"a\": 3}" ]
    docs;
  match !errs with
  | [ (d, skipped) ] ->
      Alcotest.(check (option int)) "stream index" (Some 1) d.Diagnostic.index;
      Alcotest.(check string) "skipped text" "{\"a\" 2}" skipped
  | es -> Alcotest.failf "expected one skip, got %d" (List.length es)

let test_fold_many_resync_newline () =
  (* brackets never re-balance ('{' without '}'): recovery falls back to
     the next line starting with '{' *)
  let errs = ref [] in
  let docs =
    Json.fold_many
      ~on_error:(fun d ~skipped -> errs := (d, skipped) :: !errs)
      (fun acc ds -> acc @ ds)
      [] "{\"a\": tru\n{\"b\": 2}"
  in
  Alcotest.(check (list data_testable))
    "resumes at the next document opener"
    [ parse_record "{\"b\": 2}" ]
    docs;
  match !errs with
  | [ (d, skipped) ] ->
      Alcotest.(check (option int)) "stream index" (Some 0) d.Diagnostic.index;
      Alcotest.(check string) "skipped text" "{\"a\": tru" skipped
  | es -> Alcotest.failf "expected one skip, got %d" (List.length es)

let test_fold_many_truncated_tail () =
  let errs = ref [] in
  let docs =
    Json.fold_many
      ~on_error:(fun d ~skipped -> errs := (d, skipped) :: !errs)
      (fun acc ds -> acc @ ds)
      [] "{\"a\": 1}\n{\"b\":"
  in
  Alcotest.(check (list data_testable))
    "documents before the truncation survive"
    [ parse_record "{\"a\": 1}" ]
    docs;
  match !errs with
  | [ (d, skipped) ] ->
      Alcotest.(check (option int)) "stream index" (Some 1) d.Diagnostic.index;
      Alcotest.(check string) "skipped text" "{\"b\":" skipped
  | es -> Alcotest.failf "expected one skip, got %d" (List.length es)

let test_fold_many_strict_unchanged () =
  (* without [on_error] the first fault still raises the legacy
     exception, exactly as before *)
  match
    Json.fold_many (fun acc ds -> acc @ ds) [] "{\"a\": 1}\n{\"a\" 2}"
  with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Json.Parse_error { line; _ } ->
      Alcotest.(check int) "stream-global line" 2 line

let test_cursor_recovering () =
  let errs = ref [] in
  let cur =
    Json.Cursor.create
      ~on_error:(fun d ~skipped -> errs := (d, skipped) :: !errs)
      ()
  in
  (* the fault is fed split across fragments: its recovery boundary (the
     balancing '}') only arrives in the second feed, so judgement is
     held until then *)
  let d1 = Json.Cursor.feed cur "{\"a\": 1}\n{\"a\" 2" in
  Alcotest.(check (list data_testable))
    "first fragment yields the clean document"
    [ parse_record "{\"a\": 1}" ]
    d1;
  Alcotest.(check int) "fault held back until its boundary arrives" 0
    (List.length !errs);
  let d2 = Json.Cursor.feed cur "}\n{\"a\": 3}" in
  Alcotest.(check (list data_testable))
    "recovery resumes within the second fragment"
    [ parse_record "{\"a\": 3}" ]
    d2;
  let d3 = Json.Cursor.finish cur in
  Alcotest.(check (list data_testable)) "no retained tail" [] d3;
  match !errs with
  | [ (d, skipped) ] ->
      Alcotest.(check (option int)) "stream index" (Some 1) d.Diagnostic.index;
      Alcotest.(check string) "skipped text" "{\"a\" 2}" skipped
  | es -> Alcotest.failf "expected one skip, got %d" (List.length es)

let test_cursor_recovering_finish () =
  let errs = ref [] in
  let cur =
    Json.Cursor.create
      ~on_error:(fun d ~skipped -> errs := (d, skipped) :: !errs)
      ()
  in
  let d1 = Json.Cursor.feed cur "{\"a\": 1}\n{\"b\":" in
  let d2 = Json.Cursor.finish cur in
  Alcotest.(check (list data_testable))
    "clean document parsed"
    [ parse_record "{\"a\": 1}" ]
    (d1 @ d2);
  match !errs with
  | [ (d, _) ] ->
      Alcotest.(check (option int))
        "truncated tail reported at finish" (Some 1) d.Diagnostic.index
  | es -> Alcotest.failf "expected one skip, got %d" (List.length es)

(* ----- CSV column positions ----- *)

let test_csv_unterminated_quote_position () =
  match Csv.parse_diag "a,b\n\"x,y\n" with
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error d ->
      Alcotest.(check int) "line of the opening quote" 2 d.Diagnostic.line;
      Alcotest.(check int) "column of the opening quote" 1 d.Diagnostic.column;
      Alcotest.(check bool) "names the fault" true
        (contains ~affix:"unterminated" d.Diagnostic.message)

let test_csv_arity_position () =
  (* "1,2,3" against a two-column header: the first extra cell is "3",
     at column 5 *)
  (match Csv.parse_diag "a,b\n1,2,3\n" with
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error d ->
      Alcotest.(check int) "line" 2 d.Diagnostic.line;
      Alcotest.(check int) "column of the first extra cell" 5
        d.Diagnostic.column);
  (* a preceding quoted cell spanning lines 2-3 must not throw off the
     positions of the ragged row on line 4 *)
  match Csv.parse_diag "a,b\n\"x\ny\",2\n1,2,3\n" with
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error d ->
      Alcotest.(check int) "line after a multi-line quoted cell" 4
        d.Diagnostic.line;
      Alcotest.(check int) "column" 5 d.Diagnostic.column

let test_csv_legacy_exception () =
  (* the legacy line-only exception is preserved as a thin wrapper *)
  match Csv.parse "a,b\n1,2,3\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Csv.Parse_error { line; message } ->
      Alcotest.(check int) "line" 2 line;
      Alcotest.(check bool) "arity message" true
        (contains ~affix:"3 cells" message)

let test_csv_tolerant_quarantines_ragged () =
  let errs = ref [] in
  match
    Csv.parse_tolerant
      ~on_error:(fun d ~skipped -> errs := (d, skipped) :: !errs)
      "a,b\n1,2\n1,2,3,4\n3,4\n"
  with
  | Error d -> Alcotest.failf "unexpected fatal: %s" (Diagnostic.message_of d)
  | Ok table -> (
      Alcotest.(check (list (list string)))
        "ragged row dropped, clean rows kept"
        [ [ "1"; "2" ]; [ "3"; "4" ] ]
        table.Csv.rows;
      match !errs with
      | [ (d, skipped) ] ->
          Alcotest.(check (option int))
            "0-based data-row index" (Some 1) d.Diagnostic.index;
          Alcotest.(check string) "row re-serialized" "1,2,3,4" skipped;
          Alcotest.(check int) "column of first extra cell" 5
            d.Diagnostic.column
      | es -> Alcotest.failf "expected one skip, got %d" (List.length es))

let test_csv_tolerant_inference () =
  let faulty = ragged_csv ~headers:[ "a"; "b" ]
      ~rows:[ [ "1"; "2" ]; [ "5"; "6" ]; [ "3"; "4" ] ]
      ~ragged:[ 1 ]
  in
  let clean =
    ragged_csv ~headers:[ "a"; "b" ]
      ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ]
      ~ragged:[]
  in
  let expect =
    match strict_shape Csv (Stream clean) with
    | Ok s -> s
    | Error e -> Alcotest.failf "clean CSV failed: %s" e
  in
  (match Infer.run ~jobs:1 ~budget:(Diagnostic.Count 1) Csv (Stream faulty) with
  | Error e -> Alcotest.failf "tolerant CSV failed: %s" e
  | Ok r ->
      Alcotest.check shape_testable "clean-subset shape" expect r.Infer.shape;
      Alcotest.(check int) "total counts the ragged row" 3 r.Infer.total;
      Alcotest.(check (list int))
        "quarantined data-row indices" [ 1 ]
        (List.map (fun q -> q.Infer.q_index) r.Infer.quarantined));
  (* a structural fault stays fatal whatever the budget *)
  match
    Infer.run ~jobs:1 ~budget:(Diagnostic.Count 99) Csv (Stream "a,b\n\"x\n")
  with
  | Ok _ -> Alcotest.fail "unterminated quote must stay fatal"
  | Error e ->
      Alcotest.(check bool) "names the fault" true
        (contains ~affix:"unterminated" e)

(* ----- Error budgets ----- *)

let budget_testable =
  Alcotest.testable
    (fun ppf b -> Fmt.string ppf (Diagnostic.budget_to_string b))
    ( = )

let test_budget_parsing () =
  let ok s = Result.get_ok (Diagnostic.budget_of_string s) in
  Alcotest.check budget_testable "0 is strict" Diagnostic.Strict (ok "0");
  Alcotest.check budget_testable "count" (Diagnostic.Count 5) (ok "5");
  Alcotest.check budget_testable "percent" (Diagnostic.Percent 10.) (ok "10%");
  Alcotest.check budget_testable "fractional percent"
    (Diagnostic.Percent 2.5) (ok "2.5%");
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Diagnostic.budget_of_string s)))
    [ ""; "abc"; "-1"; "-3%"; "101%"; "5.5" ]

let test_budget_allows () =
  let allows b errors total = Diagnostic.allows b ~errors ~total in
  Alcotest.(check bool) "strict allows zero" true
    (allows Diagnostic.Strict 0 10);
  Alcotest.(check bool) "strict refuses one" false
    (allows Diagnostic.Strict 1 10);
  Alcotest.(check bool) "count at the limit" true
    (allows (Diagnostic.Count 2) 2 10);
  Alcotest.(check bool) "count above the limit" false
    (allows (Diagnostic.Count 2) 3 10);
  Alcotest.(check bool) "percent at the boundary" true
    (allows (Diagnostic.Percent 20.) 2 10);
  Alcotest.(check bool) "percent above the boundary" false
    (allows (Diagnostic.Percent 20.) 3 10)

let test_percent_budget_end_to_end () =
  let texts =
    List.init 10 (fun i ->
        if i = 2 || i = 7 then "{\"v\":" else Printf.sprintf "{\"v\": %d}" i)
  in
  (match
     Infer.run ~jobs:1 ~budget:(Diagnostic.Percent 20.) Json (Samples texts)
   with
  | Ok r ->
      Alcotest.(check (list int))
        "both faults quarantined" [ 2; 7 ]
        (List.map (fun q -> q.Infer.q_index) r.Infer.quarantined)
  | Error e -> Alcotest.failf "20%% budget should absorb 2/10: %s" e);
  match
    Infer.run ~jobs:1 ~budget:(Diagnostic.Percent 10.) Json (Samples texts)
  with
  | Ok _ -> Alcotest.fail "10% budget cannot absorb 2/10"
  | Error e ->
      Alcotest.(check bool) "budget message names the first fault" true
        (contains ~affix:"error budget exceeded" e
        && contains ~affix:"document 2" e)

let test_diagnostic_to_json () =
  let d =
    Diagnostic.make ~index:7 ~format:Diagnostic.Json ~line:3 ~column:10
      "unterminated string"
  in
  match Diagnostic.to_json d with
  | Dv.Record (_, fields) ->
      let assoc k = List.assoc k fields in
      Alcotest.check data_testable "format" (Dv.String "json") (assoc "format");
      Alcotest.check data_testable "index" (Dv.Int 7) (assoc "index");
      Alcotest.check data_testable "line" (Dv.Int 3) (assoc "line");
      Alcotest.check data_testable "column" (Dv.Int 10) (assoc "column");
      Alcotest.check data_testable "severity" (Dv.String "error")
        (assoc "severity");
      Alcotest.check data_testable "message"
        (Dv.String "unterminated string")
        (assoc "message")
  | d -> Alcotest.failf "expected a record, got %s" (Dv.to_string d)

(* ----- Structured conversion errors (runtime) ----- *)

let test_ops_structured_error () =
  match Ops.conv_int (Dv.String "x") with
  | _ -> Alcotest.fail "expected Conversion_error"
  | exception Ops.Conversion_error e ->
      Alcotest.(check string) "op" "convPrim(int)" e.Ops.op;
      Alcotest.(check string) "expected shape" "int" e.Ops.expected;
      Alcotest.(check bool) "actual value summarized" true
        (contains ~affix:"x" e.Ops.actual);
      Alcotest.(check (list string)) "no path outside accessors" [] e.Ops.path

let test_ops_with_path () =
  match
    Ops.with_path "Root"
      (fun () -> Ops.with_path "Temp" (fun () -> Ops.conv_int (Dv.String "x")))
  with
  | _ -> Alcotest.fail "expected Conversion_error"
  | exception Ops.Conversion_error e ->
      Alcotest.(check (list string))
        "access path outermost-first" [ "Root"; "Temp" ] e.Ops.path;
      Alcotest.(check bool) "message renders the path" true
        (contains ~affix:"at Root.Temp" (Ops.error_message e));
      Alcotest.(check bool) "message renders the expectation" true
        (contains ~affix:"expected int" (Ops.error_message e))

let test_ops_lenient () =
  Alcotest.(check (option int)) "int passes" (Some 3)
    (Ops.conv_int_opt (Dv.Int 3));
  Alcotest.(check (option int)) "mismatch is None" None
    (Ops.conv_int_opt (Dv.String "x"));
  Alcotest.(check (option string)) "string passes" (Some "hi")
    (Ops.conv_string_opt (Dv.String "hi"));
  Alcotest.(check (option bool)) "bit converts" (Some true)
    (Ops.conv_bit_bool_opt (Dv.Int 1));
  Alcotest.(check (option bool)) "non-bit is None" None
    (Ops.conv_bit_bool_opt (Dv.Int 2));
  Alcotest.(check bool) "date parses" true
    (Option.is_some (Ops.conv_date_opt (Dv.String "2012-05-01")));
  Alcotest.(check bool) "non-date is None" true
    (Option.is_none (Ops.conv_date_opt (Dv.Int 3)));
  let record = Dv.Record ("row", [ ("a", Dv.Int 1) ]) in
  Alcotest.(check (option data_testable))
    "field of a matching record" (Some (Dv.Int 1))
    (Ops.conv_field_opt ~record:"row" ~field:"a" record);
  Alcotest.(check (option data_testable))
    "missing field reads null" (Some Dv.Null)
    (Ops.conv_field_opt ~record:"row" ~field:"b" record);
  Alcotest.(check (option data_testable))
    "wrong record name is None" None
    (Ops.conv_field_opt ~record:"other" ~field:"a" record);
  Alcotest.(check (option (list int))) "elements map" (Some [ 1; 2 ])
    (Ops.conv_elements_opt Ops.conv_int (Dv.List [ Dv.Int 1; Dv.Int 2 ]));
  Alcotest.(check (option (list int))) "non-collection is None" None
    (Ops.conv_elements_opt Ops.conv_int (Dv.Int 1));
  let shape = Shape.Primitive Shape.Int in
  Alcotest.(check (option int)) "matching element selected" (Some 1)
    (Ops.select_single_opt shape Ops.conv_int
       (Dv.List [ Dv.String "no"; Dv.Int 1 ]));
  Alcotest.(check (option int)) "no match is None" None
    (Ops.select_single_opt shape Ops.conv_int (Dv.List [ Dv.String "no" ]))

let suite =
  [
    Alcotest.test_case "chunk-boundary poison (par)" `Quick
      test_chunk_boundary_poison;
    Alcotest.test_case "worker crash attributed" `Quick
      test_worker_crash_attributed;
    Alcotest.test_case "fold_many resync: structural" `Quick
      test_fold_many_resync_structural;
    Alcotest.test_case "fold_many resync: newline fallback" `Quick
      test_fold_many_resync_newline;
    Alcotest.test_case "fold_many resync: truncated tail" `Quick
      test_fold_many_truncated_tail;
    Alcotest.test_case "fold_many strict unchanged" `Quick
      test_fold_many_strict_unchanged;
    Alcotest.test_case "cursor: recovery across feeds" `Quick
      test_cursor_recovering;
    Alcotest.test_case "cursor: fault at finish" `Quick
      test_cursor_recovering_finish;
    Alcotest.test_case "csv: unterminated-quote position" `Quick
      test_csv_unterminated_quote_position;
    Alcotest.test_case "csv: arity position" `Quick test_csv_arity_position;
    Alcotest.test_case "csv: legacy exception" `Quick test_csv_legacy_exception;
    Alcotest.test_case "csv: tolerant parse quarantines ragged rows" `Quick
      test_csv_tolerant_quarantines_ragged;
    Alcotest.test_case "csv: tolerant inference" `Quick
      test_csv_tolerant_inference;
    Alcotest.test_case "budget parsing" `Quick test_budget_parsing;
    Alcotest.test_case "budget allows" `Quick test_budget_allows;
    Alcotest.test_case "percent budget end to end" `Quick
      test_percent_budget_end_to_end;
    Alcotest.test_case "diagnostic to_json" `Quick test_diagnostic_to_json;
    Alcotest.test_case "ops: structured error" `Quick test_ops_structured_error;
    Alcotest.test_case "ops: with_path attribution" `Quick test_ops_with_path;
    Alcotest.test_case "ops: lenient variants" `Quick test_ops_lenient;
    QCheck_alcotest.to_alcotest prop_samples_tolerant;
    QCheck_alcotest.to_alcotest prop_stream_tolerant;
    QCheck_alcotest.to_alcotest prop_xml_tolerant;
    QCheck_alcotest.to_alcotest prop_compiled_ingestion_parity;
  ]
