(* Parallel chunked shape inference (Infer.run and its dispatcher).

   The parallel path is a balanced csh tree reduction over per-chunk
   folds, so it computes the same shape as the sequential left fold of
   {!Infer.shape_of_samples} only because csh is an associative,
   commutative least upper bound (Lemma 1). The properties here pin that
   down over shapes that actually arise from data — where the
   labelled-top (Figure 4) and multiplicity (Section 6.4) extensions
   live, and where a merge-order bug would hide — and check the
   sequential ≡ parallel agreement directly for several job counts in
   all three inference modes. *)

module Shape = Fsdata_core.Shape
module Csh = Fsdata_core.Csh
module Infer = Fsdata_core.Infer
module Dv = Fsdata_data.Data_value
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

let modes : (string * Infer.mode) list =
  [ ("paper", `Paper); ("practical", `Practical); ("xml", `Xml) ]

let shape_of mode d = Infer.shape_of_value ~mode d

(* ----- csh algebra properties, over inferred shapes ----- *)

let prop_associative (name, mode) =
  let cmode = Infer.csh_mode mode in
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh associative on inferred shapes (%s)" name)
    ~count:1000
    ~print:(fun (a, b, c) ->
      String.concat " | " (List.map print_data [ a; b; c ]))
    QCheck2.Gen.(triple gen_data gen_data gen_data)
    (fun (a, b, c) ->
      let sa = shape_of mode a
      and sb = shape_of mode b
      and sc = shape_of mode c in
      let csh = Csh.csh ~mode:cmode in
      Shape.equal (csh (csh sa sb) sc) (csh sa (csh sb sc)))

let prop_commutative (name, mode) =
  let cmode = Infer.csh_mode mode in
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh commutative on inferred shapes (%s)" name)
    ~count:1000
    ~print:(fun (a, b) -> String.concat " | " (List.map print_data [ a; b ]))
    QCheck2.Gen.(pair gen_data gen_data)
    (fun (a, b) ->
      let sa = shape_of mode a and sb = shape_of mode b in
      Shape.equal (Csh.csh ~mode:cmode sa sb) (Csh.csh ~mode:cmode sb sa))

let prop_idempotent (name, mode) =
  let cmode = Infer.csh_mode mode in
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh idempotent on inferred shapes (%s)" name)
    ~count:1000
    ~print:(fun (a, b) -> String.concat " | " (List.map print_data [ a; b ]))
    QCheck2.Gen.(pair gen_data gen_data)
    (fun (a, b) ->
      (* Both a bare inferred shape and a csh-composite (which is where
         labelled tops and widened multiplicities appear). *)
      let sa = shape_of mode a in
      let sab = Csh.csh ~mode:cmode sa (shape_of mode b) in
      Shape.equal (Csh.csh ~mode:cmode sa sa) sa
      && Shape.equal (Csh.csh ~mode:cmode sab sab) sab)

(* ----- sequential ≡ parallel ----- *)

let prop_seq_eq_par (name, mode) =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "shape_of_samples ~jobs:k ≡ sequential fold (%s)" name)
    ~count:1000
    ~print:(fun ds -> String.concat " | " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 0 12) gen_data)
    (fun ds ->
      let seq = Infer.shape_of_samples ~mode ds in
      List.for_all
        (fun k -> Shape.equal (Infer.shape_of_samples_par ~mode ~jobs:k ds) seq)
        [ 1; 2; 7 ])

(* Shapes must come from the inference mode that matches the merge mode
   (as Infer.csh_mode pairs them in the pipeline): e.g. `Core collapses
   collection multiplicities to [Multiple] when it merges two
   collections, so feeding it `Practical-inferred shapes (which carry
   [Single]) breaks representation-level associativity through the (eq)
   short-circuit — a mix that never occurs in the pipeline. *)
let prop_csh_tree_eq_fold (name, imode, cmode) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh_tree ≡ left csh fold (%s)" name)
    ~count:1000
    ~print:(fun ds -> String.concat " | " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 0 10) gen_data)
    (fun ds ->
      let shapes = List.map (Infer.shape_of_value ~mode:imode) ds in
      Shape.equal
        (Infer.csh_tree ~mode:cmode shapes)
        (Csh.csh_all ~mode:cmode shapes))

(* ----- regressions ----- *)

let test_empty () =
  List.iter
    (fun (name, mode) ->
      check shape_testable
        (name ^ ": no samples infer bottom, sequentially")
        Shape.Bottom
        (Infer.shape_of_samples ~mode []);
      check shape_testable
        (name ^ ": no samples infer bottom, in parallel")
        Shape.Bottom
        (Infer.shape_of_samples_par ~mode ~jobs:4 []))
    modes

let test_single_sample () =
  let d =
    Dv.Record
      (Dv.json_record_name, [ ("a", Dv.Int 1); ("b", Dv.List [ Dv.Null ]) ])
  in
  List.iter
    (fun (name, mode) ->
      check shape_testable
        (name ^ ": one sample, many jobs")
        (Infer.shape_of_samples ~mode [ d ])
        (Infer.shape_of_samples_par ~mode ~jobs:4 [ d ]))
    modes

let test_more_jobs_than_samples () =
  let ds = [ Dv.Int 1; Dv.Float 2.5; Dv.Null ] in
  List.iter
    (fun (name, mode) ->
      check shape_testable
        (name ^ ": jobs exceed sample count")
        (Infer.shape_of_samples ~mode ds)
        (Infer.shape_of_samples_par ~mode ~jobs:64 ds))
    modes

(* Every chunk infers a different labelled-top arm, so the tree merge
   exercises (top-merge) on every interior node rather than (eq). *)
let test_chunks_hit_distinct_top_arms () =
  let ds =
    [
      Dv.Int 3;
      Dv.Bool true;
      Dv.String "text";
      Dv.Record (Dv.json_record_name, [ ("a", Dv.Int 1) ]);
      Dv.List [ Dv.Int 1; Dv.Int 2 ];
    ]
  in
  List.iter
    (fun (name, mode) ->
      let seq = Infer.shape_of_samples ~mode ds in
      let par = Infer.shape_of_samples_par ~mode ~jobs:5 ds in
      check shape_testable (name ^ ": five one-sample chunks") seq par;
      match par with
      | Shape.Top labels ->
          Alcotest.(check int)
            (name ^ ": all five arms present")
            5 (List.length labels)
      | s -> Alcotest.failf "%s: expected a labelled top, got %s" name
               (Shape.to_string s))
    modes

let test_chunk () =
  let c = Alcotest.(check (list (list int))) in
  c "chunk 1 is the whole list" [ [ 1; 2; 3 ] ] (Infer.chunk 1 [ 1; 2; 3 ]);
  c "chunk of nothing is no chunks" [] (Infer.chunk 4 []);
  c "remainder spreads over the first chunks"
    [ [ 1; 2; 3 ]; [ 4; 5 ] ]
    (Infer.chunk 2 [ 1; 2; 3; 4; 5 ]);
  c "more jobs than elements: singleton chunks"
    [ [ 1 ]; [ 2 ] ]
    (Infer.chunk 5 [ 1; 2 ]);
  let xs = List.init 97 Fun.id in
  Alcotest.(check (list int))
    "concatenating chunks restores the list" xs
    (List.concat (Infer.chunk 7 xs));
  Alcotest.check_raises "zero jobs rejected"
    (Invalid_argument "Infer.chunk: k must be positive") (fun () ->
      ignore (Infer.chunk 0 [ 1 ]))

let test_csh_tree_edges () =
  check shape_testable "empty tree is bottom" Shape.Bottom (Infer.csh_tree []);
  let s = Shape.collection (Shape.Primitive Shape.Int) in
  check shape_testable "singleton tree is its shape" s (Infer.csh_tree [ s ])

(* Parallel parsing reports the same (earliest) error as the sequential
   driver, even when a later chunk also fails. *)
let test_error_semantics () =
  let texts = [ "{\"a\": 1}"; "nope"; "{\"b\": 2}"; "]" ] in
  let result = Alcotest.(result shape_testable string) in
  let seq = strict_shape Json (Samples texts) in
  (match seq with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "sequential driver accepted bad corpus: %s"
              (Shape.to_string s));
  List.iter
    (fun jobs ->
      check result
        (Printf.sprintf "earliest parse error wins at jobs=%d" jobs)
        seq
        (strict_shape ~jobs Json (Samples texts)))
    [ 1; 2; 4; 64 ];
  (* a good corpus round-trips identically *)
  let good = [ "{\"a\": 1}"; "{\"a\": null, \"b\": [1, 2]}"; "3.5" ] in
  check result "good corpus agrees with the sequential driver"
    (strict_shape Json (Samples good))
    (strict_shape ~jobs:3 Json (Samples good))

(* Streaming entry point: chunked parse + parallel inference agrees with
   the all-at-once sequential driver, across chunk sizes that do and do
   not divide the document count. *)
let test_streaming_of_json () =
  let docs =
    List.init 53 (fun i ->
        match i mod 4 with
        | 0 -> Printf.sprintf "{\"id\": %d, \"v\": %d}" i i
        | 1 -> Printf.sprintf "{\"id\": %d, \"v\": %d.5}" i i
        | 2 -> Printf.sprintf "{\"id\": %d, \"note\": null}" i
        | _ -> Printf.sprintf "[%d, true]" i)
  in
  let src = String.concat "\n" docs in
  let seq = strict_shape Json (Samples docs) in
  let result = Alcotest.(result shape_testable string) in
  List.iter
    (fun (jobs, chunk_size) ->
      check result
        (Printf.sprintf "stream jobs=%d chunk_size=%d" jobs chunk_size)
        seq
        (strict_shape ~jobs ~chunk_size Json (Stream src)))
    [ (1, 7); (2, 10); (4, 5); (4, 100) ];
  check result "empty stream is an error"
    (Error "no JSON sample documents found")
    (strict_shape ~jobs:4 Json (Stream "  \n "))

let suite =
  [
    tc "no samples" `Quick test_empty;
    tc "single sample" `Quick test_single_sample;
    tc "more jobs than samples" `Quick test_more_jobs_than_samples;
    tc "distinct top arms per chunk" `Quick test_chunks_hit_distinct_top_arms;
    tc "chunking" `Quick test_chunk;
    tc "csh_tree edge cases" `Quick test_csh_tree_edges;
    tc "parse error semantics" `Quick test_error_semantics;
    tc "streaming of_json" `Quick test_streaming_of_json;
  ]
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_associative m)) modes
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_commutative m)) modes
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_idempotent m)) modes
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_seq_eq_par m)) modes
  @ List.map
      (fun m -> QCheck_alcotest.to_alcotest (prop_csh_tree_eq_fold m))
      [ ("core", `Paper, `Core); ("hetero", `Practical, `Hetero); ("xml", `Xml, `Xml) ]
