(* Shape inference from samples (Figure 3) and the format entry points.

   Covers every equation of S(·), the worked examples of Sections 1, 2.1,
   2.2, 2.3 and 6.2, multi-sample folding, and inference properties
   (specificity, permutation stability, csh consistency). *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
module Infer = Fsdata_core.Infer
module Csh = Fsdata_core.Csh
module P = Fsdata_core.Preference
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

let int_ = Shape.Primitive Shape.Int
let float_ = Shape.Primitive Shape.Float
let bool_ = Shape.Primitive Shape.Bool
let string_ = Shape.Primitive Shape.String
let s_paper = Infer.shape_of_value ~mode:`Paper
let s_prac = Infer.shape_of_value ~mode:`Practical
let eq name expected actual = check shape_testable name expected actual

(* Figure 3, primitive equations. *)
let test_s_primitives () =
  eq "S(i) = int" int_ (s_paper (Dv.Int 42));
  eq "S(f) = float" float_ (s_paper (Dv.Float 1.5));
  eq "S(true) = bool" bool_ (s_paper (Dv.Bool true));
  eq "S(false) = bool" bool_ (s_paper (Dv.Bool false));
  eq "S(s) = string" string_ (s_paper (Dv.String "2012"));
  eq "S(null) = null" Shape.Null (s_paper Dv.Null)

let test_s_practical_strings () =
  eq "practical: \"2012\" is int" int_ (s_prac (Dv.String "2012"));
  eq "practical: \"35.14\" is float" float_ (s_prac (Dv.String "35.14"));
  eq "practical: \"true\" is bool" bool_ (s_prac (Dv.String "true"));
  eq "practical: \"0\" is bit0" (Shape.Primitive Shape.Bit0) (s_prac (Dv.String "0"));
  eq "practical: \"1\" is bit1" (Shape.Primitive Shape.Bit1) (s_prac (Dv.String "1"));
  eq "practical: date string" (Shape.Primitive Shape.Date)
    (s_prac (Dv.String "2012-05-01"));
  eq "practical: missing marker is null" Shape.Null (s_prac (Dv.String "#N/A"));
  eq "practical: text is string" string_ (s_prac (Dv.String "hello"));
  eq "practical: ints stay int" int_ (s_prac (Dv.Int 1))

let test_s_records () =
  eq "record fields inferred"
    (Shape.record "p" [ ("x", int_); ("y", Shape.Null) ])
    (s_paper (Dv.Record ("p", [ ("x", Dv.Int 1); ("y", Dv.Null) ])))

let test_s_collections_paper () =
  eq "S([]) = [⊥]" (Shape.collection Shape.Bottom) (s_paper (Dv.List []));
  eq "S([1;2]) = [int]" (Shape.collection int_)
    (s_paper (Dv.List [ Dv.Int 1; Dv.Int 2 ]));
  eq "S([1;2.5]) = [float]" (Shape.collection float_)
    (s_paper (Dv.List [ Dv.Int 1; Dv.Float 2.5 ]));
  eq "S([1;null]) = [nullable int]"
    (Shape.collection (Shape.Nullable int_))
    (s_paper (Dv.List [ Dv.Int 1; Dv.Null ]));
  eq "S([1;true]) = [any⟨int,bool⟩]"
    (Shape.collection (Shape.top [ int_; bool_ ]))
    (s_paper (Dv.List [ Dv.Int 1; Dv.Bool true ]))

let test_s_collections_hetero () =
  eq "hetero: counts give multiplicities"
    (Shape.hetero [ (int_, Mult.Multiple); (string_, Mult.Single) ])
    (s_prac (Dv.List [ Dv.Int 1; Dv.String "xyz z"; Dv.Int 2 ]));
  eq "hetero: null elements get their own entry"
    (Shape.hetero [ (Shape.Null, Mult.Single); (int_, Mult.Single) ])
    (s_prac (Dv.List [ Dv.Int 1; Dv.Null ]));
  eq "hetero: same-tag shapes join"
    (Shape.collection float_)
    (s_prac (Dv.List [ Dv.Int 1; Dv.Float 2.5 ]))

let test_multi_sample () =
  let d1 = Dv.Record ("p", [ ("x", Dv.Int 1) ]) in
  let d2 = Dv.Record ("p", [ ("x", Dv.Float 2.5); ("y", Dv.Bool true) ]) in
  eq "S(d1,d2) folds csh"
    (Shape.record "p" [ ("x", float_); ("y", Shape.nullable bool_) ])
    (Infer.shape_of_samples ~mode:`Paper [ d1; d2 ]);
  eq "empty sample list is bottom" Shape.Bottom (Infer.shape_of_samples []);
  eq "single sample" (s_paper d1) (Infer.shape_of_samples ~mode:`Paper [ d1 ])

(* ----- the paper's worked examples ----- *)

let ok = function Ok s -> s | Error e -> Alcotest.fail e

let test_people_json () =
  let people =
    {|[ { "name":"Jan", "age":25 },
        { "name":"Tomas" },
        { "name":"Alexander", "age":3.5 } ]|}
  in
  eq "Section 2.1: name string, age optional float"
    (Shape.collection
       (Shape.record Dv.json_record_name
          [ ("name", string_); ("age", Shape.Nullable float_) ]))
    (ok (strict_shape Json (Stream people)))

let test_worldbank_json () =
  let wb =
    {|[ { "pages": 5 },
        [ { "indicator": "GC.DOD.TOTL.GD.ZS", "date": "2012", "value": null },
          { "indicator": "GC.DOD.TOTL.GD.ZS", "date": "2010", "value": "35.14229" } ] ]|}
  in
  eq "Section 2.3: heterogeneous collection with multiplicities"
    (Shape.hetero
       [
         (Shape.record Dv.json_record_name [ ("pages", int_) ], Mult.Single);
         ( Shape.collection
             (Shape.record Dv.json_record_name
                [
                  ("indicator", string_);
                  ("date", int_);
                  ("value", Shape.Nullable float_);
                ]),
           Mult.Single );
       ])
    (ok (strict_shape Json (Stream wb)))

let test_xml_doc () =
  let xml =
    {|<doc>
        <heading>Intro</heading>
        <p>Text</p>
        <heading>More</heading>
        <image source="xml.png"/>
      </doc>|}
  in
  let heading = Shape.record "heading" [ (Dv.body_field, string_) ] in
  let p = Shape.record "p" [ (Dv.body_field, string_) ] in
  let image = Shape.record "image" [ ("source", string_) ] in
  eq "Section 2.2: body is a collection of the labelled top"
    (Shape.record "doc"
       [
         ( Dv.body_field,
           Shape.hetero [ (Shape.top [ heading; image; p ], Mult.Multiple) ] );
       ])
    (ok (strict_shape Xml (Stream xml)))

let test_xml_global_attr () =
  eq "Section 6.2: root {id ↦ 1, • ↦ [item]}"
    (Shape.record "root"
       [
         ("id", Shape.Primitive Shape.Bit1);
         ( Dv.body_field,
           Shape.hetero
             [ (Shape.record "item" [ (Dv.body_field, string_) ], Mult.Single) ]
         );
       ])
    (ok (strict_shape Xml (Stream {|<root id="1"><item>Hello!</item></root>|})))

let test_csv_ozone () =
  let csv =
    "Ozone, Temp, Date, Autofilled\n\
     41, 67, 2012-05-01, 0\n\
     36.3, 72, 2012-05-02, 1\n\
     12.1, 74, 3 kveten, 0\n\
     17.5, #N/A, 2012-05-04, 0\n"
  in
  eq "Section 6.2: ozone CSV"
    (Shape.collection
       (Shape.record Dv.csv_record_name
          [
            ("Ozone", float_);
            ("Temp", Shape.Nullable int_);
            ("Date", string_);
            ("Autofilled", Shape.Primitive Shape.Bit);
          ]))
    (ok (strict_shape Csv (Stream csv)))

let test_format_errors () =
  (match strict_shape Json (Stream "{ bad") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad json accepted");
  (match strict_shape Xml (Stream "<a><b></a>") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad xml accepted");
  match strict_shape Json (Stream "") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty json accepted"

(* ----- properties ----- *)

let prop_sample_preferred =
  QCheck2.Test.make
    ~name:"S(di) \xe2\x8a\x91 S(d1..dn) (samples conform to the merged shape)"
    ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_plain_data)
    (fun ds ->
      let merged = Infer.shape_of_samples ~mode:`Paper ds in
      List.for_all
        (fun d -> P.is_preferred (Infer.shape_of_value ~mode:`Paper d) merged)
        ds)

let prop_permutation_stable =
  QCheck2.Test.make ~name:"inference is order-independent" ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_plain_data)
    (fun ds ->
      let s1 = Infer.shape_of_samples ~mode:`Paper ds in
      let s2 = Infer.shape_of_samples ~mode:`Paper (List.rev ds) in
      P.is_preferred s1 s2 && P.is_preferred s2 s1)

let prop_matches_fold =
  QCheck2.Test.make ~name:"shape_of_samples = csh fold" ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_plain_data)
    (fun ds ->
      Shape.equal
        (Infer.shape_of_samples ~mode:`Paper ds)
        (Csh.csh_all ~mode:`Core
           (List.map (Infer.shape_of_value ~mode:`Paper) ds)))

let prop_has_shape_self =
  QCheck2.Test.make ~name:"d has shape S(d)" ~count:300 ~print:print_data
    gen_plain_data (fun d ->
      Fsdata_core.Shape_check.has_shape (Infer.shape_of_value ~mode:`Paper d) d)

let prop_practical_preferred_paper =
  QCheck2.Test.make
    ~name:"paper-mode shape bounds practical-mode shape on plain data"
    ~count:300 ~print:print_data gen_plain_data (fun d ->
      (* On data whose strings are plain text, the practical shape only
         refines collections; both agree on conformance of d itself. *)
      Fsdata_core.Shape_check.has_shape (Infer.shape_of_value ~mode:`Practical d) d)

let suite =
  [
    tc "S: primitives (Figure 3)" `Quick test_s_primitives;
    tc "S: practical string classification (Section 6.2)" `Quick
      test_s_practical_strings;
    tc "S: records" `Quick test_s_records;
    tc "S: collections, paper mode" `Quick test_s_collections_paper;
    tc "S: collections, heterogeneous" `Quick test_s_collections_hetero;
    tc "multi-sample folding" `Quick test_multi_sample;
    tc "Section 2.1: people.json" `Quick test_people_json;
    tc "Section 2.3: World Bank" `Quick test_worldbank_json;
    tc "Section 2.2: XML document" `Quick test_xml_doc;
    tc "Section 6.2: XML root/id/item" `Quick test_xml_global_attr;
    tc "Section 6.2: ozone CSV" `Quick test_csv_ozone;
    tc "malformed inputs are errors" `Quick test_format_errors;
    QCheck_alcotest.to_alcotest prop_sample_preferred;
    QCheck_alcotest.to_alcotest prop_permutation_stable;
    QCheck_alcotest.to_alcotest prop_matches_fold;
    QCheck_alcotest.to_alcotest prop_has_shape_self;
    QCheck_alcotest.to_alcotest prop_practical_preferred_paper;
  ]
