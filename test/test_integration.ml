(* End-to-end integration tests over the vendored sample documents —
   the executable counterparts of the paper's worked examples (DESIGN.md
   experiments E1-E5). *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Provide = Fsdata_provider.Provide
module Signature = Fsdata_provider.Signature
module Typed = Fsdata_runtime.Typed
module P = Fsdata_core.Preference

let tc = Alcotest.test_case
let check = Alcotest.check

let rec find_up name dir =
  let candidate = Filename.concat dir name in
  if Sys.file_exists candidate then candidate
  else
    let parent = Filename.dirname dir in
    if parent = dir then Alcotest.failf "cannot locate %s" name
    else find_up name parent

let read name =
  let path = find_up (Filename.concat "examples/data" name) (Sys.getcwd ()) in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* E1: the weather quickstart (Section 1, Appendix A). *)
let test_weather () =
  let sample = read "weather.json" in
  let p = Result.get_ok (Provide.provide_json ~root_name:"Weather" sample) in
  let w = Typed.parse p sample in
  check (Alcotest.float 1e-9) "Main.Temp" 5.0
    Typed.(get_float (member (member w "Main") "Temp"));
  check Alcotest.string "Name" "Prague" Typed.(get_string (member w "Name"));
  check Alcotest.string "Sys.Country" "CZ"
    Typed.(get_string (member (member w "Sys") "Country"));
  (* the weather array: one record with Main = "Clouds" *)
  let weather = Typed.get_list (Typed.member w "Weather") in
  check Alcotest.int "one weather entry" 1 (List.length weather);
  check Alcotest.string "icon stays a string" "03d"
    Typed.(get_string (member (List.hd weather) "Icon"))

(* E2: people.json with data of the same shape (Section 2.1). *)
let test_people () =
  let sample = read "people.json" in
  let p = Result.get_ok (Provide.provide_json sample) in
  let data = {|[ {"name":"Jane", "age": 33}, {"name":"Anon"} ]|} in
  let items = Typed.get_list (Typed.parse p data) in
  check Alcotest.int "two" 2 (List.length items);
  check
    (Alcotest.list (Alcotest.option (Alcotest.float 1e-9)))
    "ages"
    [ Some 33.; None ]
    (List.map
       (fun i -> Option.map Typed.get_float (Typed.get_option (Typed.member i "Age")))
       items)

(* E3: the open-world XML walk (Section 2.2) over another.xml, which
   contains a <table> element the sample never showed. *)
let test_xml_open_world () =
  let p = Result.get_ok (Provide.provide_xml (read "sample.xml")) in
  let root = Typed.parse p (read "another.xml") in
  let elems = Typed.get_list (Typed.member root "Doc") in
  check Alcotest.int "five elements" 5 (List.length elems);
  let headings =
    List.filter_map
      (fun e -> Option.map Typed.get_string (Typed.get_option (Typed.member e "Heading")))
      elems
  in
  check
    (Alcotest.list Alcotest.string)
    "headings"
    [ "Welcome to PLDI"; "Reproducing F# Data" ]
    headings;
  (* the unknown <table> answers None on every member *)
  let all_none =
    List.exists
      (fun e ->
        Typed.get_option (Typed.member e "Heading") = None
        && Typed.get_option (Typed.member e "P") = None
        && Typed.get_option (Typed.member e "Image") = None)
      elems
  in
  check Alcotest.bool "table element is invisible but harmless" true all_none

(* The check-subcommand semantics: another.xml conforms to sample.xml. *)
let test_check_conformance () =
  let sample_shape = Result.get_ok (Generators.strict_shape Xml (Stream (read "sample.xml"))) in
  let input_shape = Result.get_ok (Generators.strict_shape Xml (Stream (read "another.xml"))) in
  check Alcotest.bool "another.xml conforms" true
    (P.is_preferred input_shape sample_shape)

(* E4: the World Bank heterogeneous response (Section 2.3). *)
let test_worldbank () =
  let sample = read "worldbank.json" in
  let p = Result.get_ok (Provide.provide_json ~root_name:"WorldBank" sample) in
  let root = Typed.parse p sample in
  check Alcotest.int "pages" 5
    Typed.(get_int (member (member root "Record") "Pages"));
  let items = Typed.get_list (Typed.member root "Array") in
  check Alcotest.int "two items" 2 (List.length items);
  let values =
    List.map
      (fun i -> Option.map Typed.get_float (Typed.get_option (Typed.member i "Value")))
      items
  in
  check
    (Alcotest.list (Alcotest.option (Alcotest.float 1e-6)))
    "values (null and a string-encoded float)"
    [ None; Some 35.14229 ]
    values;
  check
    (Alcotest.list Alcotest.int)
    "dates are ints from string literals"
    [ 2012; 2010 ]
    (List.map (fun i -> Typed.get_int (Typed.member i "Date")) items)

(* E5: the ozone CSV (Section 6.2). *)
let test_ozone () =
  let sample = read "ozone.csv" in
  let p = Result.get_ok (Provide.provide_csv sample) in
  let rows = Typed.get_list (Typed.parse p sample) in
  check Alcotest.int "four rows" 4 (List.length rows);
  let temps =
    List.map
      (fun r -> Option.map Typed.get_int (Typed.get_option (Typed.member r "Temp")))
      rows
  in
  check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "Temp with #N/A" [ Some 67; Some 72; Some 74; None ] temps;
  let autofill = List.map (fun r -> Typed.get_bool (Typed.member r "Autofilled")) rows in
  check (Alcotest.list Alcotest.bool) "Autofilled as booleans"
    [ false; true; false; false ] autofill;
  (* Date column fell back to string because of "3 kveten" *)
  check Alcotest.string "date stays text" "3 kveten"
    (Typed.get_string (Typed.member (List.nth rows 2) "Date"))

(* Multi-sample provider invocation: merging weather samples with an
   impoverished variant makes fields optional but keeps the program
   running on both. *)
let test_multi_sample_weather () =
  let full = read "weather.json" in
  let minimal = {|{ "main": { "temp": 11 }, "name": "Nowhere" }|} in
  let shape = Result.get_ok (Generators.strict_shape Json (Samples [ full; minimal ])) in
  let p = Provide.provide shape in
  List.iter
    (fun text ->
      let w = Typed.parse p text in
      let temp = Typed.(get_float (member (member w "Main") "Temp")) in
      check Alcotest.bool "temp readable" true (temp > 0.))
    [ full; minimal ]

let suite =
  [
    tc "E1: weather quickstart" `Quick test_weather;
    tc "E2: people" `Quick test_people;
    tc "E3: XML open world" `Quick test_xml_open_world;
    tc "E3b: conformance check" `Quick test_check_conformance;
    tc "E4: World Bank" `Quick test_worldbank;
    tc "E5: ozone CSV" `Quick test_ozone;
    tc "multi-sample merging" `Quick test_multi_sample_weather;
  ]

(* E8: the GitHub-events style feed (deep nesting, heterogeneous
   payloads, a real labelled top from hex color literals). *)
let test_events () =
  let sample = read "events.json" in
  let p = Result.get_ok (Provide.provide_json ~root_name:"Events" sample) in
  let events = Typed.get_list (Typed.parse p sample) in
  check Alcotest.int "three events" 3 (List.length events);
  let push = List.hd events in
  let commits =
    Typed.get_list (Typed.member (Typed.member push "Payload") "Commits")
  in
  check Alcotest.int "two commits" 2 (List.length commits);
  (* the watch event has an empty payload: commits is the empty list, the
     issue is None — no failures *)
  let watch = List.nth events 1 in
  check Alcotest.int "no commits" 0
    (List.length (Typed.get_list (Typed.member (Typed.member watch "Payload") "Commits")));
  check Alcotest.bool "no issue" true
    (Typed.get_option (Typed.member (Typed.member watch "Payload") "Issue") = None);
  (* labels: the color column is a labelled top (hex strings classify as
     int or string depending on digits) — both variants are accessible *)
  let issue =
    Option.get
      (Typed.get_option (Typed.member (Typed.member (List.nth events 2) "Payload") "Issue"))
  in
  let labels = Typed.get_list (Typed.member issue "Labels") in
  check Alcotest.int "two labels" 2 (List.length labels);
  let color l = Typed.member l "Color" in
  check Alcotest.bool "string-tagged color" true
    (Typed.get_option (Typed.member (color (List.hd labels)) "String") <> None);
  check Alcotest.bool "int-tagged color" true
    (Typed.get_option (Typed.member (color (List.nth labels 1)) "Number") <> None);
  (* created_at is provided as a date *)
  let d = Typed.(get_date (member (List.hd events) "CreatedAt")) in
  check Alcotest.string "timestamp parsed" "2016-05-10T07:36:14"
    (Fsdata_data.Date.to_iso8601 d)

let suite = suite @ [ tc "E8: GitHub-style events" `Quick test_events ]
