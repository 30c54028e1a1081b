(* QCheck generators shared by the property-based suites.

   Two regimes matter for the paper's theorems:
   - arbitrary data values (parser round-trips, inference totality);
   - the *core algebra* of Section 3 (paper-mode shapes: int/float/bool/
     string primitives, homogeneous collections) on which Lemma 1 and
     Theorem 3 are stated and property-tested. *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
open QCheck2

let field_names = [ "a"; "b"; "c"; "name"; "age"; "value"; "temp" ]
let record_names = [ Dv.json_record_name; "item"; "row"; "node" ]

(* A random subset of the known field names, in a fixed order so records
   never have duplicate fields. *)
let gen_field_subset : string list Gen.t =
  let open Gen in
  let* mask = list_size (return (List.length field_names)) bool in
  return
    (List.filteri (fun i _ -> List.nth mask i) field_names
    |> fun l -> List.filteri (fun i _ -> i < 4) l)

let gen_fields gen_value =
  let open Gen in
  let* names = gen_field_subset in
  let rec build acc = function
    | [] -> return (List.rev acc)
    | n :: rest ->
        let* v = gen_value in
        build ((n, v) :: acc) rest
  in
  build [] names

let gen_string_literal =
  Gen.oneofl
    [ ""; "x"; "hello"; "2012-05-01"; "0"; "1"; "35.14"; "true"; "#N/A";
      "some text"; "May 3"; "GC.DOD" ]

let gen_data : Dv.t Gen.t =
  let open Gen in
  sized
  @@ fix (fun self size ->
         let primitive =
           oneof
             [
               return Dv.Null;
               (bool >|= fun b -> Dv.Bool b);
               (int_range (-1000) 1000 >|= fun i -> Dv.Int i);
               (float_range (-1e6) 1e6 >|= fun f -> Dv.Float f);
               (gen_string_literal >|= fun s -> Dv.String s);
             ]
         in
         if size <= 1 then primitive
         else
           frequency
             [
               (3, primitive);
               ( 2,
                 let* items = list_size (int_range 0 4) (self (size / 2)) in
                 return (Dv.List items) );
               ( 2,
                 let* name = oneofl record_names in
                 let* fields = gen_fields (self (size / 2)) in
                 return (Dv.Record (name, fields)) );
             ])

(* JSON-ish data whose strings classify as plain strings, so paper-mode
   and practical-mode inference mostly agree. *)
let gen_plain_data : Dv.t Gen.t =
  let open Gen in
  sized
  @@ fix (fun self size ->
         let primitive =
           oneof
             [
               return Dv.Null;
               (bool >|= fun b -> Dv.Bool b);
               (int_range (-1000) 1000 >|= fun i -> Dv.Int i);
               (float_range (-1e6) 1e6 >|= fun f -> Dv.Float f);
               (oneofl [ "x"; "hello"; "world" ] >|= fun s -> Dv.String s);
             ]
         in
         if size <= 1 then primitive
         else
           frequency
             [
               (3, primitive);
               ( 2,
                 let* items = list_size (int_range 0 4) (self (size / 2)) in
                 return (Dv.List items) );
               ( 2,
                 let* name = oneofl record_names in
                 let* fields = gen_fields (self (size / 2)) in
                 return (Dv.Record (name, fields)) );
             ])

(* Ground shapes of the core algebra, built with smart constructors so
   the representation invariants hold:
   - nullable only wraps primitives and records,
   - collections are homogeneous,
   - tops are label-free (labels are exercised by dedicated csh tests). *)
let gen_core_shape : Shape.t Gen.t =
  let open Gen in
  sized
  @@ fix (fun self size ->
         let leaf =
           oneofl
             [
               Shape.Bottom;
               Shape.Null;
               Shape.Primitive Shape.Int;
               Shape.Primitive Shape.Float;
               Shape.Primitive Shape.Bool;
               Shape.Primitive Shape.String;
               Shape.any;
             ]
         in
         if size <= 1 then leaf
         else
           frequency
             [
               (3, leaf);
               ( 2,
                 let* name = oneofl record_names in
                 let* fields = gen_fields (self (size / 2)) in
                 return (Shape.record name fields) );
               ( 1,
                 let* inner = self (size / 2) in
                 return (Shape.nullable (Shape.strip_nullable inner)) );
               ( 1,
                 let* elem = self (size / 2) in
                 return (Shape.collection (Shape.strip_nullable elem)) );
             ])

let print_data = Dv.to_string
let print_shape = Shape.to_string

(* Alcotest testables. *)
let data_testable = Alcotest.testable Dv.pp Dv.equal
let shape_testable = Alcotest.testable Shape.pp Shape.equal

(* Random XML trees for the XML-pipeline safety properties. Element and
   attribute names come from small pools so same-named elements recur
   (exercising unification); literal values cover the classification
   space (bits, numbers, dates, missing markers, text). *)
let xml_names = [ "doc"; "item"; "entry"; "meta" ]
let xml_attrs = [ "id"; "kind"; "when" ]

let gen_xml_literal =
  Gen.oneofl
    [ "0"; "1"; "42"; "3.5"; "true"; "2012-05-01"; "hello"; "#N/A"; "x y" ]

let gen_xml_tree : Fsdata_data.Xml.tree Gen.t =
  let open Gen in
  let gen_attr_set =
    let* mask = list_size (return (List.length xml_attrs)) bool in
    let names = List.filteri (fun i _ -> List.nth mask i) xml_attrs in
    let rec build acc = function
      | [] -> return (List.rev acc)
      | n :: rest ->
          let* v = gen_xml_literal in
          build ((n, v) :: acc) rest
    in
    build [] names
  in
  sized
  @@ fix (fun self size ->
         let* name = oneofl xml_names in
         let* attributes = gen_attr_set in
         let* children =
           if size <= 1 then
             (* leaf: empty or text body *)
             let* text = opt gen_xml_literal in
             return
               (match text with
               | None -> []
               | Some t -> [ Fsdata_data.Xml.Text t ])
           else
             let* n = int_range 0 3 in
             let* kids = list_size (return n) (self (size / 2)) in
             return (List.map (fun k -> Fsdata_data.Xml.Element k) kids)
         in
         return { Fsdata_data.Xml.name; attributes; children })

let print_xml t = Fsdata_data.Xml.to_string t

(* Strict inference through the one ingestion driver, as the provider
   infers a shape from its samples. *)
let strict_shape ?mode ?chunk_size ?(jobs = 1) format source =
  Fsdata_core.Infer.run ?mode ?chunk_size ~jobs
    ~budget:Fsdata_data.Diagnostic.Strict format source
  |> Result.map (fun r -> r.Fsdata_core.Infer.shape)
