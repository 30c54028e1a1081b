(* Relative safety through the full XML pipeline: random XML samples,
   local and global provision, deep member walks on the sample itself and
   on same-shaped variants. Also Theorem 3 in practical mode over JSON. *)

module Dv = Fsdata_data.Data_value
module Xml = Fsdata_data.Xml
module Infer = Fsdata_core.Infer
module Provide = Fsdata_provider.Provide
open Fsdata_foo.Syntax
module Eval = Fsdata_foo.Eval
module Fast = Fsdata_foo.Eval_fast
open Generators

let tc = Alcotest.test_case

(* Deep walk using the big-step evaluator (faster; equivalence with the
   small-step machine is established in test_eval_fast.ml). *)
let rec walk classes (v : Fast.value) (t : ty) : (unit, string) result =
  match t with
  | TInt | TFloat | TBool | TString | TDate | TData | TArrow _ -> Ok ()
  | TOption t' -> (
      match v with
      | Fast.VNone -> Ok ()
      | Fast.VSome v' -> walk classes v' t'
      | _ -> Error "option expected")
  | TList t' ->
      let rec go = function
        | Fast.VNil -> Ok ()
        | Fast.VCons (x, rest) -> (
            match walk classes x t' with Ok () -> go rest | e -> e)
        | _ -> Error "list expected"
      in
      go v
  | TClass c -> (
      match find_class classes c with
      | None -> Error ("unknown class " ^ c)
      | Some cls ->
          List.fold_left
            (fun acc (m : member_def) ->
              match acc with
              | Error _ -> acc
              | Ok () -> (
                  match Fast.member classes v m.member_name with
                  | mv -> walk classes mv m.member_ty
                  | exception Fast.Stuck reason ->
                      Error (Printf.sprintf "%s.%s stuck: %s" c m.member_name reason)
                  | exception Fast.Foo_exn ->
                      Error (Printf.sprintf "%s.%s raised" c m.member_name)))
            (Ok ()) cls.members)

let walk_provided (p : Provide.t) data =
  match Fast.eval p.Provide.classes [] (Provide.apply p data) with
  | v -> walk p.Provide.classes v p.Provide.root_ty
  | exception Fast.Stuck reason -> Error ("conversion stuck: " ^ reason)
  | exception Fast.Foo_exn -> Error "conversion raised"

let prop_xml_local_safety =
  QCheck2.Test.make
    ~name:"XML pipeline (local): provided code total on the sample"
    ~count:250 ~print:print_xml gen_xml_tree (fun tree ->
      let text = Xml.to_string tree in
      match Provide.provide_xml text with
      | Error _ -> false
      | Ok p ->
          let runtime = Xml.to_data ~convert_primitives:true tree in
          walk_provided p runtime = Ok ())

let prop_xml_global_safety =
  QCheck2.Test.make
    ~name:"XML pipeline (global): provided code total on the sample"
    ~count:250 ~print:print_xml gen_xml_tree (fun tree ->
      let text = Xml.to_string tree in
      match Provide.provide_xml_global [ text ] with
      | Error _ -> false
      | Ok p ->
          let runtime = Xml.to_data ~convert_primitives:true tree in
          walk_provided p runtime = Ok ())

let prop_xml_multi_sample =
  QCheck2.Test.make
    ~name:"XML pipeline: merged samples each remain readable" ~count:150
    ~print:(fun ts -> String.concat "\n" (List.map print_xml ts))
    QCheck2.Gen.(list_size (int_range 1 3) gen_xml_tree)
    (fun trees ->
      (* same-named roots so the samples merge *)
      let trees =
        List.map (fun (t : Xml.tree) -> { t with Xml.name = "doc" }) trees
      in
      let texts = List.map Xml.to_string trees in
      match strict_shape Xml (Samples texts) with
      | Error _ -> false
      | Ok shape ->
          let p = Provide.provide ~format:`Xml shape in
          List.for_all
            (fun tree ->
              walk_provided p (Xml.to_data ~convert_primitives:true tree) = Ok ())
            trees)

(* CSV pipeline safety: every row of the sample is readable. *)
let gen_csv_text =
  let open QCheck2.Gen in
  let* cols = int_range 1 4 in
  let* rows = int_range 1 6 in
  let* cells = list_size (return (cols * rows)) gen_xml_literal in
  let header = String.concat "," (List.init cols (fun i -> Printf.sprintf "C%d" i)) in
  let body =
    List.init rows (fun r ->
        String.concat ","
          (List.init cols (fun c -> List.nth cells ((r * cols) + c))))
  in
  return (header ^ "\n" ^ String.concat "\n" body ^ "\n")

let prop_csv_safety =
  QCheck2.Test.make
    ~name:"CSV pipeline: provided code total on the sample" ~count:200
    ~print:(fun s -> s) gen_csv_text (fun text ->
      match Provide.provide_csv text with
      | Error _ -> false
      | Ok p -> (
          match Fsdata_data.Csv.parse_result text with
          | Error _ -> false
          | Ok table ->
              walk_provided p (Fsdata_data.Csv.to_data ~convert_primitives:true table)
              = Ok ()))

(* Theorem 3 in practical mode: the user-program generator from
   test_safety, but over practical shapes and normalized inputs. *)
let theorem3_practical_gen =
  let open QCheck2.Gen in
  let* samples = list_size (int_range 1 3) gen_data in
  let shape = Infer.shape_of_samples ~mode:`Practical samples in
  let p = Provide.provide ~format:`Json shape in
  let* program = Test_safety.gen_user_program p.Provide.classes p.Provide.root_ty in
  let* idx = int_range 0 (List.length samples - 1) in
  return (samples, List.nth samples idx, program)

let prop_theorem3_practical =
  QCheck2.Test.make
    ~name:"Theorem 3 (practical): user programs safe on normalized samples"
    ~count:250
    ~print:(fun (samples, input, program) ->
      Fmt.str "samples: %s@.input: %s@.program: %a"
        (String.concat " ; " (List.map print_data samples))
        (print_data input) pp_expr program)
    theorem3_practical_gen
    (fun (samples, input, program) ->
      let shape = Infer.shape_of_samples ~mode:`Practical samples in
      let p = Provide.provide ~format:`Json shape in
      let input = Fsdata_data.Primitive.normalize input in
      let whole = subst "y" (Provide.apply p input) program in
      match Eval.eval p.Provide.classes whole with
      | Eval.Value (EData (Dv.Bool _)) -> true
      | _ -> false)

(* a concrete end-to-end regression: provider + unknown elements *)
let test_xml_unknown_inputs_safe () =
  let sample = {|<doc><item id="1">x</item><meta kind="a"/></doc>|} in
  let p = Result.get_ok (Provide.provide_xml sample) in
  (* an input with unknown elements and missing attributes still walks *)
  let input = {|<doc><mystery deep="true"/><item id="2">y</item></doc>|} in
  let data = Xml.to_data ~convert_primitives:true (Xml.parse input) in
  match walk_provided p data with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  [
    QCheck_alcotest.to_alcotest prop_xml_local_safety;
    QCheck_alcotest.to_alcotest prop_xml_global_safety;
    QCheck_alcotest.to_alcotest prop_xml_multi_sample;
    QCheck_alcotest.to_alcotest prop_csv_safety;
    QCheck_alcotest.to_alcotest prop_theorem3_practical;
    tc "unknown XML inputs are safe" `Quick test_xml_unknown_inputs_safe;
  ]
