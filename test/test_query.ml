(* Tests for the typed query layer (lib/query).

   Three contracts:

   - the concrete syntax round-trips: [Parser.parse (Syntax.to_string q)]
     is [q] for arbitrary queries (associativity, quoting, literal
     printing);
   - the checker implements the documented typing rules
     (docs/QUERY.md §Typing): pinned accept/reject cases with their
     diagnostics, plus the property that a query over a field σ does
     not have is rejected — before any corpus is involved, since
     [Check.check] never sees one;
   - the two engines agree: for ≥1000 shape-generated (σ, query,
     corpus) cases where the query is well-typed by construction,
     [Eval.eval] and [Eval_fast.eval] produce byte-identical rendered
     rows and identical stats, on corpora mixing conforming documents,
     arbitrary (mostly non-conforming) documents and a malformed one —
     and neither engine ever raises. *)

module Q = Fsdata_query
module Syntax = Q.Syntax
module Parser = Q.Parser
module Check = Q.Check
module Value = Q.Value
module Eval = Q.Eval
module Eval_fast = Q.Eval_fast
module Shape = Fsdata_core.Shape
module Shape_gen = Fsdata_core.Shape_gen
module Infer = Fsdata_core.Infer
module Json = Fsdata_data.Json
open Generators

let check = Alcotest.check
let tc = Alcotest.test_case

let parse_exn q =
  match Parser.parse_result q with
  | Ok q -> q
  | Error m -> Alcotest.fail m

let infer_exn src =
  match strict_shape Json (Stream src) with
  | Ok s -> Shape.hcons s
  | Error m -> Alcotest.fail m

let render_rows (r : Value.result) =
  String.concat "\n" (List.map Value.render r.Value.rows)

(* ----- parser: pinned syntax ----- *)

let test_parser_pins () =
  let open Syntax in
  let p q = parse_exn q in
  check Alcotest.bool "count" true (p "count" = [ Count ]);
  check Alcotest.bool "take" true (p "take 10" = [ Take 10 ]);
  check Alcotest.bool "map root" true (p "map ." = [ Map [] ]);
  check Alcotest.bool "select two" true
    (p "select .name, .age" = [ Select [ [ "name" ]; [ "age" ] ] ]);
  check Alcotest.bool "quoted segment" true
    (p {|select ."odd name".x|} = [ Select [ [ "odd name"; "x" ] ] ]);
  check Alcotest.bool "precedence: and binds tighter than or" true
    (p "where .a == 1 and .b == 2 or not .c == 3"
    = [
        Where
          (Or
             ( And (Compare ([ "a" ], Eq, Lint 1), Compare ([ "b" ], Eq, Lint 2)),
               Not (Compare ([ "c" ], Eq, Lint 3)) ));
      ]);
  check Alcotest.bool "parens override" true
    (p "where .a == 1 and (.b == 2 or .c == 3)"
    = [
        Where
          (And
             ( Compare ([ "a" ], Eq, Lint 1),
               Or (Compare ([ "b" ], Eq, Lint 2), Compare ([ "c" ], Eq, Lint 3))
             ));
      ]);
  check Alcotest.bool "literals" true
    (p "where .a == null or .b != true or .c < 1.5 or .d >= \"x\""
    = [
        Where
          (Or
             ( Compare ([ "a" ], Eq, Lnull),
               Or
                 ( Compare ([ "b" ], Ne, Lbool true),
                   Or
                     ( Compare ([ "c" ], Lt, Lfloat 1.5),
                       Compare ([ "d" ], Ge, Lstring "x") ) ) ));
      ]);
  check Alcotest.bool "pipeline" true
    (p "where exists .a | select .a | take 3"
    = [ Where (Exists [ "a" ]); Select [ [ "a" ] ]; Take 3 ])

let test_parser_errors () =
  let rejects q =
    match Parser.parse_result q with
    | Ok _ -> Alcotest.failf "parsed: %s" q
    | Error m ->
        check Alcotest.bool "error mentions the offset" true
          (Astring.String.is_infix ~affix:"offset" m)
  in
  List.iter rejects
    [
      "";
      "where";
      "take";
      "take x";
      "where .a == ";
      "where .a <> 1";
      "select";
      "select .a,";
      "frobnicate .a";
      "where (.a == 1";
      "count extra";
      "where .a == 1 |";
      "where . == where";
    ]

(* ----- parser: printing round-trips ----- *)

let gen_path : Syntax.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let seg = oneofl [ "a"; "b"; "name"; "age"; "value"; "odd name"; "x-y" ] in
  list_size (int_range 0 3) seg

let gen_literal : Syntax.literal QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  oneof
    [
      return Lnull;
      map (fun b -> Lbool b) bool;
      map (fun n -> Lint n) (int_range (-1000) 1000);
      map (fun f -> Lfloat f) (float_range (-4.) 4.);
      map (fun s -> Lstring s) (oneofl [ ""; "x"; "two words"; "\"q\"" ]);
    ]

let gen_pred : Syntax.pred QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  sized @@ fix (fun self n ->
      let atom =
        oneof
          [
            map (fun p -> Exists p) gen_path;
            map3
              (fun p c l -> Compare (p, c, l))
              gen_path
              (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
              gen_literal;
          ]
      in
      if n <= 0 then atom
      else
        oneof
          [
            atom;
            map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
            map (fun a -> Not a) (self (n - 1));
          ])

let gen_query : Syntax.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  let stage =
    oneof
      [
        map (fun p -> Where p) gen_pred;
        map (fun ps -> Select ps) (list_size (int_range 1 3) gen_path);
        map (fun p -> Map p) gen_path;
        map (fun n -> Take n) (int_range 0 100);
      ]
  in
  let* stages = list_size (int_range 0 3) stage in
  let* final = oneofl [ []; [ Count ] ] in
  match stages @ final with [] -> return [ Count ] | q -> return q

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"print ∘ parse is the identity"
    ~print:Syntax.to_string gen_query (fun q ->
      match Parser.parse_result (Syntax.to_string q) with
      | Ok q' -> q' = q
      | Error m ->
          QCheck2.Test.fail_reportf "printed query does not reparse: %s" m)

(* ----- checker: pinned accept/reject ----- *)

let people =
  "{\"name\": \"ada\", \"age\": 36, \"d\": \"2020-01-02\"}\n\
   {\"name\": \"grace\", \"d\": \"2021-03-04\"}\n"

let people_sigma = lazy (infer_exn people)

let accepts sigma q =
  match Check.check sigma (parse_exn q) with
  | Ok c -> c
  | Error e -> Alcotest.failf "rejected %s: %s" q (Fmt.str "%a" Check.pp_error e)

let rejects sigma q ~at ~expected =
  match Check.check sigma (parse_exn q) with
  | Ok _ -> Alcotest.failf "accepted: %s" q
  | Error e ->
      check Alcotest.string (q ^ ": at") at e.Check.at;
      check Alcotest.bool
        (q ^ ": expected mentions " ^ expected)
        true
        (Astring.String.is_infix ~affix:expected e.Check.expected)

let test_check_accepts () =
  let sigma = Lazy.force people_sigma in
  ignore (accepts sigma "where .name == \"ada\"");
  ignore (accepts sigma "where .age >= 30 | select .name, .age");
  (* age is nullable int: null comparisons and exists are well-typed *)
  ignore (accepts sigma "where .age == null");
  ignore (accepts sigma "where exists .age | count");
  ignore (accepts sigma "where .d >= \"2020-06-01\"");
  ignore (accepts sigma "map .name | take 1");
  (* output shapes *)
  let c = accepts sigma "count" in
  check shape_testable "count output is int" (Shape.Primitive Shape.Int)
    c.Check.output;
  let c = accepts sigma "select .age" in
  (match Shape.strip_nullable c.Check.output with
  | Shape.Record { fields = [ ("age", a) ]; _ } ->
      check shape_testable "selected nullable field stays nullable"
        (Shape.nullable (Shape.Primitive Shape.Int))
        a
  | s -> Alcotest.failf "unexpected select output %s" (Shape.to_string s));
  (* pruning: only touched fields survive *)
  let c = accepts sigma "where .age >= 30 | select .name" in
  match Shape.strip_nullable c.Check.pruned with
  | Shape.Record { fields; _ } ->
      check
        (Alcotest.list Alcotest.string)
        "pruned σ keeps exactly the touched fields" [ "name"; "age" ]
        (List.map fst fields)
  | s -> Alcotest.failf "unexpected pruned shape %s" (Shape.to_string s)

let test_check_rejects () =
  let sigma = Lazy.force people_sigma in
  rejects sigma "where .zip == 1" ~at:".zip" ~expected:"field 'zip'";
  rejects sigma "select .name.first" ~at:".name.first" ~expected:"field 'first'";
  rejects sigma "where .name < 3" ~at:".name" ~expected:"numeric";
  rejects sigma "where .name == null" ~at:".name" ~expected:"nullable";
  rejects sigma "where .age < null" ~at:".age" ~expected:"equality";
  rejects sigma "where .age == true" ~at:".age" ~expected:"boolean";
  rejects sigma "where .d == \"not-a-date\"" ~at:".d" ~expected:"date";
  rejects sigma "count | select .name" ~at:"." ~expected:"final";
  rejects sigma "select .name, .age.name" ~at:".age.name" ~expected:"repeats";
  (* the checker never touches a corpus: σ alone decides *)
  rejects (Shape.Primitive Shape.Int) "where .a == 1" ~at:".a"
    ~expected:"field 'a'"

(* ----- well-typed queries generated from σ ----- *)

(* Every path reachable through records (nullable positions are
   transparent, as in [Check.resolve]). *)
let rec leaf_paths ?(prefix = []) (s : Shape.t) :
    (Syntax.path * Shape.t) list =
  match s with
  | Shape.Nullable s' -> leaf_paths ~prefix s'
  | Shape.Record { fields; _ } ->
      List.concat_map
        (fun (f, sf) ->
          let p = prefix @ [ f ] in
          (p, sf) :: leaf_paths ~prefix:p sf)
        fields
  | _ -> []

(* A literal the checker accepts for the (stripped) shape at a path,
   with the cmp generator to draw from. *)
let literal_for (s : Shape.t) :
    (Syntax.cmp list * Syntax.literal) option =
  let open Syntax in
  let any = [ Eq; Ne; Lt; Le; Gt; Ge ] in
  match Shape.strip_nullable s with
  | Shape.Primitive (Shape.Int | Shape.Bit0 | Shape.Bit1) ->
      Some (any, Lint 1)
  | Shape.Primitive Shape.Float -> Some (any, Lfloat 0.5)
  | Shape.Primitive (Shape.Bool | Shape.Bit) -> Some ([ Eq; Ne ], Lbool true)
  | Shape.Primitive Shape.String -> Some (any, Lstring "sample")
  | Shape.Primitive Shape.Date -> Some (any, Lstring "2001-02-03")
  | _ -> None

let dedup_by_last paths =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun p ->
      match List.rev p with
      | [] -> false
      | name :: _ ->
          if Hashtbl.mem seen name then false
          else (
            Hashtbl.add seen name ();
            true))
    paths

(* Build a query that is well-typed against [sigma] by construction:
   an optional [where] over compatible atoms, an optional projection,
   an optional terminal. *)
let gen_wellformed_query sigma : Syntax.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  let paths = leaf_paths sigma in
  let atoms =
    List.filter_map
      (fun (p, s) ->
        match literal_for s with
        | Some (cmps, lit) -> Some (p, cmps, lit)
        | None -> None)
      paths
  in
  let gen_atom =
    match (atoms, paths) with
    | [], [] -> None
    | [], _ -> Some (map (fun (p, _) -> Exists p) (oneofl paths))
    | _ ->
        Some
          (oneof
             [
               map (fun (p, _) -> Exists p) (oneofl paths);
               (let* p, cmps, lit = oneofl atoms in
                let* c = oneofl cmps in
                return (Compare (p, c, lit)));
             ])
  in
  let gen_where =
    match gen_atom with
    | None -> return []
    | Some atom ->
        let* n = int_range 0 2 in
        if n = 0 then return []
        else
          let* a = atom in
          let* p =
            if n = 1 then return a
            else
              let* b = atom in
              oneofl [ And (a, b); Or (a, b); Not a ]
          in
          return [ Where p ]
  in
  let gen_project =
    match paths with
    | [] -> return []
    | _ ->
        let* k = int_range 0 2 in
        if k = 0 then return []
        else if k = 1 then
          let* p, _ = oneofl paths in
          return [ Map p ]
        else
          let* ps = list_size (int_range 1 3) (oneofl paths) in
          let ps = dedup_by_last (List.map fst ps) in
          if ps = [] then return [] else return [ Select ps ]
  in
  let gen_final =
    let* k = int_range 0 2 in
    if k = 0 then return []
    else if k = 1 then
      let* n = int_range 0 4 in
      return [ Take n ]
    else return [ Count ]
  in
  let* w = gen_where in
  let* p = gen_project in
  let* f = gen_final in
  match w @ p @ f with [] -> return [ Count ] | q -> return q

let gen_case =
  let open QCheck2.Gen in
  let* s = gen_core_shape in
  let sigma = Shape.hcons s in
  let* q = gen_wellformed_query sigma in
  let* noise = list_size (int_range 0 2) gen_data in
  return (sigma, q, noise)

let print_case (sigma, q, _) =
  Printf.sprintf "σ = %s\nquery = %s" (print_shape sigma)
    (Syntax.to_string q)

(* The differential contract: identical rendered rows and stats, on a
   corpus of conforming samples + arbitrary documents + one malformed
   line. Neither engine may raise. *)
let prop_engines_agree =
  QCheck2.Test.make ~count:1200
    ~name:"eval ≡ eval_fast on shape-generated corpora (byte-for-byte)"
    ~print:print_case gen_case (fun (sigma, q, noise) ->
      match Shape_gen.samples ~count:4 sigma with
      | exception Invalid_argument _ -> true (* ⊥-shaped: no witness *)
      | docs ->
          let conforming = List.map Json.to_string docs in
          let arbitrary = List.map Json.to_string noise in
          let corpus =
            String.concat "\n"
              (conforming @ [ "{\"unclosed\": " ] @ arbitrary)
          in
          match Check.check sigma q with
          | Error e ->
              QCheck2.Test.fail_reportf
                "generated query is ill-typed: %s"
                (Fmt.str "%a" Check.pp_error e)
          | Ok checked -> (
              let r1 = Eval.eval checked corpus in
              let r2 = Eval_fast.eval (Eval_fast.compile checked) corpus in
              let rows1 = render_rows r1 and rows2 = render_rows r2 in
              if rows1 <> rows2 then
                QCheck2.Test.fail_reportf "rows differ:\n%s\n--- vs ---\n%s"
                  rows1 rows2
              else
                match (r1.Value.stats, r2.Value.stats) with
                | s1, s2 when s1 = s2 -> true
                | s1, s2 ->
                    QCheck2.Test.fail_reportf
                      "stats differ: {scanned=%d;matched=%d;skipped=%d;\
                       malformed=%d} vs {scanned=%d;matched=%d;skipped=%d;\
                       malformed=%d}"
                      s1.Value.scanned s1.Value.matched s1.Value.skipped
                      s1.Value.malformed s2.Value.scanned s2.Value.matched
                      s2.Value.skipped s2.Value.malformed))

(* Ill-typed by construction: a path σ cannot resolve is always
   rejected — and [Check.check]'s signature makes the pre-execution
   claim structural, no corpus is in scope at all. *)
let prop_unknown_field_rejected =
  QCheck2.Test.make ~count:500 ~name:"unknown field is always rejected"
    ~print:print_shape gen_core_shape (fun s ->
      let sigma = Shape.hcons s in
      match
        Check.check sigma (parse_exn "where .zz_no_such_field == 1")
      with
      | Error _ -> true
      | Ok _ ->
          QCheck2.Test.fail_reportf "accepted a field σ does not have")

(* ----- evaluation semantics pins ----- *)

let test_eval_pins () =
  let corpus =
    "{\"name\": \"ada\", \"age\": 36}\n{\"name\": \"bob\", \"age\": 25}\n\
     {\"name\": \"grace\"}\n"
  in
  let sigma = infer_exn corpus in
  let run q =
    match Check.check sigma (parse_exn q) with
    | Error e -> Alcotest.failf "rejected: %s" (Fmt.str "%a" Check.pp_error e)
    | Ok c -> Eval.eval c corpus
  in
  let r = run "where .age >= 30 | select .name" in
  check Alcotest.string "filter+project" "{\"name\":\"ada\"}" (render_rows r);
  (* a missing nullable field projects as an explicit null *)
  let r = run "select .name, .age" in
  check Alcotest.string "missing nullable field renders as null"
    "{\"name\":\"ada\",\"age\":36}\n{\"name\":\"bob\",\"age\":25}\n\
     {\"name\":\"grace\",\"age\":null}"
    (render_rows r);
  let r = run "where .age == null | count" in
  check Alcotest.string "null filter + count" "1" (render_rows r);
  let r = run "map .name | take 2" in
  check Alcotest.string "map + take" "\"ada\"\n\"bob\"" (render_rows r);
  check Alcotest.int "take stops the scan early" 2 r.Value.stats.Value.scanned;
  (* malformed and non-conforming accounting *)
  let r = run "count" in
  check Alcotest.int "all scanned" 3 r.Value.stats.Value.scanned;
  check Alcotest.int "none skipped" 0 r.Value.stats.Value.skipped

let suite =
  [
    tc "parser: pinned syntax" `Quick test_parser_pins;
    tc "parser: pinned errors" `Quick test_parser_errors;
    tc "check: accepts and output shapes" `Quick test_check_accepts;
    tc "check: pinned rejections" `Quick test_check_rejects;
    tc "eval: pinned semantics" `Quick test_eval_pins;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_engines_agree;
    QCheck_alcotest.to_alcotest prop_unknown_field_rejected;
  ]
