open Shape

type mode = [ `Core | `Hetero | `Xml ]

(* Observability (docs/OBSERVABILITY.md): [csh.merges] counts every
   binary join performed, including the recursive sub-joins on record
   fields and collection entries — the true amount of join work, which
   the chunked parallel pipeline redistributes but must not change.
   [csh.top_label_saturations] counts primitive labels collapsed by the
   canonical-form saturation (b) below; a high rate signals corpora
   whose labelled tops keep re-canonicalizing. *)
let m_merges = Fsdata_obs.Metrics.counter "csh.merges"

let m_saturations =
  Fsdata_obs.Metrics.counter "csh.top_label_saturations"

let join_primitives (a : primitive) (b : primitive) =
  if a = b then Some a
  else
    match (a, b) with
    | Bit0, Bit1 | Bit1, Bit0 -> Some Bit
    | (Bit0 | Bit1), ((Bit | Bool | Int | Float) as o)
    | ((Bit | Bool | Int | Float) as o), (Bit0 | Bit1) ->
        Some o
    | Bit, ((Bool | Int | Float) as o) | ((Bool | Int | Float) as o), Bit -> Some o
    | Int, Float | Float, Int -> Some Float
    | Date, String | String, Date -> Some String
    | _ -> None

(* Canonical form for top labels. Both adjustments exist to make csh
   associative at the representation level (not merely up to
   ⊑-equivalence), which the parallel tree reduction of Infer.run relies
   on:

   (a) a collection label's exactly-one entries weaken to zero-or-one.
       A top implicitly permits null and a null sample reads as an
       empty collection, so an element of a collection label can always
       be absent; without the weakening, whether a null sample met the
       collection before or after the top formed would change the
       resulting multiplicity.

   (b) primitive labels are saturated under {!join_primitives} across
       tag families (bit ⊔ bool = bool, date ⊔ string = string),
       matching what rule (num) does to the same primitives outside a
       top. Tag-wise label grouping alone would keep e.g. bit and bool
       as two labels when the bare primitives join to bool, so the
       result would depend on whether they met inside or outside the
       top. *)
let widen_collection_label = function
  | Collection entries ->
      Collection
        (List.map
           (fun (e : entry) -> { e with mult = Multiplicity.widen_absent e.mult })
           entries)
  | s -> s

let canonical_top labels =
  let labels = List.map widen_collection_label labels in
  let prims, others =
    List.partition_map
      (function Primitive p -> Either.Left p | s -> Either.Right s)
      labels
  in
  (* Insert primitives one at a time, re-inserting the join whenever one
     exists; terminates because the primitive lattice has finite height. *)
  let rec insert p acc =
    let rec scan seen = function
      | [] -> p :: acc
      | q :: rest -> (
          match join_primitives p q with
          | Some j ->
              Fsdata_obs.Metrics.incr m_saturations;
              insert j (List.rev_append seen rest)
          | None -> scan (q :: seen) rest)
    in
    scan [] acc
  in
  let prims = List.fold_left (fun acc p -> insert p acc) [] prims in
  Shape.top (List.rev_map (fun p -> Primitive p) prims @ others)

let rec csh ?(mode : mode = `Hetero) s1 s2 =
  Fsdata_obs.Metrics.incr m_merges;
  (* (eq) *)
  if Shape.equal s1 s2 then s1
  else
    match (s1, s2) with
    (* (list) *)
    | Collection e1, Collection e2 -> merge_collections ~mode e1 e2
    (* (bot) *)
    | Bottom, s | s, Bottom -> s
    (* (null): ⌈s⌉, except that a null sample reads as an *empty*
       collection ("null values are treated as empty collections"), so
       exactly-one entries of a heterogeneous collection weaken to
       zero-or-one, as when merging with an empty collection. *)
    | Null, Collection entries | Collection entries, Null ->
        Collection
          (List.map
             (fun (e : entry) -> { e with mult = Multiplicity.widen_absent e.mult })
             entries)
    | Null, s | s, Null -> Shape.nullable s
    (* (top-merge) *)
    | Top l1, Top l2 -> top_merge ~mode l1 l2
    (* (top-incl) / (top-add) *)
    | Top labels, s | s, Top labels -> top_include ~mode labels s
    (* (num), extended with the Section 6.2 primitive lattice *)
    | Primitive p1, Primitive p2 -> (
        match join_primitives p1 p2 with
        | Some p -> Primitive p
        | None -> top_any s1 s2)
    (* (opt) *)
    | Nullable a, s | s, Nullable a -> Shape.nullable (csh ~mode a s)
    (* (recd) with the row-variable treatment of one-sided fields *)
    | Record r1, Record r2 when String.equal r1.name r2.name ->
        Record (merge_records ~mode r1 r2)
    (* (top-any) *)
    | _ -> top_any s1 s2

and merge_records ~mode r1 r2 =
  (* Fields present on both sides are joined recursively; one-sided fields
     become nullable. This realizes Figure 3's minimal ground substitution
     for row variables: the extra fields a record may or may not have are
     exactly the fields its row variable stands for, and [⌈θ(ρ)⌉] makes
     them nullable. Field order: left-to-right first appearance. *)
  (* A one-sided field joins with "absent", which reads as null (that is
     what convField produces for it), so the join is csh(null, s) = ⌈s⌉ —
     in particular a one-sided ⊥ field becomes null, not ⊥. *)
  let absent ~mode s = csh ~mode Null s in
  let fields =
    List.map
      (fun (n, s1) ->
        match List.assoc_opt n r2.fields with
        | Some s2 -> (n, csh ~mode s1 s2)
        | None -> (n, absent ~mode s1))
      r1.fields
    @ List.filter_map
        (fun (n, s2) ->
          if List.mem_assoc n r1.fields then None else Some (n, absent ~mode s2))
        r2.fields
  in
  { name = r1.name; fields }

and merge_collections ~mode e1 e2 =
  match mode with
  | `Xml -> (
      (* Single-entry discipline: join the element shapes of both sides
         (producing a labelled top when they differ) and combine the
         multiplicities; an entry missing on one side means the element is
         sometimes absent, weakening Single to Optional_single. *)
      let join es =
        match es with
        | [] -> None
        | e :: rest ->
            Some
              (List.fold_left
                 (fun (s, m) (e : entry) ->
                   (csh ~mode s e.shape, Multiplicity.lub m e.mult))
                 (e.shape, e.mult) rest)
      in
      match (join e1, join e2) with
      | None, None -> Collection []
      | Some (s, m), None | None, Some (s, m) ->
          Collection [ { shape = s; mult = Multiplicity.widen_absent m } ]
      | Some (s1, m1), Some (s2, m2) ->
          Collection
            [ { shape = csh ~mode s1 s2; mult = Multiplicity.lub m1 m2 } ])
  | `Core ->
      (* Rule (list) of Figure 2: a homogeneous collection of the join of
         all element shapes. *)
      let shapes = List.map (fun e -> e.shape) (e1 @ e2) in
      Shape.collection (csh_all ~mode shapes)
  | `Hetero ->
      (* Section 6.4: merge entries with the same tag (joining shapes and
         taking the multiplicity lub); a tag present on one side only has
         its multiplicity widened, since the other sample's collections can
         lack it. *)
      let tag_of (e : entry) = Shape.tagof e.shape in
      let tags =
        List.sort_uniq Tag.compare (List.map tag_of e1 @ List.map tag_of e2)
      in
      let find es t = List.find_opt (fun e -> Tag.equal (tag_of e) t) es in
      let merged =
        List.map
          (fun t ->
            match (find e1 t, find e2 t) with
            | Some a, Some b ->
                (csh ~mode a.shape b.shape, Multiplicity.lub a.mult b.mult)
            | Some a, None | None, Some a ->
                (a.shape, Multiplicity.widen_absent a.mult)
            | None, None -> assert false)
          tags
      in
      Collection (regroup_entries ~mode merged)

and regroup_entries ~mode pairs =
  (* Joining two same-tag entry shapes almost always preserves the tag, but
     corner cases (e.g. two differently-shaped nullable entries joining
     into a labelled top) can move an entry to a new tag; fold entries in
     one at a time, re-joining on collision, until tags are distinct. *)
  let rec add acc (s, m) =
    let t = Shape.tagof s in
    match
      List.partition (fun (e : entry) -> Tag.equal (Shape.tagof e.shape) t) acc
    with
    | [], _ -> { shape = s; mult = m } :: acc
    | [ e0 ], rest -> add rest (csh ~mode e0.shape s, Multiplicity.lub e0.mult m)
    | _ -> assert false
  in
  let entries = List.fold_left add [] pairs in
  List.sort (fun a b -> Tag.compare (Shape.tagof a.shape) (Shape.tagof b.shape)) entries

and top_merge ~mode l1 l2 =
  (* (top-merge): group the labels of the two tops by tag, joining labels
     that share a tag. *)
  let tags = List.sort_uniq Tag.compare (List.map Shape.tagof (l1 @ l2)) in
  let find ls t = List.find_opt (fun l -> Tag.equal (Shape.tagof l) t) ls in
  let labels =
    List.map
      (fun t ->
        match (find l1 t, find l2 t) with
        | Some a, Some b -> Shape.strip_nullable (csh ~mode a b)
        | Some a, None | None, Some a -> a
        | None, None -> assert false)
      tags
  in
  canonical_top labels

and top_include ~mode labels s =
  (* s is neither bottom, null nor a top here. Labels are non-nullable, so
     strip a nullable wrapper first (Figure 4 applies ⌊−⌋). *)
  let label = Shape.strip_nullable s in
  let t = Shape.tagof label in
  match List.partition (fun l -> Tag.equal (Shape.tagof l) t) labels with
  (* (top-add) *)
  | [], _ -> canonical_top (label :: labels)
  (* (top-incl) *)
  | [ l0 ], rest ->
      canonical_top (Shape.strip_nullable (csh ~mode l0 label) :: rest)
  | _ -> assert false

and top_any s1 s2 =
  (* (top-any): two shapes with distinct tags and no smaller upper bound. *)
  canonical_top [ Shape.strip_nullable s1; Shape.strip_nullable s2 ]

and csh_all ?(mode : mode = `Hetero) shapes =
  List.fold_left (fun acc s -> csh ~mode acc s) Bottom shapes
