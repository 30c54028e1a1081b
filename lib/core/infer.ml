open Fsdata_data
module Obs_trace = Fsdata_obs.Trace
module Obs_metrics = Fsdata_obs.Metrics

type mode = [ `Paper | `Practical | `Xml ]

(* Observability (docs/OBSERVABILITY.md). The three ingest counters
   reconcile by construction: [ingest.samples_total] is bumped exactly
   when either [ingest.samples_clean] (with [infer.samples]) or
   [ingest.samples_quarantined] is, by {!count_clean} and the quarantine
   collector of {!run}. For CSV the unit of ingestion is the row,
   matching what the error budget counts. *)
let m_samples = Obs_metrics.counter "infer.samples"
let m_ingest_total = Obs_metrics.counter "ingest.samples_total"
let m_ingest_clean = Obs_metrics.counter "ingest.samples_clean"
let m_ingest_quarantined = Obs_metrics.counter "ingest.samples_quarantined"

let classify_string s : Shape.t =
  match Primitive.classify s with
  | Primitive.Hint_null -> Null
  | Primitive.Hint_bit0 -> Primitive Bit0
  | Primitive.Hint_bit1 -> Primitive Bit1
  | Primitive.Hint_int -> Primitive Int
  | Primitive.Hint_float -> Primitive Float
  | Primitive.Hint_bool -> Primitive Bool
  | Primitive.Hint_date -> Primitive Date
  | Primitive.Hint_string -> Primitive String

let rec shape_of_value ?(mode : mode = `Practical) (d : Data_value.t) : Shape.t =
  match d with
  | Null -> Null
  | Bool _ -> Primitive Bool
  | Int _ -> Primitive Int
  | Float _ -> Primitive Float
  | String s -> (
      match mode with
      | `Paper -> Primitive String
      | `Practical | `Xml -> classify_string s)
  | List ds -> infer_collection ~mode ds
  | Record (name, fields) ->
      Shape.record name
        (List.map (fun (n, v) -> (n, shape_of_value ~mode v)) fields)

and infer_collection ~mode ds =
  let shapes = List.map (fun d -> shape_of_value ~mode d) ds in
  match mode with
  | `Paper ->
      (* Figure 3: S([d1; ...; dn]) = [S(d1, ..., dn)] *)
      Shape.collection (Csh.csh_all ~mode:`Core shapes)
  | (`Practical | `Xml) as mode ->
      (* Section 6.4: group element shapes by tag; per tag, join shapes
         and record the observed multiplicity. Element shapes produced by
         S are never nullable or tops, so same-tag joins preserve the tag
         and a single grouping pass suffices. *)
      let cmode = csh_mode mode in
      let groups : (Tag.t * (Shape.t * int)) list ref = ref [] in
      List.iter
        (fun s ->
          let t = Shape.tagof s in
          match List.assoc_opt t !groups with
          | Some (s0, n) ->
              groups :=
                (t, (Csh.csh ~mode:cmode s0 s, n + 1))
                :: List.remove_assoc t !groups
          | None -> groups := (t, (s, 1)) :: !groups)
        shapes;
      let pairs =
        List.rev_map (fun (_, (s, n)) -> (s, Multiplicity.of_count n)) !groups
      in
      let pairs =
        match (mode, pairs) with
        | `Xml, _ :: _ :: _ ->
            (* Section 2.2: several element kinds under one parent join
               into a single labelled-top entry — the Element type with
               optional members — rather than per-tag accessors. *)
            let shape = Csh.csh_all ~mode:cmode (List.map fst pairs) in
            (* at least two element kinds means at least two elements *)
            [ (shape, Multiplicity.Multiple) ]
        | _ -> pairs
      in
      if pairs = [] then Shape.collection Shape.Bottom else Shape.hetero pairs

and csh_mode : mode -> Csh.mode = function
  | `Paper -> `Core
  | `Practical -> `Hetero
  | `Xml -> `Xml

let shape_of_samples ?(mode : mode = `Practical) ds =
  Obs_trace.with_span "infer.samples" @@ fun () ->
  if Obs_metrics.enabled () then Obs_metrics.add m_samples (List.length ds);
  Csh.csh_all ~mode:(csh_mode mode)
    (List.map (fun d -> shape_of_value ~mode d) ds)

(* ----- Ingestion: one driver over every source -----

   Inference from samples is one fold of csh over the samples (Figure 3),
   and Lemma 1 makes csh an associative, commutative join. So sequential,
   parallel, buffered and fed inference only regroup that one fold, and
   strict versus tolerant ingestion is only an error budget: {!run} is
   the single driver, built from one copy each of the isolation
   boundary, the quarantine collector, the spawn/join dispatcher and the
   budget check. *)

type quarantined = {
  q_index : int;
  q_diagnostic : Diagnostic.t;
  q_text : string option;
}

type report = {
  shape : Shape.t;
  total : int;
  quarantined : quarantined list;
}

type source =
  | Samples of string list
  | Stream of string
  | Feed of ((string -> unit) -> unit)

(* [par.chunk_size] summarizes how evenly the corpus was split;
   [par.domains_spawned] counts only actual [Domain.spawn]s, so it stays
   0 on sequential runs. *)
let m_chunks = Obs_metrics.counter "par.chunks"
let m_spawned = Obs_metrics.counter "par.domains_spawned"
let h_chunk_size = Obs_metrics.histogram "par.chunk_size"

(* The runtime supports ~128 concurrent domains; stay well below so a
   generous --jobs never aborts the program. *)
let max_jobs = 64

let effective_jobs jobs =
  if jobs <= 0 then min max_jobs (max 1 (Domain.recommended_domain_count ()))
  else min max_jobs jobs

let chunk k xs =
  if k < 1 then invalid_arg "Infer.chunk: k must be positive";
  let n = List.length xs in
  if n = 0 then []
  else begin
    let k = min k n in
    (* first [n mod k] chunks get one extra element *)
    let base = n / k and extra = n mod k in
    let rec take i acc xs =
      if i = 0 then (List.rev acc, xs)
      else
        match xs with
        | [] -> (List.rev acc, [])
        | x :: rest -> take (i - 1) (x :: acc) rest
    in
    let rec go i xs =
      if i >= k then []
      else
        let size = base + if i < extra then 1 else 0 in
        let c, rest = take size [] xs in
        c :: go (i + 1) rest
    in
    go 0 xs
  end

(* The balanced csh tree, built incrementally: shapes pushed in order
   are merged as soon as two subtrees over the same number of shapes
   meet, so at most log2 n partial shapes stay alive, and [tree_result]
   merges what is left from the right. That is exactly the merge order of
   round-by-round pairing of adjacent shapes. Adjacent shapes only are
   merged, so order-sensitive parts of the representation (record field
   order) match the sequential left fold. *)
let rec tree_push ~merge tree (level, s) =
  match tree with
  | (l, s0) :: rest when l = level -> tree_push ~merge rest (level + 1, merge s0 s)
  | _ -> (level, s) :: tree

let tree_result ~merge = function
  | [] -> Shape.Bottom
  | (_, s) :: rest -> List.fold_left (fun acc (_, s0) -> merge s0 acc) s rest

let csh_tree ?(mode = `Hetero) shapes =
  let merge = Csh.csh ~mode in
  tree_result ~merge
    (List.fold_left (fun tree s -> tree_push ~merge tree (0, s)) [] shapes)

(* The spawn/join dispatcher. [produce submit] hands over chunks of work
   in corpus order; [submit ~offset ~size work] runs [work] on the
   calling domain when [jobs = 1] or [inline], and otherwise on a fresh
   domain, joining the oldest first once [jobs] domains are in flight.
   Each chunk is an [infer.chunk] span recorded in the domain that runs
   it. A chunk's work returns its shape and the faults it quarantined;
   the shapes are merged into the csh tree on the calling domain as they
   arrive, one [infer.merge] span per merge. A chunk run on the calling
   domain arrives when submitted, a spawned one when joined, oldest
   first; callers submit so that this is corpus order. Every spawned
   domain is joined before [dispatch] returns or re-raises. *)
let dispatch ~jobs ~cmode produce =
  let merge a b =
    Obs_trace.with_span "infer.merge" (fun () -> Csh.csh ~mode:cmode a b)
  in
  let inflight = Queue.create () and tree = ref [] and faults = ref [] in
  let collect (shape, qs) =
    tree := tree_push ~merge !tree (0, shape);
    faults := List.rev_append qs !faults
  in
  let join_oldest () = collect (Domain.join (Queue.pop inflight)) in
  let submit ?(inline = false) ~offset ~size work =
    let work () =
      Obs_metrics.incr m_chunks;
      Obs_metrics.observe h_chunk_size (float_of_int size);
      if Obs_trace.enabled () then
        Obs_trace.with_span "infer.chunk"
          ~args:
            [ ("offset", string_of_int offset); ("size", string_of_int size) ]
          work
      else work ()
    in
    if inline || jobs = 1 then collect (work ())
    else begin
      if Queue.length inflight >= jobs then join_oldest ();
      Obs_metrics.incr m_spawned;
      Queue.add (Domain.spawn work) inflight
    end
  in
  match
    produce submit;
    while not (Queue.is_empty inflight) do
      join_oldest ()
    done
  with
  | () -> (tree_result ~merge !tree, List.rev !faults)
  | exception exn ->
      Queue.iter (fun d -> try ignore (Domain.join d) with _ -> ()) inflight;
      raise exn

(* [jobs] contiguous chunks: all but the first on worker domains, the
   first on the calling domain while they run (so it still arrives
   first). [work ~first ~offset c] is the work for chunk [c], whose
   first element has global index [offset]. *)
let dispatch_chunks ~jobs ~cmode work xs =
  let rec with_offsets off = function
    | [] -> []
    | c :: rest -> (off, c) :: with_offsets (off + List.length c) rest
  in
  dispatch ~jobs ~cmode (fun submit ->
      match with_offsets 0 (chunk jobs xs) with
      | [] -> ()
      | (offset0, c0) :: rest ->
          List.iter
            (fun (offset, c) ->
              submit ~offset ~size:(List.length c)
                (work ~first:false ~offset c))
            rest;
          submit ~inline:true ~offset:offset0 ~size:(List.length c0)
            (work ~first:true ~offset:offset0 c0))

let shape_of_samples_par ?(mode : mode = `Practical) ~jobs ds =
  let jobs = effective_jobs jobs in
  fst
    (dispatch_chunks ~jobs ~cmode:(csh_mode mode)
       (fun ~first:_ ~offset:_ c () -> (shape_of_samples ~mode c, []))
       ds)

(* The per-sample isolation boundary: anything a sample does wrong — a
   parse fault, or an unexpected exception escaping parsing or
   inference — becomes a diagnostic attributed to that sample, never an
   exception for the caller. *)
let shape_of_sample ~mode ~format ~index ~parse text =
  match Result.map (shape_of_value ~mode) (parse text) with
  | Ok _ as ok -> ok
  | Error d -> Error (Diagnostic.with_index index d)
  | exception Diagnostic.Parse_error d -> Error (Diagnostic.with_index index d)
  | exception exn ->
      Error
        (Diagnostic.make ~index ~format ~line:1 ~column:0
           ("unexpected error: " ^ Printexc.to_string exn))

let count_clean k =
  if Obs_metrics.enabled () then begin
    Obs_metrics.add m_ingest_total k;
    Obs_metrics.add m_ingest_clean k;
    Obs_metrics.add m_samples k
  end

(* The quarantine collector: a handler in the shape the recovering
   parsers call, and the faults it collected, in the order met. Each
   domain that meets faults owns its own. *)
let collector () =
  let qs = ref [] in
  let quarantine (d : Diagnostic.t) ~skipped =
    Obs_metrics.incr m_ingest_total;
    Obs_metrics.incr m_ingest_quarantined;
    let q_index = Option.value ~default:0 d.Diagnostic.index in
    qs := { q_index; q_diagnostic = d; q_text = Some skipped } :: !qs
  in
  (quarantine, fun () -> List.rev !qs)

(* The budget check and the report, from the merged shape and the
   faults the chunks quarantined, plus [faults] quarantined on the
   calling domain. A [Strict] run fails with the first fault's legacy
   one-line message, as strict parsing always printed it. *)
let conclude ~budget ~total (shape, chunk_faults) faults =
  let qs =
    List.stable_sort
      (fun a b -> Int.compare a.q_index b.q_index)
      (chunk_faults @ faults)
  in
  let errors = List.length qs in
  match qs with
  | first :: _ when budget = Diagnostic.Strict ->
      Error (Diagnostic.message_of first.q_diagnostic)
  | first :: _ when not (Diagnostic.allows budget ~errors ~total) ->
      Error
        (Printf.sprintf
           "error budget exceeded: %d of %d samples malformed (budget %s); \
            first: %s"
           errors total
           (Diagnostic.budget_to_string budget)
           (Diagnostic.to_string first.q_diagnostic))
  | _ -> Ok { shape; total; quarantined = qs }

(* Samples: [jobs] contiguous chunks parsed and inferred in the workers,
   each sample through the isolation boundary. Only the calling domain
   polls [cancel]: worker chunks are bounded work already in flight. *)
let of_texts ~cancel ~mode ~format ~parse ~jobs ~budget texts =
  let cmode = csh_mode mode in
  let fold_chunk ~first ~offset texts () =
    let quarantine, collected = collector () in
    let acc = ref Shape.Bottom in
    List.iteri
      (fun i t ->
        (* outside the isolation boundary, which would otherwise swallow
           [Cancelled] as a quarantine diagnostic *)
        if first then Cancel.check cancel;
        match shape_of_sample ~mode ~format ~index:(offset + i) ~parse t with
        | Ok s ->
            count_clean 1;
            acc := Csh.csh ~mode:cmode !acc s
        | Error d -> quarantine d ~skipped:t)
      texts;
    (!acc, collected ())
  in
  conclude ~budget ~total:(List.length texts)
    (dispatch_chunks ~jobs ~cmode fold_chunk texts)
    []

(* Chunk granularity for document streams. With workers, a chunk is
   cut once it has consumed [corpus bytes / (jobs * chunks_per_job)]
   source bytes, clamped to [[min_chunk_bytes, max_chunk_bytes]], or
   [chunk_size] documents, so the hand-off cost is amortized over a
   corpus-sized slice of work (EXPERIMENTS.md B7); a fed stream's size is
   unknown up front, so it is cut at [min_chunk_bytes]. At [jobs = 1]
   nothing is handed off, and chunks are cut at [seq_chunk_bytes], about
   one socket read, so that parsed documents die young: on a 3 MiB
   corpus, 64 KiB and larger chunks promoted about five times the words
   to the major heap. A fed and a buffered stream are thus cut alike at
   [jobs = 1], and with workers on every corpus below [jobs *
   chunks_per_job * min_chunk_bytes]. *)
let chunks_per_job = 8
let min_chunk_bytes = 64 * 1024
let max_chunk_bytes = 8 * 1024 * 1024
let seq_chunk_bytes = 8 * 1024

(* Stream and Feed: the calling domain parses chunk after chunk,
   quarantining malformed documents with their stream index, and hands
   each clean chunk to the dispatcher for inference, so at most [jobs]
   chunks of parsed documents are resident. *)
let of_documents ~mode ~jobs ~budget fold =
  let cmode = csh_mode mode in
  let quarantine, collected = collector () in
  let seen = ref 0 in
  let infer_chunk ds () =
    ( List.fold_left
        (fun acc d -> Csh.csh ~mode:cmode acc (shape_of_value ~mode d))
        Shape.Bottom ds,
      [] )
  in
  let merged =
    dispatch ~jobs ~cmode (fun submit ->
        fold ~on_error:quarantine
          (fun () ds ->
            let size = List.length ds in
            count_clean size;
            submit ~offset:!seen ~size (infer_chunk ds);
            seen := !seen + size)
          ())
  in
  let faults = collected () in
  let total = !seen + List.length faults in
  if total = 0 then Error "no JSON sample documents found"
  else conclude ~budget ~total merged faults

(* CSV: each data row is a sample; ragged rows are quarantined, while a
   structural fault (an unterminated quoted cell) fails the run whatever
   the budget. *)
let of_table ~cancel ~budget src =
  Cancel.check cancel;
  let quarantine, collected = collector () in
  match Csv.parse_tolerant ~on_error:quarantine src with
  | Error d -> Error (Diagnostic.message_of d)
  | Ok table ->
      let rows = List.length table.Csv.rows in
      count_clean rows;
      let faults = collected () in
      let shape =
        shape_of_value ~mode:`Practical
          (Csv.to_data ~convert_primitives:false table)
      in
      conclude ~budget ~total:(rows + List.length faults) (shape, []) faults

let run ?(cancel = Cancel.never) ?mode ?(chunk_size = 65536) ~jobs ~budget
    (format : Diagnostic.format) source =
  let jobs = effective_jobs jobs in
  let texts = function
    | Samples texts -> texts
    | Stream src -> [ src ]
    | Feed feed ->
        let buf = Buffer.create 4096 in
        feed (Buffer.add_string buf);
        [ Buffer.contents buf ]
  in
  match format with
  | Csv -> (
      match texts source with
      | [ src ] -> of_table ~cancel ~budget src
      | _ -> Error "csv: exactly one sample file is supported")
  | Xml ->
      let parse t =
        (* inference classifies the raw attribute/body strings itself *)
        Result.map (Xml.to_data ~convert_primitives:false) (Xml.parse_diag t)
      in
      of_texts ~cancel ~mode:(Option.value mode ~default:`Xml) ~format ~parse
        ~jobs ~budget (texts source)
  | Json -> (
      let mode = Option.value mode ~default:`Practical in
      match source with
      | Samples texts ->
          of_texts ~cancel ~mode ~format ~parse:Json.parse_diag ~jobs ~budget
            texts
      | Stream src ->
          let chunk_bytes =
            if jobs = 1 then seq_chunk_bytes
            else
              max min_chunk_bytes
                (min max_chunk_bytes
                   (String.length src / (jobs * chunks_per_job)))
          in
          of_documents ~mode ~jobs ~budget (fun ~on_error f acc ->
              Json.fold_many ~cancel ~chunk_size ~chunk_bytes ~on_error f acc
                src)
      | Feed feed ->
          let chunk_bytes =
            if jobs = 1 then seq_chunk_bytes else min_chunk_bytes
          in
          of_documents ~mode ~jobs ~budget (fun ~on_error f acc ->
              Json.fold_feed ~cancel ~chunk_size ~chunk_bytes ~on_error f acc
                feed))

let of_json_tolerant ?cancel ?mode ~budget src =
  run ?cancel ?mode ~jobs:1 ~budget Json (Stream src)

let of_csv_tolerant ?cancel ~budget src =
  run ?cancel ~jobs:1 ~budget Csv (Stream src)
