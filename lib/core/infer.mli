(** Shape inference from sample data (Figure 3).

    [S(d)] maps a data value to its most specific shape; [S(d1, ..., dn)]
    folds the common preferred shape over several samples starting from
    bottom. Records are handled with the row-variable mechanism of the
    paper: the minimal ground substitution surfaces as the
    make-one-sided-fields-nullable rule inside {!Csh.csh}.

    Two axes of configuration mirror the paper:

    - [`Paper] inference is Figure 3 verbatim: integers are [int], strings
      are [string], collections are homogeneous (rule (list) of Figure 2).
      This is the algebra used by the formal development of Sections 3-5.
    - [`Practical] inference (the default; what F# Data ships) additionally
      (a) classifies string literals with {!Fsdata_data.Primitive} — so
      ["35.14229"] infers as [float], ["2012"] as [int], ["2012-05-01"] as
      [date], ["0"]/["1"] as [bit], missing-value markers as [null]
      (Section 6.2) — and (b) infers heterogeneous collections with
      multiplicities (Section 6.4).
    - [`Xml] is [`Practical] except that collections follow the XML
      discipline of Section 2.2: the elements of a body are joined into a
      single entry (a labelled top when several element kinds occur), so
      that the provider exposes an element type with optional members
      rather than per-tag accessors. *)

type mode = [ `Paper | `Practical | `Xml ]

val shape_of_value : ?mode:mode -> Fsdata_data.Data_value.t -> Shape.t
(** [S(d)]. Default mode is [`Practical]. *)

val shape_of_samples : ?mode:mode -> Fsdata_data.Data_value.t list -> Shape.t
(** [S(d1, ..., dn)] — bottom when the list is empty. *)

val classify_string : string -> Shape.t
(** The shape a string literal infers to in practical mode. *)

val csh_mode : mode -> Csh.mode
(** The collection-merging discipline each inference mode folds with:
    [`Paper] → [`Core], [`Practical] → [`Hetero], [`Xml] → [`Xml]. *)

(** {1 Ingestion}

    One driver, {!run}, infers the shape of a corpus from any source, at
    any degree of parallelism, under any error budget. Inference from
    samples is one fold of csh over the samples (Figure 3), and Lemma 1
    makes csh an associative, commutative join, so sequential, parallel,
    buffered and fed inference only regroup that fold: the corpus is cut
    into chunks, each chunk is folded (on a worker domain when
    [jobs > 1]), and the chunk shapes are merged with a balanced csh
    tree. The result equals the sequential fold by {!Shape.equal}, the
    paper's shape identity ("record fields can be freely reordered");
    its representation is preserved too, except on corpora whose
    samples mix records with other tagged shapes, where re-association
    can change the field order inside a labelled top. The property
    suite [test/test_par_infer.ml] pins this down.

    Faulty samples are {e quarantined} — recorded with a structured
    diagnostic and the skipped text, and left out of the fold — as long
    as their number stays within the error budget. *)

type quarantined = {
  q_index : int;  (** global 0-based sample index within the corpus *)
  q_diagnostic : Fsdata_data.Diagnostic.t;
  q_text : string option;  (** the skipped raw text, when available *)
}

type report = {
  shape : Shape.t;  (** the shape of the clean subset *)
  total : int;  (** samples seen, parsed and quarantined alike *)
  quarantined : quarantined list;  (** in sample order *)
}

type source =
  | Samples of string list  (** one document per string *)
  | Stream of string  (** whitespace-separated documents *)
  | Feed of ((string -> unit) -> unit)
      (** a {!Stream} arriving in fragments: [Feed feed] calls [feed
          push], and the driver parses each fragment the caller
          [push]es, holding at most one partial document in memory *)

val run :
  ?cancel:Fsdata_data.Cancel.t ->
  ?mode:mode ->
  ?chunk_size:int ->
  jobs:int ->
  budget:Fsdata_data.Diagnostic.budget ->
  Fsdata_data.Diagnostic.format ->
  source ->
  (report, string) result
(** [run ~jobs ~budget format source] parses [source] as [format] and
    infers the shape of its samples.

    - [jobs = 1] is the sequential fold on the calling domain;
      [jobs <= 0] means the recommended domain count. At most 64
      domains are used.
    - [budget = Strict] fails on the first fault with its legacy
      one-line message ({!Fsdata_data.Diagnostic.message_of}); any
      other budget quarantines faults up to the budget and otherwise
      fails with a message naming the first one.
    - [Samples] is split into [jobs] contiguous chunks, parsed and
      inferred in the workers, each sample behind an isolation boundary
      that turns any fault, even an unexpected exception, into a
      diagnostic with the sample's global index.
    - [Stream] and [Feed] are parsed on the calling domain by
      {!Fsdata_data.Json.fold_many} / {!Fsdata_data.Json.fold_feed} in
      recovering mode (a malformed document costs one sample, and the
      parser resynchronizes at the next top-level boundary). A chunk is
      cut by documents ([chunk_size], default 65536) or consumed bytes,
      never at fragment boundaries, so a fed body gives the same report
      whatever its fragments. An empty stream is an error.
    - XML is one document per sample (a [Stream] or [Feed] is one
      document) and infers in [`Xml] mode by default; JSON defaults to
      [`Practical]. A CSV source is one table whose data rows are the
      samples; ragged rows are quarantined, an unterminated quoted cell
      fails regardless of budget, and [mode] does not apply.

    [cancel] is polled between samples on the calling domain and raises
    {!Fsdata_data.Cancel.Cancelled} once it trips; worker domains are
    always joined first. The serve layer uses it to cut off requests
    whose deadline expired mid-parse. *)

(** {2 Names kept for the benchmark}

    [perfbench/pbref.ml], a separate dune project in the workspace,
    links these two names, so they stay as sequential applications of
    {!run}. *)

val of_json_tolerant :
  ?cancel:Fsdata_data.Cancel.t ->
  ?mode:mode ->
  budget:Fsdata_data.Diagnostic.budget ->
  string ->
  (report, string) result
(** [run ~jobs:1 ~budget Json (Stream src)]. *)

val of_csv_tolerant :
  ?cancel:Fsdata_data.Cancel.t ->
  budget:Fsdata_data.Diagnostic.budget ->
  string ->
  (report, string) result
(** [run ~jobs:1 ~budget Csv (Stream src)]. *)

(** {2 Pieces of the driver the property tests check} *)

val shape_of_sample :
  mode:mode ->
  format:Fsdata_data.Diagnostic.format ->
  index:int ->
  parse:(string -> (Fsdata_data.Data_value.t, Fsdata_data.Diagnostic.t) result) ->
  string ->
  (Shape.t, Fsdata_data.Diagnostic.t) result
(** The per-sample isolation boundary of {!run}: parse and infer one
    sample, converting any fault — a parse error or an unexpected
    exception escaping [parse] or inference — into a diagnostic
    carrying the sample's [index]. Never raises. *)

val chunk : int -> 'a list -> 'a list list
(** [chunk k xs] splits [xs] into at most [k] contiguous runs of
    near-equal length, preserving order; no run is empty. [chunk k []]
    is [[]]. Raises [Invalid_argument] when [k < 1]. *)

val csh_tree : ?mode:Csh.mode -> Shape.t list -> Shape.t
(** Balanced tree reduction of {!Csh.csh} over a list of shapes:
    adjacent shapes are merged pairwise until one remains. Equal to
    {!Csh.csh_all} on the same list (Lemma 1), in logarithmically many
    rounds. [csh_tree []] is [Shape.Bottom]. Default mode is
    [`Hetero], as for {!Csh.csh}. {!run} builds the same tree over its
    chunk shapes as they arrive. *)

val shape_of_samples_par :
  ?mode:mode -> jobs:int -> Fsdata_data.Data_value.t list -> Shape.t
(** {!shape_of_samples} over [jobs] chunks through {!run}'s dispatcher,
    merged with {!csh_tree}: the value-level form of the chunked fold
    that the sequential ≡ parallel property checks against Lemma 1. *)
