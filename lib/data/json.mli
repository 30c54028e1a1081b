(** JSON parsing and printing.

    A self-contained RFC 8259 parser producing {!Data_value.t}. JSON
    objects become records named {!Data_value.json_record_name} (the
    paper's [•]); arrays become lists; numbers become [Int] when they are
    written without fraction/exponent and fit a native [int], and [Float]
    otherwise — this distinction is what lets shape inference prefer [int]
    over [float] (rule (1) of the preferred shape relation).

    The parser reports errors with line/column positions, handles the full
    escape syntax including [\uXXXX] surrogate pairs (decoded to UTF-8),
    and rejects trailing garbage. Duplicate object keys keep the last
    binding, matching common JSON library behaviour. *)

exception Parse_error of { line : int; column : int; message : string }
(** Thin compatibility wrapper: the parser reports faults as structured
    {!Diagnostic.t}s (format, position, message) and the public entry
    points convert them to this legacy exception. *)

val parse : string -> Data_value.t
(** @raise Parse_error on malformed input. *)

val parse_diag : string -> (Data_value.t, Diagnostic.t) result
(** Like {!parse} but returning the structured diagnostic. *)

val parse_result : string -> (Data_value.t, string) result
(** Like {!parse} but returning the formatted error message. *)

val parse_many : string -> Data_value.t list
(** Parse a stream of whitespace-separated JSON documents (as used when a
    sample file contains several samples). *)

val fold_many :
  ?cancel:Cancel.t ->
  ?chunk_size:int ->
  ?chunk_bytes:int ->
  ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
  ('acc -> Data_value.t list -> 'acc) ->
  'acc ->
  string ->
  'acc
(** Chunked driver over a stream of whitespace-separated JSON documents:
    parse up to [chunk_size] documents (default 256), hand them to the
    fold function, and continue, so the caller can process (or ship to
    another domain) a bounded batch at a time instead of materializing
    the whole corpus. With [chunk_bytes] a chunk is also cut once it has
    consumed at least that many source bytes, whichever cap fills first —
    callers that want large chunks measured in documents stay safe on
    corpora of huge documents. Positions in {!Parse_error} are relative
    to the whole stream. [parse_many] is [fold_many] collecting every
    chunk. Raises [Invalid_argument] when [chunk_size < 1] or
    [chunk_bytes < 1].

    With [on_error] the driver runs in {e recovering} mode: a malformed
    document is skipped instead of aborting the stream. The handler
    receives the diagnostic — carrying the document's 0-based stream
    index — and the skipped raw text; the parser then resynchronizes at
    the next top-level document boundary (the closing bracket that
    re-balances the corrupt document, or failing that the next line
    starting with ['{'] or ['[']) and continues. Without [on_error] the
    first fault raises {!Parse_error}, exactly as before.

    [cancel] is polled before each document; when it trips the driver
    raises {!Cancel.Cancelled} immediately, without consuming further
    input or invoking the fold function again. *)

val fold_feed :
  ?cancel:Cancel.t ->
  ?chunk_size:int ->
  ?chunk_bytes:int ->
  ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
  ('acc -> Data_value.t list -> 'acc) ->
  'acc ->
  ((string -> unit) -> unit) ->
  'acc
(** [fold_many] over a stream that arrives in fragments: [fold_feed f
    acc feed] calls [feed push] and parses every fragment the caller
    [push]es through a {!Cursor}, holding at most one partial document
    between fragments. Chunks are cut by documents and consumed bytes
    exactly as in {!fold_many}, never at fragment boundaries, so the
    fold sees the same chunks, diagnostics and stream indices whatever
    the fragment sizes. *)

(** Incremental parsing of a document stream fed in arbitrary string
    fragments (e.g. fixed-size file reads). The cursor retains at most
    one partial document between feeds; error positions are relative to
    the whole stream fed so far, not the current fragment. *)
module Cursor : sig
  type t

  val create :
    ?cancel:Cancel.t ->
    ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
    unit ->
    t
  (** With [on_error], the cursor runs in recovering mode: a
      definitely-malformed document whose recovery boundary lies within
      the input fed so far is skipped and reported to the handler (with
      its stream-global document index and raw text) instead of raising;
      a fault whose document might still be completed by future input is
      held back until more input or {!finish} decides. [cancel] is
      polled before each document inside {!feed} and {!finish}; when it
      trips, {!Cancel.Cancelled} is raised. *)

  val feed : t -> string -> Data_value.t list
  (** Parse as many complete documents as the input fed so far allows
      and return them in stream order. A trailing document that may
      still be incomplete — a truncated document, or a top-level number
      ending exactly at the fragment boundary, since its digits could
      continue in the next fragment — is retained for the next [feed]
      or {!finish}.
      @raise Parse_error on definitely-malformed input (strict cursors
      only), with line and column relative to the whole stream. *)

  val finish : t -> Data_value.t list
  (** Signal end of stream: parse and return the retained tail (empty
      if there is none), resetting the cursor. In recovering mode every
      remaining fault is definite: it is reported and skipped.
      @raise Parse_error if the tail is an incomplete document (strict
      cursors only), with stream-global positions. *)
end

(** Raw access to the parser's lexing machinery, for shape-specialized
    parser compilation ([Fsdata_core.Shape_compile]). A compiled decoder
    drives the same mutable state, token readers and resynchronization
    as the generic parser, so its error positions (via
    [Diagnostic.Parse_error]) and recovery boundaries are identical to
    the interpreted path by construction. Not a stable public API:
    intended for in-tree consumers. *)
module Raw : sig
  type state
  (** Mutable scan state over one source string: position, line
      bookkeeping and nesting depth. *)

  type mark
  (** Immutable snapshot of a position (offset, line, line start), used
      to rewind to a document start for fallback re-parsing. *)

  val make : string -> state
  val mark : state -> mark

  val reset : state -> mark -> unit
  (** Rewind to [mark] and clear the nesting depth (a failed descent may
      have left it non-zero). *)

  val offset : state -> int
  val offset_of_mark : mark -> int
  val source : state -> string
  val at_eof : state -> bool

  val peek_char : state -> char
  (** Non-allocating [peek]: the next character, or ['\000'] at end of
      input (a literal NUL in the source is a control character and
      errors on any path that could consume it). *)

  val lit : state -> string -> bool
  (** [lit st s] consumes the source bytes at the cursor when they are
      exactly [s] and returns [true]; otherwise leaves the cursor
      untouched. [s] must not contain newlines (no line bookkeeping).
      Lets a compiled record decoder match an expected ["key"] without
      decoding or allocating. *)

  val peek : state -> char option
  val advance : state -> unit
  val skip_ws : state -> unit

  val expect : state -> char -> unit
  (** @raise Diagnostic.Parse_error when the next character differs. *)

  val parse_string : state -> string
  (** Scan a JSON string literal (opening quote included), decoding the
      full escape syntax. @raise Diagnostic.Parse_error on faults. *)

  val parse_number : state -> Data_value.t
  (** Scan a JSON number: [Int] when written without fraction/exponent
      and it fits a native [int], else [Float].
      @raise Diagnostic.Parse_error on faults. *)

  val parse_value : state -> Data_value.t
  (** The generic recursive-descent parser, from the current position.
      @raise Diagnostic.Parse_error on faults. *)

  val resync : state -> start:int -> bool
  (** Advance past a malformed document (whose text began at [start]) to
      the most plausible next top-level document boundary; see
      {!fold_many}'s recovering mode. Returns [false] when the rest of
      the input was consumed instead. *)

  val fail : state -> string -> 'a
  (** Raise [Diagnostic.Parse_error] at the current position with the
      given message — the same diagnostic shape the parser itself
      raises. *)
end

val to_string : ?indent:int -> Data_value.t -> string
(** Print a data value as JSON. With [indent] (spaces per level) the output
    is pretty-printed; default is compact. Record names are not printed
    (JSON objects are anonymous); XML-derived values therefore lose their
    element names when printed as JSON. *)

val pp : Format.formatter -> Data_value.t -> unit
(** Compact JSON printer usable with [%a]. *)
