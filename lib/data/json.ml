exception Parse_error of { line : int; column : int; message : string }

(* Observability (docs/OBSERVABILITY.md): document counts, input bytes and
   parse nanoseconds per format. Registered at module initialization so
   the exported key set does not depend on which paths a run exercises;
   recording costs one branch until enabled. *)
let m_docs = Fsdata_obs.Metrics.counter "parse.json.documents"
let m_bytes = Fsdata_obs.Metrics.counter "parse.json.bytes"
let m_ns = Fsdata_obs.Metrics.counter "parse.json.ns"

(* The parser reports errors as structured {!Diagnostic.t}s; this legacy
   exception is a thin compatibility wrapper the public entry points
   convert to, so pre-diagnostic handlers keep working unchanged. *)
let reraise_legacy (d : Diagnostic.t) =
  raise (Parse_error { line = d.line; column = d.column; message = d.message })

let legacy f = try f () with Diagnostic.Parse_error d -> reraise_legacy d

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
  mutable depth : int; (* current nesting depth, bounded by [max_depth] *)
}

(* The parser is recursive-descent; bounding the nesting keeps adversarial
   inputs from overflowing the OCaml stack. 10_000 levels is far beyond
   any data document and well within the default stack. *)
let max_depth = 10_000

let make_state src =
  { src; len = String.length src; pos = 0; line = 1; bol = 0; depth = 0 }

let error st fmt =
  Diagnostic.error ~format:Diagnostic.Json ~line:st.line
    ~column:(st.pos - st.bol + 1) fmt

let enter st =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then
    error st "nesting deeper than %d levels" max_depth

let leave st = st.depth <- st.depth - 1

let peek st = if st.pos < st.len then Some st.src.[st.pos] else None

let advance st =
  (if st.pos < st.len && st.src.[st.pos] = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st "expected %C but found %C" c c'
  | None -> error st "expected %C but found end of input" c

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> error st "invalid hexadecimal digit %C in \\u escape" c

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    match peek st with
    | Some c ->
        v := (!v * 16) + hex_digit st c;
        advance st
    | None -> error st "unterminated \\u escape"
  done;
  !v

(* Slow path: decode escape sequences through a buffer. The cursor is
   just past the opening quote. *)
let parse_string_slow st =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape sequence"
        | Some c -> (
            advance st;
            match c with
            | '"' -> Buffer.add_char buf '"'; loop ()
            | '\\' -> Buffer.add_char buf '\\'; loop ()
            | '/' -> Buffer.add_char buf '/'; loop ()
            | 'b' -> Buffer.add_char buf '\b'; loop ()
            | 'f' -> Buffer.add_char buf '\012'; loop ()
            | 'n' -> Buffer.add_char buf '\n'; loop ()
            | 'r' -> Buffer.add_char buf '\r'; loop ()
            | 't' -> Buffer.add_char buf '\t'; loop ()
            | 'u' ->
                let u = parse_hex4 st in
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* high surrogate: require a low surrogate escape next *)
                  if peek st = Some '\\' then begin
                    advance st;
                    if peek st = Some 'u' then begin
                      advance st;
                      let lo = parse_hex4 st in
                      if lo >= 0xDC00 && lo <= 0xDFFF then
                        add_utf8 buf
                          (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                      else error st "invalid low surrogate \\u%04X" lo
                    end
                    else error st "expected \\u escape after high surrogate"
                  end
                  else error st "expected \\u escape after high surrogate"
                end
                else if u >= 0xDC00 && u <= 0xDFFF then
                  error st "unexpected low surrogate \\u%04X" u
                else add_utf8 buf u;
                loop ()
            | c -> error st "invalid escape character %C" c))
    | Some c when Char.code c < 0x20 ->
        error st "unescaped control character %C in string" c
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ()

let parse_string st =
  expect st '"';
  (* Fast path: a literal without escapes or control characters decodes
     to a substring of the source. Nothing in the scanned run can be a
     newline (those are control characters), so no line bookkeeping. *)
  let src = st.src and len = st.len in
  let start = st.pos in
  let i = ref start in
  let stop = ref '\000' in
  while
    !i < len
    &&
    let c = String.unsafe_get src !i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      stop := c;
      false
    end
    else true
  do
    incr i
  done;
  if !stop = '"' then begin
    st.pos <- !i + 1;
    String.sub src start (!i - start)
  end
  else parse_string_slow st

let parse_number st =
  (* Index-scanned for speed: none of the scanned characters can be a
     newline, so no line bookkeeping until the position is committed. *)
  let src = st.src and len = st.len in
  let start = st.pos in
  let i = ref start in
  let neg = !i < len && String.unsafe_get src !i = '-' in
  if neg then incr i;
  let is_digit j = j < len && src.[j] >= '0' && src.[j] <= '9' in
  let is_float = ref false in
  (* integer part: a lone '0', or a run starting with a nonzero digit *)
  (match if !i < len then String.unsafe_get src !i else '\000' with
  | '0' -> incr i
  | '1' .. '9' -> while is_digit !i do incr i done
  | _ ->
      st.pos <- !i;
      error st "invalid number");
  if !i < len && String.unsafe_get src !i = '.' then begin
    is_float := true;
    incr i;
    let d0 = !i in
    while is_digit !i do incr i done;
    if !i = d0 then begin
      st.pos <- !i;
      error st "expected digits after decimal point"
    end
  end;
  if !i < len && (src.[!i] = 'e' || src.[!i] = 'E') then begin
    is_float := true;
    incr i;
    if !i < len && (src.[!i] = '+' || src.[!i] = '-') then incr i;
    let d0 = !i in
    while is_digit !i do incr i done;
    if !i = d0 then begin
      st.pos <- !i;
      error st "expected digits in exponent"
    end
  end;
  let stop = !i in
  st.pos <- stop;
  if !is_float then
    Data_value.Float (float_of_string (String.sub src start (stop - start)))
  else begin
    let dig0 = if neg then start + 1 else start in
    if stop - dig0 <= 18 then begin
      (* at most 18 digits always fits a native int: accumulate without
         the substring + int_of_string round-trip *)
      let acc = ref 0 in
      for j = dig0 to stop - 1 do
        acc := (!acc * 10) + (Char.code (String.unsafe_get src j) - 48)
      done;
      Data_value.Int (if neg then - !acc else !acc)
    end
    else
      let text = String.sub src start (stop - start) in
      match int_of_string_opt text with
      | Some v -> Data_value.Int v
      | None -> Data_value.Float (float_of_string text)
  end

let parse_literal st word value =
  String.iter (fun c -> expect st c) word;
  value

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' -> Data_value.String (parse_string st)
  | Some 't' -> parse_literal st "true" (Data_value.Bool true)
  | Some 'f' -> parse_literal st "false" (Data_value.Bool false)
  | Some 'n' -> parse_literal st "null" Data_value.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected character %C" c

and parse_object st =
  enter st;
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    leave st;
    Data_value.Record (Data_value.json_record_name, [])
  end
  else begin
    let fields = ref [] in
    let rec members () =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      (* last binding wins on duplicate keys *)
      fields := (key, v) :: List.remove_assoc key !fields;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          members ()
      | Some '}' -> advance st
      | Some c -> error st "expected ',' or '}' in object but found %C" c
      | None -> error st "unterminated object"
    in
    members ();
    leave st;
    Data_value.Record (Data_value.json_record_name, List.rev !fields)
  end

and parse_array st =
  enter st;
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    leave st;
    Data_value.List []
  end
  else begin
    let items = ref [] in
    let rec elements () =
      let v = parse_value st in
      items := v :: !items;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          skip_ws st;
          elements ()
      | Some ']' -> advance st
      | Some c -> error st "expected ',' or ']' in array but found %C" c
      | None -> error st "unterminated array"
    in
    elements ();
    leave st;
    Data_value.List (List.rev !items)
  end

(* The one parse funnel: {!parse}, {!fold_many}, {!fold_feed} and the
   {!Cursor} all parse a document through [parse_document] and count it
   through [count_document] once it is accepted, so spans and counters
   mean the same on every JSON path. The [parse.json] span and the
   [parse.json.ns] timer cover every attempt, failed ones included;
   documents and bytes count accepted documents only (a cursor may
   re-parse a document that straddles fragments). *)
let parse_document st =
  Fsdata_obs.Trace.with_span "parse.json" @@ fun () ->
  Fsdata_obs.Metrics.time m_ns @@ fun () -> parse_value st

let count_document bytes =
  Fsdata_obs.Metrics.incr m_docs;
  Fsdata_obs.Metrics.add m_bytes bytes

let parse s =
  legacy (fun () ->
      let st = make_state s in
      skip_ws st;
      let mark = st.pos in
      let v = parse_document st in
      count_document (st.pos - mark);
      skip_ws st;
      (match peek st with
      | Some c -> error st "trailing content after JSON value: %C" c
      | None -> ());
      v)

let parse_diag s =
  match parse s with
  | v -> Ok v
  | exception Parse_error { line; column; message } ->
      Error (Diagnostic.make ~format:Diagnostic.Json ~line ~column message)

let parse_result s =
  match parse_diag s with
  | Ok v -> Ok v
  | Error d -> Error (Diagnostic.message_of d)

(* Resynchronize after a malformed document starting at [start]: advance
   the state to the most plausible start of the next top-level document,
   so one corrupt document does not consume the rest of the stream. Two
   boundary rules, checked per character:

   - structural: a '}' or ']' outside any string literal that returns
     the bracket depth (seeded by rescanning from [start]) to zero
     closes the document — this recovers balanced-but-invalid documents
     like [{"a": tru}] in full;
   - line-based: a newline whose very next character is '{' or '[' (a
     document opener at column 1) starts a fresh document — the
     newline-delimited-corpus fallback for truncated documents whose
     brackets never re-balance.

   Returns [true] when a boundary was found and [false] when the rest of
   the input was consumed (the corrupt document was the last one). The
   scan advances through {!advance} so line/bol bookkeeping — and hence
   the positions of later diagnostics — stays exact. *)
let resync st ~start =
  let depth = ref 0 and in_str = ref false and esc = ref false in
  let scan c =
    if !in_str then begin
      if !esc then esc := false
      else if c = '\\' then esc := true
      else if c = '"' then in_str := false
    end
    else
      match c with
      | '"' -> in_str := true
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | _ -> ()
  in
  for i = start to min st.pos st.len - 1 do
    scan st.src.[i]
  done;
  let found = ref false in
  while (not !found) && st.pos < st.len do
    let c = st.src.[st.pos] in
    if
      c = '\n' && st.pos + 1 < st.len
      && (st.src.[st.pos + 1] = '{' || st.src.[st.pos + 1] = '[')
    then begin
      advance st;
      found := true
    end
    else begin
      scan c;
      advance st;
      if (c = '}' || c = ']') && (not !in_str) && !depth <= 0 then found := true
    end
  done;
  !found

(* Cuts a document stream into the chunks {!fold_many} and {!fold_feed}
   hand to their fold function: a chunk is cut once it holds
   [chunk_size] documents or has consumed [chunk_bytes] source bytes,
   whichever fills first. Both drivers measure a document by the bytes
   its parse consumed, so the same stream is cut at the same documents
   however it arrives. *)
type 'acc chunker = {
  f : 'acc -> Data_value.t list -> 'acc;
  mutable acc : 'acc;
  mutable docs : Data_value.t list;
  mutable n : int;
  mutable bytes : int;
  max_docs : int;
  max_bytes : int;
}

let chunker ~name ~chunk_size ~chunk_bytes f acc =
  if chunk_size < 1 then invalid_arg (name ^ ": chunk_size must be positive");
  let max_bytes =
    match chunk_bytes with
    | None -> max_int
    | Some b ->
        if b < 1 then invalid_arg (name ^ ": chunk_bytes must be positive")
        else b
  in
  { f; acc; docs = []; n = 0; bytes = 0; max_docs = chunk_size; max_bytes }

let flush ck =
  if ck.n > 0 then begin
    let docs = List.rev ck.docs in
    ck.docs <- [];
    ck.n <- 0;
    ck.bytes <- 0;
    ck.acc <- ck.f ck.acc docs
  end

let push ck v ~bytes =
  ck.docs <- v :: ck.docs;
  ck.n <- ck.n + 1;
  ck.bytes <- ck.bytes + bytes;
  if ck.n >= ck.max_docs || ck.bytes >= ck.max_bytes then flush ck

let fold_many ?(cancel = Cancel.never) ?(chunk_size = 256) ?chunk_bytes ?on_error
    f acc s =
  let ck = chunker ~name:"Json.fold_many" ~chunk_size ~chunk_bytes f acc in
  let st = make_state s in
  let rec loop idx =
    skip_ws st;
    if st.pos < st.len then begin
      Cancel.check cancel;
      let mark = st.pos in
      match parse_document st with
      | v ->
          count_document (st.pos - mark);
          push ck v ~bytes:(st.pos - mark);
          loop (idx + 1)
      | exception Diagnostic.Parse_error d -> (
          match on_error with
          | None -> reraise_legacy d
          | Some handler ->
              (* skip the malformed document, report it with its global
                 index and raw text, and keep going *)
              ignore (resync st ~start:mark);
              let skipped = String.trim (String.sub s mark (st.pos - mark)) in
              handler (Diagnostic.with_index idx d) ~skipped;
              loop (idx + 1))
    end
  in
  loop 0;
  flush ck;
  ck.acc

let parse_many s =
  List.rev (fold_many (fun acc c -> List.rev_append c acc) [] s)

(* Incremental parsing of a document stream fed in arbitrary string
   fragments. The cursor keeps the unconsumed tail (at most one partial
   document) and the stream-global line/beginning-of-line of its start,
   so a state seeded from it reports error positions relative to the
   whole stream, not the fragment being parsed: [st.bol] may be
   negative when the current line began before the retained tail, and
   the column arithmetic [st.pos - st.bol + 1] is translation-invariant
   so it keeps working. A partial document is re-parsed from its start
   when more input arrives; in recovering mode only once the input may
   hold its end (see [can_hold]), so a large document fed a byte at a
   time costs linear, not quadratic, time. *)
module Cursor = struct
  type t = {
    mutable pending : string; (* unconsumed tail, starting at a document start *)
    held : Buffer.t; (* input held after [pending] without a parse attempt *)
    mutable line : int; (* stream line of the start of [pending] *)
    mutable bol : int; (* line-start offset relative to [pending]'s start, <= 0 *)
    mutable seen : int; (* documents consumed so far, parsed or skipped *)
    (* {!resync}'s bracket scan over [pending] and [held] *)
    mutable depth : int;
    mutable in_str : bool;
    mutable esc : bool;
    mutable after_nl : bool;
    on_error : (Diagnostic.t -> skipped:string -> unit) option;
    cancel : Cancel.t;
  }

  let create ?(cancel = Cancel.never) ?on_error () =
    {
      pending = "";
      held = Buffer.create 256;
      line = 1;
      bol = 0;
      seen = 0;
      depth = 0;
      in_str = false;
      esc = false;
      after_nl = false;
      on_error;
      cancel;
    }

  (* Continue the pending document's bracket scan over [s]; true at the
     first byte where {!resync} could find a boundary — a closing bracket
     back at depth 0, or a line starting with '{' or '[' — where the scan
     stops, unless [all]. *)
  let scan ?(all = false) cur s =
    let n = String.length s in
    let rec go i found =
      if i >= n || (found && not all) then found
      else begin
        let c = String.unsafe_get s i in
        let opens_line = cur.after_nl && (c = '{' || c = '[') in
        cur.after_nl <- c = '\n';
        if cur.in_str then begin
          if cur.esc then cur.esc <- false
          else if c = '\\' then cur.esc <- true
          else if c = '"' then cur.in_str <- false
        end
        else begin
          match c with
          | '"' -> cur.in_str <- true
          | '{' | '[' -> cur.depth <- cur.depth + 1
          | '}' | ']' -> cur.depth <- cur.depth - 1
          | _ -> ()
        end;
        let closes = (c = '}' || c = ']') && (not cur.in_str) && cur.depth <= 0 in
        go (i + 1) (found || opens_line || closes)
      end
    in
    go 0 false

  (* In recovering mode, a retained document that does not start like a
     scalar can neither complete nor be skipped before a boundary
     arrives, so the input is held without re-parsing it: feeding a
     large document in small fragments stays linear. *)
  let can_hold cur =
    cur.on_error <> None
    && cur.pending <> ""
    && match cur.pending.[0] with
       | '"' | '-' | '0' .. '9' | 't' | 'f' | 'n' -> false
       | _ -> true

  let seeded_state cur buf =
    let st = make_state buf in
    st.line <- cur.line;
    st.bol <- cur.bol;
    st

  (* [feed_with]/[finish_with] (through [parse_with]) hand each accepted
     document to [emit] together with the bytes its parse consumed, the
     measure {!fold_feed} cuts chunks by. *)
  let parse_with cur fragment emit =
    let buf =
      if cur.pending = "" then fragment
      else String.concat "" [ cur.pending; Buffer.contents cur.held; fragment ]
    in
    Buffer.clear cur.held;
    let st = seeded_state cur buf in
    let retain mark mark_line mark_bol =
      cur.pending <- String.sub buf mark (String.length buf - mark);
      cur.line <- mark_line;
      cur.bol <- mark_bol - mark;
      cur.depth <- 0;
      cur.in_str <- false;
      cur.esc <- false;
      cur.after_nl <- false;
      ignore (scan ~all:true cur cur.pending)
    in
    let rec loop () =
      skip_ws st;
      if st.pos >= st.len then begin
        cur.pending <- "";
        cur.line <- st.line;
        cur.bol <- st.bol - st.len
      end
      else begin
        Cancel.check cur.cancel;
        let mark = st.pos and mark_line = st.line and mark_bol = st.bol in
        match parse_document st with
        | v ->
            (* A top-level number ending exactly at the fragment boundary
               could still grow in the next fragment ("12" + "34"), so
               hold it back until more input (or {!finish}) decides. Any
               other document ends on a closing delimiter or a complete
               keyword and cannot extend. *)
            let could_grow =
              match v with
              | Data_value.Int _ | Data_value.Float _ -> st.pos >= st.len
              | _ -> false
            in
            if could_grow then retain mark mark_line mark_bol
            else begin
              count_document (st.pos - mark);
              emit v ~bytes:(st.pos - mark);
              cur.seen <- cur.seen + 1;
              loop ()
            end
        | exception Diagnostic.Parse_error _ when st.pos >= st.len ->
            (* ran off the end of the buffer: incomplete document *)
            retain mark mark_line mark_bol
        | exception Diagnostic.Parse_error d -> (
            match cur.on_error with
            | None -> reraise_legacy d
            | Some handler ->
                if resync st ~start:mark then begin
                  (* the corrupt document ends within this buffer: commit
                     the skip and report it *)
                  let skipped =
                    String.trim (String.sub buf mark (st.pos - mark))
                  in
                  handler (Diagnostic.with_index cur.seen d) ~skipped;
                  cur.seen <- cur.seen + 1;
                  loop ()
                end
                else
                  (* no boundary in sight yet — the document (and its
                     recovery point) may continue in the next fragment,
                     so hold judgement and re-parse with more input *)
                  retain mark mark_line mark_bol)
      end
    in
    loop ()

  let feed_with cur fragment emit =
    if can_hold cur && not (scan cur fragment) then begin
      Cancel.check cur.cancel;
      Buffer.add_string cur.held fragment
    end
    else parse_with cur fragment emit

  let finish_with cur emit =
    if Buffer.length cur.held > 0 then parse_with cur "" emit;
    if cur.pending <> "" then begin
      let st = seeded_state cur cur.pending in
      let rec loop () =
        skip_ws st;
        if st.pos < st.len then begin
          Cancel.check cur.cancel;
          let mark = st.pos in
          match parse_document st with
          | v ->
              count_document (st.pos - mark);
              emit v ~bytes:(st.pos - mark);
              cur.seen <- cur.seen + 1;
              loop ()
          | exception Diagnostic.Parse_error d -> (
              match cur.on_error with
              | None -> reraise_legacy d
              | Some handler ->
                  (* end of stream: every remaining fault is definite *)
                  ignore (resync st ~start:mark);
                  let skipped =
                    String.trim
                      (String.sub cur.pending mark (st.pos - mark))
                  in
                  handler (Diagnostic.with_index cur.seen d) ~skipped;
                  cur.seen <- cur.seen + 1;
                  loop ())
        end
      in
      loop ();
      cur.pending <- "";
      cur.line <- 1;
      cur.bol <- 0
    end

  let collect run =
    let docs = ref [] in
    run (fun v ~bytes:_ -> docs := v :: !docs);
    List.rev !docs

  let feed cur fragment = collect (feed_with cur fragment)
  let finish cur = collect (finish_with cur)
end

let fold_feed ?cancel ?(chunk_size = 256) ?chunk_bytes ?on_error f acc feed =
  let ck = chunker ~name:"Json.fold_feed" ~chunk_size ~chunk_bytes f acc in
  let cur = Cursor.create ?cancel ?on_error () in
  feed (fun fragment -> Cursor.feed_with cur fragment (push ck));
  Cursor.finish_with cur (push ck);
  flush ck;
  ck.acc

(* Raw lexer access for shape-specialized parser compilation
   (lib/core/shape_compile). Compiled decoders drive the same state,
   token readers, error reporting and resynchronization as the generic
   parser, so their diagnostics and recovery boundaries are identical by
   construction. *)
module Raw = struct
  type nonrec state = state
  type mark = { m_pos : int; m_line : int; m_bol : int }

  let make = make_state
  let mark st = { m_pos = st.pos; m_line = st.line; m_bol = st.bol }

  let reset st m =
    st.pos <- m.m_pos;
    st.line <- m.m_line;
    st.bol <- m.m_bol;
    st.depth <- 0

  let offset st = st.pos
  let offset_of_mark m = m.m_pos
  let source st = st.src
  let at_eof st = st.pos >= st.len

  (* Non-allocating peek for decoder hot loops: [peek] boxes its option
     on every call. NUL doubles as the end-of-input sentinel; a literal
     NUL byte in the source is a control character and errors on every
     path that could consume it. *)
  let peek_char st =
    if st.pos >= st.len then '\000' else String.unsafe_get st.src st.pos

  (* Zero-allocation literal match: when the source bytes at the cursor
     are exactly [s], consume them and return true; otherwise leave the
     cursor untouched. [s] must not contain newlines (no line
     bookkeeping). Used by compiled record decoders to match an expected
     ["key"] without decoding it. *)
  let lit st s =
    let n = String.length s in
    st.pos + n <= st.len
    && begin
         let i = ref 0 in
         while
           !i < n
           && String.unsafe_get st.src (st.pos + !i) = String.unsafe_get s !i
         do
           incr i
         done;
         if !i = n then begin
           st.pos <- st.pos + n;
           true
         end
         else false
       end
  let peek = peek
  let advance = advance
  let skip_ws = skip_ws
  let expect = expect
  let parse_string = parse_string
  let parse_number = parse_number
  let parse_value = parse_value
  let resync = resync
  let fail st msg = error st "%s" msg
end

(* ----- Printing ----- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_json f =
  if Float.is_nan f || Float.is_integer f && Float.abs f < 1e16 then
    (* JSON has no NaN; print NaN as 0 like many serializers reject — we
       choose to fail loudly instead. *)
    if Float.is_nan f then invalid_arg "Json.to_string: cannot print NaN"
    else Printf.sprintf "%.1f" f
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s

let to_string ?indent d =
  let buf = Buffer.create 256 in
  let newline_and_pad level =
    match indent with
    | None -> ()
    | Some n ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (n * level) ' ')
  in
  let rec go level (d : Data_value.t) =
    match d with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_json f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline_and_pad (level + 1);
            go (level + 1) item)
          items;
        newline_and_pad level;
        Buffer.add_char buf ']'
    | Record (_, []) -> Buffer.add_string buf "{}"
    | Record (_, fields) ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            newline_and_pad (level + 1);
            escape_string buf k;
            Buffer.add_char buf ':';
            if indent <> None then Buffer.add_char buf ' ';
            go (level + 1) v)
          fields;
        newline_and_pad level;
        Buffer.add_char buf '}'
  in
  go 0 d;
  Buffer.contents buf

let pp ppf d = Fmt.string ppf (to_string d)
