(* pbref — the benchmark's in-process side: reference answers for the
   correctness checks and the traced per-layer replays.

   run.py writes every input to files first; each subcommand prints one
   JSON document on stdout.

     infer FILE...                 reference shape of each file
                                   (Infer.of_json_tolerant, strict budget)
     streams OPS                   the acceptable stream_mix answers for
                                   every op of the log, from a csh-fold
                                   model
     replay-infer FILE REPEATS     parse / fold / render layers on FILE
     replay-frames REQS            HTTP framing of recorded requests
     replay-streams OPS TMP DIR..  registry / query / evolve / render
                                   layers over the op log, and registry
                                   recovery of each seeded state DIR

   The op log has one tab-separated op per line, in the order each
   stream's pushes were applied; paths are relative to the log's
   directory:

     push S FMT FILE | shape S LO HI FORMAT | history S LO HI
     diff S LO HI FROM TO | query S LO HI COMPILED LIMIT FILE QUERY
     migrate S LO HI SINCE PROGRAM *)

module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Diagnostic = Fsdata_data.Diagnostic
module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Csh = Fsdata_core.Csh
module Explain = Fsdata_core.Explain
module Shape_compile = Fsdata_core.Shape_compile
module Trace = Fsdata_obs.Trace
module Clock = Fsdata_obs.Clock
module Registry = Fsdata_registry.Registry
module Http = Fsdata_serve.Http
module Service = Fsdata_evolve.Service
module Q = Fsdata_query

let read_file path = In_channel.with_open_bin path In_channel.input_all
let shape_string s = Fmt.str "%a" Shape.pp s
let record fields = Dv.Record (Dv.json_record_name, fields)
let print_json v = print_endline (Json.to_string v)
let num f = Dv.Float f

let infer_text fmt text =
  let r =
    match fmt with
    | "csv" -> Infer.of_csv_tolerant ~budget:Diagnostic.Strict text
    | _ -> Infer.of_json_tolerant ~budget:Diagnostic.Strict text
  in
  match r with Ok r -> r | Error m -> failwith m

(* --- spans and timing --- *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Time [f] on the monotonic clock inside a span named [name]; the
   library's own spans nest under it. *)
let timed name f =
  let t0 = Clock.now_ns () in
  let v = Trace.with_span name f in
  (v, Int64.sub (Clock.now_ns ()) t0)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Inclusive and self time (inclusive minus the child spans it covers)
   per benchmark span name, in milliseconds. *)
let span_table () =
  let spans = Trace.spans () in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent >= 0 then
        Hashtbl.replace child_ns s.Trace.parent
          (Int64.add s.Trace.dur_ns
             (Option.value ~default:0L (Hashtbl.find_opt child_ns s.Trace.parent))))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      if String.starts_with ~prefix:"pb." s.Trace.name then begin
        let self =
          Int64.sub s.Trace.dur_ns
            (Option.value ~default:0L (Hashtbl.find_opt child_ns s.Trace.id))
        in
        let n, incl, slf =
          Option.value ~default:(0, 0L, 0L) (Hashtbl.find_opt totals s.Trace.name)
        in
        Hashtbl.replace totals s.Trace.name
          (n + 1, Int64.add incl s.Trace.dur_ns, Int64.add slf self)
      end)
    spans;
  Hashtbl.fold
    (fun name (n, incl, slf) acc ->
      ( name,
        record
          [
            ("count", Dv.Int n);
            ("inclusive_ms", num (ms_of_ns incl));
            ("self_ms", num (ms_of_ns slf));
          ] )
      :: acc)
    totals []
  |> List.sort compare

(* --- infer: reference shapes for cli_infer and bulk_infer --- *)

let cmd_infer files =
  print_json
    (Dv.List
       (List.map
          (fun f ->
            let r = infer_text "json" (read_file f) in
            record
              [
                ("shape", Dv.String (shape_string r.Infer.shape));
                ("total", Dv.Int r.Infer.total);
              ])
          files))

(* --- the stream model --- *)

(* A stream after its first k pushes: the csh fold of those batches
   (Lemma 1), the version (strict growths so far) and what the server
   reports beside them. *)
type state = {
  shape : Shape.t;
  version : int;
  pushes : int;
  seq : int;
  history : (int * int * Shape.t) list;  (* newest first *)
  deltas : (Shape.t * int) list;  (* every push's (shape, count), newest first *)
}

let empty =
  { shape = Shape.Bottom; version = 0; pushes = 0; seq = 0; history = []; deltas = [] }

let apply st delta count =
  let merged = Shape.hcons (Csh.csh st.shape delta) in
  let seq = st.seq + 1 in
  let grew = not (Shape.equal merged st.shape) in
  let version = if grew then st.version + 1 else st.version in
  {
    shape = merged;
    version;
    pushes = st.pushes + count;
    seq;
    history = (if grew then (version, seq, merged) :: st.history else st.history);
    deltas = (delta, count) :: st.deltas;
  }

(* Requests other than pushes may overlap the pushes of their stream;
   LO..HI is the range of that stream's push count they can have
   observed (acknowledged before the request was sent .. sent before its
   answer arrived), and the answer must match one of those states. *)
type op =
  | Push of string * string * string
  | Read_shape of string * int * int * string
  | History of string * int * int
  | Diff of string * int * int * string * string
  | Query of string * int * int * bool * int * string * string
  | Migrate of string * int * int * int * string

let parse_ops path =
  let dir = Filename.dirname path in
  let rel f = Filename.concat dir f in
  let i = int_of_string in
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ "push"; s; fmt; file ] -> Push (s, fmt, rel file)
         | [ "shape"; s; lo; hi; fmt ] -> Read_shape (s, i lo, i hi, fmt)
         | [ "history"; s; lo; hi ] -> History (s, i lo, i hi)
         | [ "diff"; s; lo; hi; from_v; to_v ] -> Diff (s, i lo, i hi, from_v, to_v)
         | [ "query"; s; lo; hi; compiled; limit; file; q ] ->
             Query (s, i lo, i hi, compiled = "1", i limit, rel file, q)
         | [ "migrate"; s; lo; hi; since; program ] ->
             Migrate (s, i lo, i hi, i since, program)
         | _ -> failwith ("bad op line: " ^ line))

let cached_reader () =
  let tbl = Hashtbl.create 64 in
  fun path ->
    match Hashtbl.find_opt tbl path with
    | Some t -> t
    | None ->
        let t = read_file path in
        Hashtbl.add tbl path t;
        t

(* Fold the log's pushes, in order, into the states each stream passes
   through; returns them (states.(k) = after k pushes) and, for every
   push op, the state it produced and its batch report. *)
let fold_pushes read ops =
  let seen = Hashtbl.create 16 in
  let pushed =
    List.map
      (function
        | Push (s, fmt, file) ->
            let report = infer_text fmt (read file) in
            let clean = report.Infer.total - List.length report.Infer.quarantined in
            let trail = Option.value ~default:[ empty ] (Hashtbl.find_opt seen s) in
            let st = apply (List.hd trail) (Shape.hcons report.Infer.shape) (max 1 clean) in
            Hashtbl.replace seen s (st :: trail);
            Some (st, report)
        | _ -> None)
      ops
  in
  let states = Hashtbl.create 16 in
  Hashtbl.iter (fun s trail -> Hashtbl.add states s (Array.of_list (List.rev trail))) seen;
  let states_of s lo hi =
    let a = Option.value ~default:[| empty |] (Hashtbl.find_opt states s) in
    let hi = min hi (Array.length a - 1) in
    if lo > hi then [] else Array.to_list (Array.sub a lo (hi - lo + 1))
  in
  (states_of, pushed)

(* An in-memory registry holding [s] at state [st], for the migrate
   reference; one per (stream, version). *)
let mirror_of () =
  let tbl = Hashtbl.create 16 in
  fun s st ->
    match Hashtbl.find_opt tbl (s, st.version) with
    | Some r -> r
    | None ->
        let r = Registry.open_ ~dir:None () in
        List.iter
          (fun (delta, count) -> ignore (Registry.push r ~stream:s ~count delta))
          (List.rev st.deltas);
        Hashtbl.add tbl (s, st.version) r;
        r

let version_shape st v =
  if v = 0 then Some Shape.Bottom
  else List.find_map (fun (v', _, s) -> if v = v' then Some s else None) st.history

let stream_fields st =
  [
    ("version", Dv.Int st.version);
    ("pushes", Dv.Int st.pushes);
    ("shape", Dv.String (shape_string st.shape));
  ]

let history_value st =
  record
    [
      ("version", Dv.Int st.version);
      ( "history",
        Dv.List
          (List.rev_map
             (fun (v, seq, s) ->
               record
                 [
                   ("version", Dv.Int v);
                   ("seq", Dv.Int seq);
                   ("shape", Dv.String (shape_string s));
                 ])
             st.history) );
    ]

let diff_value st from_v to_v =
  let to_v = if to_v = "-" then st.version else int_of_string to_v in
  let from_v = if from_v = "-" then max 0 (to_v - 1) else int_of_string from_v in
  match (version_shape st from_v, version_shape st to_v) with
  | Some a, Some b ->
      record
        [
          ("from", Dv.Int from_v);
          ("to", Dv.Int to_v);
          ("from_shape", Dv.String (shape_string a));
          ("to_shape", Dv.String (shape_string b));
          ("grew", Dv.Bool (not (Shape.equal a b)));
          ( "changes",
            Dv.List
              (List.map
                 (fun (m : Explain.mismatch) ->
                   record
                     [
                       ("at", Dv.String m.Explain.at);
                       ("input", Dv.String (shape_string m.Explain.input));
                       ("expected", Dv.String (shape_string m.Explain.expected));
                       ("reason", Dv.String m.Explain.reason);
                     ])
                 (Explain.explain b a)) );
        ]
  | _ -> record [ ("status", Dv.Int 404) ]

let check_query st limit qtext =
  match Q.Parser.parse_result qtext with
  | Error m -> Error m
  | Ok q -> (
      match Q.Check.check (Shape.hcons st.shape) (Q.Syntax.ensure_limit limit q) with
      | Error e -> Error (Fmt.str "%a" Q.Check.pp_error e)
      | Ok checked -> Ok checked)

let query_value st checked (r : Q.Value.result) =
  let stats = r.Q.Value.stats in
  record
    [
      ("version", Dv.Int st.version);
      ("output_shape", Dv.String (shape_string checked.Q.Check.output));
      ("rows", Dv.List (List.map Shape_compile.to_data r.Q.Value.rows));
      ("scanned", Dv.Int stats.Q.Value.scanned);
      ("matched", Dv.Int stats.Q.Value.matched);
      ("skipped", Dv.Int stats.Q.Value.skipped);
      ("malformed", Dv.Int stats.Q.Value.malformed);
    ]

let migrate_value = function
  | Error e -> record [ ("error", Dv.String (Fmt.str "%a" Service.pp_error e)) ]
  | Ok (r : Service.rewritten) ->
      record
        [
          ("from_version", Dv.Int r.Service.from_version);
          ("to_version", Dv.Int r.Service.to_version);
          ("old_shape", Dv.String (shape_string r.Service.old_shape));
          ("new_shape", Dv.String (shape_string r.Service.new_shape));
          ("program", Dv.String (Fsdata_foo.Syntax.expr_to_string r.Service.program));
          ("type", Dv.String (Fmt.str "%a" Fsdata_foo.Syntax.pp_ty r.Service.ty));
        ]

(* One expected answer per push; a list of acceptable answers (one per
   distinct state in LO..HI) for every other op. *)
let cmd_streams ops_path =
  let read = cached_reader () in
  let ops = parse_ops ops_path in
  let states_of, pushed = fold_pushes read ops in
  let mirror = mirror_of () in
  let candidates s lo hi answer =
    let seen = Hashtbl.create 4 in
    Dv.List
      (List.filter_map
         (fun st ->
           let v = answer st in
           let key = Json.to_string v in
           if Hashtbl.mem seen key then None
           else begin
             Hashtbl.add seen key ();
             Some v
           end)
         (states_of s lo hi))
  in
  let expect op pushed =
    match (op, pushed) with
    | Push _, Some (st, report) ->
        record
          (stream_fields st
          @ [
              ("total", Dv.Int report.Infer.total);
              ("quarantined", Dv.Int (List.length report.Infer.quarantined));
            ])
    | Read_shape (s, lo, hi, "schema"), _ ->
        candidates s lo hi (fun st ->
            record [ ("schema", Dv.String (Fsdata_codegen.Json_schema.to_string st.shape ^ "\n")) ])
    | Read_shape (s, lo, hi, _), _ -> candidates s lo hi (fun st -> record (stream_fields st))
    | History (s, lo, hi), _ -> candidates s lo hi history_value
    | Diff (s, lo, hi, from_v, to_v), _ ->
        candidates s lo hi (fun st -> diff_value st from_v to_v)
    | Query (s, lo, hi, _, limit, file, qtext), _ ->
        candidates s lo hi (fun st ->
            match check_query st limit qtext with
            | Error m -> record [ ("error", Dv.String m) ]
            | Ok checked -> query_value st checked (Q.Eval.eval checked (read file)))
    | Migrate (s, lo, hi, since, program), _ ->
        candidates s lo hi (fun st ->
            migrate_value (Service.migrate (mirror s st) ~stream:s ~since ~program))
    | Push _, None -> assert false
  in
  print_json (Dv.List (List.map2 expect ops pushed))

(* --- replays --- *)

let cmd_replay_infer file repeats =
  let text = read_file file in
  let bytes = float_of_int (String.length text) in
  Trace.set_enabled true;
  let parse_ns = ref [] and infer_ns = ref [] and render_ns = ref [] in
  let minor = ref 0. and major = ref 0. in
  for i = 1 to repeats do
    let (), p =
      timed "pb.json.fold_many" (fun () ->
          Json.fold_many (fun () _ -> ()) () text)
    in
    let g0 = Gc.quick_stat () in
    let report, f =
      timed "pb.infer.of_json_tolerant" (fun () ->
          infer_text "json" text)
    in
    let g1 = Gc.quick_stat () in
    if i = 1 then begin
      minor := (g1.Gc.minor_words -. g0.Gc.minor_words) /. bytes;
      major := (g1.Gc.major_words -. g0.Gc.major_words) /. bytes
    end;
    (* the /infer report's rendering: paper notation, then the JSON body *)
    let _, r =
      timed "pb.render" (fun () ->
          Json.to_string
            (record
               [
                 ("format", Dv.String "json");
                 ("shape", Dv.String (shape_string report.Infer.shape));
                 ("total", Dv.Int report.Infer.total);
                 ("quarantined", Dv.Int 0);
                 ("samples", Dv.List []);
               ]))
    in
    parse_ns := Int64.to_float p :: !parse_ns;
    infer_ns := Int64.to_float f :: !infer_ns;
    render_ns := Int64.to_float r :: !render_ns
  done;
  let parse = median !parse_ns and infer = median !infer_ns in
  print_json
    (record
       [
         ("parse_ms", num (parse /. 1e6));
         ("infer_ms", num (infer /. 1e6));
         ("fold_self_ms", num ((infer -. parse) /. 1e6));
         ("replay_mib_s", num (bytes /. 1048576. /. (parse /. 1e9)));
         ("minor_words_per_byte", num !minor);
         ("major_words_per_byte", num !major);
         ("render_us", num (median !render_ns /. 1e3));
         ("spans", record (span_table ()));
       ])

(* REQS: the raw bytes of recorded requests, back to back, each
   preceded by its decimal length and a newline. Each is framed the way
   the server frames it: headers parsed, and a body above the server's
   256 KiB stream threshold drained chunk by chunk. *)
let cmd_replay_frames reqs_path =
  let data = read_file reqs_path in
  let rec split pos acc =
    if pos >= String.length data then List.rev acc
    else
      let nl = String.index_from data pos '\n' in
      let len = int_of_string (String.sub data pos (nl - pos)) in
      split (nl + 1 + len) (String.sub data (nl + 1) len :: acc)
  in
  let reqs = split 0 [] in
  Trace.set_enabled true;
  let frame req =
    let r = Http.reader_of_string req in
    match Http.read_request_stream ~stream_over:(256 * 1024) r with
    | Ok (Some (_, None)) -> ()
    | Ok (Some (_, Some rest)) ->
        while Http.read_body_chunk rest <> "" do () done
    | Ok None | Error _ -> failwith "replay-frames: a recorded request did not frame"
  in
  (* three passes, the median per request *)
  let per_pass =
    List.init 3 (fun _ ->
        let total =
          List.fold_left
            (fun acc req -> Int64.add acc (snd (timed "pb.http.frame" (fun () -> frame req))))
            0L reqs
        in
        Int64.to_float total /. 1e3 /. float_of_int (max 1 (List.length reqs)))
  in
  print_json
    (record
       [
         ("frame_us_per_req", num (median per_pass));
         ("requests", Dv.Int (List.length reqs));
         ("spans", record (span_table ()));
       ])

let cmd_replay_streams ops_path tmp recover_dirs =
  let read = cached_reader () in
  let ops = parse_ops ops_path in
  let states_of, pushed = fold_pushes read ops in
  let mirror = mirror_of () in
  Trace.set_enabled true;
  let reg = Registry.open_ ~fsync:`Always ~dir:(Some tmp) () in
  let push_ns = ref 0L and pushes = ref 0 in
  let check_ns = ref 0L and checks = ref 0 in
  let eval_ns = ref 0L and fast_ns = ref 0L and query_bytes = ref 0 in
  let migrate_ns = ref 0L and migrates = ref 0 in
  let render_ns = ref 0L and renders = ref 0 in
  let add r n = r := Int64.add !r n in
  let render f =
    let _, ns = timed "pb.render" f in
    add render_ns ns;
    incr renders
  in
  (* each op replayed against the first state it may have observed *)
  let at s lo = List.hd (states_of s lo lo) in
  List.iter2
    (fun op pushed ->
      match (op, pushed) with
      | Push (s, _, _), Some (st, _) ->
          let delta, count = List.hd st.deltas in
          let _, ns =
            timed "pb.registry.push" (fun () -> Registry.push reg ~stream:s ~count delta)
          in
          add push_ns ns;
          incr pushes
      | Read_shape (s, lo, _, "schema"), _ ->
          let st = at s lo in
          render (fun () -> Fsdata_codegen.Json_schema.to_string st.shape)
      | Read_shape (s, lo, _, _), _ ->
          let st = at s lo in
          render (fun () -> Json.to_string (record (("stream", Dv.String s) :: stream_fields st)))
      | History (s, lo, _), _ ->
          let st = at s lo in
          render (fun () -> Json.to_string (history_value st))
      | Diff (s, lo, _, from_v, to_v), _ ->
          let st = at s lo in
          render (fun () -> Json.to_string (diff_value st from_v to_v))
      | Query (s, lo, _, _, limit, file, qtext), _ -> (
          let st = at s lo in
          let body = read file in
          let checked, ns = timed "pb.query.check" (fun () -> check_query st limit qtext) in
          add check_ns ns;
          incr checks;
          match checked with
          | Error _ -> ()
          | Ok checked ->
              query_bytes := !query_bytes + String.length body;
              add eval_ns (snd (timed "pb.query.eval" (fun () -> Q.Eval.eval checked body)));
              add fast_ns
                (snd
                   (timed "pb.query.eval_fast" (fun () ->
                        Q.Eval_fast.eval (Q.Eval_fast.compile checked) body))))
      | Migrate (s, lo, _, since, program), _ ->
          let r = mirror s (at s lo) in
          let _, ns =
            timed "pb.evolve.migrate" (fun () -> Service.migrate r ~stream:s ~since ~program)
          in
          add migrate_ns ns;
          incr migrates
      | Push _, None -> assert false)
    ops pushed;
  Registry.close reg;
  let recover_ms =
    List.map
      (fun dir ->
        let r, ns = timed "pb.registry.recover" (fun () -> Registry.open_ ~dir:(Some dir) ()) in
        Registry.close r;
        ms_of_ns ns)
      recover_dirs
  in
  let per total n = if n = 0 then 0. else Int64.to_float total /. 1e3 /. float_of_int n in
  let mib = float_of_int !query_bytes /. 1048576. in
  let per_mib total = if mib = 0. then 0. else ms_of_ns total /. mib in
  print_json
    (record
       [
         ("registry_push_us", num (per !push_ns !pushes));
         ("registry_recover_ms", num (median recover_ms));
         ("query_check_us", num (per !check_ns !checks));
         ("query_eval_ms_per_mib", num (per_mib !eval_ns));
         ("query_eval_fast_ms_per_mib", num (per_mib !fast_ns));
         ("evolve_migrate_us", num (per !migrate_ns !migrates));
         ("render_us_per_req", num (per !render_ns !renders));
         ("spans", record (span_table ()));
       ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "infer" :: files -> cmd_infer files
  | [ "streams"; ops ] -> cmd_streams ops
  | [ "replay-infer"; file; repeats ] -> cmd_replay_infer file (int_of_string repeats)
  | [ "replay-frames"; reqs ] -> cmd_replay_frames reqs
  | "replay-streams" :: ops :: tmp :: dirs -> cmd_replay_streams ops tmp dirs
  | _ ->
      prerr_endline
        "usage: pbref (infer FILE... | streams OPS | replay-infer FILE N | \
         replay-frames REQS | replay-streams OPS TMP DIR...)";
      exit 2
