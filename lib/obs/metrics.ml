let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type counter = { c_name : string; cell : int Atomic.t }

type histogram = {
  h_name : string;
  lock : Mutex.t;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

(* Registration happens at module-initialization time (single domain) or
   from {!gc_snapshot}; a mutex keeps the tables consistent anyway so
   late registration from a worker is not a data race. Instrument
   updates never touch the tables. *)
type gauge = { g_name : string; g_cell : float Atomic.t }

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 8
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell 1)
let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

let time c f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Clock.now_ns () in
    let finish () =
      ignore
        (Atomic.fetch_and_add c.cell
           (Int64.to_int (Int64.sub (Clock.now_ns ()) t0)))
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e when not (Printexc.backtrace_status ()) ->
        (* nothing to keep: restoring even an empty backtrace on every
           raise cost about 4 MB of server RSS on 3 MiB streamed bodies,
           whose fragments mostly end mid-document *)
        finish ();
        raise e
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let histogram name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              lock = Mutex.create ();
              n = 0;
              sum = 0.;
              mn = infinity;
              mx = neg_infinity;
            }
          in
          Hashtbl.add histograms name h;
          h)

let observe h x =
  if Atomic.get enabled_flag then
    Mutex.protect h.lock (fun () ->
        h.n <- h.n + 1;
        h.sum <- h.sum +. x;
        if x < h.mn then h.mn <- x;
        if x > h.mx then h.mx <- x)

let gauge name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_cell = Atomic.make 0. } in
          Hashtbl.add gauges name g;
          g)

(* Gauges track live state (e.g. in-flight requests whose begin/end
   straddle a [set_enabled] flip), so updates are unconditional — gating
   them on the enabled flag could leave the level permanently skewed. *)
let gauge_set g v = Atomic.set g.g_cell v

let rec gauge_add g d =
  let v = Atomic.get g.g_cell in
  if not (Atomic.compare_and_set g.g_cell v (v +. d)) then gauge_add g d

let gauge_value g = Atomic.get g.g_cell
let set_gauge name v = gauge_set (gauge name) v

let gc_snapshot phase =
  if Atomic.get enabled_flag then begin
    let st = Gc.quick_stat () in
    let g field v = set_gauge (Printf.sprintf "gc.%s.%s" phase field) v in
    g "minor_words" st.Gc.minor_words;
    g "major_words" st.Gc.major_words;
    g "minor_collections" (float_of_int st.Gc.minor_collections);
    g "major_collections" (float_of_int st.Gc.major_collections);
    g "heap_words" (float_of_int st.Gc.heap_words)
  end

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter
        (fun _ h ->
          Mutex.protect h.lock (fun () ->
              h.n <- 0;
              h.sum <- 0.;
              h.mn <- infinity;
              h.mx <- neg_infinity))
        histograms;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0.) gauges)

let export () =
  let entries =
    Mutex.protect registry_mutex (fun () ->
        let acc = ref [] in
        Hashtbl.iter
          (fun name c -> acc := (name, `Int (Atomic.get c.cell)) :: !acc)
          counters;
        Hashtbl.iter
          (fun name g -> acc := (name, `Float (Atomic.get g.g_cell)) :: !acc)
          gauges;
        Hashtbl.iter
          (fun name h ->
            let n, sum, mn, mx =
              Mutex.protect h.lock (fun () -> (h.n, h.sum, h.mn, h.mx))
            in
            let mn = if n = 0 then 0. else mn in
            let mx = if n = 0 then 0. else mx in
            let mean = if n = 0 then 0. else sum /. float_of_int n in
            acc :=
              (name ^ ".count", `Int n)
              :: (name ^ ".sum", `Float sum)
              :: (name ^ ".min", `Float mn)
              :: (name ^ ".max", `Float mx)
              :: (name ^ ".mean", `Float mean)
              :: !acc)
          histograms;
        !acc)
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let to_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  \"";
      Buffer.add_string buf name;
      Buffer.add_string buf "\": ";
      Buffer.add_string buf
        (match v with
        | `Int n -> string_of_int n
        | `Float f -> Printf.sprintf "%.3f" f))
    (export ());
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
