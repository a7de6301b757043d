(** Layer spans for the traced benchmark run.

    A span is one timed call into a layer: name, start, end, the span
    that caused it and the operation (build, edit cycle, request) it
    belongs to.  Spans are kept in per-domain buffers while the run
    lasts and written out once at the end as trace-event JSON.  When
    tracing is off, {!run} is a flag test and a direct call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  op : int;
  t0 : float;  (** seconds, [Unix.gettimeofday] *)
  t1 : float;
  minor_words : float;  (** allocated inside the span, children included *)
  promoted_words : float;
  charged : float;  (** seconds of {!timed} calls made directly inside *)
  domain : int;
}

let enabled = ref false
let next_id = Atomic.make 0

(* an open span: id, op, seconds charged to it by {!timed} calls *)
type frame = { f_id : int; f_op : int; mutable f_charged : float }

(* open spans, innermost first; finished spans; {!timed} totals *)
type local = {
  mutable stack : frame list;
  mutable spans : t list;
  timed_tbl : (string, int ref * float ref) Hashtbl.t;
}

let locals = ref []
let locals_m = Mutex.create ()

let local_key =
  Domain.DLS.new_key (fun () ->
      let l = { stack = []; spans = []; timed_tbl = Hashtbl.create 4 } in
      Mutex.protect locals_m (fun () -> locals := l :: !locals);
      l)

let enable () = enabled := true

(** Run [f] inside a span named [name].  [op] defaults to the
    enclosing span's operation ([-1] at the root). *)
let run ?op name f =
  if not !enabled then f ()
  else begin
    let l = Domain.DLS.get local_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, op =
      match (l.stack, op) with
      | f :: _, Some o -> (f.f_id, o)
      | f :: _, None -> (f.f_id, f.f_op)
      | [], o -> (-1, Option.value o ~default:(-1))
    in
    let frame = { f_id = id; f_op = op; f_charged = 0. } in
    l.stack <- frame :: l.stack;
    let m0, p0, _ = Gc.counters () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let m1, p1, _ = Gc.counters () in
      l.stack <- List.tl l.stack;
      l.spans <-
        { id; name; parent; op; t0; t1; minor_words = m1 -. m0;
          promoted_words = p1 -. p0; charged = frame.f_charged;
          domain = (Domain.self () :> int) }
        :: l.spans
    in
    Fun.protect ~finally:finish f
  end

(** Time [f] as a leaf layer too fine-grained for one span per call
    (e.g. one page write): its duration is added to a per-name total
    and charged to the enclosing span, whose self time excludes it. *)
let timed name f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let finish () =
      let dt = Unix.gettimeofday () -. t0 in
      let l = Domain.DLS.get local_key in
      (match l.stack with f :: _ -> f.f_charged <- f.f_charged +. dt | [] -> ());
      match Hashtbl.find_opt l.timed_tbl name with
      | Some (n, total) -> incr n; total := !total +. dt
      | None -> Hashtbl.replace l.timed_tbl name (ref 1, ref dt)
    in
    Fun.protect ~finally:finish f
  end

(** Every finished span of every domain, by start time. *)
let collect () =
  Mutex.protect locals_m (fun () ->
      List.concat_map (fun l -> l.spans) !locals)
  |> List.sort (fun a b -> Float.compare a.t0 b.t0)

(** {1 Self time} *)

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, Float.max cb b)) rest
        else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

type self = {
  s_span : t;
  s_self : float;  (** seconds not covered by child spans *)
  s_self_minor : float;
  s_self_promoted : float;
}

(** Each span's self time: its duration minus the part of its interval
    its child spans cover and minus its {!timed} calls; allocation net
    of its children. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ch = Hashtbl.find_all kids s.id in
      let cov = covered ~lo:s.t0 ~hi:s.t1 (List.map (fun c -> (c.t0, c.t1)) ch) in
      let sum f = List.fold_left (fun acc c -> acc +. f c) 0. ch in
      { s_span = s;
        s_self = (s.t1 -. s.t0) -. cov -. s.charged;
        s_self_minor = s.minor_words -. sum (fun c -> c.minor_words);
        s_self_promoted = s.promoted_words -. sum (fun c -> c.promoted_words) })
    spans

type layer = {
  l_name : string;
  l_count : int;
  l_total : float;  (** seconds, inclusive *)
  l_self : float;  (** seconds *)
  l_self_minor : float;
  l_self_promoted : float;
}

(** Per span name: count, inclusive and self time, self allocation;
    in first-seen order, then the {!timed} layers. *)
let layer_table spans =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun st ->
      let s = st.s_span in
      let prev =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None ->
          order := s.name :: !order;
          { l_name = s.name; l_count = 0; l_total = 0.; l_self = 0.;
            l_self_minor = 0.; l_self_promoted = 0. }
      in
      Hashtbl.replace tbl s.name
        { prev with
          l_count = prev.l_count + 1;
          l_total = prev.l_total +. (s.t1 -. s.t0);
          l_self = prev.l_self +. st.s_self;
          l_self_minor = prev.l_self_minor +. st.s_self_minor;
          l_self_promoted = prev.l_self_promoted +. st.s_self_promoted })
    (self_times spans);
  let timed =
    Mutex.protect locals_m (fun () ->
        let agg = Hashtbl.create 4 in
        List.iter
          (fun l ->
            Hashtbl.iter
              (fun name (n, total) ->
                let n0, t0 = Option.value ~default:(0, 0.) (Hashtbl.find_opt agg name) in
                Hashtbl.replace agg name (n0 + !n, t0 +. !total))
              l.timed_tbl)
          !locals;
        Hashtbl.fold
          (fun name (n, total) acc ->
            { l_name = name; l_count = n; l_total = total; l_self = total;
              l_self_minor = 0.; l_self_promoted = 0. }
            :: acc)
          agg [])
  in
  List.rev_map (Hashtbl.find tbl) !order @ timed

(** {1 Output} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Trace-event JSON (the Chrome/Perfetto "X" complete-event form):
    timestamps in microseconds from [origin]. *)
let write_trace_events ~path ~pid ~origin spans =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":%d,\
         \"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\
         \"minor_words\":%.0f,\"promoted_words\":%.0f}}"
        (json_string s.name)
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        pid s.domain s.id s.parent s.op s.minor_words s.promoted_words)
    spans;
  output_string oc "]}\n";
  close_out oc
