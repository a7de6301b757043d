(** [strudel watch]: differential site maintenance, ingest to publish.

    One watch session owns a {!Struql.Dexec} engine (the maintained
    site graph plus every recorded construction event), a cross-cycle
    render cache, and the previous publish.  Each {!cycle} turns
    whatever changed at the sources into exactly the re-derivation and
    re-rendering that change demands — everything else is reused, and
    the published bytes stay identical to a cold build of the same
    data. *)

open Sgraph

type source =
  | Direct of Graph.t
      (** watch an in-process data graph; mutations must go through the
          session's {!recorder} *)
  | Mediated of Mediator.Warehouse.t
      (** watch a warehousing mediator; {!cycle} polls
          {!Mediator.Warehouse.refresh_delta} *)
  | File of string
      (** watch a DDL file; {!cycle} polls its modification time *)

(* A watched file: the stamp (mtime, size) last read, and why the file
   is quarantined while its last read failed. *)
type file = {
  path : string;
  mutable stamp : float * int;
  mutable stale : string option;
}

type mode =
  | M_direct of Delta.Rec.r
  | M_mediated of Mediator.Warehouse.t
  | M_file of file

type t = {
  mode : mode;
  engine : Struql.Dexec.t;
  cache : Strudel.Render_cache.t;
  jobs : int;
  on_error : Fault.on_error;
  fault : Fault.ctx option;
  sink : Strudel.Render_pool.sink option;
  mutable built : Strudel.Site.built;
  mutable cycles : int;
}

type cycle_report = {
  cy_cycle : int;
  cy_changed : bool;  (** false: sources were clean, nothing ran *)
  cy_delta_card : int;
  cy_drivers : int;
  cy_rows : int;
  cy_touched : int;
  cy_removed : int;
  cy_rerendered : int;
  cy_reused : int;
  cy_emitted : int;
  cy_dropped : int;
  cy_fallbacks : (string * string) list;
  cy_quarantined : (string * string) list;
  cy_wall_ms : float;
}

let clean_report ~cycle ~quarantined ~wall =
  {
    cy_cycle = cycle;
    cy_changed = false;
    cy_delta_card = 0;
    cy_drivers = 0;
    cy_rows = 0;
    cy_touched = 0;
    cy_removed = 0;
    cy_rerendered = 0;
    cy_reused = 0;
    cy_emitted = 0;
    cy_dropped = 0;
    cy_fallbacks = [];
    cy_quarantined = quarantined;
    cy_wall_ms = wall;
  }

let quarantined_of w =
  List.filter_map
    (fun (s : Mediator.Warehouse.source_stat) ->
      match s.Mediator.Warehouse.ss_outcome with
      | Mediator.Warehouse.Quarantined reason ->
        Some (s.Mediator.Warehouse.ss_source, reason)
      | Mediator.Warehouse.Changed | Mediator.Warehouse.Unchanged -> None)
    (Mediator.Warehouse.last_refresh w)

let stamp path =
  let st = Unix.stat path in
  (st.Unix.st_mtime, st.Unix.st_size)

let parse_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  fst (Ddl.parse ~graph_name:"input" text)

let create ?(jobs = 1) ?(on_error = Fault.Abort) ?fault ?sink ~source
    (def : Strudel.Site.definition) : t =
  let data =
    match source with
    | Direct g -> g
    | Mediated w -> Mediator.Warehouse.graph w
    | File path -> parse_file path
  in
  let parsed = Strudel.Site.parse_queries def in
  let options =
    { Struql.Eval.default_options with
      strategy = def.Strudel.Site.strategy;
      registry = def.Strudel.Site.registry }
  in
  let engine = Struql.Dexec.create ~options ~queries:(List.map snd parsed) data in
  Struql.Dexec.prime engine;
  let cache = Strudel.Render_cache.create () in
  let built =
    Strudel.Site.of_site_graph ~jobs ~render_cache:cache ~on_error ?fault
      ?sink ~data ~scope:(Struql.Dexec.scope engine)
      ~schemas:
        (List.map (fun (n, q) -> (n, Schema.Site_schema.of_query q)) parsed)
      ~query_stats:[] def
      (Struql.Dexec.site_graph engine)
  in
  let mode =
    match source with
    | Direct g -> M_direct (Delta.Rec.create g)
    | Mediated w -> M_mediated w
    | File path -> M_file { path; stamp = stamp path; stale = None }
  in
  { mode; engine; cache; jobs; on_error; fault; sink; built; cycles = 0 }

let built t = t.built
let engine t = t.engine
let cache t = t.cache
let cycles t = t.cycles

let recorder t =
  match t.mode with M_direct r -> Some r | M_mediated _ | M_file _ -> None

let warehouse t =
  match t.mode with M_mediated w -> Some w | M_direct _ | M_file _ -> None

(* Re-read a watched file whose stamp moved, and rebase the fresh graph
   onto the engine's so surviving objects keep their oids.  A file that
   cannot be read or parsed (mid-save, or briefly missing during an
   editor's rename) is quarantined: the last good data keeps serving,
   and the next readable save is picked up. *)
let poll_file (t : t) (f : file) =
  let quarantine reason =
    f.stale <- Some reason;
    (None, None, [ (f.path, reason) ])
  in
  match stamp f.path with
  | exception Unix.Unix_error (e, _, _) ->
    (* whatever reappears at the path is read afresh *)
    f.stamp <- (neg_infinity, -1);
    quarantine (Unix.error_message e)
  | st when st = f.stamp ->
    (None, None, List.map (fun r -> (f.path, r)) (Option.to_list f.stale))
  | st -> (
    f.stamp <- st;
    match parse_file f.path with
    | exception Ddl.Ddl_error (msg, line) ->
      quarantine (Printf.sprintf "DDL error, line %d: %s" line msg)
    | exception Sys_error msg -> quarantine msg
    | fresh ->
      f.stale <- None;
      let old = Struql.Dexec.data_graph t.engine in
      let rebased = Delta.rebase ~old fresh in
      let d = Delta.diff ~old rebased in
      ((if Delta.is_empty d then None else Some d), Some rebased, []))

let run_delta (t : t) ~t0 ~quarantined ?data delta : cycle_report =
  let wall () = (Unix.gettimeofday () -. t0) *. 1000. in
  let ch = Struql.Dexec.apply ?data t.engine delta in
  let report =
    Strudel.Incremental.publish_delta ~jobs:t.jobs ~on_error:t.on_error
      ?fault:t.fault ?sink:t.sink ~cache:t.cache ~previous:t.built
      ~data:(Struql.Dexec.data_graph t.engine)
      ~site_graph:(Struql.Dexec.site_graph t.engine)
      ~scope:(Struql.Dexec.scope t.engine)
      ~touched:ch.Struql.Dexec.sc_touched
      ~removed:ch.Struql.Dexec.sc_removed ()
  in
  t.built <- report.Strudel.Incremental.built;
  let rp = t.built.Strudel.Site.render_profile in
  {
    cy_cycle = t.cycles;
    cy_changed = true;
    cy_delta_card = Delta.card delta;
    cy_drivers = ch.Struql.Dexec.sc_drivers;
    cy_rows = ch.Struql.Dexec.sc_rows;
    cy_touched = List.length ch.Struql.Dexec.sc_touched;
    cy_removed = List.length ch.Struql.Dexec.sc_removed;
    cy_rerendered = report.Strudel.Incremental.pages_rerendered;
    cy_reused = report.Strudel.Incremental.pages_reused;
    cy_emitted = rp.Strudel.Render_pool.rp_emitted;
    cy_dropped = rp.Strudel.Render_pool.rp_dropped;
    cy_fallbacks = ch.Struql.Dexec.sc_fallbacks;
    cy_quarantined = quarantined;
    cy_wall_ms = wall ();
  }

let cycle (t : t) : cycle_report =
  let t0 = Unix.gettimeofday () in
  let wall () = (Unix.gettimeofday () -. t0) *. 1000. in
  t.cycles <- t.cycles + 1;
  let delta, data, quarantined =
    match t.mode with
    | M_direct r ->
      let d = Delta.Rec.flush r in
      ((if Delta.is_empty d then None else Some d), None, [])
    | M_mediated w -> (
      match Mediator.Warehouse.refresh_delta ~jobs:t.jobs w with
      | None -> (None, None, quarantined_of w)
      | Some d -> (Some d, Some (Mediator.Warehouse.graph w), quarantined_of w))
    | M_file f -> poll_file t f
  in
  match delta with
  | None -> clean_report ~cycle:t.cycles ~quarantined ~wall:(wall ())
  | Some delta -> run_delta t ~t0 ~quarantined ?data delta

let watch ?(interval = 1.0) ?max_cycles ~on_cycle (t : t) : int =
  let degraded = ref false in
  let continue_ = ref true in
  let n = ref 0 in
  while !continue_ do
    let r = cycle t in
    let faulted =
      match t.fault with Some c -> Fault.fault_count c > 0 | None -> false
    in
    (* the render profile, not the page list: under a sink the built
       site retains no pages *)
    if r.cy_quarantined <> [] || faulted
       || t.built.Strudel.Site.render_profile.Strudel.Render_pool.rp_degraded > 0
    then degraded := true;
    on_cycle t r;
    incr n;
    (match max_cycles with
     | Some m when !n >= m -> continue_ := false
     | _ -> ());
    if !continue_ then Unix.sleepf interval
  done;
  if !degraded then 3 else 0

let pp_report ppf (r : cycle_report) =
  if not r.cy_changed then
    Format.fprintf ppf "cycle %d: clean (%.1f ms)" r.cy_cycle r.cy_wall_ms
  else begin
    Format.fprintf ppf
      "cycle %d: |delta|=%d drivers=%d rows=%d touched=%d removed=%d \
       rerendered=%d reused=%d emitted=%d dropped=%d (%.1f ms)"
      r.cy_cycle r.cy_delta_card r.cy_drivers r.cy_rows r.cy_touched
      r.cy_removed r.cy_rerendered r.cy_reused r.cy_emitted r.cy_dropped
      r.cy_wall_ms;
    List.iter
      (fun (path, reason) ->
        Format.fprintf ppf "@.  fallback %s: %s" path reason)
      r.cy_fallbacks
  end;
  List.iter
    (fun (src, reason) -> Format.fprintf ppf "@.  quarantined %s: %s" src reason)
    r.cy_quarantined
