(** The [build] workload: cold [strudel build]s of synth-20k.

    Each build runs in a fresh worker process, as a user's
    [strudel build] does: read the seeded DDL file, [Ddl.parse], then
    [Site.build ~jobs:1] streaming pages into the publish sink.  The
    coordinator checks every published page against an in-memory sequential
    [Site.build] of the same DDL text. *)

open Common
module Span = Perfbench.Span

let items = 20_000

(* --- worker: one cold build --- *)

(* Time the page writes as a leaf layer when tracing. *)
let timed_sink (sk : Strudel.Render_pool.sink) =
  { sk with
    Strudel.Render_pool.sk_emit =
      (fun p -> Span.timed "publish.write" (fun () -> sk.Strudel.Render_pool.sk_emit p)) }

(* The calls [Site.build] makes, one span each: used by the traced run
   so that every layer's self time shows. *)
let traced_build ~sink data =
  let def = Sites.Scale.definition in
  let site_graph, _, _, profiles =
    Span.run "struql.site_graph" (fun () ->
        Strudel.Site.build_site_graph def data)
  in
  let roots =
    Span.run "schema.roots" (fun () ->
        Strudel.Site.roots_of site_graph def.Strudel.Site.root_family)
  in
  ignore (Span.run "sgraph.freeze" (fun () -> Sgraph.Graph.freeze site_graph));
  let _, rp =
    Span.run "render" (fun () ->
        Strudel.Render_pool.materialize ~jobs:1 ~sink
          ~templates:def.Strudel.Site.templates site_graph ~roots)
  in
  ignore
    (Span.run "schema.verify" (fun () ->
         Schema.Verify.check_all_site site_graph def.Strudel.Site.constraints));
  (profiles, rp.Strudel.Render_pool.rp_pages)

(* One cold build of the DDL file into a fresh in-memory directory;
   returns (Exec profiles, page count, directory, wall ms). *)
let build_once ~ddl ~traced ~op =
  Span.enabled := traced;
  let dir = Hashtbl.create (2 * items) in
  let t0 = now () in
  let profiles, pages =
    Span.run ~op "build" (fun () ->
        let text = Span.run "io.read_input" (fun () -> read_file ddl) in
        let data =
          Span.run "ddl.parse" (fun () -> fst (Sgraph.Ddl.parse ~graph_name:"input" text))
        in
        let sink = timed_sink (mem_sink dir) in
        if traced then traced_build ~sink data
        else
          let b = Strudel.Site.build ~jobs:1 ~sink ~data Sites.Scale.definition in
          (b.Strudel.Site.query_stats, b.Strudel.Site.render_profile.Strudel.Render_pool.rp_pages))
  in
  let ms = (now () -. t0) *. 1000. in
  Span.enabled := false;
  (profiles, pages, dir, ms)

let digest_of dir =
  Hashtbl.fold (fun url html acc -> (url, Digest.string html) :: acc) dir []
  |> List.sort compare

(* A worker process: one untimed first build, whose wall time is the
   set-up (the process heap grows from nothing), then timed cold builds
   until [seconds] have passed.  Every timed build must publish exactly
   the first build's bytes; the first build's pages are reported for
   the coordinator to check against its reference. *)
let worker ~ddl ~seconds ~trace ~trace_file =
  let t_first = now () in
  let _, _, first, _ = build_once ~ddl ~traced:false ~op:0 in
  sample "setup_s" (now () -. t_first);
  let want = digest_of first in
  emit_digests first;
  Hashtbl.reset first;
  let t_end = now () +. seconds in
  let k = ref 0 and differ = ref 0 in
  while now () < t_end || !k < (if trace then 2 else 1) do
    incr k;
    Gc.full_major ();
    (* a traced run alternates untraced builds, for the overhead *)
    let traced = trace && !k mod 2 = 0 in
    let profiles, pages, dir, ms = build_once ~ddl ~traced ~op:!k in
    if digest_of dir <> want then incr differ;
    sample (if traced then "traced_build_ms" else "build_ms") ms;
    sample "pages" (float_of_int pages);
    sample "struql.rows"
      (float_of_int (List.fold_left (fun n p -> n + p.Struql.Exec.prf_rows) 0 profiles))
  done;
  emit "differing_builds" (float_of_int !differ);
  emit_process_stats ();
  if trace then begin
    let spans = Span.collect () in
    Span.write_trace_events ~path:trace_file ~pid:(Unix.getpid ())
      ~origin:(match spans with s :: _ -> s.Span.t0 | [] -> 0.) spans;
    emit_layers spans
  end

(* --- coordinator --- *)

(* Worker processes per run: each contributes one set-up sample. *)
let workers = 3

let run ~work ~seed ~seconds ~trace ~trace_dir =
  let data = Sites.Scale.data ~items ~seed () in
  let ddl_text = Sgraph.Ddl.print data in
  let ddl = Filename.concat work "synth-20k.ddl" in
  write_file ddl ddl_text;
  (* the reference: an in-memory sequential build of the same text *)
  let reference =
    (Strudel.Site.build ~jobs:1
       ~data:(fst (Sgraph.Ddl.parse ~graph_name:"input" ddl_text))
       Sites.Scale.definition)
      .Strudel.Site.site.Template.Generator.pages
  in
  let rep = new_report () and mismatches = ref 0 in
  for w = 1 to workers do
    let trace_file =
      Filename.concat trace_dir (Printf.sprintf "build-seed%d-%d.json" seed w)
    in
    let c =
      spawn
        [ "build-worker"; ddl; Printf.sprintf "%.3f" (seconds /. float_of_int workers);
          string_of_bool trace; trace_file ]
    in
    let r = new_report () in
    ignore (read_until c r);
    finish c "build worker";
    let bad, extra = check_digests r.digests reference in
    let differ = int_of_float (scalar r "differing_builds") in
    if bad + extra + differ > 0 then
      Printf.eprintf
        "perfbench: build worker %d: %d page(s) differ from the reference, %d extra, \
         %d build(s) differ from the first\n%!"
        w bad extra differ;
    mismatches := !mismatches + bad + extra + differ;
    let rss = Option.value ~default:[] (Hashtbl.find_opt rep.series "worker_peak_rss_mb") in
    Hashtbl.replace rep.series "worker_peak_rss_mb" (scalar r "peak_rss_mb" :: rss);
    (* merge: series append, scalars add up *)
    Hashtbl.iter
      (fun k v ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt rep.series k) in
        Hashtbl.replace rep.series k (v @ prev))
      r.series;
    Hashtbl.iter
      (fun k v ->
        let prev = Hashtbl.find_opt rep.scalars k in
        Hashtbl.replace rep.scalars k
          (match prev with None -> v | Some p -> p +. v))
      r.scalars
  done;
  (rep, !mismatches, List.length reference, String.length ddl_text)
