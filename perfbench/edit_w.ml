(** The [edit] workload: a [strudel watch] session over synth-10k in
    direct mode, publishing through a sink, fed one seeded edit per
    [Watch.cycle].

    The worker pauses at seeded checkpoints and at the end and reports
    the digest of every published page; the coordinator, which replays the
    same edit stream on its own copy of the data, cold-builds the
    current data and checks every page.  Pages of deleted items stay
    published (a known defect of the watch publish path); they are
    counted as stale files, not hidden. *)

open Common
open Sgraph
module Span = Perfbench.Span
module Mix = Perfbench.Mix

let items = 10_000
let groups = 100
let setups = 3

(* --- applying an edit through a recorder --- *)

(* item index -> oid, for the initial items and every insert *)
let item_table data =
  let tbl = Hashtbl.create (2 * items) in
  for i = 0 to items - 1 do
    match Graph.find_node data (Printf.sprintf "item%d" i) with
    | Some o -> Hashtbl.replace tbl i o
    | None -> fail "synth data lacks item%d" i
  done;
  tbl

let text s = Graph.V (Value.String s)

let apply_edit r tbl (e : Mix.edit) =
  match e with
  | Mix.Set sets ->
    List.iter
      (fun (i, field, text) ->
        let label = match field with Mix.Title -> "title" | Mix.Body -> "body" in
        Delta.Rec.set_value r (Hashtbl.find tbl i) label (Value.String text))
      sets
  | Mix.Insert i ->
    let o = Oid.fresh (Printf.sprintf "item%d" i) in
    Hashtbl.replace tbl i o;
    Delta.Rec.add_node r o;
    Delta.Rec.add_to_collection r "Items" o;
    Delta.Rec.add_edge r o "title" (text (Printf.sprintf "inserted %d" i));
    Delta.Rec.add_edge r o "grp" (text (Printf.sprintf "g%03d" (i mod groups)));
    Delta.Rec.add_edge r o "body" (text (Printf.sprintf "body of inserted item %d" i))
  | Mix.Delete i ->
    Delta.Rec.remove_node r (Hashtbl.find tbl i);
    Hashtbl.remove tbl i

(* Checkpoints: two seeded cycle numbers, then the end of the run. *)
let checkpoints ~seed =
  let rng = Random.State.make [| seed; 0xc4ec |] in
  [ 3 + Random.State.int rng 8; 12 + Random.State.int rng 12 ]

(* --- worker --- *)

(* Counts files and bytes through the sink and, while tracing, how many
   rewritten files' bytes differ from what the sink last wrote there. *)
type writes = {
  mutable files : int;
  mutable bytes : int;
  mutable compared : int;
  mutable changed : int;
}

let counting_sink w (dir : memdir) =
  let sk = mem_sink dir in
  { sk with
    Strudel.Render_pool.sk_emit =
      (fun p ->
        (if !Span.enabled then
           match Hashtbl.find_opt dir p.Template.Generator.url with
           | Some old ->
             w.compared <- w.compared + 1;
             if old <> p.Template.Generator.html then w.changed <- w.changed + 1
           | None -> ());
        Span.timed "publish.write" (fun () -> sk.Strudel.Render_pool.sk_emit p);
        w.files <- w.files + 1;
        w.bytes <- w.bytes + String.length p.Template.Generator.html) }

let checkpoint dir n =
  emit_digests dir;
  Printf.printf "checkpoint %d\n%!" n;
  match In_channel.input_line stdin with
  | Some "ok" -> ()
  | _ -> exit 1

let worker ~seed ~seconds ~trace ~trace_file =
  let data = Sites.Scale.data ~items ~groups ~seed () in
  let tbl = item_table data in
  let w = { files = 0; bytes = 0; compared = 0; changed = 0 } in
  let dir = Hashtbl.create (2 * items) in
  let sink = counting_sink w dir in
  let session = ref None in
  for _ = 1 to setups do
    session := None;
    Gc.compact ();
    let t0 = now () in
    session :=
      Some
        (Serve.Watch.create ~jobs:1 ~sink ~source:(Serve.Watch.Direct data)
           Sites.Scale.definition);
    sample "setup_s" (now () -. t0)
  done;
  let s = Option.get !session in
  let r = Option.get (Serve.Watch.recorder s) in
  (* the traced cycle: Watch.cycle's own calls, one span each *)
  let built = ref (Serve.Watch.built s) in
  let traced_cycle () =
    let d = Span.run "delta.flush" (fun () -> Delta.Rec.flush r) in
    let engine = Serve.Watch.engine s in
    let ch = Span.run "dexec.apply" (fun () -> Struql.Dexec.apply engine d) in
    let rep =
      Span.run "incremental.publish_delta" (fun () ->
          Strudel.Incremental.publish_delta ~jobs:1 ~sink ~cache:(Serve.Watch.cache s)
            ~previous:!built ~data:(Struql.Dexec.data_graph engine)
            ~site_graph:(Struql.Dexec.site_graph engine)
            ~scope:(Struql.Dexec.scope engine)
            ~touched:ch.Struql.Dexec.sc_touched ~removed:ch.Struql.Dexec.sc_removed ())
    in
    built := rep.Strudel.Incremental.built;
    (ch.Struql.Dexec.sc_drivers, ch.Struql.Dexec.sc_rows,
     List.length ch.Struql.Dexec.sc_touched, List.length ch.Struql.Dexec.sc_fallbacks,
     rep.Strudel.Incremental.pages_rerendered, rep.Strudel.Incremental.pages_reused)
  in
  let untraced_cycle () =
    let c = Serve.Watch.cycle s in
    (c.Serve.Watch.cy_drivers, c.Serve.Watch.cy_rows, c.Serve.Watch.cy_touched,
     List.length c.Serve.Watch.cy_fallbacks, c.Serve.Watch.cy_rerendered,
     c.Serve.Watch.cy_reused)
  in
  let edits = Mix.edits ~seed ~items in
  let cps = checkpoints ~seed in
  let files0 = w.files and bytes0 = w.bytes in
  let gc0 = Gc.quick_stat () in
  let t_start = now () in
  let t_end = t_start +. seconds in
  let n = ref 0 in
  let tot = Array.make 6 0 in
  while now () < t_end do
    (* a traced run measures its first half untraced, for the overhead *)
    if trace && (not !Span.enabled) && now () >= t_start +. (seconds /. 2.) then
      Span.enable ();
    let traced = !Span.enabled in
    let e = Mix.next edits in
    incr n;
    let t0 = now () in
    let drivers, rows, touched, fallbacks, rerendered, reused =
      Span.run ~op:!n "edit" (fun () ->
          Span.run "delta.record" (fun () -> apply_edit r tbl e);
          if traced then traced_cycle () else untraced_cycle ())
    in
    sample (if traced then "traced_latency_ms" else "latency_ms")
      ((now () -. t0) *. 1000.);
    List.iteri (fun i v -> tot.(i) <- tot.(i) + v)
      [ drivers; rows; touched; fallbacks; rerendered; reused ];
    if List.mem !n cps then checkpoint dir !n
  done;
  let gc1 = Gc.quick_stat () in
  emit "cycles" (float_of_int !n);
  List.iteri
    (fun i name -> emit name (float_of_int tot.(i)))
    [ "dexec.drivers"; "dexec.rows"; "dexec.touched"; "dexec.fallbacks";
      "cache.rerendered"; "cache.reused" ];
  emit "publish.files_written" (float_of_int (w.files - files0));
  emit "publish.bytes_written" (float_of_int (w.bytes - bytes0));
  emit "publish.files_changed" (float_of_int w.changed);
  emit "publish.files_compared" (float_of_int w.compared);
  emit "run.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  emit "run.promoted_words" (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
  emit_process_stats ();
  if trace then begin
    let spans = Span.collect () in
    Span.write_trace_events ~path:trace_file ~pid:(Unix.getpid ())
      ~origin:(match spans with s :: _ -> s.Span.t0 | [] -> 0.) spans;
    emit_layers spans
  end;
  checkpoint dir !n

(* --- coordinator --- *)

let run ~seed ~seconds ~trace ~trace_dir =
  let trace_file = Filename.concat trace_dir (Printf.sprintf "edit-seed%d.json" seed) in
  let c =
    spawn [ "edit-worker"; string_of_int seed; Printf.sprintf "%.3f" seconds;
            string_of_bool trace; trace_file ]
  in
  (* the replica: same data, same edit stream, applied on demand *)
  let data = Sites.Scale.data ~items ~groups ~seed () in
  let tbl = item_table data in
  let r = Delta.Rec.create data in
  let edits = Mix.edits ~seed ~items in
  let applied = ref 0 in
  let rep = new_report () in
  let mismatches = ref 0 and stale = ref 0 and checks = ref 0 in
  let is_checkpoint l = String.length l > 11 && String.sub l 0 11 = "checkpoint " in
  let rec loop () =
    match read_until ~stop:is_checkpoint c rep with
    | None -> ()
    | Some l ->
      let upto = int_of_string (String.sub l 11 (String.length l - 11)) in
      while !applied < upto do
        apply_edit r tbl (Mix.next edits);
        incr applied
      done;
      ignore (Delta.Rec.flush r);
      let cold =
        (Strudel.Site.build ~jobs:1 ~data Sites.Scale.definition)
          .Strudel.Site.site.Template.Generator.pages
      in
      let bad, st = check_digests rep.digests cold in
      if bad > 0 then
        Printf.eprintf "perfbench: edit checkpoint %d: %d page(s) differ from a cold build\n%!"
          upto bad;
      Hashtbl.reset rep.digests;
      mismatches := !mismatches + bad;
      stale := st;
      incr checks;
      output_string c.to_child "ok\n";
      flush c.to_child;
      loop ()
  in
  loop ();
  finish c "edit worker";
  Hashtbl.replace rep.scalars "publish.stale_files" (float_of_int !stale);
  Hashtbl.replace rep.scalars "checks" (float_of_int !checks);
  (rep, !mismatches)
