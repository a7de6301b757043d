(** [perfbench]: the edit-to-bytes benchmark of STRUDEL.

    {v main.exe --workload build|edit|serve --seed N --seconds S --trace 0|1 v}

    Three workloads drive the library's public entry points in-process,
    the calls [strudel build], [strudel watch] and [strudel serve] make
    (see README.md).  With [--trace 0] the last line of stdout is the
    result object with the end-to-end metrics; with [--trace 1] it
    carries the per-layer metrics of a traced run.  Every workload
    checks the bytes it published and exits non-zero on a mismatch.
    The other subcommands are the worker processes the coordinators start. *)

open Common
module Stats = Perfbench.Stats

let usage () =
  prerr_endline
    "usage: main.exe --workload build|edit|serve --seed N --seconds S --trace 0|1";
  exit 2

let metric name value unit_ = { name; value; unit_ }
let per_op total ops = if ops <= 0. then 0. else total /. ops

(* The end-to-end metrics every workload reports; the tail and the
   sample counts go to the descriptor. *)
let end_to_end ~setup ~latency ~peak_rss =
  if Array.length latency = 0 then fail "no operation completed";
  let p, tail = Option.get (Stats.tail latency) in
  ( [ metric "setup_s" (Stats.median setup) "s";
      metric "latency_p50_ms" (Stats.median latency) "ms";
      metric "peak_rss_mb" peak_rss "MiB" ],
    [ ("latency_samples", string_of_int (Array.length latency));
      ("latency_tail_ms", num tail);
      ("latency_tail_percentile", num (100. *. p));
      ( "latency_percentiles_ms",
        "{"
        ^ String.concat ", "
            (List.filter_map
               (fun p ->
                 Option.map
                   (fun v -> Printf.sprintf "\"p%g\": %s" (100. *. p) (num v))
                   (Stats.percentile latency p))
               [ 0.5; 0.9; 0.99; 0.999 ])
        ^ "}" );
      ("setup_samples", string_of_int (Array.length setup)) ] )

(* The per-layer metrics every workload reports in a traced run. *)
let per_layer ~ingest ~query ~render ~publish ~overhead ~minor ~promoted
    ~majors ~files ~useful ~stale ~hit_ratio ~rows ~shed ~timeouts =
  [ metric "ingest_ms" ingest "ms"; metric "query_ms" query "ms";
    metric "render_ms" render "ms"; metric "publish_ms" publish "ms";
    metric "trace_overhead_ms" overhead "ms";
    metric "minor_mw_per_op" minor "Mword"; metric "promoted_mw_per_op" promoted "Mword";
    metric "gc_major_collections" majors "count";
    metric "files_written_per_op" files "count";
    metric "useful_write_ratio" useful "ratio";
    metric "stale_files" stale "count"; metric "cache_hit_ratio" hit_ratio "ratio";
    metric "query_rows_per_op" rows "count";
    metric "shed" shed "count"; metric "timeouts" timeouts "count" ]

(* One line per traced layer: name, calls, self ms per operation, self
   minor/promoted Mwords per operation. *)
let print_layers ~ops rep =
  Hashtbl.iter
    (fun k v ->
      if String.length k > 8 && String.sub k 0 8 = "self_ms." then begin
        let name = String.sub k 8 (String.length k - 8) in
        Printf.printf "layer %-28s calls %8.0f  self %10.3f ms/op  minor %9.4f Mw/op  promoted %9.4f Mw/op\n"
          name (scalar_or rep ("count." ^ name) 0.) (per_op v ops)
          (per_op (scalar_or rep ("self_minor." ^ name) 0.) ops /. 1e6)
          (per_op (scalar_or rep ("self_promoted." ^ name) 0.) ops /. 1e6)
      end)
    rep.scalars

let mean a = if Array.length a = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Do the layers' self times account for the operation?  Their sum per
   traced operation against the untraced operation's mean time plus
   the tracing overhead (means, so that the sums add up). *)
let print_accounting ~self_per_op ~traced ~untraced =
  let overhead = mean traced -. mean untraced in
  Printf.printf
    "accounting self_sum %.3f ms/op  traced %.3f ms/op  untraced %.3f ms/op  overhead %.3f ms  \
     unaccounted %.3f ms (%.2f%% of untraced)\n"
    self_per_op (mean traced) (mean untraced) overhead
    (mean untraced +. overhead -. self_per_op)
    (100. *. (mean untraced +. overhead -. self_per_op) /. mean untraced)

let sum_self rep =
  Hashtbl.fold
    (fun k v acc -> if String.length k > 8 && String.sub k 0 8 = "self_ms." then acc +. v else acc)
    rep.scalars 0.

let self rep names = List.fold_left (fun acc n -> acc +. scalar_or rep ("self_ms." ^ n) 0.) 0. names

(* --- build --- *)

let build_main ~work ~seed ~seconds ~trace ~trace_dir =
  let rep, mismatches, pages, ddl_bytes = Build_w.run ~work ~seed ~seconds ~trace ~trace_dir in
  let builds = series rep "build_ms" and traced = series rep "traced_build_ms" in
  let n = Array.length builds + Array.length traced in
  let degraded =
    Array.fold_left (fun a p -> if p <> float_of_int pages then a + 1 else a) 0 (series rep "pages")
  in
  let descr =
    [ ("site", str "synth-20k"); ("pages", string_of_int pages);
      ("input_ddl_bytes", string_of_int ddl_bytes); ("timed_builds", string_of_int n);
      ("worker_processes", string_of_int Build_w.workers);
      ("build_ms_median", num (Stats.median (if trace then traced else builds)));
      ("latency_unit", str "one cold build: from reading the DDL file to the last page published") ]
  in
  let metrics, extra =
    if not trace then
      end_to_end ~setup:(series rep "setup_s") ~latency:builds
        ~peak_rss:(Stats.median (series rep "worker_peak_rss_mb"))
    else begin
      let ops = float_of_int (Array.length traced) in
      print_layers ~ops rep;
      print_accounting ~self_per_op:(per_op (sum_self rep) ops) ~traced ~untraced:builds;
      let total = float_of_int n in
      ( per_layer
          ~ingest:(per_op (self rep [ "io.read_input"; "ddl.parse" ]) ops)
          ~query:(per_op (self rep [ "struql.site_graph" ]) ops)
          ~render:(per_op (self rep [ "render" ]) ops)
          ~publish:(per_op (self rep [ "publish.write" ]) ops)
          ~overhead:(mean traced -. mean builds)
          ~minor:(per_op (scalar rep "gc.minor_words") (total +. 3.) /. 1e6)
          ~promoted:(per_op (scalar rep "gc.promoted_words") (total +. 3.) /. 1e6)
          ~majors:(per_op (scalar rep "gc.major_collections") (total +. 3.))
          ~files:(float_of_int pages) ~useful:1.0 ~stale:0. ~hit_ratio:0.
          ~rows:(Stats.median (series rep "struql.rows")) ~shed:0. ~timeouts:0.,
        [ ("traced_builds", string_of_int (Array.length traced));
          ("untraced_builds", string_of_int (Array.length builds)) ] )
    end
  in
  print_result
    ~descriptor:(descriptor ~workload:"build" ~seed ~seconds ~trace (descr @ extra))
    ~correct:(mismatches = 0) ~attempted:n ~failed:degraded metrics

(* --- edit --- *)

let edit_main ~work:_ ~seed ~seconds ~trace ~trace_dir =
  let rep, mismatches = Edit_w.run ~seed ~seconds ~trace ~trace_dir in
  let cycles = scalar rep "cycles" in
  let latency = series rep "latency_ms" in
  let descr =
    [ ("site", str "synth-10k"); ("cycles", num cycles);
      ("checkpoints", num (scalar rep "checks"));
      ("edit_mix", str "80% one item, 10% batches of 10-100, 5% inserts, 5% deletes");
      ("latency_unit", str "one edit: from applied to its cycle's pages written") ]
  in
  let metrics, extra =
    if not trace then
      end_to_end ~setup:(series rep "setup_s") ~latency ~peak_rss:(scalar rep "peak_rss_mb")
    else begin
      let traced = series rep "traced_latency_ms" in
      let ops = float_of_int (Array.length traced) in
      print_layers ~ops rep;
      print_accounting ~self_per_op:(per_op (sum_self rep) ops) ~traced ~untraced:latency;
      let rerendered = scalar rep "cache.rerendered" and reused = scalar rep "cache.reused" in
      ( per_layer
          ~ingest:(per_op (self rep [ "delta.record"; "delta.flush" ]) ops)
          ~query:(per_op (self rep [ "dexec.apply" ]) ops)
          ~render:(per_op (self rep [ "incremental.publish_delta" ]) ops)
          ~publish:(per_op (self rep [ "publish.write" ]) ops)
          ~overhead:(mean traced -. mean latency)
          ~minor:(per_op (scalar rep "run.minor_words") cycles /. 1e6)
          ~promoted:(per_op (scalar rep "run.promoted_words") cycles /. 1e6)
          ~majors:(scalar rep "gc.major_collections")
          ~files:(per_op (scalar rep "publish.files_written") cycles)
          ~useful:(per_op (scalar rep "publish.files_changed") (scalar rep "publish.files_compared"))
          ~stale:(scalar rep "publish.stale_files")
          ~hit_ratio:(per_op reused (reused +. rerendered))
          ~rows:(per_op (scalar rep "dexec.rows") cycles) ~shed:0. ~timeouts:0.,
        [ ("traced_cycles", num ops); ("untraced_cycles", string_of_int (Array.length latency)) ] )
    end
  in
  Printf.printf "detail per edit: dexec.drivers %.2f  dexec.rows %.2f  dexec.touched %.2f  dexec.fallbacks %.2f  cache.rerendered %.2f\n"
    (per_op (scalar rep "dexec.drivers") cycles) (per_op (scalar rep "dexec.rows") cycles)
    (per_op (scalar rep "dexec.touched") cycles) (per_op (scalar rep "dexec.fallbacks") cycles)
    (per_op (scalar rep "cache.rerendered") cycles);
  (* a failed cycle raises (the watch runs with [on_error:Abort]) and
     fails the run, so none is counted here *)
  print_result
    ~descriptor:(descriptor ~workload:"edit" ~seed ~seconds ~trace (descr @ extra))
    ~correct:(mismatches = 0) ~attempted:(int_of_float cycles) ~failed:0 metrics

(* --- serve --- *)

(* mean latency of the requests that did not fail *)
let answered_mean (s : Perfbench.Openloop.summary) =
  mean (Array.of_list (List.filter Float.is_finite (Array.to_list s.Perfbench.Openloop.latency_ms)))

let serve_main ~work ~seed ~seconds ~trace ~trace_dir =
  let srv, records, sampled, wrong, t_trace_on =
    Serve_w.coordinate ~work ~seed ~seconds ~trace ~trace_dir
  in
  let untraced, traced =
    List.partition (fun r -> r.Perfbench.Openloop.r_due < t_trace_on) (Array.to_list records)
  in
  let all = Perfbench.Openloop.summarize records in
  let su = Perfbench.Openloop.summarize (Array.of_list untraced) in
  let refresh = series srv "refresh_ms" in
  let med a = if Array.length a = 0 then nan else Stats.median a in
  let pct a p = match Stats.percentile a p with Some v -> num v | None -> "null" in
  let descr =
    [ ("site", str "org-1000"); ("pages", num (scalar srv "pages"));
      ("offered_rate_per_s", num Serve_w.rate); ("connections", string_of_int Serve_w.connections);
      ("workers", string_of_int Serve_w.workers);
      ("refresh_every_s", num Serve_w.refresh_every);
      ("request_mix", str "85% Zipf GETs, 10% If-None-Match, 5% unknown paths");
      ("latency_unit", str "one request: from its due time to its answer read");
      ("refreshes", string_of_int (Array.length refresh));
      ("refresh_p50_ms", num (med refresh));
      ("loadgen_late_p50_ms", num (med all.Perfbench.Openloop.late_ms));
      ("loadgen_late_p99_ms", pct all.Perfbench.Openloop.late_ms 0.99);
      ("bodies_checked", string_of_int sampled);
      ("daemon_shed", num (scalar srv "daemon.shed"));
      ("daemon_timeouts", num (scalar srv "daemon.timeouts")) ]
  in
  let metrics, extra =
    if not trace then
      end_to_end ~setup:(series srv "setup_s") ~latency:all.Perfbench.Openloop.latency_ms
        ~peak_rss:(scalar srv "peak_rss_mb")
    else begin
      let st = Perfbench.Openloop.summarize (Array.of_list traced) in
      let handle = series srv "handle_ms" in
      let requests = float_of_int (Array.length handle) in
      let loads = series srv "source_load_ms" in
      let sum a = Array.fold_left ( +. ) 0. a in
      let nref = float_of_int (Array.length refresh) in
      let hits = scalar srv "cache.hits" and misses = scalar srv "cache.misses" in
      let served = float_of_int all.Perfbench.Openloop.attempted in
      print_layers ~ops:requests srv;
      Printf.printf "detail engine.handle_p50_ms %s  engine.handle_p99_ms %s  (%d samples)\n"
        (num (med handle)) (pct handle 0.99) (Array.length handle);
      ( per_layer
          ~ingest:(per_op (sum loads) nref)
          ~query:(per_op (sum refresh -. sum loads) nref)
          ~render:(per_op (scalar_or srv "self_ms.engine.handle" 0.) requests)
          ~publish:(Stats.median st.Perfbench.Openloop.latency_ms -. med handle)
          ~overhead:(answered_mean st -. answered_mean su)
          ~minor:(per_op (scalar srv "gc.minor_words") served /. 1e6)
          ~promoted:(per_op (scalar srv "gc.promoted_words") served /. 1e6)
          ~majors:(scalar srv "gc.major_collections")
          ~files:0. ~useful:0. ~stale:0. ~hit_ratio:(per_op hits (hits +. misses))
          ~rows:0. ~shed:(scalar srv "daemon.shed") ~timeouts:(scalar srv "daemon.timeouts"),
        [ ("traced_requests", string_of_int (List.length traced));
          ("untraced_requests", string_of_int (List.length untraced)) ] )
    end
  in
  print_result
    ~descriptor:(descriptor ~workload:"serve" ~seed ~seconds ~trace (descr @ extra))
    ~correct:(wrong = 0) ~attempted:all.Perfbench.Openloop.attempted
    ~failed:all.Perfbench.Openloop.failures metrics

(* --- entry --- *)

let coordinate args =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let work = Filename.concat "_perfbench" (Printf.sprintf "run-%s-%d" !workload (Unix.getpid ())) in
  let trace_dir = Filename.concat "_perfbench" "trace" in
  mkdir_p work;
  if trace then mkdir_p trace_dir;
  let go f = Fun.protect ~finally:(fun () -> rm_rf work) (fun () ->
      f ~work ~seed:!seed ~seconds:!seconds ~trace ~trace_dir) in
  match !workload with
  | "build" -> go build_main
  | "edit" -> go edit_main
  | "serve" -> go serve_main
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "build-worker"; ddl; seconds; trace; trace_file ] ->
    Build_w.worker ~ddl ~seconds:(float_of_string seconds)
      ~trace:(bool_of_string trace) ~trace_file
  | [ "edit-worker"; seed; seconds; trace; trace_file ] ->
    Edit_w.worker ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
      ~trace:(bool_of_string trace) ~trace_file
  | "serve-server" :: args -> Serve_w.server args
  | "serve-loadgen" :: args -> Serve_w.loadgen args
  | args -> coordinate args
