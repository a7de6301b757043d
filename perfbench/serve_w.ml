(** The [serve] workload: [strudeld] on org-1000 under an open-loop
    request mix while its sources change.

    Three processes: this coordinator; the server ([Serve.Engine] over the
    warehousing mediator, [Serve.Daemon] with 2 workers, a refresher
    that applies a seeded source edit and calls [Engine.refresh] every
    {!refresh_every} seconds, as [strudel serve --refresh-every] does);
    and a load generator sending {!rate} requests per second over two
    keep-alive pipelined connections.  The request popularity is Zipf
    over one fixed ranking of the site's pages.  Latency runs from each
    request's due time.  Sampled 200 bodies are checked against cold
    builds of every epoch the server installed. *)

open Common
module Span = Perfbench.Span
module Mix = Perfbench.Mix
module Openloop = Perfbench.Openloop
module Stats = Perfbench.Stats

let people = 1000
let orgs = 40
let projects = 120
let pubs = 640
let workers = 2
let connections = 2

(** Offered load, requests per second.  On a shared 2-core machine,
    median latency began to climb at 6,000-8,000 with refreshes
    running, and at about half that in the phases when the machine ran
    twice as slow; this is half of the latter. *)
let rate = 2000.

let refresh_every = 5.0

(* every [body_sample]-th 200 response is checked *)
let body_sample = 25

(* The site is fixed (the default org seed); the run's seed draws the
   request sequence and the source edits. *)
let org_seed = 11
let org_data () = Sites.Org.data ~seed:org_seed ~people ~orgs ~projects ~pubs ()
let base_bib () = Wrappers.Synth.bibtex ~seed:(org_seed + 2) ~entries:pubs ()

let set_bib (sources : Sites.Org.sources) text =
  Mediator.Source.update sources.Sites.Org.bib (fun () ->
      fst (Wrappers.Bibtex.load ~graph_name:"BIB" text))

(* the bibliography after source edit [rev] *)
let next_bib ~seed text rev = Mix.retitle text ~rev (Mix.retitled ~seed ~pubs ~rev)

(* --- server --- *)

let server = function
  | [ seed; trace; trace_file ] ->
    let seed = int_of_string seed and trace = bool_of_string trace in
    let sources, w = org_data () in
    let engine = ref None in
    for _ = 1 to 3 do
      engine := None;
      Gc.compact ();
      let t0 = now () in
      engine :=
        Some (Serve.Engine.create ~workers ~source:(Serve.Engine.Federated w)
                Sites.Org.definition);
      sample "setup_s" (now () -. t0)
    done;
    let engine = Option.get !engine in
    let handler =
      if trace then fun ~worker req ->
        Span.run "engine.handle" (fun () -> Serve.Engine.handle ~worker engine req)
      else fun ~worker req -> Serve.Engine.handle ~worker engine req
    in
    let config = { Serve.Daemon.default_config with workers } in
    let daemon =
      Serve.Daemon.create ~config
        ~on_drain:(fun () -> Serve.Engine.set_draining engine true)
        ~degraded:(fun () -> Serve.Engine.degraded engine)
        ~handler ()
    in
    Serve.Daemon.install_signal_handlers daemon;
    let listener, port =
      Serve.Daemon.tcp_listener ~tick_ms:20. ~host:"127.0.0.1" ~port:0 ()
    in
    Printf.printf "port %d\n%!" port;
    (* the coordinator answers with the load's start and the time tracing
       switches on (halfway, so a traced run also measures untraced) *)
    let t_load, t_trace_on =
      match In_channel.input_line stdin with
      | Some l -> Scanf.sscanf l "start %f %f" (fun a b -> (a, b))
      | None -> fail "serve-server: no start line"
    in
    let refreshes = ref [] in
    let refresher =
      Domain.spawn (fun () ->
          let bib = ref (base_bib ()) and rev = ref 0 in
          (* fixed slots from the load's start, so every run of the
             same length refreshes the same number of times *)
          let next_at = ref (t_load +. refresh_every) in
          while not (Serve.Daemon.stopping daemon) do
            Unix.sleepf 0.02;
            if trace && (not !Span.enabled) && now () >= t_trace_on then Span.enable ();
            if now () >= !next_at then begin
              incr rev;
              bib := next_bib ~seed !bib !rev;
              let t0 = now () in
              set_bib sources !bib;
              let installed =
                Span.run "engine.refresh" (fun () -> Serve.Engine.refresh engine)
              in
              let ms = (now () -. t0) *. 1000. in
              let loads =
                List.fold_left
                  (fun a (s : Mediator.Warehouse.source_stat) ->
                    a +. s.Mediator.Warehouse.ss_duration_ms)
                  0. (Mediator.Warehouse.last_refresh w)
              in
              refreshes := (installed, ms, loads) :: !refreshes;
              while !next_at <= now () do
                next_at := !next_at +. refresh_every
              done
            end
          done)
    in
    Serve.Daemon.serve daemon listener;
    Domain.join refresher;
    let refreshes = List.rev !refreshes in
    List.iter
      (fun (installed, ms, loads) ->
        if installed then begin
          sample "refresh_ms" ms;
          sample "source_load_ms" loads
        end)
      refreshes;
    emit "edits" (float_of_int (List.length refreshes));
    emit "epochs_installed"
      (float_of_int (List.length (List.filter (fun (i, _, _) -> i) refreshes)));
    let st = Serve.Daemon.stats daemon in
    emit "daemon.served" (float_of_int st.Serve.Daemon.d_served);
    emit "daemon.shed" (float_of_int st.Serve.Daemon.d_shed);
    emit "daemon.timeouts" (float_of_int st.Serve.Daemon.d_timeouts);
    emit "daemon.deadlines" (float_of_int st.Serve.Daemon.d_deadlines);
    let hits, misses =
      match Serve.Engine.cache_stats engine with
      | Some (h, m, _) -> (h, m)
      | None -> (0, 0)
    in
    emit "cache.hits" (float_of_int hits);
    emit "cache.misses" (float_of_int misses);
    emit "pages" (float_of_int (Serve.Engine.page_count engine));
    emit_process_stats ();
    if trace then begin
      let spans = Span.collect () in
      Span.write_trace_events ~path:trace_file ~pid:(Unix.getpid ())
        ~origin:t_trace_on spans;
      let handle = List.filter (fun s -> s.Span.name = "engine.handle") spans in
      List.iter (fun s -> sample "handle_ms" ((s.Span.t1 -. s.Span.t0) *. 1000.)) handle;
      emit_layers spans
    end;
    flush stdout;
    exit 0
  | _ -> fail "serve-server: bad arguments"

(* --- load generator --- *)

type conn = {
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;
  pending : int Queue.t;  (** request indices awaiting an answer, in order *)
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let find_sub s ~from pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go from

(* One complete response starting at [off] in [s]:
   (status, etag, body, offset after it). *)
let parse_response s off =
  match find_sub s ~from:off "\r\n\r\n" with
  | None -> None
  | Some hdr_end ->
    let head = String.sub s off (hdr_end - off) in
    let lines = String.split_on_char '\n' head in
    let status = int_of_string (String.sub (List.hd lines) 9 3) in
    let header name =
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.lowercase_ascii (String.sub l 0 i) = name ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        lines
    in
    let len = match header "content-length" with Some v -> int_of_string v | None -> 0 in
    let total = hdr_end + 4 + len in
    if String.length s < total then None
    else Some (status, header "etag", String.sub s (hdr_end + 4) len, total)

let loadgen = function
  | [ port; seed; seconds; urls_file; t_start ] ->
    let port = int_of_string port and seed = int_of_string seed in
    let seconds = float_of_string seconds and t0 = float_of_string t_start in
    let urls =
      Array.of_list
        (List.filter (( <> ) "") (String.split_on_char '\n' (read_file urls_file)))
    in
    let mix = Mix.requests ~seed ~urls in
    let n = int_of_float (rate *. seconds) in
    let reqs = Array.init n (fun _ -> Mix.next_request mix) in
    let sent = Array.make n nan and done_ = Array.make n nan in
    let status = Array.make n 0 in
    let etags = Hashtbl.create 1024 in
    let conns =
      Array.init connections (fun _ ->
          { fd = Some (connect port); buf = Buffer.create 65536; pending = Queue.create () })
    in
    let oks = ref 0 in
    let drop c =
      (match c.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
      c.fd <- None;
      Buffer.clear c.buf;
      Queue.clear c.pending
    in
    let url_of = function Mix.Get u | Mix.Revalidate u | Mix.Unknown u -> u in
    let send i =
      let c = conns.(i mod connections) in
      if c.fd = None then (try c.fd <- Some (connect port) with Unix.Unix_error _ -> ());
      match c.fd with
      | None -> ()
      | Some fd ->
        let extra =
          match reqs.(i) with
          | Mix.Revalidate u ->
            Printf.sprintf "If-None-Match: %s\r\n"
              (Option.value ~default:"\"none\"" (Hashtbl.find_opt etags u))
          | Mix.Get _ | Mix.Unknown _ -> ""
        in
        let wire =
          Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n%s\r\n" (url_of reqs.(i)) extra
        in
        (match Unix.write_substring fd wire 0 (String.length wire) with
         | k when k = String.length wire ->
           sent.(i) <- now ();
           Queue.add i c.pending
         | _ -> drop c
         | exception Unix.Unix_error _ -> drop c)
    in
    let chunk = Bytes.create 65536 in
    let receive c =
      match c.fd with
      | None -> ()
      | Some fd -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> drop c
        | k ->
          Buffer.add_subbytes c.buf chunk 0 k;
          let s = Buffer.contents c.buf in
          let rec go off =
            match parse_response s off with
            | Some (st, etag, body, next_off) when not (Queue.is_empty c.pending) ->
              let i = Queue.pop c.pending in
              done_.(i) <- now ();
              status.(i) <- st;
              (match (st, etag) with
               | 200, Some e ->
                 let u = url_of reqs.(i) in
                 Hashtbl.replace etags u e;
                 incr oks;
                 if !oks mod body_sample = 0 then
                   Printf.printf "body %s %s\n" u (Digest.to_hex (Digest.string body))
               | _ -> ());
              go next_off
            | _ -> off
          in
          let off = go 0 in
          Buffer.clear c.buf;
          Buffer.add_substring c.buf s off (String.length s - off)
        | exception Unix.Unix_error _ -> drop c)
    in
    let grace = 2.0 in
    let next = ref 0 in
    let t_stop = t0 +. seconds in
    let outstanding () = Array.exists (fun c -> not (Queue.is_empty c.pending)) conns in
    let rec loop () =
      let t = now () in
      while !next < n && Perfbench.Openloop.due ~t0 ~rate !next <= t do
        send !next;
        incr next
      done;
      if (!next < n || outstanding ()) && t < t_stop +. grace then begin
        let wait =
          if !next < n then Float.max 0. (Openloop.due ~t0 ~rate !next -. now ())
          else 0.05
        in
        let fds = Array.to_list (Array.map (fun c -> c.fd) conns) |> List.filter_map Fun.id in
        (match Unix.select fds [] [] wait with
         | r, _, _ ->
           Array.iter
             (fun c -> match c.fd with Some fd when List.mem fd r -> receive c | _ -> ())
             conns
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ();
    Array.iter drop conns;
    Array.iteri
      (fun i r ->
        Printf.printf "r %.6f %.6f %.6f %d %b\n" (Openloop.due ~t0 ~rate i) sent.(i)
          done_.(i) status.(i) (match r with Mix.Unknown _ -> true | _ -> false))
      reqs;
    flush stdout
  | _ -> fail "serve-loadgen: bad arguments"

(* --- coordinator --- *)

let coordinate ~work ~seed ~seconds ~trace ~trace_dir =
  let trace_file = Filename.concat trace_dir (Printf.sprintf "serve-seed%d.json" seed) in
  let server = spawn [ "serve-server"; string_of_int seed; string_of_bool trace; trace_file ] in
  let srv_rep = new_report () in
  let port =
    match read_until ~stop:(fun l -> String.length l > 5 && String.sub l 0 5 = "port ") server srv_rep with
    | Some l -> int_of_string (String.sub l 5 (String.length l - 5))
    | None -> fail "server did not start"
  in
  (* epoch 0 of the replica: the URL list, and the first cold build *)
  let sources, w = org_data () in
  let cold () =
    (Strudel.Site.build ~jobs:1 ~data:(Mediator.Warehouse.graph w) Sites.Org.definition)
      .Strudel.Site.site.Template.Generator.pages
  in
  let digests = Hashtbl.create 4096 in
  let add_epoch pages =
    List.iter
      (fun (p : Template.Generator.page) ->
        Hashtbl.add digests ("/" ^ p.Template.Generator.url)
          (Digest.to_hex (Digest.string p.Template.Generator.html)))
      pages
  in
  let pages0 = cold () in
  add_epoch pages0;
  let urls_file = Filename.concat work "urls.txt" in
  write_file urls_file
    (String.concat "\n"
       (List.map (fun (p : Template.Generator.page) -> "/" ^ p.Template.Generator.url) pages0));
  let t_load = now () +. 0.5 in
  let t_trace_on = if trace then t_load +. (seconds /. 2.) else 1e18 in
  Printf.fprintf server.to_child "start %.6f %.6f\n%!" t_load t_trace_on;
  let gen =
    spawn [ "serve-loadgen"; string_of_int port; string_of_int seed;
            Printf.sprintf "%.3f" seconds; urls_file; Printf.sprintf "%.6f" t_load ]
  in
  let records = ref [] and bodies = ref [] in
  let rec read_gen () =
    match In_channel.input_line gen.from_child with
    | None -> ()
    | Some l ->
      (match String.split_on_char ' ' l with
       | [ "r"; due; sent; fin; st; unk ] ->
         records :=
           { Openloop.r_due = float_of_string due; r_sent = float_of_string sent;
             r_done = float_of_string fin; r_status = int_of_string st;
             r_expect_404 = bool_of_string unk }
           :: !records
       | [ "body"; url; d ] -> bodies := (url, d) :: !bodies
       | _ -> prerr_endline l);
      read_gen ()
  in
  read_gen ();
  finish gen "load generator";
  Unix.kill server.pid Sys.sigterm;
  ignore (read_until server srv_rep);
  finish server "server";
  (* replay the source edits: every epoch the server may have served *)
  let bib = ref (base_bib ()) in
  for rev = 1 to int_of_float (scalar srv_rep "edits") do
    bib := next_bib ~seed !bib rev;
    set_bib sources !bib;
    if Mediator.Warehouse.refresh w then add_epoch (cold ())
  done;
  let wrong =
    List.filter (fun (url, d) -> not (List.mem d (Hashtbl.find_all digests url))) !bodies
  in
  List.iter (fun (url, _) -> Printf.eprintf "perfbench: served %s matches no epoch's cold build\n" url) wrong;
  let records = Array.of_list (List.rev !records) in
  (srv_rep, records, List.length !bodies, List.length wrong, t_trace_on)
