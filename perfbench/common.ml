(** Shared plumbing of the benchmark coordinators: clocks, the worker
    protocol, process control, the machine descriptor and the result
    line. *)

let now = Unix.gettimeofday

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

(** {1 Files} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p d =
  if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(** {1 Worker protocol}

    A worker reports to its coordinator on stdout, one record a line:
    [m NAME VALUE] a scalar, [s NAME VALUE] one sample of a series. *)

let emit name v = Printf.printf "m %s %.17g\n" name v
let sample name v = Printf.printf "s %s %.17g\n" name v

type report = {
  scalars : (string, float) Hashtbl.t;
  series : (string, float list) Hashtbl.t;  (** newest first *)
  digests : (string, string) Hashtbl.t;  (** published url -> MD5 *)
}

let new_report () =
  { scalars = Hashtbl.create 16; series = Hashtbl.create 8; digests = Hashtbl.create 1024 }

let parse_line rep line =
  match String.split_on_char ' ' line with
  | [ "m"; name; v ] -> Hashtbl.replace rep.scalars name (float_of_string v)
  | [ "d"; url; md5 ] -> Hashtbl.replace rep.digests url md5
  | [ "s"; name; v ] ->
    let prev = Option.value ~default:[] (Hashtbl.find_opt rep.series name) in
    Hashtbl.replace rep.series name (float_of_string v :: prev)
  | _ -> prerr_endline line

let scalar rep name =
  match Hashtbl.find_opt rep.scalars name with
  | Some v -> v
  | None -> fail "worker reported no %s" name

let scalar_or rep name d = Option.value ~default:d (Hashtbl.find_opt rep.scalars name)

let series rep name =
  Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt rep.series name)))

(** {1 Publishing}

    Pages are published through the library's [Render_pool.sink]
    interface into an in-memory directory (url -> bytes) rather than
    with [Render_pool.file_sink]: a benchmark may write only inside its
    checkout, and on a disk file system the cost of creating and
    rewriting tens of thousands of small files varied two- to
    threefold from run to run, drowning the program's own time.  The
    in-memory directory stands in for a tmpfs. *)

type memdir = (string, string) Hashtbl.t

let mem_sink (dir : memdir) =
  { Strudel.Render_pool.sk_emit =
      (fun p -> Hashtbl.replace dir p.Template.Generator.url p.Template.Generator.html);
    sk_reset = (fun () -> Hashtbl.reset dir) }

(** Report every published page as a [d URL MD5] record. *)
let emit_digests (dir : memdir) =
  Hashtbl.iter
    (fun url html -> Printf.printf "d %s %s\n" url (Digest.to_hex (Digest.string html)))
    dir

(** Check published digests against the pages of a cold build: returns
    (pages missing or differing, published urls the build lacks). *)
let check_digests digests (pages : Template.Generator.page list) =
  let want = Hashtbl.create (List.length pages) in
  let bad = ref 0 in
  List.iter
    (fun (p : Template.Generator.page) ->
      Hashtbl.replace want p.Template.Generator.url ();
      match Hashtbl.find_opt digests p.Template.Generator.url with
      | Some d when d = Digest.to_hex (Digest.string p.Template.Generator.html) -> ()
      | _ -> incr bad)
    pages;
  let stale = Hashtbl.fold (fun url _ n -> if Hashtbl.mem want url then n else n + 1) digests 0 in
  (!bad, stale)

(** {1 Processes} *)

let self_exe = Sys.executable_name

type child = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
}

(* Children not yet waited for: on any exit, including a failed check,
   they are terminated and reaped so that no process outlives the run. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(** Start this executable with [args]; stdin and stdout are pipes,
    stderr is shared. *)
let spawn args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process self_exe
      (Array.of_list (self_exe :: args))
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  live := pid :: !live;
  { pid; to_child = Unix.out_channel_of_descr in_w;
    from_child = Unix.in_channel_of_descr out_r }

(** Read the child's records until [stop line] holds or its stdout
    closes; returns the stopping line. *)
let read_until ?(stop = fun _ -> false) c rep =
  let rec go () =
    match In_channel.input_line c.from_child with
    | None -> None
    | Some l when stop l -> Some l
    | Some l ->
      parse_line rep l;
      go ()
  in
  go ()

(** Wait for the child to exit; fails unless it exited 0. *)
let finish c what =
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  let status = snd (Unix.waitpid [] c.pid) in
  live := List.filter (( <> ) c.pid) !live;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "%s exited with code %d" what n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "%s killed by signal %d" what s

(** {1 Process measurements} *)

(** Peak resident set of this process in MiB (Linux [VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match In_channel.input_line ic with
    | None -> nan
    | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
          kb /. 1024.)
    | Some _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(** Peak RSS and runtime counters of the calling worker, as records. *)
let emit_process_stats () =
  let st = Gc.quick_stat () in
  emit "peak_rss_mb" (peak_rss_mb ());
  emit "gc.minor_collections" (float_of_int st.Gc.minor_collections);
  emit "gc.major_collections" (float_of_int st.Gc.major_collections);
  emit "gc.minor_words" st.Gc.minor_words;
  emit "gc.promoted_words" st.Gc.promoted_words

(** Per traced layer: self time, self allocation and call count. *)
let emit_layers spans =
  List.iter
    (fun (l : Perfbench.Span.layer) ->
      let n = l.Perfbench.Span.l_name in
      emit ("self_ms." ^ n) (l.Perfbench.Span.l_self *. 1000.);
      emit ("self_minor." ^ n) l.Perfbench.Span.l_self_minor;
      emit ("self_promoted." ^ n) l.Perfbench.Span.l_self_promoted;
      emit ("count." ^ n) (float_of_int l.Perfbench.Span.l_count))
    (Perfbench.Span.layer_table spans)

let command_output cmd =
  let ic = Unix.open_process_in cmd in
  let out = try String.trim (In_channel.input_all ic) with _ -> "" in
  ignore (Unix.close_process_in ic);
  out

(** {1 Result} *)

type metric = { name : string; value : float; unit_ : string }

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(** The machine and run descriptor line, then one human-readable line
    per metric, then the result object as the last line of stdout. *)
let print_result ~descriptor ~correct ~attempted ~failed metrics =
  print_endline
    ("descriptor "
    ^ "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Perfbench.Span.json_string k) v)
           descriptor)
    ^ "}");
  List.iter
    (fun m -> Printf.printf "metric %-34s %14.4f %s\n" m.name m.value m.unit_)
    metrics;
  let bad =
    List.filter (fun m -> not (Float.is_finite m.value)) metrics
  in
  List.iter (fun m -> Printf.eprintf "perfbench: metric %s is not finite\n" m.name) bad;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && bad = []) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Perfbench.Span.json_string m.name)
              (num (if Float.is_finite m.value then m.value else 0.))
              (Perfbench.Span.json_string m.unit_))
          metrics));
  if not (correct && bad = []) then exit 1

let str s = Perfbench.Span.json_string s

(** What every result records about the machine and the run. *)
let descriptor ~workload ~seed ~seconds ~trace extra =
  [ ("workload", str workload);
    ("seed", string_of_int seed);
    ("run_seconds", num seconds);
    ("trace", string_of_bool trace);
    ("nproc", command_output "nproc");
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml_version", str Sys.ocaml_version);
    ("publish_fs", str "none: pages go to an in-memory directory");
    ("checkout_fs", str (command_output "stat -f -c %T ."))
  ]
  @ extra
