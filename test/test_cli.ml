(* Integration tests driving the actual strudel CLI binary. *)

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the built tools, beside this test executable's directory: found the
   same way under [dune runtest] and [dune exec test/main.exe] *)
let built path =
  Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ path)

let cli = built "bin/strudel_cli.exe"
let bench = built "bench/main.exe"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
  find 0

let write_tmp suffix content =
  let path = Filename.temp_file "strudelcli" suffix in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

(* run a command, capture stdout, return (exit code, output) *)
let run_cmd cmd =
  let out_file = Filename.temp_file "strudelout" ".txt" in
  let code = Sys.command (cmd ^ " > " ^ Filename.quote out_file ^ " 2>/dev/null") in
  let ic = open_in_bin out_file in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  Sys.remove out_file;
  (code, out)

let available = Sys.file_exists cli

let fresh_dir () =
  let dir = Filename.temp_file "strudelsite" "" in
  Sys.remove dir;
  dir

let rm_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* [strudel build] of data file [d] and query file [q] with extra
   [flags]: exit code, stdout and the written files (name, bytes),
   sorted; the output directory is removed afterwards *)
let build_to d q flags =
  let dir = fresh_dir () in
  let code, out =
    run_cmd
      (Filename.quote cli ^ " build -d " ^ Filename.quote d ^ " -q "
       ^ Filename.quote q ^ " --root RootPage " ^ flags ^ " -o "
       ^ Filename.quote dir)
  in
  let pages =
    List.sort compare
      (List.map
         (fun f ->
           let ic = open_in_bin (Filename.concat dir f) in
           let n = in_channel_length ic in
           let s = really_input_string ic n in
           close_in ic;
           (f, s))
         (Array.to_list (Sys.readdir dir)))
  in
  rm_dir dir;
  (code, out, pages)

let guard f () = if available then f () else ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Replace a watched file's contents with a fresh file renamed over it,
   as an editor's save does. *)
let save path content =
  let tmp = path ^ ".save" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc content);
  Sys.rename tmp path

(* The files of a directory as (name, bytes), sorted, without the
   build's fault manifest. *)
let dir_pages dir =
  List.sort compare
    (List.filter_map
       (fun f ->
         if f = "faults.json" then None
         else Some (f, read_file (Filename.concat dir f)))
       (Array.to_list (Sys.readdir dir)))

(* Start [strudel watch] of data [d] and query [q] publishing to [dir],
   polling every 20 ms for [cycles] cycles; returns its pid and the
   file its stdout goes to. *)
let spawn_watch d q dir ~cycles =
  let out = Filename.temp_file "strudelwatch" ".txt" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "watch"; "--data"; d; "--query"; q; "--root"; "RootPage";
         "-o"; dir; "--interval"; "0.02"; "--max-cycles";
         string_of_int cycles |]
      Unix.stdin fd null
  in
  Unix.close fd;
  Unix.close null;
  (pid, out)

let occurrences hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i k =
    if i + n > h then k
    else go (i + 1) (if String.sub hay i n = needle then k + 1 else k)
  in
  go 0 0

(* Wait (up to ~20 s) until the watch's stdout holds [n] occurrences
   of [needle]. *)
let await ?(n = 1) out needle =
  let rec poll tries =
    occurrences (read_file out) needle >= n
    || (tries > 0 && (Unix.sleepf 0.02; poll (tries - 1)))
  in
  poll 1000

let exit_code pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* the paper example's data with pub1 retitled and a third publication
   (a new year, so new pages) *)
let edited_ddl =
  let d = Sites.Paper_example.data_ddl in
  let old_title = "Specifying Representations of Machine Instructions" in
  let rec find i =
    if String.sub d i (String.length old_title) = old_title then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub d 0 i ^ "Specifying Machine Instructions"
  ^ String.sub d (i + String.length old_title)
      (String.length d - i - String.length old_title)
  ^ {|
object pub3 in Publications {
  title "Catching the Boat with Strudel"
  author "Mary Fernandez"
  year 1999
  pub-type "inproceedings"
  category "Semistructured Data"
}
|}

let suite =
  [
    t "cli binary is built" (fun () -> check_bool "exists" true available);
    t "check: valid query" (guard (fun () ->
        let q = write_tmp ".struql"
            {|WHERE C(x), x -> "a" -> y CREATE F(x) LINK F(x) -> "b" -> y|}
        in
        let code, out = run_cmd (Filename.quote cli ^ " check " ^ Filename.quote q) in
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "range-restricted" true (contains out "range-restricted")));
    t "check: invalid query exits nonzero" (guard (fun () ->
        let q = write_tmp ".struql"
            {|WHERE C(x) CREATE F(x) LINK x -> "b" -> F(x)|}
        in
        let code, out = run_cmd (Filename.quote cli ^ " check " ^ Filename.quote q) in
        Sys.remove q;
        check_bool "nonzero" true (code <> 0);
        check_bool "immutable message" true (contains out "immutable")));
    t "query: evaluates and prints DDL" (guard (fun () ->
        let d = write_tmp ".ddl" "object a in C { k 1 }\nobject b in C { k 2 }\n" in
        let q = write_tmp ".struql"
            {|WHERE C(x), x -> "k" -> v CREATE F(x) LINK F(x) -> "key" -> v COLLECT Out(F(x)) OUTPUT R|}
        in
        let code, out =
          run_cmd
            (Filename.quote cli ^ " query -d " ^ Filename.quote d ^ " "
             ^ Filename.quote q)
        in
        Sys.remove d;
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "collects" true (contains out "in Out");
        check_bool "keys" true (contains out "key 1" && contains out "key 2")));
    t "schema: prints fig5-style edges" (guard (fun () ->
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let code, out = run_cmd (Filename.quote cli ^ " schema " ^ Filename.quote q) in
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "conjunction label" true (contains out "Q1^Q2")));
    t "decompose: one piece per unit" (guard (fun () ->
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let code, out =
          run_cmd (Filename.quote cli ^ " decompose " ^ Filename.quote q)
        in
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "create piece" true (contains out "-- create:YearPage");
        check_bool "link piece" true (contains out "-- link:")));
    t "load: bibtex to ddl and to xml" (guard (fun () ->
        let bib = write_tmp ".bib"
            "@article{k1, title = {T}, author = {A B}, year = 1997}\n"
        in
        let code, out =
          run_cmd (Filename.quote cli ^ " load -f bibtex " ^ Filename.quote bib)
        in
        check_int "exit 0" 0 code;
        check_bool "ddl object" true (contains out "object k1 in Publications");
        let code2, out2 =
          run_cmd
            (Filename.quote cli ^ " load -f bibtex --xml " ^ Filename.quote bib)
        in
        Sys.remove bib;
        check_int "exit 0" 0 code2;
        check_bool "xml graph" true (contains out2 "<graph name=")));
    t "verify: violation exits nonzero" (guard (fun () ->
        let d = write_tmp ".ddl" "object secret_page { proprietary true }\n" in
        let code, out =
          run_cmd
            (Filename.quote cli ^ " verify -d " ^ Filename.quote d
             ^ " --no-label proprietary")
        in
        Sys.remove d;
        check_bool "nonzero" true (code <> 0);
        check_bool "violated" true (contains out "VIOLATED")));
    t "build: writes pages" (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let tpl = write_tmp ".tpl" "<h1>Pubs</h1><SFMTLIST @YearPage KEY=Year ORDER=ascend>" in
        let dir = Filename.temp_file "strudelsite" "" in
        Sys.remove dir;
        let code, out =
          run_cmd
            (Filename.quote cli ^ " build -d " ^ Filename.quote d ^ " -q "
             ^ Filename.quote q ^ " -t RootPages=" ^ Filename.quote tpl
             ^ " --root RootPage -o " ^ Filename.quote dir)
        in
        check_int "exit 0" 0 code;
        check_bool "report" true (contains out "pages written");
        check_bool "root page file" true
          (Sys.file_exists (Filename.concat dir "RootPage.html"));
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir;
        List.iter Sys.remove [ d; q; tpl ]));
    t "build: --jobs output identical, --stats prints profile"
      (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let code1, out1, pages1 = build_to d q "--jobs 1 --stats" in
        let code4, out4, pages4 = build_to d q "--jobs 4 --stats" in
        List.iter Sys.remove [ d; q ];
        check_int "jobs=1 exit 0" 0 code1;
        check_int "jobs=4 exit 0" 0 code4;
        check_bool "stats profile printed" true (contains out1 "jobs=1");
        check_bool "stats shows 4 domains" true (contains out4 "jobs=4");
        check_bool "written files byte-identical" true (pages1 = pages4)));
    t "build: --jobs 1/4/0 write Generator.generate's pages"
      (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let runs =
          List.map (fun j -> (j, build_to d q ("--jobs " ^ j ^ " --stats")))
            [ "1"; "4"; "0" ]
        in
        List.iter Sys.remove [ d; q ];
        (* the sequential in-memory reference *)
        let templates = Template.Generator.empty_templates in
        let def =
          Strudel.Site.define ~name:"site" ~root_family:"RootPage" ~templates
            [ ("site", Sites.Paper_example.site_query) ]
        in
        let data, _ =
          Sgraph.Ddl.parse ~graph_name:"input" Sites.Paper_example.data_ddl
        in
        let sg, _, _, _ = Strudel.Site.build_site_graph def data in
        let site =
          Template.Generator.generate ~templates sg
            ~roots:(Strudel.Site.roots_of sg "RootPage")
        in
        let reference =
          List.sort compare
            (List.map
               (fun p -> (p.Template.Generator.url, p.Template.Generator.html))
               site.Template.Generator.pages)
        in
        check_bool "reference has pages" true (reference <> []);
        List.iter
          (fun (j, (code, out, pages)) ->
            check_int ("jobs=" ^ j ^ " exit 0") 0 code;
            check_bool ("jobs=" ^ j ^ " files = reference") true
              (List.filter (fun (f, _) -> f <> "faults.json") pages
               = reference);
            if j = "0" then
              check_bool "auto-detected profile printed" true
                (contains out
                   (Printf.sprintf "jobs=%d"
                      (Strudel.Render_pool.auto_jobs ()))))
          runs));
    t "build: --shards publishes a checkable repository, same pages"
      (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let repo = fresh_dir () in
        let code0, _, pages0 = build_to d q "" in
        let code1, _, pages1 =
          build_to d q ("--shards " ^ Filename.quote repo ^ " --shard-by family")
        in
        let status, out =
          run_cmd
            (Filename.quote cli ^ " repo status " ^ Filename.quote repo
             ^ " --check")
        in
        let analyze, profile =
          run_cmd
            (Filename.quote cli ^ " explain-analyze -s costbased --shards "
             ^ Filename.quote repo ^ " " ^ Filename.quote q)
        in
        rm_dir repo;
        List.iter Sys.remove [ d; q ];
        check_int "plain build exit 0" 0 code0;
        check_int "--shards build exit 0" 0 code1;
        check_bool "written files byte-identical" true (pages0 = pages1);
        check_int "repo status --check exit 0" 0 status;
        check_bool "segments verified" true (contains out ": ok");
        check_int "explain-analyze --shards exit 0" 0 analyze;
        check_bool "measured plan printed" true
          (contains profile "EXPLAIN ANALYZE")));
    t "watch: an edit publishes what build publishes for the new file"
      (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let dir = fresh_dir () in
        let pid, out = spawn_watch d q dir ~cycles:150 in
        check_bool "primed" true (await out "primed");
        save d edited_ddl;
        check_bool "edit published" true (await out "|delta|=");
        let code = exit_code pid in
        let watched = dir_pages dir in
        let build_code, _, built = build_to d q "" in
        rm_dir dir;
        List.iter Sys.remove [ d; q; out ];
        check_int "watch exit 0" 0 code;
        check_int "build exit 0" 0 build_code;
        check_bool "the new year's page published" true
          (List.exists (fun (_, html) -> contains html "Catching the Boat")
             watched);
        check_bool "watched files = built files" true
          (watched = List.filter (fun (f, _) -> f <> "faults.json") built)));
    t "watch: a malformed save is quarantined (exit 3), a good save recovers"
      (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let dir = fresh_dir () in
        let pid, out = spawn_watch d q dir ~cycles:150 in
        check_bool "primed" true (await out "primed");
        save d (Sites.Paper_example.data_ddl ^ "object bad { title \"unterm");
        check_bool "bad save quarantined" true (await out "quarantined");
        (* an editor's rename-save can leave the path briefly missing *)
        Sys.remove d;
        check_bool "missing file quarantined" true
          (await out "No such file");
        save d edited_ddl;
        check_bool "good save published" true (await out "|delta|=");
        let code = exit_code pid in
        let text = read_file out in
        let watched = dir_pages dir in
        let _, _, built = build_to d q "" in
        rm_dir dir;
        List.iter Sys.remove [ d; q; out ];
        check_int "degraded exit 3" 3 code;
        check_bool "names the DDL error" true (contains text "DDL error, line");
        check_bool "recovered: watched files = built files" true
          (watched = List.filter (fun (f, _) -> f <> "faults.json") built)));
    t "lint: bundled site in all three formats"
      (guard (fun () ->
        let code, text = run_cmd (cli ^ " lint cnn") in
        check_int "text exit 0" 0 code;
        check_bool "summary line" true (contains text "error(s)");
        check_bool "known cnn warning" true (contains text "SA020");
        let code, json = run_cmd (cli ^ " lint cnn --format json") in
        check_int "json exit 0" 0 code;
        check_bool "json summary" true (contains json "\"summary\"");
        let code, sarif = run_cmd (cli ^ " lint examples/cnn --format sarif") in
        check_int "sarif exit 0" 0 code;
        check_bool "sarif version" true (contains sarif "\"2.1.0\"");
        check_bool "sarif driver" true (contains sarif "strudel-lint")));
    t "lint: --fail-on warning gates the exit code"
      (guard (fun () ->
        let code, _ = run_cmd (cli ^ " lint cnn --fail-on warning") in
        check_int "warnings gate" 1 code;
        let code, _ = run_cmd (cli ^ " lint rodin --fail-on warning") in
        check_int "rodin is warning-free" 0 code));
    t "lint: query file with an error diagnostic"
      (guard (fun () ->
        let q = write_tmp ".struql"
            {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
OUTPUT S|}
        in
        (* root family RootPage is never created -> SA024, exit 1 *)
        let code, out = run_cmd (cli ^ " lint " ^ Filename.quote q) in
        Sys.remove q;
        check_int "exit 1" 1 code;
        check_bool "SA024" true (contains out "SA024")));
    t "lint: unknown site exits 2"
      (guard (fun () ->
        let code, _ = run_cmd (cli ^ " lint no_such_site_anywhere") in
        check_int "exit 2" 2 code));
    t "bench: unknown experiment name exits nonzero"
      (guard (fun () ->
        let code, _ = run_cmd (Filename.quote bench ^ " E99_no_such_experiment") in
        check_bool "nonzero" true (code <> 0)));
    t "bench: named experiment selection runs"
      (guard (fun () ->
        let code, out = run_cmd (Filename.quote bench ^ " E2") in
        check_int "exit 0" 0 code;
        check_bool "ran E2" true (contains out "E2");
        check_bool "ran only E2" true (not (contains out "E1 —"))));
  ]
