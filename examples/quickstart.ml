(* Quickstart: the paper's running example end to end.

   Loads the Fig. 2 bibliography data, evaluates the Fig. 3
   site-definition query, prints the site schema (Fig. 5), renders the
   Fig. 7 templates and writes the browsable site to
   _site/quickstart/.

   Run with: dune exec examples/quickstart.exe *)

open Sgraph

let () =
  (* 1. Data: parse the DDL into a data graph. *)
  let data = Sites.Paper_example.data () in
  Fmt.pr "data graph:  %a@." Graph.pp_stats data;

  (* 2. Structure: evaluate the site-definition query. *)
  let built = Strudel.Site.build ~data Sites.Paper_example.definition in
  Fmt.pr "site graph:  %a@." Graph.pp_stats built.Strudel.Site.site_graph;

  (* The site schema summarizes the structure of every site this query
     can generate. *)
  (match built.Strudel.Site.schemas with
   | (_, schema) :: _ -> Fmt.pr "@.%a@." Schema.Site_schema.pp schema
   | [] -> ());

  (* Integrity constraints, checked on the generated site. *)
  List.iter
    (fun (c, v) ->
      Fmt.pr "constraint [%a]: %a@." Schema.Verify.pp_constraint c
        Schema.Verify.pp_verdict v)
    built.Strudel.Site.verification;

  (* 3. Presentation: the HTML generator already ran; write the pages. *)
  let dir = "_site/quickstart" in
  Strudel.Api.write ~dir built;
  Fmt.pr "@.%d pages written to %s/:@."
    (Template.Generator.page_count built.Strudel.Site.site)
    dir;
  List.iter
    (fun p -> Fmt.pr "  %s@." p.Template.Generator.url)
    built.Strudel.Site.site.Template.Generator.pages;

  (* Bonus: one-liner ad-hoc query over the same data. *)
  let ps =
    Strudel.Api.query data
      {|WHERE Publications(p), p -> "postscript" -> q, isPostScript(q)
        COLLECT PostscriptPapers(p)
        OUTPUT PS|}
  in
  Fmt.pr "@.publications with PostScript: %d@."
    (Graph.collection_size ps "PostscriptPapers")
