(* The researcher-homepage example (the paper's "mff" site):
   two data sources (BibTeX + a STRUDEL data file), a 48-line
   site-definition query, and internal/external versions produced from
   the SAME site graph with different template sets.

   Run with: dune exec examples/homepage_site.exe *)

open Sgraph

let () =
  let internal, external_ = Sites.Homepage.build_both ~entries:30 () in
  Fmt.pr "site graph: %a@." Graph.pp_stats internal.Strudel.Site.site_graph;
  Fmt.pr "spec: %a@." Strudel.Site.pp_spec_stats
    (Strudel.Site.spec_stats Sites.Homepage.definition);

  (* constraints *)
  List.iter
    (fun (c, v) ->
      Fmt.pr "constraint [%a]: %a@." Schema.Verify.pp_constraint c
        Schema.Verify.pp_verdict v)
    internal.Strudel.Site.verification;

  Strudel.Api.write ~dir:"_site/homepage-internal" internal;
  Strudel.Api.write ~dir:"_site/homepage-external" external_;
  Fmt.pr "internal: %d pages -> _site/homepage-internal/@."
    (Template.Generator.page_count internal.Strudel.Site.site);
  Fmt.pr "external: %d pages -> _site/homepage-external/@."
    (Template.Generator.page_count external_.Strudel.Site.site);

  (* The external version must not leak patents or proprietary
     projects: grep the generated HTML. *)
  let leaks site needle =
    List.exists
      (fun p ->
        let html = p.Template.Generator.html in
        let n = String.length needle and h = String.length html in
        let rec find i =
          i + n <= h && (String.sub html i n = needle || find (i + 1))
        in
        find 0)
      site.Template.Generator.pages
  in
  Fmt.pr "internal shows patents: %b (expected true)@."
    (leaks internal.Strudel.Site.site "US0000001");
  Fmt.pr "external shows patents: %b (expected false)@."
    (leaks external_.Strudel.Site.site "US0000001");
  Fmt.pr "external shows proprietary project: %b (expected false)@."
    (leaks external_.Strudel.Site.site "MLRISC")
