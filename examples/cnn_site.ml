(* The CNN demonstration site (§5.1): ~300 articles, a general site, a
   sports-only variant whose query differs by two extra predicates, a
   text-only presentation of the same site graph, and the §3 TextOnly
   derived-site query.  Also demonstrates click-time materialization:
   browsing a few pages materializes only a fraction of the site.

   Run with: dune exec examples/cnn_site.exe *)

open Sgraph

let () =
  let data = Sites.Cnn.data ~articles:300 () in
  Fmt.pr "article base: %a@." Graph.pp_stats data;

  (* 1. the general site *)
  let general = Strudel.Site.build ~data Sites.Cnn.definition in
  Fmt.pr "general site: %d pages, %a@."
    (Template.Generator.page_count general.Strudel.Site.site)
    Graph.pp_stats general.Strudel.Site.site_graph;

  (* 2. sports only: same data, same templates, two extra predicates *)
  let sports = Strudel.Site.build ~data Sites.Cnn.sports_definition in
  Fmt.pr "sports-only site: %d pages@."
    (Template.Generator.page_count sports.Strudel.Site.site);

  (* 3. text-only: same site graph, one changed template *)
  let text_only =
    Strudel.Site.regenerate general Sites.Cnn.text_only_templates
  in
  let count_imgs site =
    List.fold_left
      (fun n p ->
        let html = p.Template.Generator.html in
        let rec go i acc =
          if i + 4 > String.length html then acc
          else if String.sub html i 4 = "<img" then go (i + 4) (acc + 1)
          else go (i + 1) acc
        in
        go 0 n)
      0 site.Template.Generator.pages
  in
  Fmt.pr "images in general site: %d; in text-only: %d@."
    (count_imgs general.Strudel.Site.site)
    (count_imgs text_only.Strudel.Site.site);

  (* 4. the §3 TextOnly derived site: a query over the site graph *)
  let derived =
    Strudel.Api.query general.Strudel.Site.site_graph
      Sites.Cnn.text_only_copy_query
  in
  Fmt.pr "TextOnly derived graph: %a@." Graph.pp_stats derived;

  (* 5. click-time browsing *)
  let ct = Strudel.Materialize.Click_time.start ~data Sites.Cnn.definition in
  let visited =
    Strudel.Materialize.Click_time.random_walk ct ~clicks:25 ~seed:99
  in
  let st = Strudel.Materialize.Click_time.stats ct in
  Fmt.pr
    "click-time after %d clicks: %d node expansions, %d queries, %d cache \
     hits; materialized %d/%d nodes@."
    visited st.Strudel.Materialize.Click_time.expansions
    st.Strudel.Materialize.Click_time.queries
    st.Strudel.Materialize.Click_time.cache_hits
    st.Strudel.Materialize.Click_time.materialized_nodes
    (Graph.node_count general.Strudel.Site.site_graph);

  Strudel.Api.write ~dir:"_site/cnn" general;
  Strudel.Api.write ~dir:"_site/cnn-sports" sports;
  Fmt.pr "written to _site/cnn/ and _site/cnn-sports/@."
