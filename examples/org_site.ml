(* The organization site — the paper's largest example (§5.1): five
   data sources integrated by the GAV warehousing mediator, ~400
   personal home pages plus organization / project / research-area /
   publication pages, integrity-constraint verification, and an
   external version produced by swapping five templates over the same
   site graph.

   Run with: dune exec examples/org_site.exe *)

open Sgraph

let () =
  let sources, w = Sites.Org.data () in
  let mediated = Mediator.Warehouse.graph w in
  Fmt.pr "mediated graph: %a@." Graph.pp_stats mediated;
  Fmt.pr "  collections: %s@."
    (String.concat ", "
       (List.map
          (fun c -> Printf.sprintf "%s(%d)" c (Graph.collection_size mediated c))
          (Graph.collections mediated)));

  let internal = Strudel.Site.build ~data:mediated Sites.Org.definition in
  let external_ =
    Strudel.Site.regenerate internal Sites.Org.external_templates
  in
  Fmt.pr "site graph: %a@." Graph.pp_stats internal.Strudel.Site.site_graph;
  Fmt.pr "spec: %a@." Strudel.Site.pp_spec_stats
    (Strudel.Site.spec_stats Sites.Org.definition);
  Fmt.pr "internal pages: %d; external pages: %d@."
    (Template.Generator.page_count internal.Strudel.Site.site)
    (Template.Generator.page_count external_.Strudel.Site.site);

  List.iter
    (fun (c, v) ->
      Fmt.pr "constraint [%a]: %a@." Schema.Verify.pp_constraint c
        Schema.Verify.pp_verdict v)
    internal.Strudel.Site.verification;

  (* a stale source triggers a warehouse refresh *)
  Mediator.Source.update sources.Sites.Org.projects (fun () ->
      fst
        (Wrappers.Structured_file.load
           (Wrappers.Synth.projects_file ~seed:42 ~projects:35 ~people:400 ())));
  Fmt.pr "warehouse stale after source update: %b@."
    (Mediator.Warehouse.stale w);
  ignore (Mediator.Warehouse.refresh w);
  Fmt.pr "refreshed; mediated now: %a@." Graph.pp_stats
    (Mediator.Warehouse.graph w);

  Strudel.Api.write ~dir:"_site/org-internal" internal;
  Strudel.Api.write ~dir:"_site/org-external" external_;

  (* dot export of the site schema — the visual map of the site *)
  (match internal.Strudel.Site.schemas with
   | (_, schema) :: _ ->
     let oc = open_out "_site/org-schema.dot" in
     output_string oc (Schema.Dot.of_schema schema);
     close_out oc;
     Fmt.pr "site schema written to _site/org-schema.dot@."
   | [] -> ());
  Fmt.pr "written to _site/org-internal/ and _site/org-external/@."
