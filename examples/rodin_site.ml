(* The INRIA-Rodin bilingual site (§5.1): one StruQL query defines the
   English and French views of the site and cross-links every page with
   its translation.

   Run with: dune exec examples/rodin_site.exe *)

open Sgraph

let () =
  let built = Sites.Rodin.build () in
  Fmt.pr "site graph: %a@." Graph.pp_stats built.Strudel.Site.site_graph;
  Fmt.pr "pages: %d (one English + one French per entity)@."
    (Template.Generator.page_count built.Strudel.Site.site);

  (* the cross-linking constraints are the point of this site *)
  List.iter
    (fun (c, v) ->
      Fmt.pr "constraint [%a]: %a@." Schema.Verify.pp_constraint c
        Schema.Verify.pp_verdict v)
    built.Strudel.Site.verification;

  (* show a page pair *)
  let sg = built.Strudel.Site.site_graph in
  (match Schema.Verify.family_members sg "EnProject" with
   | en :: _ ->
     let page o =
       (Option.get (Template.Generator.page_of_object built.Strudel.Site.site o))
         .Template.Generator.html
     in
     Fmt.pr "@.English page:@.%s@." (page en);
     (match Graph.attr1 sg en "Translation" with
      | Some (Graph.N fr) -> Fmt.pr "French twin:@.%s@." (page fr)
      | _ -> ())
   | [] -> ());

  Strudel.Api.write ~dir:"_site/rodin" built;
  Fmt.pr "written to _site/rodin/@."
