(* XML as a data source (§2.2's anticipated exchange language): wrap an
   RSS-like XML feed into a data graph with the generic XML wrapper,
   restructure it with StruQL, and render a browsable site — no custom
   wrapper code.

   Run with: dune exec examples/xml_pipeline.exe *)

open Sgraph

let feed_xml =
  {|<?xml version="1.0"?>
<rss>
  <channel>
    <title>Research Lab News</title>
    <item>
      <title>STRUDEL demonstrated at SIGMOD</title>
      <category>Databases</category>
      <pubDate>1997-05-13</pubDate>
      <description>A Web-site management system built on a semistructured data model.</description>
    </item>
    <item>
      <title>Query optimizer for semistructured data</title>
      <category>Databases</category>
      <pubDate>1997-08-02</pubDate>
      <description>Cost-based plan enumeration with schema indexes.</description>
    </item>
    <item>
      <title>New proof assistant release</title>
      <category>Verification</category>
      <pubDate>1997-09-20</pubDate>
      <description>Improved tactics and a faster kernel.</description>
    </item>
  </channel>
</rss>|}

(* Restructure the raw element tree (tag/child/text edges) into a site:
   one page per item, grouped by category. *)
let site_query =
  {|INPUT FEED
{ CREATE Home()
  COLLECT Homes(Home()) }
{ WHERE Documents(d), d -> "child"* -> item, item -> "tag" -> t, t = "item"
  CREATE ItemPage(item)
  LINK Home() -> "Item" -> ItemPage(item)
  COLLECT ItemPages(ItemPage(item))
  { WHERE item -> "child" -> f, f -> "tag" -> ft, f -> "text" -> txt
    LINK ItemPage(item) -> ft -> txt }
  { WHERE item -> "child" -> f, f -> "tag" -> ft, ft = "category",
          f -> "text" -> cat
    CREATE CategoryPage(cat)
    LINK CategoryPage(cat) -> "Name" -> cat,
         CategoryPage(cat) -> "Item" -> ItemPage(item),
         Home() -> "Category" -> CategoryPage(cat)
    COLLECT CategoryPages(CategoryPage(cat)) }
}
OUTPUT FEEDSITE
|}

let templates =
  {
    Template.Generator.empty_templates with
    Template.Generator.by_collection =
      [
        ( "Homes",
          {|<h1>Lab News</h1>
<h3>Categories</h3>
<SFMTLIST @Category ORDER=ascend KEY=Name>
<h3>All items</h3>
<SFMTLIST @Item ORDER=descend KEY=pubDate>|} );
        ( "ItemPages",
          {|<h1><SFMT @title></h1>
<p><i><SFMT @pubDate></i></p>
<p><SFMT @description></p>|} );
        ( "CategoryPages",
          {|<h1><SFMT @Name></h1>
<SFMTLIST @Item ORDER=descend KEY=pubDate>|} );
      ];
  }

let () =
  (* 1. wrap the XML *)
  let g = Graph.create ~name:"FEED" () in
  let root = Xml.wrap_document g ~name:"feed" (Xml.parse_element feed_xml) in
  Fmt.pr "wrapped feed: %a (root %s)@." Graph.pp_stats g (Oid.name root);

  (* 2+3. restructure and render *)
  let def =
    Strudel.Site.define ~name:"FEEDSITE" ~root_family:"Home" ~templates
      ~constraints:
        [ Schema.Verify.Reachable_from "Home";
          Schema.Verify.Points_to ("CategoryPage", "Item", "ItemPage") ]
      [ ("site", site_query) ]
  in
  let built = Strudel.Site.build ~data:g def in
  Fmt.pr "site: %a, %d pages@." Graph.pp_stats built.Strudel.Site.site_graph
    (Template.Generator.page_count built.Strudel.Site.site);
  List.iter
    (fun (c, v) ->
      Fmt.pr "constraint [%a]: %a@." Schema.Verify.pp_constraint c
        Schema.Verify.pp_verdict v)
    built.Strudel.Site.verification;

  (* export the mediated data for exchange *)
  Fmt.pr "@.data graph as XML (first lines):@.";
  let xml = Xml.export g in
  String.split_on_char '\n' xml
  |> List.filteri (fun i _ -> i < 8)
  |> List.iter print_endline;

  Strudel.Api.write ~dir:"_site/feed" built;
  Fmt.pr "@.written to _site/feed/@."
