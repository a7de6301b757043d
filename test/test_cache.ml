(* Correctness of the dependency-tracked render cache: cache-assisted
   rebuilds ([Site.build ~render_cache]) must equal cold full builds under
   random edit scripts; traces must hit on unchanged graphs, invalidate
   exactly on observed reads, and die wholesale on template changes. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let page_map = Test_end_to_end_props.page_map
let articles = Test_end_to_end_props.articles

(* --- the fuzz property: random edit scripts --- *)

let cache_rebuild_equals_full ~jobs muts =
  let data0 = Sites.Cnn.data ~articles () in
  let cache = Strudel.Render_cache.create () in
  ignore
    (Strudel.Site.build ~render_cache:cache ~data:data0 Sites.Cnn.definition);
  let data1 = Sites.Cnn.data ~articles () in
  Test_end_to_end_props.apply_mutations data1 articles muts;
  let inc =
    Strudel.Site.build ~jobs ~render_cache:cache ~data:data1
      Sites.Cnn.definition
  in
  let full = Strudel.Site.build ~data:data1 Sites.Cnn.definition in
  page_map inc.Strudel.Site.site = page_map full.Strudel.Site.site

(* --- unit tests --- *)

let profile (b : Strudel.Site.built) = b.Strudel.Site.render_profile
let rendered b = (profile b).Strudel.Render_pool.rp_rendered
let pages b = (profile b).Strudel.Render_pool.rp_pages

let no_change_all_hits () =
  let data = Sites.Cnn.data ~articles:12 () in
  let cache = Strudel.Render_cache.create () in
  ignore (Strudel.Site.build ~render_cache:cache ~data Sites.Cnn.definition);
  Strudel.Render_cache.reset_stats cache;
  let b = Strudel.Site.build ~render_cache:cache ~data Sites.Cnn.definition in
  check_int "nothing re-rendered" 0 (rendered b);
  let hits, _, invalidations = Strudel.Render_cache.stats cache in
  check_int "all hits" (pages b) hits;
  check_int "no invalidations" 0 invalidations

let targeted_invalidation () =
  let data0 = Sites.Cnn.data ~articles:12 () in
  let cache = Strudel.Render_cache.create () in
  ignore
    (Strudel.Site.build ~render_cache:cache ~data:data0 Sites.Cnn.definition);
  Strudel.Render_cache.reset_stats cache;
  let data1 = Sites.Cnn.data ~articles:12 () in
  Test_end_to_end_props.apply_mutations data1 12
    [ Test_end_to_end_props.Set_headline (3, "Hedited") ];
  let b = Strudel.Site.build ~render_cache:cache ~data:data1 Sites.Cnn.definition in
  let _, _, invalidations = Strudel.Render_cache.stats cache in
  check_bool "some page invalidated" true (invalidations >= 1);
  check_bool "but not the whole site" true (rendered b < pages b);
  let full = Strudel.Site.build ~data:data1 Sites.Cnn.definition in
  check_bool "equals cold full build" true
    (page_map b.Strudel.Site.site = page_map full.Strudel.Site.site)

(* Warm-cache rebuilds over edited data: a cold build over [before]
   fills the cache, [Site.build ~render_cache] over [after] must emit
   exactly a cold build's pages (order included) and re-render what
   [expect] says, given the page count before the edit. *)
let rebuild_cases =
  let cnn n () = Sites.Cnn.data ~articles:n () in
  let edited n edit () =
    let g = Sites.Cnn.data ~articles:n () in
    edit g;
    g
  in
  [
    ( "identical data reuses every page",
      Sites.Cnn.definition, cnn 40, cnn 40,
      fun ~before:_ b -> rendered b = 0 );
    ( "changed headline equals a cold build",
      Sites.Cnn.definition, cnn 40,
      edited 40 (fun g ->
          match Graph.find_node g "art3" with
          | Some a ->
            Graph.add_edge g a "headline"
              (Graph.V (Value.String "CHANGED headline"))
          | None -> Alcotest.fail "missing art3"),
      fun ~before:_ b -> rendered b > 0 );
    ( "one edit re-renders a few pages",
      Sites.Cnn.definition, cnn 60,
      edited 60 (fun g ->
          match Graph.find_node g "art5" with
          | Some a -> Graph.add_edge g a "body" (Graph.V (Value.String "new body"))
          | None -> Alcotest.fail "missing art5"),
      fun ~before:_ b -> rendered b > 0 && rendered b * 4 < pages b );
    ( "added object renders its new pages",
      Sites.Cnn.definition, cnn 20, cnn 21,
      fun ~before b -> rendered b > 0 && pages b > before );
    ( "removed attribute invalidates its page",
      Sites.Paper_example.definition, Sites.Paper_example.data,
      (fun () ->
        let g = Sites.Paper_example.data () in
        let p1 = Option.get (Graph.find_node g "pub1") in
        Graph.remove_edge g p1 "journal"
          (Graph.V
             (Value.String "Transactions on Programming Languages and Systems"));
        g),
      fun ~before:_ b -> rendered b > 0 );
  ]

let rebuild_case (name, def, before, after, expect) =
  t ("warm-cache rebuild: " ^ name) (fun () ->
      let cache = Strudel.Render_cache.create () in
      let previous =
        Strudel.Site.build ~render_cache:cache ~data:(before ()) def
      in
      let data = after () in
      let b = Strudel.Site.build ~render_cache:cache ~data def in
      let cold = Strudel.Site.build ~data def in
      check_bool "pages equal a cold build's, in order" true
        (Test_parallel.page_triples b.Strudel.Site.site
        = Test_parallel.page_triples cold.Strudel.Site.site);
      check_bool "re-rendered as expected" true
        (expect ~before:(pages previous) b))

let template_change_clears () =
  let data = Sites.Cnn.data ~articles:8 () in
  let cache = Strudel.Render_cache.create () in
  let _ = Strudel.Site.build ~render_cache:cache ~data Sites.Cnn.definition in
  check_bool "cache populated" true (Strudel.Render_cache.size cache > 0);
  Strudel.Render_cache.reset_stats cache;
  (* same data, edited presentation: the traces can't see template text,
     so the fingerprint guard must drop every entry *)
  let ts = Sites.Cnn.definition.Strudel.Site.templates in
  let def2 =
    {
      Sites.Cnn.definition with
      Strudel.Site.templates =
        {
          ts with
          Template.Generator.by_collection =
            List.map
              (fun (c, text) -> (c, text ^ "\n<!-- v2 -->"))
              ts.Template.Generator.by_collection;
        };
    }
  in
  let b2 = Strudel.Site.build ~render_cache:cache ~data def2 in
  let hits, _, _ = Strudel.Render_cache.stats cache in
  check_int "no stale hit across template change" 0 hits;
  let cold = Strudel.Site.build ~data def2 in
  check_bool "rebuilt output equals cold build with new templates" true
    (page_map b2.Strudel.Site.site = page_map cold.Strudel.Site.site)

(* trace semantics at the Render_cache level: hit on an unchanged
   graph, invalidation exactly when an observed read changes *)
let find_valid_semantics () =
  let g = Graph.create ~name:"rc" () in
  let o = Graph.new_node g "obj" in
  Graph.add_edge g o "k" (Graph.V (Value.String "v1"));
  let cache = Strudel.Render_cache.create () in
  let r = Template.Generator.render_page_full ~trace_reads:true g o in
  Strudel.Render_cache.store cache r;
  (match Strudel.Render_cache.find_valid cache g o with
   | Some e ->
     check_bool "hit returns the rendered bytes" true
       (e.Strudel.Render_cache.e_html
       = r.Template.Generator.r_page.Template.Generator.html)
   | None -> Alcotest.fail "expected a hit on the unchanged graph");
  (* change an attribute the property sheet read *)
  Graph.remove_edge g o "k" (Graph.V (Value.String "v1"));
  Graph.add_edge g o "k" (Graph.V (Value.String "v2"));
  check_bool "edit invalidates" true
    (Strudel.Render_cache.find_valid cache g o = None);
  let hits, misses, invalidations = Strudel.Render_cache.stats cache in
  check_int "one hit" 1 hits;
  check_int "one invalidation" 1 invalidations;
  (* the stale entry was dropped: next lookup is a plain miss *)
  check_bool "stale entry removed" true
    (Strudel.Render_cache.find_valid cache g o = None);
  check_int "then a miss" (misses + 1)
    (let _, m, _ = Strudel.Render_cache.stats cache in
     m)

(* click-time sessions sit on the same cache: revisits hit, and a
   mutation of the partial graph re-renders exactly the touched page *)
let clicktime_hit_and_invalidation () =
  let data, _ = Ddl.parse ~graph_name:"ct" "object a in C { k 1 }\n" in
  let def =
    Strudel.Site.define ~name:"ct-site" ~root_family:"RootPage"
      [
        ( "site",
          {|WHERE C(x), x -> "k" -> v
            CREATE RootPage(), P(x)
            LINK RootPage() -> "item" -> P(x), P(x) -> "key" -> v
            COLLECT Pages(P(x))|} );
      ]
  in
  let ct = Strudel.Materialize.Click_time.start ~data def in
  let root = List.hd (Strudel.Materialize.Click_time.roots ct) in
  let h1 = Strudel.Materialize.Click_time.browse ct root in
  let h2 = Strudel.Materialize.Click_time.browse ct root in
  check_bool "revisit is byte-identical" true (h1 = h2);
  let st = Strudel.Materialize.Click_time.stats ct in
  check_int "revisit hit the cache" 1
    st.Strudel.Materialize.Click_time.cache_hits;
  (* no template: the render traced the root's out-edge list, so a new
     edge on the root must invalidate its page *)
  Graph.add_edge ct.Strudel.Materialize.Click_time.partial root "extra"
    (Graph.V (Value.String "late"));
  let h3 = Strudel.Materialize.Click_time.browse ct root in
  let st = Strudel.Materialize.Click_time.stats ct in
  check_int "mutation invalidated the page" 1
    st.Strudel.Materialize.Click_time.cache_invalidations;
  check_bool "re-render sees the new edge" true (h3 <> h2)

let muts_arb = Test_end_to_end_props.muts_arb

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "cache-assisted incremental rebuild equals cold full build \
            (random edit scripts)"
         ~count:20 muts_arb
         (cache_rebuild_equals_full ~jobs:1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "cache-assisted rebuild on 4 domains equals cold full build \
            (random edit scripts)"
         ~count:10 muts_arb
         (cache_rebuild_equals_full ~jobs:4));
    t "no-change rebuild hits on every page" no_change_all_hits;
    t "one edit invalidates only dependent pages" targeted_invalidation;
    t "template change clears the cache" template_change_clears;
    t "find_valid: hit, invalidation, removal" find_valid_semantics;
    t "click-time revisits hit; partial-graph edits invalidate"
      clicktime_hit_and_invalidation;
  ]
  @ List.map rebuild_case rebuild_cases
