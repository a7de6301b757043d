(* Delta-StruQL: the differential engine (Struql.Dexec), the delta
   refresh (Warehouse.refresh_delta) and the watch loop (Serve.Watch)
   maintain a published site byte-identically to a cold full build —
   property-tested under random edit scripts, including
   collection-emptying removals, at jobs 1 and 4, and with fallback
   blocks that replay in full; plus units for the fallback taxonomy and
   quarantine under seeded source failures. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let page_map (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      (Oid.name p.Template.Generator.obj, p.Template.Generator.html))
    site.Template.Generator.pages
  |> List.sort compare

(* a sink that drops every page: the built site then retains none *)
let null_sink =
  { Strudel.Render_pool.sk_emit = (fun _ -> ()); sk_reset = (fun () -> ()) }

(* --- a small delta-friendly site: driving collection + nested
   attribute copy, same shape as the scale site --- *)

let site_query =
  {|INPUT DATA
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       GroupPage(g) -> "Item" -> ItemPage(i),
       ItemPage(i) -> "Group" -> GroupPage(g),
       Root() -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  { WHERE i -> l -> v
    LINK ItemPage(i) -> l -> v }
}
OUTPUT SITE
|}

let templates : Template.Generator.template_set =
  {
    Template.Generator.by_object = [];
    by_collection =
      [
        ("Roots", {|<h1>Index</h1>
<SFMTLIST @Group ORDER=ascend KEY=Name>
|});
        ("GroupPages", {|<h1><SFMT @Name></h1>
<SFMTLIST @Item ORDER=ascend KEY=title>
|});
        ( "ItemPages",
          {|<h1><SFMT @title></h1>
<SIF @body != NULL><p><SFMT @body></p></SIF>
<SIF @tag != NULL><p><i><SFMT @tag></i></p></SIF>
<p><SFMT @Group LINK="Up"></p>
|} );
      ];
    named = [];
  }

let definition =
  Strudel.Site.define ~name:"DELTASITE" ~root_family:"Root" ~templates
    [ ("site", site_query) ]

let add_item_raw add_node add_edge add_coll i =
  let it = Oid.fresh (Printf.sprintf "item%d" i) in
  add_node it;
  add_edge it "title" (Graph.V (Value.String (Printf.sprintf "Item %03d" i)));
  add_edge it "grp" (Graph.V (Value.String (Printf.sprintf "G%d" (i mod 3))));
  add_coll "Items" it;
  it

let mk_data n =
  let g = Graph.create ~name:"DATA" () in
  for i = 1 to n do
    ignore
      (add_item_raw (Graph.add_node g)
         (fun o l v -> Graph.add_edge g o l v)
         (fun c o -> Graph.add_to_collection g c o)
         i)
  done;
  g

(* --- random edit scripts, applied through the watch recorder --- *)

type op =
  | Add of int
  | Remove of int
  | Retitle of int * string
  | Tag of int * string
  | Move_group of int * int
  | Drop_member of int
  | Empty_collection
  | Unlink of int
  | Relink of int

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun i -> Add i) (int_bound 999));
      (3, map (fun i -> Remove i) (int_bound 99));
      (3, map2 (fun i s -> Retitle (i, "T" ^ s)) (int_bound 99)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)));
      (2, map2 (fun i s -> Tag (i, s)) (int_bound 99)
           (oneofl [ "new"; "hot"; "old" ]));
      (2, map2 (fun i j -> Move_group (i, j)) (int_bound 99) (int_bound 3));
      (2, map (fun i -> Drop_member i) (int_bound 99));
      (1, return Empty_collection);
      (2, map (fun i -> Unlink i) (int_bound 99));
      (2, map (fun i -> Relink i) (int_bound 99));
    ]

let nth_member g i =
  match Graph.collection g "Items" with
  | [] -> None
  | ms -> Some (List.nth ms (i mod List.length ms))

let apply_op r nextid op =
  let g = Delta.Rec.graph r in
  match op with
  | Add _ ->
    incr nextid;
    ignore
      (add_item_raw (Delta.Rec.add_node r) (Delta.Rec.add_edge r)
         (Delta.Rec.add_to_collection r)
         (100 + !nextid))
  | Remove i -> (
    match nth_member g i with
    | Some o -> Delta.Rec.remove_node r o
    | None -> ())
  | Retitle (i, s) -> (
    match nth_member g i with
    | Some o -> Delta.Rec.set_value r o "title" (Value.String s)
    | None -> ())
  | Tag (i, s) -> (
    match nth_member g i with
    | Some o -> Delta.Rec.add_edge r o "tag" (Graph.V (Value.String s))
    | None -> ())
  | Move_group (i, j) -> (
    match nth_member g i with
    | Some o ->
      Delta.Rec.set_value r o "grp" (Value.String (Printf.sprintf "G%d" j))
    | None -> ())
  | Drop_member i -> (
    match nth_member g i with
    | Some o -> Delta.Rec.remove_from_collection r "Items" o
    | None -> ())
  | Empty_collection ->
    List.iter
      (fun o -> Delta.Rec.remove_from_collection r "Items" o)
      (Graph.collection g "Items")
  | Unlink i -> (
    match nth_member g i with
    | Some o -> Delta.Rec.set_value r o "shown" (Value.String "no")
    | None -> ())
  | Relink i -> (
    match nth_member g i with
    | Some o -> Delta.Rec.set_value r o "shown" (Value.String "yes")
    | None -> ())

(* One watch session over [items] items, the edit script applied
   through the recorder, one delta cycle — published pages must equal a
   cold Site.build over the same mutated data. *)
let delta_equals_cold ~jobs ops =
  let g = mk_data 30 in
  let w = Serve.Watch.create ~jobs ~source:(Serve.Watch.Direct g) definition in
  let r = Option.get (Serve.Watch.recorder w) in
  let nextid = ref 0 in
  List.iter (apply_op r nextid) ops;
  let _report = Serve.Watch.cycle w in
  let cold = Strudel.Site.build ~data:g definition in
  page_map (Serve.Watch.built w).Strudel.Site.site
  = page_map cold.Strudel.Site.site

let ops_arb = QCheck.make QCheck.Gen.(list_size (int_range 1 10) op_gen)

(* --- the same site plus blocks Dexec cannot delta-evaluate — an
   aggregate and a negation — which take the full-replay path every
   cycle and must still publish what a cold build publishes --- *)

let fallback_query =
  {|INPUT DATA
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       GroupPage(g) -> "Item" -> ItemPage(i),
       ItemPage(i) -> "Group" -> GroupPage(g),
       Root() -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  { WHERE i -> l -> v
    LINK ItemPage(i) -> l -> v } }
{ WHERE Items(i), i -> "grp" -> g
  LINK GroupPage(g) -> "Count" -> count(i) }
{ WHERE Items(i), not(i -> "tag" -> "old")
  LINK Root() -> "Fresh" -> ItemPage(i) }
OUTPUT SITE
|}

let fallback_definition =
  let by_collection =
    [
      ("Roots", {|<h1>Index</h1>
<SFMTLIST @Group ORDER=ascend KEY=Name>
<SFMTLIST @Fresh ORDER=ascend KEY=title>
|});
      ("GroupPages", {|<h1><SFMT @Name> (<SFMT @Count>)</h1>
<SFMTLIST @Item ORDER=ascend KEY=title>
|});
    ]
    @ List.remove_assoc "Roots"
        (List.remove_assoc "GroupPages"
           templates.Template.Generator.by_collection)
  in
  Strudel.Site.define ~name:"FALLBACKSITE" ~root_family:"Root"
    ~templates:{ templates with Template.Generator.by_collection }
    [ ("site", fallback_query) ]

(* [delta_equals_cold] over the fallback site, one cycle per edit *)
let fallback_equals_cold ops =
  let g = mk_data 30 in
  let w =
    Serve.Watch.create ~source:(Serve.Watch.Direct g) fallback_definition
  in
  let r = Option.get (Serve.Watch.recorder w) in
  let nextid = ref 0 in
  List.for_all
    (fun op ->
      apply_op r nextid op;
      let rep = Serve.Watch.cycle w in
      let cold = Strudel.Site.build ~data:g fallback_definition in
      (rep.Serve.Watch.cy_fallbacks <> [] || not rep.Serve.Watch.cy_changed)
      && page_map (Serve.Watch.built w).Strudel.Site.site
         = page_map cold.Strudel.Site.site)
    ops

(* --- the same site, but a group page links only its items shown
   "yes": Unlink/Relink take an item page out of the site and bring it
   back while its node stays in the site graph --- *)

let linked_query =
  {|INPUT DATA
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       ItemPage(i) -> "Group" -> GroupPage(g),
       Root() -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  { WHERE i -> l -> v
    LINK ItemPage(i) -> l -> v }
}
{ WHERE Items(i), i -> "grp" -> g, i -> "shown" -> "yes"
  LINK GroupPage(g) -> "Item" -> ItemPage(i) }
OUTPUT SITE
|}

let linked_definition ~root_family =
  Strudel.Site.define ~name:"LINKEDSITE" ~root_family ~templates
    [ ("site", linked_query) ]

let mk_linked_data n =
  let g = mk_data n in
  List.iter
    (fun o -> Graph.add_edge g o "shown" (Graph.V (Value.String "yes")))
    (Graph.collection g "Items");
  g

(* an in-memory directory sink: url -> bytes of the last emission *)
let memdir_sink dir =
  { Strudel.Render_pool.sk_emit =
      (fun p ->
        Hashtbl.replace dir p.Template.Generator.url p.Template.Generator.html);
    sk_reset = (fun () -> Hashtbl.reset dir) }

let pages_in_order (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      ( p.Template.Generator.url,
        Oid.name p.Template.Generator.obj,
        p.Template.Generator.html ))
    site.Template.Generator.pages

(* Two watch sessions over identical data and the same script, one
   cycle per op: one publishing to a memdir sink, one without.  After
   every cycle, every page of a cold build must be in the memdir with
   its bytes (extra files are pages that left the site), the sink got
   no more pages than were rendered, and the sink-less site lists the
   cold build's pages in its order.  With the group pages as the root
   family, edits add and remove roots and may empty the family (then
   the cycle and the cold build both raise, and the next cycle must
   still be right); the maintained graph lists re-added roots last, so
   pages are compared as a set. *)
let delta_walk_equals_cold ~jobs ~root_family ops =
  let linked_definition = linked_definition ~root_family in
  let g_sink = mk_linked_data 30 and g_list = mk_linked_data 30 in
  let dir = Hashtbl.create 64 in
  let w_sink =
    Serve.Watch.create ~jobs ~sink:(memdir_sink dir)
      ~source:(Serve.Watch.Direct g_sink) linked_definition
  in
  let w_list =
    Serve.Watch.create ~jobs ~source:(Serve.Watch.Direct g_list)
      linked_definition
  in
  let r_sink = Option.get (Serve.Watch.recorder w_sink) in
  let r_list = Option.get (Serve.Watch.recorder w_list) in
  let next_sink = ref 0 and next_list = ref 0 in
  (* a cycle after one that raised starts cold and re-emits every page *)
  let recovering = ref false in
  let build () =
    try Some (Strudel.Site.build ~data:g_sink linked_definition).site
    with Strudel.Site.Build_error _ -> None
  in
  let cycle w =
    try Some (Serve.Watch.cycle w) with Strudel.Site.Build_error _ -> None
  in
  List.for_all
    (fun op ->
      apply_op r_sink next_sink op;
      apply_op r_list next_list op;
      match (build (), cycle w_sink, cycle w_list) with
      | None, None, None ->
        recovering := true;
        true
      | None, Some rep, Some _ when not rep.Serve.Watch.cy_changed ->
        (* a no-op edit while the family is still empty *)
        true
      | Some cold, Some rep, Some _ ->
        let published =
          List.for_all
            (fun (p : Template.Generator.page) ->
              Hashtbl.find_opt dir p.Template.Generator.url
              = Some p.Template.Generator.html)
            cold.Template.Generator.pages
        in
        let listed = (Serve.Watch.built w_list).Strudel.Site.site in
        let ok =
          published
          && (!recovering
              || rep.Serve.Watch.cy_emitted <= rep.Serve.Watch.cy_rerendered)
          &&
          if root_family = "Root" then
            pages_in_order listed = pages_in_order cold
          else
            List.sort compare (pages_in_order listed)
            = List.sort compare (pages_in_order cold)
        in
        recovering := false;
        ok
      | _ -> false)
    ops

(* --- units --- *)

let parse = Struql.Parser.parse

let classes_of queries data =
  let dx = Struql.Dexec.create ~queries:(List.map parse queries) data in
  Struql.Dexec.prime dx;
  (dx, Struql.Dexec.classes dx)

let has_fallback classes =
  List.exists
    (fun (_, c) -> String.length c >= 8 && String.sub c 0 8 = "fallback")
    classes

(* Page P(x) shows the anchor text of Q(y).  Unlink P(x) from the
   root (P and Q leave the site), retitle y while they are out, relink:
   both pages must come back with the new title, as a cold build has
   them — not with entries recorded before the retitle.  The relink
   edits only the menu node, so the cycle that brings the pages back
   reports neither of them changed. *)
let stale_query =
  {|INPUT DATA
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Ps(x), x -> "ref" -> y, y -> "title" -> t
  CREATE P(x), Q(y)
  LINK P(x) -> "Ref" -> Q(y), Q(y) -> "title" -> t
  COLLECT PPages(P(x)), QPages(Q(y)) }
{ WHERE Menus(m), m -> "show" -> x, m -> "on" -> "yes"
  LINK Root() -> "P" -> P(x) }
OUTPUT SITE
|}

let stale_definition =
  Strudel.Site.define ~name:"STALESITE" ~root_family:"Root"
    ~templates:
      {
        Template.Generator.by_object = [];
        by_collection =
          [
            ("Roots", "<SFMTLIST @P>\n");
            ("PPages", "<p><SFMT @Ref></p>\n");
            ("QPages", "<h1><SFMT @title></h1>\n");
          ];
        named = [];
      }
    [ ("site", stale_query) ]

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let stale_page_relinked () =
  let g = Graph.create ~name:"DATA" () in
  let x = Oid.fresh "x" and y = Oid.fresh "y" and m = Oid.fresh "m" in
  List.iter (Graph.add_node g) [ x; y; m ];
  Graph.add_edge g x "ref" (Graph.N y);
  Graph.add_edge g y "title" (Graph.V (Value.String "YOld"));
  Graph.add_edge g m "show" (Graph.N x);
  Graph.add_edge g m "on" (Graph.V (Value.String "yes"));
  Graph.add_to_collection g "Ps" x;
  Graph.add_to_collection g "Menus" m;
  let w = Serve.Watch.create ~source:(Serve.Watch.Direct g) stale_definition in
  let r = Option.get (Serve.Watch.recorder w) in
  let page name =
    List.find_opt
      (fun (p : Template.Generator.page) ->
        Oid.name p.Template.Generator.obj = name)
      (Serve.Watch.built w).Strudel.Site.site.Template.Generator.pages
  in
  check_bool "P(x) published" true (page "P(x)" <> None);
  Delta.Rec.set_value r m "on" (Value.String "no");
  let unlinked = Serve.Watch.cycle w in
  check_bool "P(x) left the site" true (page "P(x)" = None);
  check_int "P(x) and Q(y) dropped" 2 unlinked.Serve.Watch.cy_dropped;
  Delta.Rec.set_value r y "title" (Value.String "YNew");
  ignore (Serve.Watch.cycle w);
  Delta.Rec.set_value r m "on" (Value.String "yes");
  ignore (Serve.Watch.cycle w);
  let cold = Strudel.Site.build ~data:g stale_definition in
  check_bool "P(x) shows the new title" true
    (match page "P(x)" with
     | Some p -> contains p.Template.Generator.html "YNew"
     | None -> false);
  check_bool "pages equal a cold build's, in order" true
    (pages_in_order (Serve.Watch.built w).Strudel.Site.site
     = pages_in_order cold.Strudel.Site.site)

(* A cycle whose publish raises (here the root family empties) has
   still moved the maintained graph on; the next cycle must not trust
   the publication it left behind.  P(x) is retitled in the failing
   cycle and nowhere else. *)
let switch_query =
  {|INPUT DATA
{ WHERE Switch(s), s -> "on" -> "yes"
  CREATE Home() COLLECT Homes(Home()) }
{ WHERE Ps(x), x -> "title" -> t
  CREATE P(x) LINK P(x) -> "title" -> t COLLECT PPages(P(x)) }
{ WHERE Switch(s), s -> "on" -> "yes", Ps(x)
  LINK Home() -> "P" -> P(x) }
OUTPUT SITE
|}

let failed_publish_leaves_next_cold () =
  let def =
    Strudel.Site.define ~name:"SWITCHSITE" ~root_family:"Home"
      ~templates:
        {
          Template.Generator.by_object = [];
          by_collection =
            [
              ("Homes", "<SFMTLIST @P>\n");
              ("PPages", "<h1><SFMT @title></h1>\n");
            ];
          named = [];
        }
      [ ("site", switch_query) ]
  in
  let g = Graph.create ~name:"DATA" () in
  let s = Oid.fresh "s" and x = Oid.fresh "x" in
  Graph.add_node g s;
  Graph.add_node g x;
  Graph.add_edge g s "on" (Graph.V (Value.String "yes"));
  Graph.add_edge g x "title" (Graph.V (Value.String "Old"));
  Graph.add_to_collection g "Switch" s;
  Graph.add_to_collection g "Ps" x;
  let w = Serve.Watch.create ~source:(Serve.Watch.Direct g) def in
  let r = Option.get (Serve.Watch.recorder w) in
  Delta.Rec.set_value r s "on" (Value.String "no");
  Delta.Rec.set_value r x "title" (Value.String "New");
  (match Serve.Watch.cycle w with
   | _ -> Alcotest.fail "an empty root family must raise"
   | exception Strudel.Site.Build_error _ -> ());
  Delta.Rec.set_value r s "on" (Value.String "yes");
  ignore (Serve.Watch.cycle w);
  let cold = Strudel.Site.build ~data:g def in
  check_bool "pages equal a cold build's, in order" true
    (pages_in_order (Serve.Watch.built w).Strudel.Site.site
     = pages_in_order cold.Strudel.Site.site)

(* a targeted render fault degrades one group page to a placeholder;
   each delta cycle retries it (unrelated edits in between), matching a
   cold degraded build while the fault holds and a clean one after *)
let placeholders_retried () =
  let g = mk_data 12 in
  let inject =
    Fault.Inject.create ~p_render:1.0 ~targets:[ "GroupPage(G1)" ] ()
  in
  let w =
    Serve.Watch.create ~on_error:Fault.Degrade ~fault:(Fault.ctx ~inject ())
      ~source:(Serve.Watch.Direct g) definition
  in
  let r = Option.get (Serve.Watch.recorder w) in
  let cold () =
    Strudel.Site.build ~on_error:Fault.Degrade ~fault:(Fault.ctx ~inject ())
      ~data:g definition
  in
  let same label =
    let c = cold () in
    let b = Serve.Watch.built w in
    check_bool (label ^ ": pages equal a cold build's, in order") true
      (pages_in_order b.Strudel.Site.site = pages_in_order c.Strudel.Site.site);
    check_int (label ^ ": degraded count")
      c.Strudel.Site.render_profile.Strudel.Render_pool.rp_degraded
      b.Strudel.Site.render_profile.Strudel.Render_pool.rp_degraded
  in
  same "cold";
  check_int "one placeholder" 1
    (Serve.Watch.built w).Strudel.Site.render_profile.Strudel.Render_pool
      .rp_degraded;
  (* an edit to a group-0 item: the G1 placeholder is retried anyway *)
  Delta.Rec.set_value r (Option.get (nth_member g 2)) "title"
    (Value.String "Edited");
  let rep = Serve.Watch.cycle w in
  check_bool "placeholder retried" true (rep.Serve.Watch.cy_rerendered >= 2);
  same "fault holds";
  Fault.Inject.disarm inject;
  Delta.Rec.set_value r (Option.get (nth_member g 5)) "title"
    (Value.String "Edited again");
  ignore (Serve.Watch.cycle w);
  same "fault cleared";
  check_int "no placeholder left" 0
    (Serve.Watch.built w).Strudel.Site.render_profile.Strudel.Render_pool
      .rp_degraded

(* seeded render faults at random pages: after every cycle the
   watched site equals a cold degraded build under the same injector —
   placeholders included, in order, with the same degraded count *)
let degraded_delta_equals_cold (ops, seed) =
  let g = mk_data 30 in
  let inject = Fault.Inject.create ~seed ~p_render:0.2 () in
  let w =
    Serve.Watch.create ~on_error:Fault.Degrade ~fault:(Fault.ctx ~inject ())
      ~source:(Serve.Watch.Direct g) definition
  in
  let r = Option.get (Serve.Watch.recorder w) in
  let nextid = ref 0 in
  List.for_all
    (fun op ->
      apply_op r nextid op;
      ignore (Serve.Watch.cycle w);
      let c =
        Strudel.Site.build ~on_error:Fault.Degrade
          ~fault:(Fault.ctx ~inject ()) ~data:g definition
      in
      let b = Serve.Watch.built w in
      pages_in_order b.Strudel.Site.site = pages_in_order c.Strudel.Site.site
      && b.Strudel.Site.render_profile.Strudel.Render_pool.rp_degraded
         = c.Strudel.Site.render_profile.Strudel.Render_pool.rp_degraded)
    ops

(* items "a_b" and "a.b" share a slug; the second arrives in a delta *)
let delta_collision_falls_back () =
  let g = mk_data 6 in
  let w = Serve.Watch.create ~source:(Serve.Watch.Direct g) definition in
  let r = Option.get (Serve.Watch.recorder w) in
  let add name =
    let o = Oid.fresh name in
    Delta.Rec.add_node r o;
    Delta.Rec.add_edge r o "title" (Graph.V (Value.String name));
    Delta.Rec.add_edge r o "grp" (Graph.V (Value.String "G0"));
    Delta.Rec.add_to_collection r "Items" o
  in
  add "a_b";
  ignore (Serve.Watch.cycle w);
  check_bool "no fallback yet" false
    (Serve.Watch.built w).Strudel.Site.render_profile.Strudel.Render_pool
      .rp_fallback;
  add "a.b";
  ignore (Serve.Watch.cycle w);
  let b = Serve.Watch.built w in
  check_bool "fallback" true
    b.Strudel.Site.render_profile.Strudel.Render_pool.rp_fallback;
  let cold = Strudel.Site.build ~data:g definition in
  check_bool "pages equal a cold build's, in order" true
    (pages_in_order b.Strudel.Site.site
     = pages_in_order cold.Strudel.Site.site);
  (* the next cycle starts cold again and stays correct *)
  Delta.Rec.set_value r (Option.get (nth_member g 1)) "title"
    (Value.String "After");
  ignore (Serve.Watch.cycle w);
  let cold = Strudel.Site.build ~data:g definition in
  check_bool "next cycle equals a cold build" true
    (pages_in_order (Serve.Watch.built w).Strudel.Site.site
     = pages_in_order cold.Strudel.Site.site)

(* the root lookup reads the graph's family index; it must list what a
   scan of every node lists, in the same order, while a Dexec script
   adds and removes family members *)
let roots_match_family_members ops =
  let g = mk_data 20 in
  let dx = Struql.Dexec.create ~queries:[ parse site_query ] g in
  Struql.Dexec.prime dx;
  let r = Delta.Rec.create g in
  let nextid = ref 0 in
  let agree () =
    let sg = Struql.Dexec.site_graph dx in
    List.for_all
      (fun fam ->
        List.equal Oid.equal
          (Strudel.Site.roots_of sg fam)
          (Schema.Verify.family_members sg fam))
      [ "Root"; "GroupPage"; "ItemPage"; "Missing" ]
  in
  agree ()
  && List.for_all
       (fun op ->
         apply_op r nextid op;
         ignore (Struql.Dexec.apply dx (Delta.Rec.flush r));
         agree ())
       ops

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"delta publish equals cold build (random edits, jobs=1)"
         ~count:20 ops_arb (delta_equals_cold ~jobs:1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"delta publish equals cold build (random edits, jobs=4)"
         ~count:8 ops_arb (delta_equals_cold ~jobs:4));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"fallback blocks replay in full and equal a cold build \
                (random edits)"
         ~count:15 ops_arb fallback_equals_cold);
    t "clean cycle publishes nothing" (fun () ->
        let g = mk_data 12 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let r = Serve.Watch.cycle w in
        check_bool "unchanged" false r.Serve.Watch.cy_changed;
        check_int "no rerenders" 0 r.Serve.Watch.cy_rerendered);
    t "one-item edit re-renders only its neighbourhood" (fun () ->
        let g = mk_data 60 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let o = Option.get (nth_member g 7) in
        Delta.Rec.set_value r o "title" (Value.String "Renamed");
        let rep = Serve.Watch.cycle w in
        check_bool "changed" true rep.Serve.Watch.cy_changed;
        check_bool "few pages re-rendered" true
          (rep.Serve.Watch.cy_rerendered * 4
           < rep.Serve.Watch.cy_rerendered + rep.Serve.Watch.cy_reused);
        check_bool "most pages reused" true (rep.Serve.Watch.cy_reused > 50);
        check_bool "at most 2 pages emitted" true
          (rep.Serve.Watch.cy_emitted <= 2);
        let cold = Strudel.Site.build ~data:g definition in
        check_bool "byte-identical" true
          (page_map (Serve.Watch.built w).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    t "counters advance across cycles" (fun () ->
        let g = mk_data 20 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let o = Option.get (nth_member g 3) in
        Delta.Rec.set_value r o "title" (Value.String "X");
        ignore (Serve.Watch.cycle w);
        let c = Struql.Dexec.counters (Serve.Watch.engine w) in
        check_bool "cycles counted" true (c.Struql.Dexec.c_cycles >= 1);
        check_bool "drivers counted" true (c.Struql.Dexec.c_drivers >= 1);
        check_bool "rows counted" true (c.Struql.Dexec.c_rows >= 1));
    (* --- fallback taxonomy --- *)
    t "aggregates classify as fallback" (fun () ->
        let dx, classes =
          classes_of
            [
              {|WHERE Items(i), i -> "grp" -> g
                CREATE Y(g) LINK Y(g) -> "n" -> count(i)
                COLLECT Ys(Y(g)) OUTPUT o|};
            ]
            (mk_data 6)
        in
        check_bool "fallback" true (has_fallback classes);
        check_bool "reason recorded" true (Struql.Dexec.fallbacks dx <> []));
    t "negation classifies as fallback" (fun () ->
        let _, classes =
          classes_of
            [
              {|WHERE Items(i), not(i -> "tag" -> "old")
                CREATE P(i) COLLECT Ps(P(i)) OUTPUT o|};
            ]
            (mk_data 6)
        in
        check_bool "fallback" true (has_fallback classes));
    t "non-derived data read classifies as fallback" (fun () ->
        (* x is bound by a comparison with a literal, not derived from
           the driver: reads from x escape delta invalidation and the
           block must replay in full *)
        let _, classes =
          classes_of
            [
              {|WHERE Items(i), i -> "title" -> t, t = "Item 001",
                      Items(j), j -> "grp" -> h
                CREATE Q(h) COLLECT Qs(Q(h)) OUTPUT o|};
            ]
            (mk_data 6)
        in
        check_bool "fallback" true (has_fallback classes));
    t "driving-collection scan classifies as driven" (fun () ->
        let _, classes =
          classes_of [ site_query ] (mk_data 6)
        in
        check_bool "some block driven" true
          (List.exists
             (fun (_, c) ->
               String.length c >= 6 && String.sub c 0 6 = "driven")
             classes));
    (* --- mediated mode --- *)
    t "warehouse refresh_delta: None when clean, rebased when stale"
      (fun () ->
        let src =
          Mediator.Source.make ~name:"s" (fun () ->
              let g = Graph.create ~name:"S" () in
              let a = Oid.fresh "a" in
              Graph.add_node g a;
              Graph.add_edge g a "title" (Graph.V (Value.String "A"));
              Graph.add_to_collection g "Items" a;
              g)
        in
        let copy =
          Mediator.Gav.mapping_of_string ~source:"s"
            {|WHERE Items(x), x -> l -> v, isAtomic(v)
              CREATE It(x) LINK It(x) -> l -> v
              COLLECT Items(It(x)) OUTPUT mediated|}
        in
        let w =
          Mediator.Warehouse.create ~sources:[ src ] ~mappings:[ copy ] ()
        in
        check_bool "clean -> None" true
          (Mediator.Warehouse.refresh_delta w = None);
        let before =
          Option.get (Graph.find_node (Mediator.Warehouse.graph w) "It(a)")
        in
        Mediator.Source.update src (fun () ->
            let g = Graph.create ~name:"S" () in
            let a = Oid.fresh "a" and b = Oid.fresh "b" in
            Graph.add_node g a;
            Graph.add_node g b;
            Graph.add_edge g a "title" (Graph.V (Value.String "A"));
            Graph.add_edge g b "title" (Graph.V (Value.String "B"));
            Graph.add_to_collection g "Items" a;
            Graph.add_to_collection g "Items" b;
            g);
        (match Mediator.Warehouse.refresh_delta w with
         | None -> Alcotest.fail "stale warehouse returned no delta"
         | Some d ->
           check_bool "delta not empty" false (Delta.is_empty d));
        let after =
          Option.get (Graph.find_node (Mediator.Warehouse.graph w) "It(a)")
        in
        check_bool "surviving node keeps its oid (rebase)" true
          (Oid.equal before after));
    t "mediated org watch: delta cycle equals cold build" (fun () ->
        let sources, w =
          Sites.Org.data ~people:24 ~orgs:4 ~projects:6 ~pubs:8 ()
        in
        let session =
          Serve.Watch.create ~source:(Serve.Watch.Mediated w)
            Sites.Org.definition
        in
        let r0 = Serve.Watch.cycle session in
        check_bool "initially clean" false r0.Serve.Watch.cy_changed;
        Mediator.Source.update sources.Sites.Org.bib (fun () ->
            fst
              (Wrappers.Bibtex.load ~graph_name:"BIB"
                 (Wrappers.Synth.bibtex ~seed:99 ~entries:10 ())));
        let r1 = Serve.Watch.cycle session in
        check_bool "changed" true r1.Serve.Watch.cy_changed;
        let cold =
          Strudel.Site.build
            ~data:(Mediator.Warehouse.graph w)
            Sites.Org.definition
        in
        check_bool "byte-identical to cold build" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    t "watch survives a quarantined source and reports it" (fun () ->
        let fault = Fault.ctx () in
        let flaky_down = ref false in
        let mk_graph () =
          let g = Graph.create ~name:"S" () in
          List.iter
            (fun n ->
              let o = Oid.fresh n in
              Graph.add_node g o;
              Graph.add_edge g o "title" (Graph.V (Value.String n));
              Graph.add_edge g o "grp" (Graph.V (Value.String "G0"));
              Graph.add_to_collection g "Items" o)
            [ "i1"; "i2"; "i3" ];
          g
        in
        let src =
          Mediator.Source.make
            ~policy:(Fault.Policy.skip_source ~retry:Fault.Policy.no_retry ())
            ~name:"flaky"
            (fun () ->
              if !flaky_down then failwith "socket timeout" else mk_graph ())
        in
        let copy =
          Mediator.Gav.mapping_of_string ~source:"flaky"
            {|WHERE Items(x), x -> l -> v, isAtomic(v)
              CREATE It(x) LINK It(x) -> l -> v
              COLLECT Items(It(x)) OUTPUT mediated|}
        in
        let w =
          Mediator.Warehouse.create ~fault ~sources:[ src ] ~mappings:[ copy ]
            ()
        in
        let definition =
          Strudel.Site.define ~name:"FLAKYSITE" ~root_family:"Root"
            ~templates
            [
              ( "site",
                {|INPUT MEDIATED
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       GroupPage(g) -> "Item" -> ItemPage(i),
       ItemPage(i) -> "Group" -> GroupPage(g),
       Root() -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  { WHERE i -> l -> v LINK ItemPage(i) -> l -> v } }
OUTPUT SITE|} );
            ]
        in
        let session =
          Serve.Watch.create ~fault ~source:(Serve.Watch.Mediated w)
            definition
        in
        let pages_before =
          List.length
            (Serve.Watch.built session).Strudel.Site.site
              .Template.Generator.pages
        in
        check_bool "cold build has item pages" true (pages_before > 3);
        flaky_down := true;
        Mediator.Source.update src (fun () ->
            failwith "update loader must not run");
        let r = Serve.Watch.cycle session in
        check_bool "quarantine reported" true
          (List.exists (fun (s, _) -> s = "flaky") r.Serve.Watch.cy_quarantined);
        (* the skip policy drops the source's data for this integration;
           the published site must match a cold build of whatever the
           warehouse now serves -- degraded, never wedged *)
        let cold =
          Strudel.Site.build ~data:(Mediator.Warehouse.graph w) definition
        in
        check_bool "still byte-identical under quarantine" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    t "watch loop honours max_cycles and exit codes" (fun () ->
        let g = mk_data 5 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let seen = ref 0 in
        let code =
          Serve.Watch.watch ~interval:0.0 ~max_cycles:3
            ~on_cycle:(fun _ _ -> incr seen)
            w
        in
        check_int "three cycles ran" 3 !seen;
        check_int "clean exit" 0 code);
    t "watch exits 3 on placeholder pages, with or without a sink"
      (fun () ->
        List.iter
          (fun sink ->
            let inject = Fault.Inject.create ~seed:7 ~p_render:1.0 () in
            let w =
              Serve.Watch.create ~on_error:Fault.Degrade
                ~fault:(Fault.ctx ~inject ()) ?sink
                ~source:(Serve.Watch.Direct (mk_data 6))
                definition
            in
            let code =
              Serve.Watch.watch ~interval:0.0 ~max_cycles:1
                ~on_cycle:(fun _ _ -> ())
                w
            in
            check_int
              (Printf.sprintf "degraded exit (sink=%b)" (sink <> None))
              3 code)
          [ None; Some null_sink ]);
    t "no-change cycle under a sink reports every page reused" (fun () ->
        let g = mk_data 12 in
        (* a node outside Items: editing it touches no site node *)
        let stray = Oid.fresh "stray" in
        Graph.add_node g stray;
        let w =
          Serve.Watch.create ~sink:null_sink ~source:(Serve.Watch.Direct g)
            definition
        in
        let total =
          (Serve.Watch.built w).Strudel.Site.render_profile
            .Strudel.Render_pool.rp_pages
        in
        check_bool "site has pages" true (total > 12);
        let r = Option.get (Serve.Watch.recorder w) in
        Delta.Rec.set_value r stray "title" (Value.String "ignored");
        let rep = Serve.Watch.cycle w in
        check_bool "changed" true rep.Serve.Watch.cy_changed;
        check_int "nothing touched" 0 rep.Serve.Watch.cy_touched;
        check_int "no rerenders" 0 rep.Serve.Watch.cy_rerendered;
        check_int "every page reused" total rep.Serve.Watch.cy_reused);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "delta walk: emitted pages cover a cold build, emitted <= \
            rerendered, sink-less site in cold order (jobs=1)"
         ~count:20 ops_arb
         (delta_walk_equals_cold ~jobs:1 ~root_family:"Root"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "delta walk: emitted pages cover a cold build, emitted <= \
            rerendered, sink-less site in cold order (jobs=4)"
         ~count:8 ops_arb
         (delta_walk_equals_cold ~jobs:4 ~root_family:"Root"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "delta walk with group pages as roots: roots come and go, \
            output still equals a cold build"
         ~count:15 ops_arb
         (delta_walk_equals_cold ~jobs:1 ~root_family:"GroupPage"));
    t "a page unlinked, its anchor retitled, then relinked is re-rendered"
      stale_page_relinked;
    t "removed item: its pages leave the site and are counted" (fun () ->
        let g = mk_data 12 in
        let w = Serve.Watch.create ~source:(Serve.Watch.Direct g) definition in
        let r = Option.get (Serve.Watch.recorder w) in
        Delta.Rec.remove_node r (Option.get (nth_member g 4));
        let rep = Serve.Watch.cycle w in
        check_int "one page dropped" 1 rep.Serve.Watch.cy_dropped;
        let cold = Strudel.Site.build ~data:g definition in
        check_bool "pages equal a cold build's, in order" true
          (pages_in_order (Serve.Watch.built w).Strudel.Site.site
           = pages_in_order cold.Strudel.Site.site);
        check_int "the live set shrank with it"
          cold.Strudel.Site.render_profile.Strudel.Render_pool.rp_pages
          (Strudel.Render_cache.live_count (Serve.Watch.cache w)));
    t "a cycle whose publish raised leaves the next one cold"
      failed_publish_leaves_next_cold;
    t "render faults: placeholders are retried every cycle"
      placeholders_retried;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "delta walk under seeded render faults (Degrade) equals a cold \
            degraded build"
         ~count:15
         QCheck.(pair ops_arb small_nat)
         degraded_delta_equals_cold);
    t "a URL collision introduced by a delta falls back to the sequential \
       generator" delta_collision_falls_back;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"Site.roots_of equals Verify.family_members under Dexec scripts"
         ~count:30 ops_arb roots_match_family_members);
  ]
