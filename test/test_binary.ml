(* Binary graph storage: a standalone graph through a segment (the
   repository's one binary format, canonical numbering) and back —
   round trips of the paper's graphs, every value kind and random
   graphs, interning, deterministic bytes, files on disk, and
   malformed input raising [Segment.Corrupt]. *)

open Sgraph
open Repository

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* order-faithful rendering: equal renderings mean equal graphs,
   iteration orders included *)
let bytes_of = Test_shard.bytes_of

let roundtrip_graph g =
  Segment.to_graph ~name:(Graph.name g) (Segment.of_string (Segment.encode g))

let roundtrip =
  [
    t "fig2 roundtrip" (fun () ->
        let g, _ = Ddl.parse ~graph_name:"BIBTEX" Sites.Paper_example.data_ddl in
        check_string "rendering" (bytes_of g) (bytes_of (roundtrip_graph g)));
    t "site graph roundtrip" (fun () ->
        let sg = (Sites.Paper_example.build ()).Strudel.Site.site_graph in
        check_string "rendering" (bytes_of sg) (bytes_of (roundtrip_graph sg)));
    t "all value kinds survive" (fun () ->
        let g = Graph.create ~name:"vals" () in
        let o = Graph.new_node g "o" in
        List.iteri
          (fun i v -> Graph.add_edge g o (Printf.sprintf "a%d" i) (Graph.V v))
          [ Value.Null; Value.Bool true; Value.Bool false; Value.Int 42;
            Value.Int (-7); Value.Int max_int; Value.Int min_int;
            Value.Float 2.5; Value.Float (-0.0); Value.Float 1e300;
            Value.Float (-1e-300); Value.String "hello \"world\"\n";
            Value.Url "http://x/y"; Value.File (Value.Postscript, "a.ps");
            Value.File (Value.Other_file "pdf", "b.pdf") ];
        let g' = roundtrip_graph g in
        check_string "rendering" (bytes_of g) (bytes_of g');
        List.iter2
          (fun (l, v) (l', v') ->
            check_string "label" l l';
            check_bool (l ^ " bit-identical") true
              (match (v, v') with
               | Graph.V (Value.Float a), Graph.V (Value.Float b) ->
                 Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
               | Graph.V a, Graph.V b -> Value.equal a b
               | _ -> false))
          (Graph.out_edges g o)
          (Graph.out_edges g' (List.hd (Graph.nodes g'))));
    t "string interning shares labels" (fun () ->
        (* 100 edges under one label: lengthening the label by 199 bytes
           must grow the encoding by about 199 bytes, not 100 times that *)
        let encoded label =
          let g = Graph.create ~name:"i" () in
          for i = 0 to 99 do
            let o = Graph.new_node g (Printf.sprintf "n%d" i) in
            Graph.add_edge g o label (Graph.V (Value.Int i))
          done;
          String.length (Segment.encode g)
        in
        let growth = encoded (String.make 200 'x') - encoded "x" in
        check_bool
          (Printf.sprintf "label stored once (grew %d bytes)" growth)
          true
          (growth >= 199 && growth < 2 * 200));
    t "equal graphs encode to equal bytes" (fun () ->
        (* two parses mint different oids; the canonical numbering
           depends only on names and orders, so the bytes agree *)
        let parse () =
          fst (Ddl.parse ~graph_name:"BIBTEX" Sites.Paper_example.data_ddl)
        in
        check_bool "same bytes" true
          (String.equal (Segment.encode (parse ())) (Segment.encode (parse ()))));
    t "decode rebuilds indexes" (fun () ->
        let g = Wrappers.Synth.news_graph ~articles:30 () in
        let g' = roundtrip_graph g in
        check_int "label extent"
          (List.length (Graph.label_extent g "section"))
          (List.length (Graph.label_extent g' "section"));
        check_int "value index"
          (List.length (Graph.value_index g (Value.String "Sports")))
          (List.length (Graph.value_index g' (Value.String "Sports"))));
    t "save/load files" (fun () ->
        let g, _ = Ddl.parse Sites.Paper_example.data_ddl in
        let path = Filename.temp_file "strudel" ".seg" in
        let written = Segment.write ~path g in
        let s = Segment.read ~path () in
        Sys.remove path;
        check_int "size" written (Segment.size_bytes s);
        check_string "rendering" (bytes_of g)
          (bytes_of (Segment.to_graph ~name:(Graph.name g) s)));
  ]

let errors =
  let corrupt name f =
    t name (fun () ->
        check_bool "raises" true
          (try
             ignore (Segment.of_string (f ()));
             false
           with Segment.Corrupt _ -> true))
  in
  let small () = Segment.encode (fst (Ddl.parse "object a { x 1 }")) in
  [
    corrupt "bad magic" (fun () ->
        let s = small () in
        "NOTASEG!" ^ String.sub s 8 (String.length s - 8));
    corrupt "truncated" (fun () ->
        let s = small () in
        String.sub s 0 (String.length s - 3));
    corrupt "trailing garbage" (fun () -> small () ^ "zz");
    corrupt "empty input" (fun () -> "");
  ]

(* random graphs with string, float and int values, labels with
   spaces, self-loops and repeated collection entries *)
let rand_graph_gen =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* edges =
    list_size (int_range 0 15)
      (triple (int_bound (n - 1))
         (oneofl [ "x"; "y"; "weird label" ])
         (oneof
            [
              map (fun i -> `V (Value.Int i)) small_signed_int;
              map (fun s -> `V (Value.String s))
                (string_size ~gen:printable (int_range 0 6));
              map (fun f -> `V (Value.Float (float_of_int f))) small_signed_int;
              map (fun j -> `N j) (int_bound (n - 1));
            ]))
  in
  let* colls =
    list_size (int_range 0 4) (pair (oneofl [ "C"; "D" ]) (int_bound (n - 1)))
  in
  return (n, edges, colls)

let build_rand (n, edges, colls) =
  let g = Graph.create ~name:"r" () in
  let nodes = Array.init n (fun i -> Oid.fresh (Printf.sprintf "n%d" i)) in
  Array.iter (Graph.add_node g) nodes;
  List.iter
    (fun (a, l, tgt) ->
      match tgt with
      | `V v -> Graph.add_edge g nodes.(a) l (Graph.V v)
      | `N j -> Graph.add_edge g nodes.(a) l (Graph.N nodes.(j)))
    edges;
  List.iter (fun (c, i) -> Graph.add_to_collection g c nodes.(i)) colls;
  g

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random graphs survive binary roundtrip"
         ~count:300 (QCheck.make rand_graph_gen) (fun spec ->
           let g = build_rand spec in
           bytes_of g = bytes_of (roundtrip_graph g)));
  ]

let suite = roundtrip @ errors @ props
