(* Unit tests of the benchmark's own logic: the percentile rule,
   open-loop lateness accounting, span self-time arithmetic, and
   per-seed determinism of the seeded input streams. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

(* --- percentile rule --- *)

let () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* p99 of 1000 samples: rank 990, 10 samples beyond *)
  check "p99 of 1000" (Stats.percentile (xs 1000) 0.99 = Some 990.);
  (* p99 of 999 samples: rank 990, only 9 beyond *)
  check "p99 of 999 withheld" (Stats.percentile (xs 999) 0.99 = None);
  check "p90 of 100" (Stats.percentile (xs 100) 0.90 = Some 90.);
  check "p90 of 99 withheld" (Stats.percentile (xs 99) 0.90 = None);
  check "median of 20" (Stats.percentile (xs 20) 0.5 = Some 10.);
  check "median of 19 withheld" (Stats.percentile (xs 19) 0.5 = None);
  check "median even" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "median odd" (close (Stats.median [| 5.; 1.; 3. |]) 3.);
  (* order of the input does not matter *)
  let rev = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  check "p99 unsorted" (Stats.percentile rev 0.99 = Some 990.);
  (* tail: capped at p99 when there are enough samples *)
  check "tail capped" (Stats.tail (xs 10_000) = Some (0.99, 9900.));
  (* tail: the highest rank with ten beyond otherwise *)
  check "tail of 40" (Stats.tail (xs 40) = Some (0.75, 30.));
  (* tail: the median when no rank above it leaves ten beyond *)
  check "tail of 15" (Stats.tail (xs 15) = Some (0.5, 8.));
  check "tail empty" (Stats.tail [||] = None)

(* --- open-loop accounting --- *)

let () =
  let rate = 100. and t0 = 1000. in
  check "due" (close (Openloop.due ~t0 ~rate 250) 1002.5);
  (* request 0 answered after a 150 ms stall; requests 1-3 were due
     during it, sent on time, and answered right after the stall *)
  let r i ~sent ~fin ~status =
    { Openloop.r_due = Openloop.due ~t0 ~rate i; r_sent = sent; r_done = fin;
      r_status = status; r_expect_404 = false }
  in
  let recs =
    [| r 0 ~sent:1000.000 ~fin:1000.150 ~status:200;
       r 1 ~sent:1000.010 ~fin:1000.151 ~status:200;
       r 2 ~sent:1000.020 ~fin:1000.152 ~status:304;
       r 3 ~sent:1000.030 ~fin:1000.153 ~status:200 |]
  in
  let s = Openloop.summarize recs in
  (* latency counts from the due time: the stall shows in every request
     due during it, not only in the first *)
  check "stall latency 0" (close s.Openloop.latency_ms.(0) 150.);
  check "stall latency 3" (Float.abs (s.Openloop.latency_ms.(3) -. 123.) < 1e-6);
  check "no failures" (s.Openloop.failures = 0 && s.Openloop.attempted = 4);
  (* a late generator: sent 40 ms after due; the lateness is reported
     and the latency still runs from the due time *)
  let late = Openloop.summarize [| r 0 ~sent:1000.040 ~fin:1000.041 ~status:200 |] in
  check "lateness" (Float.abs (late.Openloop.late_ms.(0) -. 40.) < 1e-6);
  check "latency includes lateness" (Float.abs (late.Openloop.latency_ms.(0) -. 41.) < 1e-6);
  (* unanswered, shed and wrong answers fail and miss any limit *)
  let bad =
    Openloop.summarize
      [| r 0 ~sent:1000. ~fin:nan ~status:0;
         r 1 ~sent:nan ~fin:nan ~status:0;
         r 2 ~sent:1000.02 ~fin:1000.03 ~status:503;
         { (r 3 ~sent:1000.03 ~fin:1000.04 ~status:404) with Openloop.r_expect_404 = true };
         r 4 ~sent:1000.04 ~fin:1000.05 ~status:404 |]
  in
  check "failures" (bad.Openloop.failures = 4);
  check "failed is infinite" (bad.Openloop.latency_ms.(0) = infinity);
  check "expected 404 passes" (Float.is_finite bad.Openloop.latency_ms.(3));
  check "unsent has no lateness" (Array.length bad.Openloop.late_ms = 4)

(* --- span self time --- *)

let span ?(parent = -1) ?(minor = 0.) id name t0 t1 =
  { Span.id; name; parent; op = 0; t0; t1; minor_words = minor;
    promoted_words = 0.; charged = 0.; domain = 0 }

let () =
  (* root 0..10 with children 1..3 and 2..5 (overlapping: union 1..5)
     and 7..8; a grandchild 2..2.5 under the second child *)
  let spans =
    [ span 0 "op" 0. 10. ~minor:100.;
      span 1 "a" 1. 3. ~parent:0 ~minor:10.;
      span 2 "b" 2. 5. ~parent:0 ~minor:20.;
      span 3 "c" 7. 8. ~parent:0 ~minor:5.;
      span 4 "d" 2. 2.5 ~parent:2 ~minor:1. ]
  in
  let self name =
    List.find (fun s -> s.Span.s_span.Span.name = name) (Span.self_times spans)
  in
  check "self root" (close (self "op").Span.s_self 5.);
  check "self b" (close (self "b").Span.s_self 2.5);
  check "self leaf" (close (self "c").Span.s_self 1.);
  check "self alloc" (close (self "op").Span.s_self_minor 65.);
  check "self alloc b" (close (self "b").Span.s_self_minor 19.);
  (* a child sticking out of its parent only counts inside it *)
  check "clipped" (close (Span.covered ~lo:0. ~hi:10. [ (8., 12.); (-1., 1.) ]) 3.);
  (* non-overlapping children: self times sum to the root's duration *)
  let flat = [ span 0 "op" 0. 4.; span 1 "x" 0. 1. ~parent:0; span 2 "x" 2. 3. ~parent:0 ] in
  let total = List.fold_left (fun a s -> a +. s.Span.s_self) 0. (Span.self_times flat) in
  check "self sums to root" (close total 4.);
  let table = Span.layer_table flat in
  let x = List.find (fun l -> l.Span.l_name = "x") table in
  check "layer count" (x.Span.l_count = 2 && close x.Span.l_self 2.)

(* --- recorded spans nest --- *)

let () =
  Span.enable ();
  Span.run ~op:7 "outer" (fun () ->
      Span.run "inner" (fun () -> ());
      Span.timed "leaf" (fun () -> Unix.sleepf 0.002);
      Span.timed "leaf" (fun () -> ()));
  let spans = Span.collect () in
  let outer = List.find (fun s -> s.Span.name = "outer") spans in
  let inner = List.find (fun s -> s.Span.name = "inner") spans in
  check "parent" (inner.Span.parent = outer.Span.id && outer.Span.parent = -1);
  check "op inherited" (inner.Span.op = 7);
  check "nested times" (inner.Span.t0 >= outer.Span.t0 && inner.Span.t1 <= outer.Span.t1);
  (* timed leaves are charged to the enclosing span, not its self time *)
  check "charged" (outer.Span.charged >= 0.002);
  let table = Span.layer_table spans in
  let leaf = List.find (fun l -> l.Span.l_name = "leaf") table in
  let out = List.find (fun l -> l.Span.l_name = "outer") table in
  check "timed layer" (leaf.Span.l_count = 2 && close leaf.Span.l_self outer.Span.charged);
  let inner_l = List.find (fun l -> l.Span.l_name = "inner") table in
  check "self excludes timed"
    (Float.abs (out.Span.l_self +. inner_l.Span.l_total +. leaf.Span.l_self
                -. (outer.Span.t1 -. outer.Span.t0)) < 1e-9)

(* --- seeded streams --- *)

let take n f = List.init n (fun _ -> f ())

let () =
  let run seed = let st = Mix.edits ~seed ~items:10_000 in take 2000 (fun () -> Mix.next st) in
  check "edits deterministic" (run 3 = run 3);
  check "edits vary with seed" (run 3 <> run 4);
  let es = run 5 in
  let count p = List.length (List.filter p es) in
  let single = count (function Mix.Set [ _ ] -> true | _ -> false) in
  let batch = count (function Mix.Set l -> List.length l >= 10 | _ -> false) in
  let ins = count (function Mix.Insert _ -> true | _ -> false) in
  let del = count (function Mix.Delete _ -> true | _ -> false) in
  (* 80/10/5/5 within sampling error over 2000 draws *)
  check "mix single" (single > 1500 && single < 1700);
  check "mix batch" (batch > 140 && batch < 260);
  check "mix insert" (ins > 60 && ins < 145);
  check "mix delete" (del > 60 && del < 145);
  check "batch sizes"
    (List.for_all (function Mix.Set l -> List.length l <= 100 | _ -> true) es);
  (* no edit touches a deleted item, and inserts are fresh indices *)
  let live = Hashtbl.create 16 in
  for i = 0 to 9_999 do Hashtbl.replace live i () done;
  let ok = ref true in
  List.iter
    (function
      | Mix.Set l -> List.iter (fun (i, _, _) -> if not (Hashtbl.mem live i) then ok := false) l
      | Mix.Insert i -> if Hashtbl.mem live i then ok := false else Hashtbl.replace live i ()
      | Mix.Delete i -> if Hashtbl.mem live i then Hashtbl.remove live i else ok := false)
    es;
  check "edits stay on live items" !ok;
  let urls = Array.init 500 (Printf.sprintf "/p%d.html") in
  let reqs seed = let q = Mix.requests ~seed ~urls in take 5000 (fun () -> Mix.next_request q) in
  check "requests deterministic" (reqs 9 = reqs 9);
  check "requests vary with seed" (reqs 9 <> reqs 10);
  let rs = reqs 11 in
  let unknown = List.length (List.filter (function Mix.Unknown _ -> true | _ -> false) rs) in
  let reval = List.length (List.filter (function Mix.Revalidate _ -> true | _ -> false) rs) in
  check "requests unknown share" (unknown > 180 && unknown < 330);
  check "requests revalidate share" (reval > 400 && reval < 600);
  (* Zipf: the hottest URL draws far more than an average one, and it
     is the same URL whatever the seed *)
  let hottest rs =
    let hits = Hashtbl.create 512 in
    List.iter
      (function
        | Mix.Get u -> Hashtbl.replace hits u (1 + Option.value ~default:0 (Hashtbl.find_opt hits u))
        | _ -> ())
      rs;
    Hashtbl.fold (fun u c (bu, bc) -> if c > bc then (u, c) else (bu, bc)) hits ("", 0)
  in
  let top_url, top = hottest rs in
  check "zipf skew" (top > 10 * (4250 / 500));
  check "same hot set" (fst (hottest (reqs 12)) = top_url);
  check "retitled deterministic"
    (Mix.retitled ~seed:1 ~pubs:640 ~rev:3 = Mix.retitled ~seed:1 ~pubs:640 ~rev:3);
  let bib = "@a{x,\n  title = {One},\n}\n@a{y,\n  booktitle = {B},\n  title = {Two},\n}\n" in
  check "retitle"
    (Mix.retitle bib ~rev:2 [ 1 ]
     = "@a{x,\n  title = {One},\n}\n@a{y,\n  booktitle = {B},\n  title = {Revision 2 of Two},\n}\n")

let () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
