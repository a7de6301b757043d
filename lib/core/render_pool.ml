(** Parallel page materialization: a work-stealing scheduler on a
    persistent domain pool.

    The generator's page set is demand-driven: roots become pages, and
    every object a rendered page links to becomes a page transitively.
    That closure is order-independent, so it can be computed in {e
    waves} (BFS levels of the demand graph): render the current
    frontier's pages concurrently (each page render is a pure function
    of the graph — graph reads build no indexes and mutate nothing),
    collect the objects they link to, and repeat until no new page
    appears.

    Scheduling.  Each wave is cut into {e slices} of at most
    [default_slice] pages (the emission granularity — see below), and
    each slice is cut into chunks dealt to per-worker deques
    ({!Pool.Work}).  A worker takes chunks from its own deque and
    steals from others when it runs dry, so skewed page costs
    rebalance instead of stalling a round: there is no per-page
    locking, no round-robin barrier within a slice, and the worker
    domains themselves persist across builds in {!Pool.shared} — every
    {!Site.build}, [strudel watch] publish and the bench harness reuse
    them, so only the first parallel build of a process pays domain
    spawns.  Workers write results into per-page slots, so output
    never depends on which worker rendered what.

    Determinism and byte-identity with the sequential reference path
    ({!Template.Generator.generate}) rest on URL assignment and page
    order.  Pages here get slug-only URLs (the click-time convention,
    which [strudeld]'s routes also use), and the
    concatenation of the wave frontiers — each frontier deduplicated in
    frontier × first-reference order — replays exactly the sequential
    generator's discovery queue, so pages are emitted in canonical
    order with no post-hoc reconstruction.  If two pages collide on a
    URL the pool discards its output and falls back to the sequential
    generator ([rp_fallback] — no site in this repository collides).

    Memory.  With a {!sink}, pages are {e streamed}: each slice's pages
    are handed to the sink in canonical order as soon as the slice
    settles and are never retained, so peak memory is bounded by the
    slice size, not the site size — a 1M-page site builds in the memory
    of a few thousand pages.  Without a sink the full
    {!Template.Generator.site} is returned as before.

    A {!Render_cache} short-circuits rendering with {e batched}
    lookups: entries for a whole slice are prefetched in one pass on
    the main domain, trace verification (pure graph reads) runs on the
    worker domains alongside rendering, and the verdicts are settled
    back into the cache on the main domain after the slice joins — the
    cache table itself is only ever mutated from the main domain.

    Delta walks.  A walk through a cache also records the publication
    it made in the cache ({!Render_cache.live}).  Given the names a
    change touched ([~changed]), the same loop starts from that
    publication instead of from the roots: it is seeded with the live
    pages the change may have altered and the new roots, emits only
    fresh renders and new pages, walks refs only out of those, and
    sweeps the pages no longer reachable. *)

module G = Template.Generator
open Sgraph

type shard = {
  sh_domain : int;   (** 0 is the main domain *)
  sh_pages : int;    (** pages this domain rendered, summed over waves *)
  sh_wall_ms : float;
}

type profile = {
  rp_jobs : int;
  rp_pages : int;     (** pages in the final site *)
  rp_rendered : int;  (** pages actually rendered (not served from cache) *)
  rp_emitted : int;
      (** pages handed to the sink (or to the page list): every page on
          a cold walk, the fresh renders and new pages on a delta walk *)
  rp_dropped : int;  (** live pages that left the site on a delta walk *)
  rp_waves : int;
  rp_steals : int;
      (** chunks executed by a worker other than the one they were
          dealt to — 0 when the load was balanced up front *)
  rp_shards : shard list;
  rp_cache_hits : int;
  rp_cache_misses : int;
  rp_cache_invalidations : int;
  rp_fallback : bool;
      (** URL collision detected; the sequential generator's output was
          used instead of the pool's *)
  rp_degraded : int;
      (** pages that failed to render and were emitted as placeholders
          (always 0 under [~on_error:Abort]) *)
  rp_wall_ms : float;  (** whole materialization, main-domain clock *)
}

let pp_profile ppf p =
  Fmt.pf ppf
    "@[<v>jobs=%d pages=%d rendered=%d emitted=%d dropped=%d waves=%d \
     steals=%d wall=%.2fms cache=%d/%d/%d (hit/miss/invalid)%s%s"
    p.rp_jobs p.rp_pages p.rp_rendered p.rp_emitted p.rp_dropped p.rp_waves
    p.rp_steals p.rp_wall_ms
    p.rp_cache_hits p.rp_cache_misses p.rp_cache_invalidations
    (if p.rp_fallback then " FALLBACK(sequential)" else "")
    (if p.rp_degraded > 0 then Printf.sprintf " DEGRADED(%d)" p.rp_degraded
     else "");
  List.iter
    (fun s ->
      Fmt.pf ppf "@,  domain %d: %d pages, %.2fms" s.sh_domain s.sh_pages
        s.sh_wall_ms)
    p.rp_shards;
  Fmt.pf ppf "@]"

let now_ms () = Unix.gettimeofday () *. 1000.

let auto_jobs = Pool.auto_jobs

(* --- Streaming emission --- *)

type sink = {
  sk_emit : G.page -> unit;
      (** called once per emitted page, in walk order (canonical
          discovery order on a cold walk); the pool retains nothing
          after the call *)
  sk_reset : unit -> unit;
      (** called if a URL collision forces the sequential fallback:
          everything emitted so far is invalid and will be re-emitted *)
}

(** A sink that writes each page below [dir] (created if missing)
    through {!Repository.Atomic_file.write}, so a reader (or a crash)
    sees the old page or the new one, never a truncated one; reset
    removes the emitted files.  The emitted paths are kept once each,
    however often a page is re-emitted. *)
let file_sink ~dir =
  let rec mkdirs d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs dir;
  let written = Hashtbl.create 64 in
  {
    sk_emit =
      (fun p ->
        let path = Filename.concat dir p.G.url in
        Repository.Atomic_file.write ~path p.G.html;
        Hashtbl.replace written path ());
    sk_reset =
      (fun () ->
        Hashtbl.iter
          (fun p () -> try Sys.remove p with Sys_error _ -> ())
          written;
        Hashtbl.reset written);
  }

(** How many pages a wave slice holds in memory at once (and the
    granularity of streaming emission and of deterministic fault-report
    ordering).  Must not depend on [jobs], or degraded manifests would
    not be reproducible across job counts. *)
let default_slice = 4096

(* Per-page result slot, written by exactly one worker; the pool
   barrier publishes the writes to the main domain. *)
type slot =
  | S_hit of G.page * Oid.t list
      (** verified cache entry: page + resolved demand refs *)
  | S_fresh of G.rendered * Fault.report option * bool
      (** fresh render (placeholder iff report present); the flag marks
          a stale entry this render replaced (an invalidation, not a
          miss) *)

(** Materialize the site's pages.  [jobs = 1] with no cache and no sink
    is the sequential reference path — a plain
    {!Template.Generator.generate}.  [jobs <= 0] auto-detects
    ({!auto_jobs}).  Otherwise the work-stealing wave loop runs on
    [jobs] domains (the main domain renders alongside [jobs - 1] pool
    workers). *)
let materialize ?(jobs = 1) ?cache ?changed ?file_loader
    ?(templates = G.empty_templates) ?(on_error = Fault.Abort) ?fault ?sink
    ?(refreeze = true) (g : Graph.t) ~(roots : Oid.t list) :
    G.site * profile =
  let t0 = now_ms () in
  let jobs = if jobs <= 0 then auto_jobs () else jobs in
  (* the site graph is read-only from here on: freeze once so every
     graph probe — template attributes, cache-trace verification — from
     all domains hits the kernel snapshot's per-(node, label) segments.
     A sequential caller may opt out ([refreeze:false]): the delta
     publish path re-renders a handful of pages against the live graph
     rather than paying an O(site) refreeze per cycle.  Fan-out always
     freezes — worker domains must read the immutable snapshot. *)
  if refreeze || jobs > 1 then ignore (Graph.freeze g);
  let inject = Fault.inject fault in
  (* degraded (or injectable) builds always run the wave loop, even at
     [jobs = 1]: the sequential generator lets a failed render's
     partial work leak extra pages into its queue, so only the wave
     loop — which isolates each page render — keeps degraded output
     independent of [jobs] *)
  if
    jobs = 1 && cache = None && on_error = Fault.Abort && inject = None
    && sink = None
  then begin
    let site = G.generate ?file_loader ~templates g ~roots in
    let wall = now_ms () -. t0 in
    let pages = G.page_count site in
    ( site,
      {
        rp_jobs = 1;
        rp_pages = pages;
        rp_rendered = pages;
        rp_emitted = pages;
        rp_dropped = 0;
        rp_waves = 1;
        rp_steals = 0;
        rp_shards = [ { sh_domain = 0; sh_pages = pages; sh_wall_ms = wall } ];
        rp_cache_hits = 0;
        rp_cache_misses = 0;
        rp_cache_invalidations = 0;
        rp_fallback = false;
        rp_degraded = 0;
        rp_wall_ms = wall;
      } )
  end
  else begin
    (match cache with
     | Some c -> Render_cache.set_templates c templates
     | None -> ());
    (* a delta walk starts from the publication the cache carries; every
       other walk through a cache is cold and rebuilds it *)
    let delta =
      match cache with
      | Some c when Render_cache.begin_walk c ~delta:(changed <> None) ->
        let names = Option.get changed in
        let tbl = Hashtbl.create 16 in
        List.iter (fun n -> Hashtbl.replace tbl n ()) names;
        Some (c, names, tbl)
      | _ -> None
    in
    (* this run's cache verdicts, summed over the settled slices *)
    let hits = ref 0 and misses = ref 0 and invals = ref 0 in
    let trace = cache <> None in
    (* worker 0 is the main domain: it renders with the cache's
       carried parse of the templates *)
    let compiled =
      Array.init jobs (fun w ->
          match cache with
          | Some c when w = 0 -> Render_cache.compiled c
          | _ -> G.new_compiled ())
    in
    let seen = Oid.Tbl.create 64 in
    let collision = ref false in
    (* pages to walk: not walked yet this run, and not a live page of
       the carried publication (a cold walk carries none).  A live name
       held by a different node that is still in the graph is a URL
       collision; one whose node is gone is being replaced. *)
    let is_new o =
      (not (Oid.Tbl.mem seen o))
      &&
      match cache with
      | None -> true
      | Some c -> (
        match Render_cache.find_live c (Oid.name o) with
        | None -> true
        | Some l when Oid.equal l.Render_cache.l_oid o -> false
        | Some l ->
          if Graph.mem_node g l.Render_cache.l_oid then begin
            collision := true;
            false
          end
          else true)
    in
    let dedup os =
      List.filter
        (fun o ->
          is_new o
          && begin
            Oid.Tbl.add seen o ();
            true
          end)
        os
    in
    (* set when the walk may have orphaned live pages: mark from the
       roots afterwards and sweep what it does not reach *)
    let need_mark = ref false in
    (* a delta walk starts at the roots that are new and at the live
       pages the change may have altered; a cold walk at the roots *)
    let seeds =
      match delta with
      | None -> dedup roots
      | Some (c, names, _) ->
        let fresh_roots = dedup roots in
        let stale =
          List.filter_map
            (fun page ->
              let l = Option.get (Render_cache.find_live c page) in
              let o =
                if Graph.mem_node g l.Render_cache.l_oid then
                  Some l.Render_cache.l_oid
                else begin
                  (* the node left the graph: orphans are possible, and
                     a node now holding the name replaces it *)
                  need_mark := true;
                  Graph.find_node g page
                end
              in
              match o with
              | Some o when not (Oid.Tbl.mem seen o) ->
                Oid.Tbl.add seen o ();
                Some o
              | _ -> None)
            (Render_cache.candidates c ~changed:names)
        in
        fresh_roots @ stale
    in
    let shard_pages = Array.make jobs 0 in
    let shard_ms = Array.make jobs 0. in
    (* sanitizer identity for the per-worker tallies: field [w] covers
       [shard_pages.(w)]/[shard_ms.(w)]/[compiled.(w)] — written only by
       worker [w], read by the main domain after the pool barrier *)
    let ds_shard = Dsan.alloc ~name:"Render_pool.shards" in
    let waves = ref 0 in
    let steals = ref 0 in
    let rendered_count = ref 0 in
    let all_reports = ref [] in
    let pages_rev = ref [] in  (* cold walk without a sink *)
    let fresh = Hashtbl.create 16 in  (* delta walk without a sink *)
    let emitted = ref 0 in
    let urls = Hashtbl.create 64 in  (* URLs published by this walk *)
    let emit (p : G.page) =
      (match (sink, delta) with
       | Some s, _ -> s.sk_emit p
       | None, None -> pages_rev := p :: !pages_rev
       | None, Some _ -> Hashtbl.replace fresh (Oid.name p.G.obj) p);
      incr emitted
    in
    (* settle one walked page on the main domain: the collision check,
       the carried publication, emission and the refs to walk next.  A
       page already live is emitted only when freshly rendered; its
       refs are followed only then too (a verified hit links to what it
       linked to). *)
    let settle_page (p : G.page) refs ~rendered ~placeholder =
      let prev =
        match cache with
        | Some c -> Render_cache.find_live c (Oid.name p.G.obj)
        | None -> None
      in
      let url = p.G.url in
      (if Hashtbl.mem urls url then collision := true
       else
         match (prev, cache) with
         | None, Some c when Render_cache.url_owner c url <> None ->
           collision := true
         | _ -> Hashtbl.add urls url ());
      let names = List.map Oid.name refs in
      (match cache with
       | Some c -> Render_cache.publish c p.G.obj ~url ~refs:names ~placeholder
       | None -> ());
      match prev with
      | Some _ when not rendered -> []
      | _ ->
        emit p;
        (* a live page that stopped linking somewhere may orphan it *)
        (match prev with
         | Some l when (not !need_mark) && l.Render_cache.l_refs <> names ->
           let now = Hashtbl.create 16 in
           List.iter (fun n -> Hashtbl.replace now n ()) names;
           if
             List.exists
               (fun n -> not (Hashtbl.mem now n))
               l.Render_cache.l_refs
           then need_mark := true
         | _ -> ());
        refs
    in
    let render_one w o =
      let render () =
        Fault.Inject.fire inject (Fault.Inject.Render_page (Oid.name o));
        G.render_page_full ?file_loader ~templates ~compiled:compiled.(w)
          ~trace_reads:trace g o
      in
      match on_error with
      | Fault.Abort -> (render (), None)
      | Fault.Degrade -> (
        try (render (), None)
        with e ->
          let cause = G.fault_cause e in
          let url = G.slug (Oid.name o) ^ ".html" in
          ( {
              G.r_page = G.placeholder_page ~url ~cause o;
              r_reads = [];
              r_refs = [];
            },
            Some
              (Fault.report ~stage:Fault.Render ~source:(Graph.name g)
                 ~location:url ~cause ()) ))
    in
    let frontier = ref seeds in
    while !frontier <> [] && not !collision do
      incr waves;
      let arr = Array.of_list !frontier in
      let n = Array.length arr in
      let refs_acc = ref [] in  (* per-page demand refs, reversed *)
      let s0 = ref 0 in
      while !s0 < n && not !collision do
        let base = !s0 in
        let len = min default_slice (n - base) in
        s0 := base + len;
        let ents =
          match cache with
          | Some c -> Render_cache.peek_batch c (Array.sub arr base len)
          | None -> Array.make (min len 1) None
        in
        (* live pages of a continued publication need only their reads
           of changed names replayed ({!Render_cache.verify}) *)
        let live_tbl =
          match delta with
          | Some (c, _, tbl) ->
            let live o =
              match Render_cache.find_live c (Oid.name o) with
              | Some l -> Oid.equal l.Render_cache.l_oid o
              | None -> false
            in
            Array.init len (fun i ->
                if live arr.(base + i) then Some tbl else None)
          | None -> [||]
        in
        let slots : slot option array = Array.make len None in
        (* sanitizer identity for the slice: field [i] covers cell [i]
           of [ents] and [live_tbl] (written on the main domain before
           fan-out) and of [slots] (written by exactly one worker, read
           at settle) *)
        let ds_slice = Dsan.alloc ~name:"Render_pool.slice" in
        if Dsan.enabled () then
          for i = 0 to len - 1 do
            Dsan.write ~site:__POS__ ds_slice i
          done;
        (* executed on worker domains: verify the prefetched entry or
           render; each slot is written by exactly one worker *)
        let process w i =
          Dsan.write ~site:__POS__ ds_slice i;
          Dsan.write ~site:__POS__ ds_shard w;
          let o = arr.(base + i) in
          match if cache = None then None else ents.(i) with
          | Some e
            when Render_cache.verify ?file_loader
                   ?changed:(if delta = None then None else live_tbl.(i))
                   g e ->
            slots.(i) <-
              Some
                (S_hit
                   (Render_cache.page_of_entry e o,
                    Render_cache.refs_of_entry g e))
          | ent ->
            let r, report = render_one w o in
            shard_pages.(w) <- shard_pages.(w) + 1;
            slots.(i) <- Some (S_fresh (r, report, ent <> None))
        in
        let work = Pool.Work.create ~total:len ~workers:jobs in
        let run_worker w =
          let t = now_ms () in
          let rec loop () =
            Dsan.yield ~site:__POS__;
            match Pool.Work.take work w with
            | None -> ()
            | Some (lo, hi) ->
              for i = lo to hi - 1 do
                process w i
              done;
              loop ()
          in
          Fun.protect
            ~finally:(fun () ->
              Dsan.write ~site:__POS__ ds_shard w;
              shard_ms.(w) <- shard_ms.(w) +. (now_ms () -. t))
            loop
        in
        if jobs = 1 then run_worker 0 else Pool.run Pool.shared ~jobs run_worker;
        steals := !steals + Pool.Work.steals work;
        (* settle the slice on the main domain, in frontier order:
           cache verdicts and stores, fault reports (sorted by URL so
           manifests are identical whatever the stealing produced),
           publication and emission, demand refs *)
        let sl_hits = ref 0 and sl_miss = ref 0 and sl_inval = ref 0 in
        let sl_reports = ref [] in
        for i = 0 to len - 1 do
          Dsan.read ~site:__POS__ ds_slice i;
          match slots.(i) with
          | Some (S_hit (p, refs)) ->
            incr sl_hits;
            refs_acc :=
              settle_page p refs ~rendered:false ~placeholder:false
              :: !refs_acc
          | Some (S_fresh (r, report, stale)) ->
            incr rendered_count;
            if stale then incr sl_inval else incr sl_miss;
            (* placeholders never enter the cache: their empty read
               trace would re-validate vacuously forever *)
            (match (cache, report) with
             | Some c, None -> Render_cache.store c r
             | Some c, Some _ -> if stale then Render_cache.drop c arr.(base + i)
             | None, _ -> ());
            (match report with
             | Some rep -> sl_reports := rep :: !sl_reports
             | None -> ());
            refs_acc :=
              settle_page r.G.r_page r.G.r_refs ~rendered:true
                ~placeholder:(report <> None)
              :: !refs_acc
          | None -> assert false  (* Pool.run re-raised before settling *)
        done;
        (match cache with
         | Some c ->
           Render_cache.settle c ~hits:!sl_hits ~misses:!sl_miss
             ~invalidations:!sl_inval;
           hits := !hits + !sl_hits;
           misses := !misses + !sl_miss;
           invals := !invals + !sl_inval
         | None -> ());
        all_reports :=
          !all_reports
          @ List.sort
              (fun a b -> compare a.Fault.f_location b.Fault.f_location)
              (List.rev !sl_reports)
      done;
      (* next wave: referenced objects not yet walked, discovered in
         deterministic frontier × reference order — on a cold walk the
         concatenation of these frontiers replays the sequential
         generator's queue *)
      frontier := dedup (List.concat (List.rev !refs_acc))
    done;
    let mk_profile ~site_pages ~fallback ~degraded ~dropped =
      {
        rp_jobs = jobs;
        rp_pages = site_pages;
        rp_rendered = !rendered_count;
        rp_emitted = !emitted;
        rp_dropped = dropped;
        rp_waves = !waves;
        rp_steals = !steals;
        rp_shards =
          List.init jobs (fun i ->
              Dsan.read ~site:__POS__ ds_shard i;
              {
                sh_domain = i;
                sh_pages = shard_pages.(i);
                sh_wall_ms = shard_ms.(i);
              });
        rp_cache_hits = !hits;
        rp_cache_misses = !misses;
        rp_cache_invalidations = !invals;
        rp_fallback = fallback;
        rp_degraded = degraded;
        rp_wall_ms = now_ms () -. t0;
      }
    in
    if !collision then begin
      (* distinct pages share a slug: only the sequential generator's
         discovery-ordered uniquification produces the reference URLs,
         and name-keyed cache entries are ambiguous — drop them with
         the publication, so the next walk is cold.  The pool's queued
         fault reports are discarded with its output; the generator
         records its own. *)
      (match cache with Some c -> Render_cache.clear c | None -> ());
      (match sink with Some s -> s.sk_reset () | None -> ());
      let site = G.generate ?file_loader ~templates ~on_error ?fault g ~roots in
      let degraded = List.length (List.filter G.is_placeholder site.G.pages) in
      let pages = G.page_count site in
      emitted := pages;
      let profile =
        mk_profile ~site_pages:pages ~fallback:true ~degraded ~dropped:0
      in
      match sink with
      | Some s ->
        List.iter s.sk_emit site.G.pages;
        ({ G.pages = []; graph = g }, profile)
      | None -> (site, profile)
    end
    else begin
      (match fault with
       | Some c -> List.iter (Fault.record c) !all_reports
       | None -> ());
      let pages, dropped =
        match delta with
        | None ->
          ((match sink with Some _ -> [] | None -> List.rev !pages_rev), 0)
        | Some (c, _, _) ->
          (* without a sink the site is every live page in cold-walk
             order: replay discovery over the carried refs *)
          let want_pages = sink = None in
          if not (!need_mark || want_pages) then ([], 0)
          else begin
            let order, dropped =
              Render_cache.mark c ~roots:(List.map Oid.name roots)
                ~sweep:!need_mark
            in
            let page name =
              match Hashtbl.find_opt fresh name with
              | Some p -> p
              | None ->
                let l = Option.get (Render_cache.find_live c name) in
                Render_cache.page_of_entry
                  (Option.get (Render_cache.lookup c name))
                  l.Render_cache.l_oid
            in
            ((if want_pages then List.map page order else []), dropped)
          end
      in
      let site_pages, degraded =
        match cache with
        | Some c ->
          Render_cache.commit c;
          (Render_cache.live_count c, Render_cache.placeholder_count c)
        | None -> (!emitted, List.length !all_reports)
      in
      ( { G.pages; graph = g },
        mk_profile ~site_pages ~fallback:false ~degraded ~dropped )
    end
  end
