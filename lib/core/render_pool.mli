(** Parallel page materialization: a work-stealing scheduler on a
    persistent domain pool.

    Pages are rendered in waves (BFS levels of the demand-driven page
    closure).  Each wave is cut into bounded {e slices}; a slice's
    pages are chunked onto per-worker deques and the workers — the main
    domain plus [jobs - 1] domains from the persistent {!Pool.shared},
    reused across builds — take their own chunks and steal from each
    other when they run dry.  Results land in per-page slots, so output
    never depends on scheduling; the concatenation of the wave
    frontiers replays the sequential generator's discovery queue, so
    pages are produced in canonical order and byte-identical to the
    reference path.  On a URL collision (two pages sharing a slug) the
    pool falls back to the sequential generator.

    With a {!sink} pages are streamed out in canonical order as each
    slice settles and never retained — peak memory is bounded by the
    slice size, not the site size.  A {!Render_cache} short-circuits
    rendering with batched lookups: a slice's entries are prefetched in
    one pass, traces verify on the worker domains, and verdicts settle
    back on the main domain.  A walk through a cache records its
    publication there, and a later walk given the changed names
    ([~changed]) starts from it: a delta walk, whose cost is the
    change's rather than the site's. *)

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

val pp_profile : Format.formatter -> profile -> unit

val auto_jobs : unit -> int
(** The job count used for [jobs <= 0]:
    [Domain.recommended_domain_count], clamped to at least 1. *)

type sink = {
  sk_emit : Template.Generator.page -> unit;
      (** called once per emitted page, in walk order (canonical
          discovery order on a cold walk); the pool retains nothing
          after the call *)
  sk_reset : unit -> unit;
      (** called if a URL collision forces the sequential fallback:
          everything emitted so far is invalid and will be re-emitted *)
}

val file_sink : dir:string -> sink
(** The one way pages reach disk: a sink writing each page below [dir]
    (created if missing) through {!Repository.Atomic_file.write} — to a
    temporary file in [dir], then renamed into place, so a reader or a
    crash never sees a truncated page.  It remembers each emitted path
    once (not once per emission); reset removes those files. *)

val default_slice : int
(** Bound on pages a wave slice holds in memory at once — also
    the granularity of streaming emission and of deterministic
    fault-report ordering (it must not depend on [jobs]). *)

val materialize :
  ?jobs:int ->
  ?cache:Render_cache.t ->
  ?changed:string list ->
  ?file_loader:(string -> string option) ->
  ?templates:Template.Generator.template_set ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?sink:sink ->
  ?refreeze:bool ->
  Graph.t ->
  roots:Oid.t list ->
  Template.Generator.site * profile
(** Materialize the site's pages.  [jobs = 1] (the default) with no
    cache, no injector, no sink and [~on_error:Abort] is the sequential
    reference path, a plain {!Template.Generator.generate}; [jobs <= 0]
    auto-detects ({!auto_jobs}); otherwise the work-stealing wave loop
    runs on [jobs] domains (the main domain renders alongside
    [jobs - 1] persistent pool workers).  Output is byte-identical to
    the reference path on every input (enforced by the differential
    suite).

    With [~sink], pages are streamed to the sink in canonical order and
    the returned site has an empty page list ([profile.rp_pages] still
    counts them); peak memory is bounded by {!default_slice} pages.

    With [cache], the walk also rebuilds the publication the cache
    carries ({!Render_cache.live}).  [changed] (with [cache]) makes it
    a {e delta} walk from that publication: [changed] must name every
    site node whose values, out-edges or collection membership changed
    since it (the delta cycle's touched ∪ removed names do).  The walk
    is seeded with {!Render_cache.candidates} and the new roots instead
    of the roots; a candidate whose trace still verifies is a hit and
    is not emitted, a fresh render is, and a ref to a page outside the
    live set is walked as a new page.  When a re-rendered page dropped
    a ref or a live page's node left the graph (a removed root is one),
    {!Render_cache.mark} sweeps the pages that left the site
    ([rp_dropped]; their published files are not removed).  Without a
    sink the returned site is still every page, in cold-walk order:
    the mark replays discovery over the carried refs.  The cost is the
    change's, not the site's, apart from that replay.  With no carried
    publication (a fresh cache, or one cleared by a collision or a
    template change) the walk is cold.

    [refreeze:false] skips the graph freeze when running sequentially
    (an O(site) cost the delta publish path avoids every cycle); with
    [jobs > 1] the freeze always happens, as worker domains must read
    the immutable kernel snapshot.

    With [~on_error:Degrade], a failed (or injected-faulty) page render
    is isolated: the page becomes a {!Template.Generator.placeholder_page},
    a [Render] fault is recorded in [fault] (in deterministic URL order
    per slice, so manifests are [jobs]-independent), and the placeholder
    is never stored in the render cache.  Degraded builds always run
    the wave loop — even at [jobs = 1] — so degraded output is
    identical across [jobs]. *)

