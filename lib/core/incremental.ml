(** Incremental re-evaluation of a site after a data change (§6,
    [FER 98c] "Warehousing and Incremental Evaluation for Web-site
    Management").

    Two halves of the paper's "incremental view update" are covered
    elsewhere: {!Struql.Dexec} maintains the site graph under a data
    delta, and the verifying-trace {!Render_cache} decides exactly which
    pages a changed graph invalidates ({!Site.build} [~render_cache] is
    the cache-assisted full rebuild).  What remains here is the publish
    step joining them. *)

type rebuild_report = {
  built : Site.built;
  pages_total : int;
  pages_rerendered : int;
  pages_reused : int;
}

(** The differential publish leg ([strudel watch]): the site graph has
    already been maintained in place by {!Struql.Dexec}, so query
    re-evaluation is skipped entirely and only a delta walk of the
    render stage runs, from the publication [cache] carries: the pages
    whose traces read a touched or removed name are re-checked, new
    pages rendered and orphaned ones swept ({!Render_pool.materialize}
    [~changed]).  The state lives in the cache, not in [previous],
    whose definition, schemas and query profiles are all that is
    read. *)
let publish_delta ?jobs ?file_loader ?(on_error = Fault.Abort) ?fault ?sink
    ~cache ~(previous : Site.built) ~data ~site_graph ~scope ~touched ~removed
    () : rebuild_report =
  let built =
    match
      Site.of_site_graph ?jobs ~render_cache:cache
        ~changed:(touched @ removed) ~refreeze:false ?file_loader ~on_error
        ?fault ?sink ~data ~scope ~schemas:previous.Site.schemas
        ~query_stats:previous.Site.query_stats previous.Site.def site_graph
    with
    | b -> b
    | exception e ->
      (* the graph has moved on without this change being published
         (e.g. an emptied root family): the next walk must be cold *)
      Render_cache.reset_publication cache;
      raise e
  in
  let rp = built.Site.render_profile in
  {
    built;
    pages_total = rp.Render_pool.rp_pages;
    pages_rerendered = rp.Render_pool.rp_rendered;
    pages_reused = rp.Render_pool.rp_pages - rp.Render_pool.rp_rendered;
  }
