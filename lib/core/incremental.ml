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
    re-evaluation is skipped entirely and only the render stage runs —
    against the cross-epoch [cache], whose verifying read traces give
    exact page invalidation.  [touched]/[removed] are the site-node
    names the delta cycle reported: when both are empty the previous
    pages are reused wholesale without touching the render pipeline. *)
let publish_delta ?jobs ?file_loader ?(on_error = Fault.Abort) ?fault ?sink
    ~cache ~(previous : Site.built) ~data ~site_graph ~scope ~touched ~removed
    () : rebuild_report =
  if touched = [] && removed = [] then
    (* the profile, not the page list: under a sink the site retains
       no pages *)
    let total = previous.Site.render_profile.Render_pool.rp_pages in
    {
      built = { previous with Site.data; site_graph; scope };
      pages_total = total;
      pages_rerendered = 0;
      pages_reused = total;
    }
  else begin
    (* the delta cycle's touched ∪ removed names are exactly the site
       nodes whose adjacency changed: hand them to the render pool so
       trace verification replays only reads of changed nodes *)
    let dirty =
      let tbl = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace tbl n ()) touched;
      List.iter (fun n -> Hashtbl.replace tbl n ()) removed;
      fun n -> Hashtbl.mem tbl n
    in
    let built =
      Site.of_site_graph ?jobs ~render_cache:cache ~dirty ~refreeze:false
        ?file_loader ~on_error ?fault ?sink ~data ~scope
        ~schemas:previous.Site.schemas
        ~query_stats:previous.Site.query_stats previous.Site.def site_graph
    in
    let rp = built.Site.render_profile in
    {
      built;
      pages_total = rp.Render_pool.rp_pages;
      pages_rerendered = rp.Render_pool.rp_rendered;
      pages_reused = rp.Render_pool.rp_pages - rp.Render_pool.rp_rendered;
    }
  end
