(** Incremental re-evaluation of a site after a data change (§6,
    [FER 98c]): the differential publish leg of [strudel watch].

    A full rebuild that reuses unchanged pages is {!Site.build} with a
    [~render_cache] carried over from the previous build: each cached
    page's verifying read trace decides reuse exactly.  This module
    adds the publish step for a site graph that was {e maintained} in
    place rather than re-evaluated. *)

open Sgraph

type rebuild_report = {
  built : Site.built;
  pages_total : int;
  pages_rerendered : int;
  pages_reused : int;
}

val publish_delta :
  ?jobs:int ->
  ?file_loader:(string -> string option) ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?sink:Render_pool.sink ->
  cache:Render_cache.t ->
  previous:Site.built ->
  data:Graph.t ->
  site_graph:Graph.t ->
  scope:Skolem.t ->
  touched:string list ->
  removed:string list ->
  unit ->
  rebuild_report
(** The differential publish leg of [strudel watch]: the site graph was
    already maintained in place (by {!Struql.Dexec}), so query
    re-evaluation is skipped and only page materialization runs
    ({!Site.of_site_graph}), against the cross-epoch [cache] whose
    verifying read traces invalidate exactly the pages whose rendering
    observed the change.  [touched]/[removed] are the site-node names
    the delta cycle reported; when both are empty the previous build's
    pages are reused wholesale.  Schemas and query profiles are carried
    over from [previous] (the maintained graph's queries have not
    changed).  Output is byte-identical to a cold {!Site.build} over
    the same data. *)
