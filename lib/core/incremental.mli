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
    re-evaluation is skipped and only a delta walk of page
    materialization runs ({!Render_pool.materialize} [~changed]) from
    the publication the cross-cycle [cache] carries.  Its cost is the
    change's: the live pages whose read traces name a [touched] or
    [removed] site node are re-verified, the ones that fail re-render
    and are emitted, pages newly linked are rendered and emitted, and
    pages no longer reachable leave the site (their entries dropped).
    Verified pages are not emitted again.  Without a [sink] the
    returned site still lists every page, in cold-build order.
    [previous] supplies only the definition, schemas and query
    profiles.  Output is byte-identical to a cold {!Site.build} over
    the same data. *)
