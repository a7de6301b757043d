(** [strudel watch]: differential site maintenance from ingest to
    publish.

    A watch session pairs a {!Struql.Dexec} engine (the maintained site
    graph with its recorded construction events) with a cross-cycle
    render cache and the previously published build.  {!cycle} drives
    one turn of the loop: pick up what changed at the sources (a
    recorder flush in direct mode, a
    {!Mediator.Warehouse.refresh_delta} in mediated mode, a re-read of
    a changed file in file mode), maintain the
    site graph differentially, then re-render exactly the pages whose
    read traces the change invalidated.  Published output is
    byte-identical to a cold {!Strudel.Site.build} over the same data,
    at O(change) cost.

    Source faults degrade, never abort: a quarantined source keeps
    serving its last integrated data (the warehouse's stale-snapshot
    policy, or a watched file's last good read) and is reported per
    cycle. *)

open Sgraph

type source =
  | Direct of Graph.t
      (** watch an in-process data graph; mutate it only through the
          session's {!recorder} so changes are observed *)
  | Mediated of Mediator.Warehouse.t
      (** watch a warehousing mediator; each {!cycle} polls
          {!Mediator.Warehouse.refresh_delta} *)
  | File of string
      (** watch a DDL data file ([strudel watch --data]): each {!cycle}
          polls its modification time and, when it moved, re-parses
          the file, {!Sgraph.Delta.rebase}s the fresh graph onto the
          engine's and maintains the site by the {!Sgraph.Delta.diff}
          between the two.  A save that cannot be read or parsed
          (a half-written file, or one briefly missing during an
          editor's rename) quarantines the file for that cycle: the
          last good data keeps serving until a readable save lands. *)

type t

type cycle_report = {
  cy_cycle : int;
  cy_changed : bool;  (** [false]: sources were clean, nothing ran *)
  cy_delta_card : int;  (** data-graph changes consumed *)
  cy_drivers : int;  (** drivers re-derived *)
  cy_rows : int;  (** binding rows re-derived *)
  cy_touched : int;  (** site nodes whose pages may have changed *)
  cy_removed : int;  (** site nodes removed *)
  cy_rerendered : int;
  cy_reused : int;
  cy_emitted : int;  (** pages handed to the sink *)
  cy_dropped : int;  (** pages that left the site *)
  cy_fallbacks : (string * string) list;
      (** (block path, reason) of full block replays this cycle *)
  cy_quarantined : (string * string) list;
      (** (source, reason) of sources serving stale data this cycle *)
  cy_wall_ms : float;
}

val create :
  ?jobs:int ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?sink:Strudel.Render_pool.sink ->
  source:source ->
  Strudel.Site.definition ->
  t
(** Cold-start the session: prime the differential engine (recording
    every construction event) and publish the initial build through a
    fresh render cache.  [jobs] parallelizes both the renders and, in
    mediated mode, source loads; [sink] additionally streams pages out
    (e.g. {!Strudel.Render_pool.file_sink}) on the initial publish and
    on every changed cycle.  Raises {!Strudel.Site.Build_error} when
    the root family is empty, as {!Strudel.Site.build} would. *)

val cycle : t -> cycle_report
(** One turn of the watch loop: ingest the pending change, maintain
    the site graph, publish.  Cheap when nothing changed
    ([cy_changed = false]). *)

val watch :
  ?interval:float ->
  ?max_cycles:int ->
  on_cycle:(t -> cycle_report -> unit) ->
  t ->
  int
(** Run {!cycle} every [interval] seconds (default 1.0), forever or for
    [max_cycles] turns, calling [on_cycle] after each.  Returns the
    process exit code: 0 if every cycle published cleanly, 3
    (degraded) if any cycle saw a quarantined source, a publish held a
    placeholder page, or the session's fault context recorded a
    fault. *)

val built : t -> Strudel.Site.built
(** The current publish (updated after each changed cycle). *)

val engine : t -> Struql.Dexec.t
(** The maintained engine — counters, classifications and fallback
    reasons for [explain-analyze] surfaces. *)

val cache : t -> Strudel.Render_cache.t
val cycles : t -> int

val recorder : t -> Delta.Rec.r option
(** Direct mode's mutation recorder: apply data-graph edits through it
    and the next {!cycle} picks them up.  [None] in the other modes. *)

val warehouse : t -> Mediator.Warehouse.t option
(** Mediated mode's warehouse.  [None] in the other modes. *)

val pp_report : Format.formatter -> cycle_report -> unit
(** One line per cycle (plus fallback/quarantine detail lines) — the
    [strudel watch] console format ([--stats]). *)
