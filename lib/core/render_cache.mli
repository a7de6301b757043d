(** Dependency-tracked cache of rendered pages.

    A verifying-trace cache: each entry stores a page's rendered bytes
    plus the exact read set the render performed, as recorded by
    {!Template.Generator.render_page_full}[ ~trace_reads:true].  An
    entry is reused iff replaying every read against the current graph
    yields the same result hashes, so an edit invalidates exactly the
    pages whose rendering observed it.  Entries are keyed by the page
    object's {e name} (its Skolem term), which is stable across rebuilds
    even though oids are not.  A template-set fingerprint clears the
    cache wholesale when the presentation changes.  The cache also
    carries the last publication made through it (see below). *)

open Sgraph

type entry = {
  e_url : string;
  e_title : string;
  e_body : string;
  e_html : string;
  e_reads : Template.Generator.read list;
  e_refs : string list;
      (** names of the internal objects the page links to — the demand
          edges page discovery follows on a cache hit *)
}

type t

val create : unit -> t

val clear : t -> unit
(** Drop every entry and the carried publication. *)

val size : t -> int

val stats : t -> int * int * int
(** [(hits, misses, invalidations)] since creation or [reset_stats]. *)

val reset_stats : t -> unit

val set_templates : t -> Template.Generator.template_set -> unit
(** Declare the template set cached pages are rendered with; a change
    of fingerprint drops every entry (template text is an input the
    read traces cannot see). *)

val compiled : t -> Template.Generator.compiled
(** The declared template set, parsed once for every walk through this
    cache (main domain only; reset with the fingerprint). *)

val verify :
  ?file_loader:(string -> string option) ->
  ?changed:(string, unit) Hashtbl.t ->
  Graph.t -> entry -> bool
(** Replay the entry's trace against the graph; [true] iff every read
    still returns the same result hash.  Does not touch statistics.
    With [changed], only the reads of a subject in [changed] and the
    file reads are replayed: sound only for a live page of a carried
    publication that a delta walk re-checks, whose other reads held
    when the last walk ended (every walk re-checks each live reader of
    the names it was told changed).  Every other entry needs the full
    replay. *)

val find_valid :
  ?file_loader:(string -> string option) -> t -> Graph.t -> Oid.t ->
  entry option
(** Cached page for object [o] (by name), re-verified against the
    graph.  Counts a hit; a stale entry is removed and counted as an
    invalidation; an absent one as a miss. *)

val peek_batch : t -> Oid.t array -> entry option array
(** Entries for a batch of page objects (by name) in one pass, without
    verification or statistics — the parallel pool prefetches on the
    main domain, verifies traces on worker domains ({!verify} only
    reads the graph), and settles the table afterwards with {!settle},
    {!drop} and {!store}. *)

val settle : t -> hits:int -> misses:int -> invalidations:int -> unit
(** Fold one batch's verdict counts into the statistics. *)

val drop : t -> Oid.t -> unit
(** Remove the entry for a page object — a stale entry whose re-render
    degraded to a placeholder, which must not stay cached. *)

val store : t -> Template.Generator.rendered -> unit
(** Record a freshly rendered page (render with [~trace_reads:true],
    else the entry validates vacuously).  {!store} and {!drop} keep a
    reverse index from each read subject name to the pages whose trace
    read it, which {!candidates} reads. *)

val lookup : t -> string -> entry option
(** The entry for a page name, without verification or statistics. *)

val page_of_entry : entry -> Oid.t -> Template.Generator.page
(** Rebuild a page value for the current build's page object from a
    validated entry. *)

val refs_of_entry : Graph.t -> entry -> Oid.t list
(** The entry's referenced objects resolved in the current graph. *)

(** {1 The carried publication}

    The cache also carries the last publication a {!Render_pool} walk
    made through it: the live page set (page name → page object, URL
    and demand refs), a URL → page map for collision checks and the
    live pages published as placeholders.  A delta publish
    starts from it instead of walking the whole site: it re-checks only
    the {!candidates} of a change, renders the new pages their refs
    reach and, when refs were dropped, {!mark}s from the roots to find
    the pages that left.  Main domain only, like the entries. *)

type live = {
  l_oid : Oid.t;
  l_url : string;
  l_refs : string list;  (** names of the pages it links to *)
}

val reset_publication : t -> unit
(** Forget the carried publication (entries stay): the next walk is
    cold. *)

val begin_walk : t -> delta:bool -> bool
(** Start a walk through the cache.  [true] when [delta] and a
    publication is carried (the last walk completed without a URL
    collision): the walk continues it.  Otherwise the publication is
    forgotten (entries stay) and the walk is cold.  Either way nothing
    is carried until {!commit}, so a walk that raises leaves the next
    one cold. *)

val find_live : t -> string -> live option
val url_owner : t -> string -> string option
(** The live page published at a URL. *)

val live_count : t -> int
val placeholder_count : t -> int

val publish :
  t -> Oid.t -> url:string -> refs:string list -> placeholder:bool -> unit
(** Record a page of the current walk as live. *)

val commit : t -> unit
(** Mark the walk complete: its publication is carried. *)

val candidates : t -> changed:string list -> string list
(** The live pages a change to the site nodes [changed] may have
    altered: live pages named in [changed], the live readers of a
    changed name (the reverse index), every live placeholder (retried
    each time) and every live page whose trace reads a file.  Each
    once.  The cost is the size of the answer, not of the site. *)

val mark : t -> roots:string list -> sweep:bool -> string list * int
(** The live pages reachable from [roots] over the carried refs, in
    cold-walk discovery order — a name-only walk with no lookups and no
    rendering.  With [sweep], live pages it does not reach leave the
    publication together with their entries and index postings; the
    count of those is returned (0 without [sweep]). *)

val pp_stats : Format.formatter -> t -> unit
