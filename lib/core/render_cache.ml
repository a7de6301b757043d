(** Dependency-tracked cache of rendered pages.

    A verifying-trace cache in the build-system sense: each entry stores
    the page's rendered bytes together with the exact read set the
    render performed ({!Template.Generator.read} records with result
    hashes).  An entry is reused iff replaying every read against the
    {e current} graph yields the same hashes — so an edit invalidates
    exactly the pages whose rendering observed it, and nothing else.

    Entries are keyed by the page object's {e name} (for site pages, its
    Skolem term): oids are allocated fresh on every rebuild, names are
    the stable identity across builds.  The cache also fingerprints the
    template set and clears itself wholesale when the templates change,
    since template text is an input the read traces do not cover.

    The cache also carries the last publication a {!Render_pool} walk
    made through it — the live page set with URLs and demand refs — and
    a reverse index from read subjects to the pages that read them, so
    a delta walk can start from the pages a change reaches instead of
    from the roots.

    The cache is consulted and updated only from the main domain; the
    parallel {!Render_pool} validates entries before fanning out and
    stores fresh traces after joining. *)

module G = Template.Generator
open Sgraph

type entry = {
  e_url : string;
  e_title : string;
  e_body : string;
  e_html : string;
  e_reads : G.read list;
  e_refs : string list;
      (** names of the internal objects the page links to — the demand
          edges page discovery follows on a cache hit *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type live = {
  l_oid : Oid.t;
  l_url : string;
  l_refs : string list;
}

type t = {
  entries : (string, entry) Hashtbl.t;  (* page-object name → entry *)
  (* reverse index over [entries]: read subject name → pages whose
     trace read it, and the pages whose trace reads a file *)
  readers : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  file_readers : (string, unit) Hashtbl.t;
  stats : stats;
  mutable templates_fp : int option;
  (* the declared templates, parsed: a walk's main-domain worker renders
     with it, so a delta walk does not re-parse them *)
  mutable compiled : G.compiled;
  (* the last publication: the live page set, its URLs, and the live
     pages that were published as placeholders (they have no entry) *)
  live : (string, live) Hashtbl.t;
  by_url : (string, string) Hashtbl.t;
  placeholders : (string, unit) Hashtbl.t;
  mutable carried : bool;
  (* sanitizer identity: field 0 = [entries] and its reverse index plus
     [templates_fp] and [compiled], field 1 = [stats], field 2 = the
     publication.
     Nothing locks them — the documented invariant is that every access
     stays on the main domain, and instrumenting every field makes a
     sanitized parallel build check exactly that. *)
  ds_obj : int;
}

let create () =
  {
    entries = Hashtbl.create 64;
    readers = Hashtbl.create 64;
    file_readers = Hashtbl.create 8;
    stats = { hits = 0; misses = 0; invalidations = 0 };
    templates_fp = None;
    compiled = G.new_compiled ();
    live = Hashtbl.create 64;
    by_url = Hashtbl.create 64;
    placeholders = Hashtbl.create 8;
    carried = false;
    ds_obj = Dsan.alloc ~name:"Render_cache";
  }

let reset_publication c =
  Dsan.write ~site:__POS__ c.ds_obj 2;
  Hashtbl.reset c.live;
  Hashtbl.reset c.by_url;
  Hashtbl.reset c.placeholders;
  c.carried <- false

let clear c =
  Dsan.write ~site:__POS__ c.ds_obj 0;
  Hashtbl.reset c.entries;
  Hashtbl.reset c.readers;
  Hashtbl.reset c.file_readers;
  reset_publication c

let size c =
  Dsan.read ~site:__POS__ c.ds_obj 0;
  Hashtbl.length c.entries

let stats c =
  Dsan.read ~site:__POS__ c.ds_obj 1;
  (c.stats.hits, c.stats.misses, c.stats.invalidations)

let reset_stats c =
  Dsan.write ~site:__POS__ c.ds_obj 1;
  c.stats.hits <- 0;
  c.stats.misses <- 0;
  c.stats.invalidations <- 0

(* --- Entries and their reverse index --- *)

let index_entry c page (e : entry) =
  List.iter
    (fun r ->
      match r with
      | G.R_attr (s, _, _) | G.R_edges (s, _) | G.R_colls (s, _) ->
        let ps =
          match Hashtbl.find_opt c.readers s with
          | Some ps -> ps
          | None ->
            let ps = Hashtbl.create 4 in
            Hashtbl.add c.readers s ps;
            ps
        in
        Hashtbl.replace ps page ()
      | G.R_file _ -> Hashtbl.replace c.file_readers page ())
    e.e_reads

let unindex_entry c page (e : entry) =
  List.iter
    (fun r ->
      match r with
      | G.R_attr (s, _, _) | G.R_edges (s, _) | G.R_colls (s, _) -> (
        match Hashtbl.find_opt c.readers s with
        | Some ps ->
          Hashtbl.remove ps page;
          if Hashtbl.length ps = 0 then Hashtbl.remove c.readers s
        | None -> ())
      | G.R_file _ -> Hashtbl.remove c.file_readers page)
    e.e_reads

(* every entry removal goes through here, so the index never names a
   page whose entry is gone *)
let remove_entry c page =
  match Hashtbl.find_opt c.entries page with
  | Some e ->
    unindex_entry c page e;
    Hashtbl.remove c.entries page
  | None -> ()

(* --- Template fingerprint --- *)

let fingerprint_templates (ts : G.template_set) =
  let pairs ps =
    List.fold_left
      (fun acc (k, v) -> G.hash_strings [ k; v ] lxor ((acc * 31) land max_int))
      7 ps
  in
  G.hash_strings
    [ string_of_int (pairs ts.G.by_object);
      string_of_int (pairs ts.G.by_collection);
      string_of_int (pairs ts.G.named) ]

(** Declare the template set the cached pages were rendered with.  If it
    differs from the recorded fingerprint, all entries are dropped
    (template text is an input the read traces cannot see). *)
let set_templates c ts =
  let fp = fingerprint_templates ts in
  Dsan.write ~site:__POS__ c.ds_obj 0;
  (match c.templates_fp with
   | Some old when old <> fp ->
     clear c;
     c.compiled <- G.new_compiled ()
   | _ -> ());
  c.templates_fp <- Some fp

let compiled c =
  Dsan.read ~site:__POS__ c.ds_obj 0;
  c.compiled

(* --- Trace verification --- *)

(** Replay one recorded read against [g] and compare result hashes.  A
    node that no longer exists reads as the empty result — exactly what
    a render against [g] would observe. *)
let verify_read ?(file_loader = fun _ -> None) g read =
  match read with
  | G.R_attr (name, label, h) ->
    let targets =
      match Graph.find_node g name with
      | Some o -> Graph.attr g o label
      | None -> []
    in
    G.hash_targets targets = h
  | G.R_edges (name, h) ->
    let edges =
      match Graph.find_node g name with
      | Some o -> Graph.out_edges g o
      | None -> []
    in
    G.hash_edges edges = h
  | G.R_colls (name, h) ->
    let colls =
      match Graph.find_node g name with
      | Some o -> Graph.collections_of g o
      | None -> []
    in
    G.hash_strings colls = h
  | G.R_file (path, h) -> G.hash_file (file_loader path) = h

let verify ?file_loader ?changed g entry =
  match changed with
  | None -> List.for_all (verify_read ?file_loader g) entry.e_reads
  | Some changed ->
    List.for_all
      (fun r ->
        match r with
        | G.R_attr (s, _, _) | G.R_edges (s, _) | G.R_colls (s, _)
          when not (Hashtbl.mem changed s) ->
          true
        | r -> verify_read ?file_loader g r)
      entry.e_reads

(** Look up the page for object [o] (keyed by its name) and re-verify
    its trace against [g].  Counts a hit on success; a stale entry is
    removed and counted as an invalidation; an absent one as a miss. *)
let find_valid ?file_loader c g o =
  let key = Oid.name o in
  Dsan.write ~site:__POS__ c.ds_obj 0;
  Dsan.write ~site:__POS__ c.ds_obj 1;
  match Hashtbl.find_opt c.entries key with
  | None ->
    c.stats.misses <- c.stats.misses + 1;
    None
  | Some e ->
    if verify ?file_loader g e then begin
      c.stats.hits <- c.stats.hits + 1;
      Some e
    end
    else begin
      c.stats.invalidations <- c.stats.invalidations + 1;
      remove_entry c key;
      None
    end

(* --- Batched lookups for the parallel render pool --- *)

(** Entries for a batch of page objects, no verification, no statistic
    updates: the pool prefetches entries on the main domain in one
    pass, verifies the traces on worker domains ({!verify} only reads
    the graph), and settles the table afterwards with {!settle} /
    {!drop} / {!store}. *)
let peek_batch c (os : Oid.t array) : entry option array =
  Dsan.read ~site:__POS__ c.ds_obj 0;
  Array.map (fun o -> Hashtbl.find_opt c.entries (Oid.name o)) os

(** Fold one batch's verdict counts into the statistics. *)
let settle c ~hits ~misses ~invalidations =
  Dsan.write ~site:__POS__ c.ds_obj 1;
  c.stats.hits <- c.stats.hits + hits;
  c.stats.misses <- c.stats.misses + misses;
  c.stats.invalidations <- c.stats.invalidations + invalidations

(** Remove the entry for a page object — a stale entry whose re-render
    degraded to a placeholder, which must not stay cached. *)
let drop c o =
  Dsan.write ~site:__POS__ c.ds_obj 0;
  remove_entry c (Oid.name o)

(** Record a freshly rendered page (must come from [render_page_full
    ~trace_reads:true], else the entry would validate vacuously). *)
let store c (r : G.rendered) =
  let p = r.G.r_page in
  let page = Oid.name p.G.obj in
  let e =
    {
      e_url = p.G.url;
      e_title = p.G.title;
      e_body = p.G.body;
      e_html = p.G.html;
      e_reads = r.G.r_reads;
      e_refs = List.map Oid.name r.G.r_refs;
    }
  in
  Dsan.write ~site:__POS__ c.ds_obj 0;
  remove_entry c page;
  Hashtbl.replace c.entries page e;
  index_entry c page e

(** Rebuild a {!Template.Generator.page} for the current build's page
    object [o] from a validated entry. *)
let page_of_entry (e : entry) o : G.page =
  { G.obj = o; url = e.e_url; title = e.e_title; html = e.e_html;
    body = e.e_body }

(** Resolve an entry's referenced-object names in the current graph
    (names missing from [g] are dropped — a verified trace cannot
    actually contain any, since the link render read their anchors). *)
let refs_of_entry g (e : entry) : Oid.t list =
  List.filter_map (Graph.find_node g) e.e_refs

(* --- The carried publication --- *)

let begin_walk c ~delta =
  Dsan.write ~site:__POS__ c.ds_obj 2;
  let continues = delta && c.carried in
  if continues then c.carried <- false else reset_publication c;
  continues

let find_live c page =
  Dsan.read ~site:__POS__ c.ds_obj 2;
  Hashtbl.find_opt c.live page

let url_owner c url =
  Dsan.read ~site:__POS__ c.ds_obj 2;
  Hashtbl.find_opt c.by_url url

let live_count c =
  Dsan.read ~site:__POS__ c.ds_obj 2;
  Hashtbl.length c.live

let placeholder_count c =
  Dsan.read ~site:__POS__ c.ds_obj 2;
  Hashtbl.length c.placeholders

let lookup c page =
  Dsan.read ~site:__POS__ c.ds_obj 0;
  Hashtbl.find_opt c.entries page

let publish c o ~url ~refs ~placeholder =
  let page = Oid.name o in
  Dsan.write ~site:__POS__ c.ds_obj 2;
  Hashtbl.replace c.live page { l_oid = o; l_url = url; l_refs = refs };
  Hashtbl.replace c.by_url url page;
  if placeholder then Hashtbl.replace c.placeholders page ()
  else Hashtbl.remove c.placeholders page

let commit c =
  Dsan.write ~site:__POS__ c.ds_obj 2;
  c.carried <- true

(** Live pages whose bytes a change to [changed] may have altered: the
    live readers of a changed name, live pages named by it, every live
    placeholder (retried each time) and every live page whose trace
    reads a file (files change without a graph delta).  Each once, in
    that order. *)
let candidates c ~changed =
  Dsan.read ~site:__POS__ c.ds_obj 0;
  Dsan.read ~site:__POS__ c.ds_obj 2;
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add page () =
    if Hashtbl.mem c.live page && not (Hashtbl.mem seen page) then begin
      Hashtbl.add seen page ();
      out := page :: !out
    end
  in
  List.iter
    (fun n ->
      add n ();
      match Hashtbl.find_opt c.readers n with
      | Some ps -> Hashtbl.iter add ps
      | None -> ())
    changed;
  Hashtbl.iter add c.placeholders;
  Hashtbl.iter add c.file_readers;
  List.rev !out

(** The live pages reachable from [roots] over the carried demand refs,
    in discovery order — the order a cold walk publishes them in.  A
    name-only walk: no entry lookups, no rendering.  With [sweep], the
    live pages it does not reach leave the publication, with their
    entries and index postings; returns the walk and that count. *)
let mark c ~roots ~sweep =
  Dsan.read ~site:__POS__ c.ds_obj 2;
  let reached = Hashtbl.create (Hashtbl.length c.live) in
  let order = ref [] in
  let queue = Queue.create () in
  let visit page =
    if not (Hashtbl.mem reached page) then
      match Hashtbl.find_opt c.live page with
      | Some l ->
        Hashtbl.add reached page ();
        order := page :: !order;
        Queue.add l.l_refs queue
      | None -> ()
  in
  List.iter visit roots;
  while not (Queue.is_empty queue) do
    List.iter visit (Queue.pop queue)
  done;
  let dropped =
    if not sweep then 0
    else begin
      let gone =
        Hashtbl.fold
          (fun page _ acc ->
            if Hashtbl.mem reached page then acc else page :: acc)
          c.live []
      in
      Dsan.write ~site:__POS__ c.ds_obj 0;
      Dsan.write ~site:__POS__ c.ds_obj 2;
      List.iter
        (fun page ->
          let l = Hashtbl.find c.live page in
          Hashtbl.remove c.live page;
          (match Hashtbl.find_opt c.by_url l.l_url with
           | Some p when p = page -> Hashtbl.remove c.by_url l.l_url
           | _ -> ());
          Hashtbl.remove c.placeholders page;
          remove_entry c page)
        gone;
      List.length gone
    end
  in
  (List.rev !order, dropped)

let pp_stats ppf c =
  Dsan.read ~site:__POS__ c.ds_obj 1;
  Fmt.pf ppf "%d entries, %d hits / %d misses / %d invalidations" (size c)
    c.stats.hits c.stats.misses c.stats.invalidations
