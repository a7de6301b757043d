(** Seeded workload inputs: the edit stream of the [edit] workload, the
    request mix of the [serve] workload and its source edits.  Every
    stream is a pure function of its seed and its size parameters. *)

(** {1 Edit stream} *)

type field = Title | Body

type edit =
  | Set of (int * field * string) list
      (** one item (about 80% of edits) or a batch of 10-100 (10%) *)
  | Insert of int  (** a new item with this index (5%) *)
  | Delete of int  (** remove a live item (5%) *)

type edits = {
  rng : Random.State.t;
  mutable live : int array;  (** live item indices, [0 .. n_live-1] *)
  mutable n_live : int;
  mutable next_item : int;
  mutable serial : int;
}

(** An edit stream over items [0 .. items-1]. *)
let edits ~seed ~items =
  { rng = Random.State.make [| seed; 0xed17 |];
    live = Array.init items Fun.id;
    n_live = items;
    next_item = items;
    serial = 0 }

let words =
  [| "graph"; "query"; "site"; "page"; "link"; "schema"; "mediator";
     "wrapper"; "template"; "skolem"; "warehouse"; "collection" |]

let text st =
  st.serial <- st.serial + 1;
  Printf.sprintf "%s %s rev%d"
    words.(Random.State.int st.rng (Array.length words))
    words.(Random.State.int st.rng (Array.length words))
    st.serial

let set_one st =
  let item = st.live.(Random.State.int st.rng st.n_live) in
  let field = if Random.State.bool st.rng then Title else Body in
  (item, field, text st)

(* deletes stop at this many live items *)
let min_live = 16

let next st =
  let roll = Random.State.int st.rng 100 in
  if roll < 80 then Set [ set_one st ]
  else if roll < 90 then begin
    let k = min st.n_live (10 + Random.State.int st.rng 91) in
    (* k distinct items: a partial Fisher-Yates over a copy *)
    let pool = Array.sub st.live 0 st.n_live in
    let batch =
      List.init k (fun j ->
          let r = j + Random.State.int st.rng (st.n_live - j) in
          let x = pool.(r) in
          pool.(r) <- pool.(j);
          pool.(j) <- x;
          let field = if Random.State.bool st.rng then Title else Body in
          (x, field, text st))
    in
    Set batch
  end
  else if roll < 95 || st.n_live <= min_live then begin
    let i = st.next_item in
    st.next_item <- i + 1;
    if st.n_live = Array.length st.live then
      st.live <-
        Array.append st.live (Array.make (max 16 st.n_live) 0);
    st.live.(st.n_live) <- i;
    st.n_live <- st.n_live + 1;
    Insert i
  end
  else begin
    let r = Random.State.int st.rng st.n_live in
    let i = st.live.(r) in
    st.live.(r) <- st.live.(st.n_live - 1);
    st.n_live <- st.n_live - 1;
    Delete i
  end

(** {1 Request mix} *)

type request =
  | Get of string  (** a page, Zipf-popular (85%) *)
  | Revalidate of string  (** [If-None-Match] on a page (10%) *)
  | Unknown of string  (** a path no epoch routes (5%) *)

type requests = {
  q_rng : Random.State.t;
  q_urls : string array;  (** popularity order: index 0 is the hottest *)
  q_cdf : float array;
  mutable q_serial : int;
}

(** Zipf(1) popularity over [urls].  The ranking is one fixed
    pseudo-random permutation, so every run exercises the same hot set
    of pages; [seed] draws the request sequence. *)
let requests ~seed ~urls =
  let ranking = Random.State.make [| 0x5e7e |] in
  let u = Array.copy urls in
  for i = Array.length u - 1 downto 1 do
    let j = Random.State.int ranking (i + 1) in
    let x = u.(i) in
    u.(i) <- u.(j);
    u.(j) <- x
  done;
  let n = Array.length u in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  Array.iteri (fun i c -> cdf.(i) <- c /. !acc) cdf;
  { q_rng = Random.State.make [| seed; 0x5e7e |]; q_urls = u; q_cdf = cdf; q_serial = 0 }

let zipf q =
  let x = Random.State.float q.q_rng 1. in
  (* first index with cdf >= x *)
  let rec bs lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if q.q_cdf.(mid) >= x then bs lo mid else bs (mid + 1) hi
  in
  q.q_urls.(bs 0 (Array.length q.q_urls - 1))

let next_request q =
  let roll = Random.State.int q.q_rng 100 in
  if roll < 85 then Get (zipf q)
  else if roll < 95 then Revalidate (zipf q)
  else begin
    q.q_serial <- q.q_serial + 1;
    Unknown (Printf.sprintf "/no-such-page-%d.html" q.q_serial)
  end

(** {1 Source edits} *)

(** The publications retitled by source edit [rev] (1-based) of a
    bibliography with [pubs] entries: 1 to 3 distinct indices. *)
let retitled ~seed ~pubs ~rev =
  let rng = Random.State.make [| seed; 0xb1b; rev |] in
  let k = min pubs (1 + Random.State.int rng 3) in
  let rec pick acc =
    if List.length acc = k then List.sort compare acc
    else
      let i = Random.State.int rng pubs in
      pick (if List.mem i acc then acc else i :: acc)
  in
  pick []

(** [retitle text ~rev indices]: the BibTeX [text] with the titles of
    the entries at [indices] (0-based, in file order) prefixed by
    ["Revision rev of "]. *)
let retitle text ~rev indices =
  let pat = "\n  title = {" in
  let plen = String.length pat and len = String.length text in
  let b = Buffer.create (len + 64) in
  let rec go i n =
    if i >= len then ()
    else if i + plen <= len && String.sub text i plen = pat then begin
      Buffer.add_string b pat;
      if List.mem n indices then
        Buffer.add_string b (Printf.sprintf "Revision %d of " rev);
      go (i + plen) (n + 1)
    end
    else begin
      Buffer.add_char b text.[i];
      go (i + 1) n
    end
  in
  go 0 0;
  Buffer.contents b
