(** Open-loop request accounting.

    Request [i] is due at [t0 + i / rate] whatever happened to earlier
    ones, so a stall delays every request due during it.  Latency is
    measured from the due time, not the send time: the wait a stall
    imposes on later requests counts against the system, and the
    generator's own lateness (send minus due) is reported beside it. *)

let due ~t0 ~rate i = t0 +. (float_of_int i /. rate)

type record = {
  r_due : float;
  r_sent : float;  (** [nan] if never sent *)
  r_done : float;  (** [nan] if never answered *)
  r_status : int;  (** [0] if never answered *)
  r_expect_404 : bool;  (** an unknown path, for which 404 is correct *)
}

let answered r = not (Float.is_nan r.r_done)

(** An operation failed when it got no answer, or an answer other than
    the correct one: 200/304 for a page, 404 for an unknown path. *)
let failed r =
  (not (answered r))
  ||
  if r.r_expect_404 then r.r_status <> 404
  else r.r_status <> 200 && r.r_status <> 304

type summary = {
  attempted : int;
  failures : int;
  latency_ms : float array;
      (** from due time to answer; a failed request counts as
          [infinity], i.e. it misses any latency limit *)
  late_ms : float array;  (** send minus due, of requests sent *)
}

let summarize records =
  let n = Array.length records in
  let failures = ref 0 in
  let latency_ms =
    Array.map
      (fun r ->
        if failed r then begin
          incr failures;
          infinity
        end
        else (r.r_done -. r.r_due) *. 1000.)
      records
  in
  let late_ms =
    Array.of_list
      (List.filter_map
         (fun r ->
           if Float.is_nan r.r_sent then None
           else Some ((r.r_sent -. r.r_due) *. 1000.))
         (Array.to_list records))
  in
  { attempted = n; failures = !failures; latency_ms; late_ms }
