(** Order statistics for benchmark samples.

    The reporting rule: a percentile is reported only when at least
    [min_beyond] (10) samples lie strictly above its rank, so a tail
    figure always rests on ten or more observations of the tail. *)

let min_beyond = 10

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* 1-based nearest rank of percentile [p] (0 < p <= 1) among [n]. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

(** [percentile xs p] is the nearest-rank [p]-quantile of [xs], or
    [None] when fewer than {!min_beyond} samples lie beyond it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then None
  else
    let r = rank n p in
    if n - r < min_beyond then None else Some (sorted xs).(r - 1)

(** The highest percentile at most [cap] that the rule allows, as
    [(p, value)] with [p] the percentile actually reported.  With too
    few samples for any percentile above the median, the median itself
    ([p = 0.5]).  [None] for no samples. *)
let tail ?(cap = 0.99) xs =
  let n = Array.length xs in
  if n = 0 then None
  else
    let r = min (rank n cap) (n - min_beyond) in
    if r <= rank n 0.5 then Some (0.5, median xs)
    else Some (float_of_int r /. float_of_int n, (sorted xs).(r - 1))
