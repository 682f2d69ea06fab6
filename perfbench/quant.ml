(* Order statistics for reporting timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let check_nonempty fn xs = if xs = [] then invalid_arg (fn ^ ": empty sample")

(* Linear interpolation between closest ranks over [0, n-1] (numpy's
   default); [percentile 50.] is the median. *)
let percentile p xs =
  check_nonempty "Quant.percentile" xs;
  let a = sorted xs in
  let n = Array.length a in
  let pos = p /. 100. *. float_of_int (n - 1) in
  let lo = min (n - 1) (int_of_float pos) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = percentile 50. xs

(* First, second and third quartile by Python's
   [statistics.quantiles(xs, n=4)] (its default "exclusive" method), so
   quartiles printed here match those Python computes from the same
   samples. Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Quant.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)
