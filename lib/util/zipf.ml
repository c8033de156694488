type t = {
  n : int;
  cdf : float array; (* cdf.(k) = P(rank <= k), cdf.(n-1) = 1.0 *)
}

let create ~n ~skew =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if skew < 0.0 then invalid_arg "Zipf.create: skew must be non-negative";
  let weights = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** skew)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (weights.(k) /. total);
    cdf.(k) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let size t = t.n

let sample t rng =
  let u = Prng.float rng 1.0 in
  (* Binary search for the first k with cdf.(k) >= u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let probability t k =
  if k < 0 || k >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
