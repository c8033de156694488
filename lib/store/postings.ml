let lower_bound arr x =
  (* smallest index i with arr.(i) >= x, or length *)
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

let closest_in arr ~lo ~hi =
  let i = lower_bound arr lo in
  if i < Array.length arr && arr.(i) <= hi then Some arr.(i) else None

let pred_of arr x =
  (* largest element < x *)
  let i = lower_bound arr x in
  if i = 0 then None else Some arr.(i - 1)

let succ_of arr x =
  (* smallest element > x *)
  let i = lower_bound arr (x + 1) in
  if i >= Array.length arr then None else Some arr.(i)

let subtree_range doc arr root =
  let lo = lower_bound arr root in
  let hi = lower_bound arr (Document.subtree_last doc root + 1) in
  lo, hi

let in_subtree doc arr root =
  let lo, hi = subtree_range doc arr root in
  let out = ref [] in
  for i = hi - 1 downto lo do
    out := arr.(i) :: !out
  done;
  !out
