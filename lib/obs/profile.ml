let now_us () = Unix.gettimeofday () *. 1e6

let time h f =
  if Metrics.enabled () then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    Metrics.observe h (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
    r
  end
  else f ()

type entry = { key : int64; count : int; cost : int }

let score e = if e.cost > 0 then e.cost else e.count

let rank ?(limit = 10) entries =
  let cmp a b =
    match compare (score b) (score a) with
    | 0 -> ( match compare b.count a.count with 0 -> compare a.key b.key | c -> c)
    | c -> c
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take limit (List.sort cmp entries)

let pp_entry ppf e =
  Format.fprintf ppf "tb@0x%Lx: %d execs, %d cycles" e.key e.count e.cost
