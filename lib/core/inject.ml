type site =
  | Decode
  | Compile
  | Host_call
  | Cache_read
  | Cache_write
  | Pool_task
  | Journal_write

type rule =
  | Nth of site * int
  | Always of site
  | Seeded of { site : site; seed : int64; permille : int }

type plan = rule list

type t = {
  plan : plan;
  counts : int array;  (* per-site occurrence counters *)
  fires : int array;  (* per-site occurrences the plan failed *)
  states : int64 array;  (* LCG state, one slot per plan rule *)
}

let site_count = 7

let site_index = function
  | Decode -> 0
  | Compile -> 1
  | Host_call -> 2
  | Cache_read -> 3
  | Cache_write -> 4
  | Pool_task -> 5
  | Journal_write -> 6

let site_name = function
  | Decode -> "decode"
  | Compile -> "compile"
  | Host_call -> "host-call"
  | Cache_read -> "cache-read"
  | Cache_write -> "cache-write"
  | Pool_task -> "pool-task"
  | Journal_write -> "journal-write"

let all_sites =
  [ Decode; Compile; Host_call; Cache_read; Cache_write; Pool_task; Journal_write ]

let rule_site = function
  | Nth (s, _) | Always s -> s
  | Seeded { site; _ } -> site

let create plan =
  {
    plan;
    counts = Array.make site_count 0;
    fires = Array.make site_count 0;
    states =
      Array.of_list
        (List.map
           (function Seeded { seed; _ } -> seed | Nth _ | Always _ -> 0L)
           plan);
  }

let disabled () = create []

(* Knuth's MMIX multiplier: a full-period 64-bit LCG, deterministic
   across runs so seeded failure schedules are reproducible. *)
let lcg_next st =
  Int64.add (Int64.mul st 6364136223846793005L) 1442695040888963407L

let fire t site =
  let idx = site_index site in
  t.counts.(idx) <- t.counts.(idx) + 1;
  match t.plan with
  | [] -> false
  | plan ->
      let n = t.counts.(idx) in
      let hit i rule =
        rule_site rule = site
        &&
        match rule with
        | Always _ -> true
        | Nth (_, k) -> n = k
        | Seeded { permille; _ } ->
            let st = lcg_next t.states.(i) in
            t.states.(i) <- st;
            (* top bits of an LCG are the well-mixed ones *)
            Int64.to_int (Int64.unsigned_rem (Int64.shift_right_logical st 16) 1000L)
            < permille
      in
      (* List.exists would short-circuit and skip advancing later seeded
         rules' states; fold every rule so schedules stay independent. *)
      let fired =
        List.fold_left (fun acc (i, r) -> hit i r || acc) false
          (List.mapi (fun i r -> (i, r)) plan)
      in
      if fired then t.fires.(idx) <- t.fires.(idx) + 1;
      fired

let fire_hook t site () = fire t site
let count t site = t.counts.(site_index site)
let fired t site = t.fires.(site_index site)

let site_of_string s =
  (* Accept both separators everywhere, so the underscore spellings
     users type stay symmetric with the hyphenated names [pp_rule]
     emits. *)
  let s = String.map (function '_' -> '-' | c -> c) s in
  List.find_opt (fun site -> site_name site = s) all_sites

let known_sites () = String.concat ", " (List.map site_name all_sites)

let rule_of_string s =
  match String.split_on_char ':' s with
  | [ "always"; site ] -> (
      match site_of_string site with
      | Some site -> Ok (Always site)
      | None ->
          Error
            (Printf.sprintf "inject: unknown site %S (one of: %s)" site
               (known_sites ())))
  | [ "nth"; site; k ] -> (
      match (site_of_string site, int_of_string_opt k) with
      | Some site, Some k when k >= 1 -> Ok (Nth (site, k))
      | None, _ ->
          Error
            (Printf.sprintf "inject: unknown site %S (one of: %s)" site
               (known_sites ()))
      | Some _, Some k ->
          Error
            (Printf.sprintf
               "inject: occurrence count must be >= 1, got %d in %S" k s)
      | Some _, None ->
          Error (Printf.sprintf "inject: bad occurrence count %S" k))
  | [ "seeded"; site; seed; permille ] -> (
      match
        (site_of_string site, Int64.of_string_opt seed, int_of_string_opt permille)
      with
      | Some site, Some seed, Some permille when permille >= 0 && permille <= 1000
        ->
          Ok (Seeded { site; seed; permille })
      | None, _, _ ->
          Error
            (Printf.sprintf "inject: unknown site %S (one of: %s)" site
               (known_sites ()))
      | Some _, Some _, Some permille ->
          Error
            (Printf.sprintf
               "inject: permille %d out of range [0, 1000] in %S" permille s)
      | Some _, None, _ ->
          Error (Printf.sprintf "inject: bad seed %S" seed)
      | Some _, Some _, None ->
          Error (Printf.sprintf "inject: bad permille %S" permille))
  | _ -> Error (Printf.sprintf "inject: cannot parse rule %S" s)

let plan_of_string s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  List.fold_left
    (fun acc part ->
      match (acc, rule_of_string (String.trim part)) with
      | Error e, _ -> Error e
      | Ok rules, Ok r -> Ok (rules @ [ r ])
      | Ok _, Error e -> Error e)
    (Ok []) parts

let pp_rule ppf = function
  | Always site -> Fmt.pf ppf "always:%s" (site_name site)
  | Nth (site, k) -> Fmt.pf ppf "nth:%s:%d" (site_name site) k
  | Seeded { site; seed; permille } ->
      Fmt.pf ppf "seeded:%s:%Ld:%d" (site_name site) seed permille

(* [Fmt.comma] breaks with [@ ], which a narrow formatter margin turns
   into a newline the parser would then have to scrub back out of rule
   texts; a plain ", " keeps [plan_of_string (Fmt.str "%a" pp_plan p)]
   an identity for every well-formed plan at any margin. *)
let pp_plan = Fmt.list ~sep:(Fmt.any ", ") pp_rule

let plan_to_string p = Fmt.str "%a" pp_plan p
