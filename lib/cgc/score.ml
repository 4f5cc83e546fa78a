module Stats = Zipr_util.Stats

type overheads = { size_pct : float; exec_pct : float; mem_pct : float }

let overheads ~orig ~rewritten ~orig_runs ~rewritten_runs =
  let pct baseline measured =
    Stats.overhead_pct ~baseline:(float_of_int baseline) ~measured:(float_of_int measured)
  in
  let uo = Poller.usage orig_runs and ur = Poller.usage rewritten_runs in
  {
    size_pct = pct (Zelf.Binary.file_size orig) (Zelf.Binary.file_size rewritten);
    exec_pct = pct uo.Poller.cycles ur.Poller.cycles;
    mem_pct = pct uo.Poller.rss_pages ur.Poller.rss_pages;
  }

type eval = {
  name : string;
  ov : overheads;
  functionality : float;
  pov_blocked : bool option;
}

let evaluate ~name ~orig ~orig_runs ~rewritten ~meta ~pollers =
  let check, rewritten_runs = Poller.replay ~orig:orig_runs ~rewritten pollers in
  let ov = overheads ~orig ~rewritten ~orig_runs ~rewritten_runs in
  let functionality =
    if check.Poller.total = 0 then 1.0
    else float_of_int check.Poller.passed /. float_of_int check.Poller.total
  in
  let pov_blocked =
    match Pov.attempt_all rewritten meta with
    | [] -> None
    | outcomes -> Some (List.for_all (fun (_, o) -> o <> Pov.Exploited) outcomes)
  in
  { name; ov; functionality; pov_blocked }

let availability e =
  let excess =
    (max 0.0 (e.ov.exec_pct -. 5.0) /. 100.0)
    +. (max 0.0 (e.ov.mem_pct -. 5.0) /. 100.0)
    +. (max 0.0 (e.ov.size_pct -. 20.0) /. 100.0)
  in
  e.functionality /. (1.0 +. excess)

let security e = match e.pov_blocked with Some true -> 2.0 | _ -> 1.0

let total e = availability e *. security e

let pp_eval ppf e =
  Format.fprintf ppf "%s: size=%+.1f%% exec=%+.1f%% mem=%+.1f%% func=%.2f pov=%s score=%.3f"
    e.name e.ov.size_pct e.ov.exec_pct e.ov.mem_pct e.functionality
    (match e.pov_blocked with
    | None -> "n/a"
    | Some true -> "blocked"
    | Some false -> "EXPLOITED")
    (total e)
