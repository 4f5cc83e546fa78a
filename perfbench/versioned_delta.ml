(* versioned-delta: incremental-rebuild traffic for [ziprtool serve
   --delta] across several Workloads.Versioned projects, every request
   hardened with cfi then stack-pad.  A fixed interleaving of two
   request kinds: the next unseen version of a project (stitch +
   harvest: cache writes) and a repeat of a version already sent (memo
   hit or all-hit stitch: cache reads), so a gain for one kind that
   costs the other shows.  Versions 0 and 1 of every project are the
   warm-up.  The only workload where the routine cache and memo do
   work; transforms are its largest layer.

   The projects are a fixed corpus: the seed draws the interleaving and
   which version each repeat asks for.  So every seed sends the same
   distinct versions, each stitch sees the same cache contents (a
   project's new versions arrive in order), and the number of stitches
   that fall back to a cold build is the same in every run; the
   deterministic metrics repeat exactly across seeds. *)

let projects = 8
let warm_versions = 2
let corpus_seed = 2016
let transforms = [ "cfi"; "stack-pad" ]

(* Requests per second the timed phase is sized for; the count is a
   function of the arguments only, never of elapsed time. *)
let nominal_rate = 100

(* Every [sample]-th version of a project is checked against the
   offline pipeline and on ZVM. *)
let sample = 4

(* One project's timed requests: [fresh] new versions and as many
   repeats, so each new version is repeated exactly once, later, and the
   number of requests for every distinct version is the same for every
   seed.  The seed shuffles the kinds; a repeat draws its version from
   those sent and not yet repeated, and one drawn with none pending
   becomes the next new version instead (its repeat comes later).  The
   1:1 ratio and the one repeat per version are a fixed choice, not
   taken from measured build traffic. *)
let project_plan rng ~fresh =
  let kinds = Array.init (2 * fresh) (fun k -> k < fresh) in
  Zipr_util.Rng.shuffle rng kinds;
  let pending = ref [] and next = ref warm_versions and news = ref 0 in
  Array.to_list
    (Array.map
       (fun is_new ->
         if (is_new || !pending = []) && !news < fresh then begin
           let v = !next in
           incr next;
           incr news;
           pending := v :: !pending;
           v
         end
         else
           let a = Array.of_list !pending in
           let v = a.(Zipr_util.Rng.int rng (Array.length a)) in
           pending := List.filter (( <> ) v) !pending;
           v)
       kinds)

let spec ~seed ~seconds =
  let per = 2 * projects in
  let fresh = (max 1000 (nominal_rate * seconds) + per - 1) / per in
  let rng = Zipr_util.Rng.create seed in
  let plans = Array.init projects (fun _ -> Array.of_list (project_plan rng ~fresh)) in
  (* Round robin over the projects, one connection: request [k] is the
     [k / projects]-th of project [k mod projects]. *)
  let plan =
    List.init (per * fresh) (fun k -> (k mod projects, plans.(k mod projects).(k / projects)))
  in
  let versions =
    Array.init projects (fun p ->
        Workloads.Versioned.generate
          ~seed:(Zipr_util.Rng.derive ~corpus_seed ~index:p)
          ~versions:(warm_versions + fresh) ()
        |> List.map (fun (v : Workloads.Versioned.version) ->
               Bytes.to_string (Zelf.Binary.serialize v.Workloads.Versioned.binary))
        |> Array.of_list)
  in
  let request (p, v) =
    {
      Served.key = (p * 1_000_000) + v;
      name = Printf.sprintf "project%d/v%d" p v;
      raw = versions.(p).(v);
      transforms;
    }
  in
  let resolve names = List.filter_map Transforms.Registry.by_name names in
  {
    Served.delta = true;
    warm =
      List.concat
        (List.init warm_versions (fun v -> List.init projects (fun p -> request (p, v))));
    timed = List.map request plan;
    check =
      (fun q payload ->
        if q.Served.key mod 1_000_000 mod sample <> 0 then None
        else
          let raw = Bytes.of_string q.Served.raw in
          match
            ( Zipr.Pipeline.rewrite_bytes ~transforms:(resolve transforms) raw,
              Zelf.Binary.parse raw )
          with
          | Error why, _ -> Some (Error ("offline rewrite_bytes refused: " ^ why))
          | Ok b, _ when Bytes.to_string b <> payload ->
              Some (Error "payload differs from offline rewrite_bytes")
          | _, Error _ -> Some (Error "input does not parse")
          | Ok _, Ok orig ->
              Some
                (Checks.fixed_input_check ~sweep:true ~orig ~orig_bytes:(Bytes.length raw)
                   payload));
    stand_in =
      Some
        (fun q ->
          (* Run-time overheads of the same two transforms in the order
             that runs today (see README.md); check phase only. *)
          let raw = Bytes.of_string q.Served.raw in
          match
            ( Zipr.Pipeline.rewrite_bytes ~transforms:(resolve [ "stack-pad"; "cfi" ]) raw,
              Zelf.Binary.parse raw )
          with
          | Ok b, Ok orig ->
              Checks.fixed_input_check ~sweep:true ~orig ~orig_bytes:(Bytes.length raw)
                (Bytes.to_string b)
          | Error why, _ -> Error why
          | _, Error _ -> Error "input does not parse");
    setups = 6;
    phases = 3;
  }
