type t = {
  transforms : string list;
  placement : string;
  seed : int;
  placement_budget : int option;
  placement_epsilon : float option;
  placement_weights : string;  (* "" = unset *)
  infer : bool option;
}

let default =
  {
    transforms = [ "null" ];
    placement = "optimized";
    seed = 1;
    placement_budget = None;
    placement_epsilon = None;
    placement_weights = "";
    infer = None;
  }

let merge ~defaults t =
  let first a b = match a with Some _ -> a | None -> b in
  {
    t with
    placement_budget = first t.placement_budget defaults.placement_budget;
    placement_epsilon = first t.placement_epsilon defaults.placement_epsilon;
    placement_weights =
      (if t.placement_weights <> "" then t.placement_weights
       else defaults.placement_weights);
    infer = first t.infer defaults.infer;
  }

(* Optional knobs appear only when set.  A weight spec holds ',' and '='
   but no ';', and a reader splits each pair at its first '=', so the
   value travels unescaped. *)
let to_pairs t =
  let opt key f = Option.map (fun v -> (key, f v)) in
  [
    ("transforms", String.concat "," t.transforms);
    ("placement", t.placement);
    ("seed", string_of_int t.seed);
  ]
  @ List.filter_map Fun.id
      [
        opt "placement_budget" string_of_int t.placement_budget;
        opt "placement_epsilon" (Printf.sprintf "%.17g") t.placement_epsilon;
        (if t.placement_weights = "" then None
         else Some ("placement_weights", t.placement_weights));
        opt "infer" (fun b -> if b then "1" else "0") t.infer;
      ]

let of_pairs pairs =
  let int k v f =
    match int_of_string_opt v with
    | Some n -> Ok (f n)
    | None -> Error (Printf.sprintf "%s is not an integer: %S" k v)
  in
  List.fold_left
    (fun acc (k, v) ->
      Result.bind acc (fun t ->
          match k with
          | "transforms" ->
              let transforms = String.split_on_char ',' v |> List.filter (( <> ) "") in
              Ok { t with transforms }
          | "placement" -> Ok { t with placement = v }
          | "seed" -> int k v (fun seed -> { t with seed })
          | "placement_budget" -> int k v (fun b -> { t with placement_budget = Some b })
          | "placement_epsilon" -> (
              match float_of_string_opt v with
              | Some e -> Ok { t with placement_epsilon = Some e }
              | None -> Error (Printf.sprintf "%s is not a number: %S" k v))
          | "placement_weights" -> Ok { t with placement_weights = v }
          | "infer" -> int k v (fun b -> { t with infer = Some (b <> 0) })
          | _ -> Ok t))
    (Ok default) pairs

let resolve ~resolve_transform t =
  Result.bind
    (Placement.resolve ?budget:t.placement_budget ?epsilon:t.placement_epsilon
       ~weights_spec:t.placement_weights t.placement)
    (fun placement ->
      match List.filter (fun n -> resolve_transform n = None) t.transforms with
      | _ :: _ as unknown -> Error ("unknown transforms: " ^ String.concat ", " unknown)
      | [] ->
          let d = Pipeline.default_config in
          Ok
            ( {
                d with
                Pipeline.placement;
                seed = t.seed;
                infer = Option.value t.infer ~default:d.infer;
              },
              List.filter_map resolve_transform t.transforms ))
