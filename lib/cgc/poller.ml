module Rng = Zipr_util.Rng

type script = { input : string }

let random_payload rng n =
  String.init n (fun _ -> Char.chr (32 + Rng.int rng 95))

(* Append one command plus any argument bytes it consumes ('d' and 'p'
   read one extra byte). *)
let add_command rng buf c =
  Buffer.add_char buf c;
  match c with
  | 'd' | 'p' | 'x' -> Buffer.add_char buf (Char.chr (Rng.int rng 256))
  | 'b' ->
      (* benign upload: bounded length plus payload *)
      let n = 1 + Rng.int rng 48 in
      Buffer.add_char buf (Char.chr n);
      Buffer.add_string buf (random_payload rng n)
  | _ -> ()

(* One random command with its argument bytes. *)
let random_command (meta : Cb_gen.meta) rng buf =
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 ->
      (* dispatchable command *)
      if meta.Cb_gen.commands <> [] then
        add_command rng buf (Rng.choose_list rng meta.Cb_gen.commands)
  | 5 | 6 ->
      if meta.Cb_gen.fptr_count > 0 then begin
        Buffer.add_char buf 'p';
        Buffer.add_char buf (Char.chr (Rng.int rng 256))
      end
      else if meta.Cb_gen.commands <> [] then
        add_command rng buf (Rng.choose_list rng meta.Cb_gen.commands)
  | 7 ->
      (* unknown command: exercises the error path *)
      Buffer.add_char buf (Rng.choose rng [| '!'; '@'; 'z'; '~' |])
  | _ -> (
      (* benign use of the vulnerable handler: in-bounds write *)
      match meta.Cb_gen.vuln_frame with
      | Some frame when frame > 16 ->
          let n = 1 + Rng.int rng (frame - 16) in
          Buffer.add_char buf 'v';
          Buffer.add_char buf (Char.chr n);
          Buffer.add_string buf (random_payload rng n)
      | _ ->
          if meta.Cb_gen.commands <> [] then
            add_command rng buf (Rng.choose_list rng meta.Cb_gen.commands))

let generate meta ~seed ~count =
  let rng = Rng.create seed in
  List.init count (fun i ->
      let buf = Buffer.create 64 in
      (* The first scripts deterministically cover each command once. *)
      (match (i, meta.Cb_gen.commands) with
      | 0, cmds -> List.iter (add_command rng buf) cmds
      | _ ->
          let n = 2 + Rng.int rng 12 in
          for _ = 1 to n do
            random_command meta rng buf
          done);
      (* Half the scripts end with an explicit quit, half with EOF. *)
      if Rng.bool rng then Buffer.add_char buf 'q';
      { input = Buffer.contents buf })

let default_fuel = 5_000_000

let run ?(fuel = default_fuel) binary script = Zelf.Image.boot ~fuel binary ~input:script.input

type check = { total : int; passed : int; failures : (script * string) list }

let replay ?(fuel = default_fuel) ~orig ~rewritten scripts =
  let judged =
    List.map2
      (fun script a ->
        let b = run ~fuel:(Zipr.Verify.rewrite_fuel fuel) rewritten script in
        ( b,
          match Zipr.Verify.compare_runs ~orig:a ~rewritten:b with
          | Zipr.Verify.Diverged reason -> Some (script, reason)
          | Zipr.Verify.Equivalent | Zipr.Verify.Undecided -> None ))
      scripts orig
  in
  let failures = List.filter_map snd judged in
  let total = List.length scripts in
  ({ total; passed = total - List.length failures; failures }, List.map fst judged)

let functional_check ?fuel ~orig ~rewritten scripts =
  fst (replay ?fuel ~orig:(List.map (run ?fuel orig) scripts) ~rewritten scripts)

type usage = { cycles : int; insns : int; rss_pages : int }

let usage runs =
  List.fold_left
    (fun acc (r : Zvm.Vm.result) ->
      {
        cycles = acc.cycles + r.cycles;
        insns = acc.insns + r.insns;
        rss_pages = max acc.rss_pages r.max_rss_pages;
      })
    { cycles = 0; insns = 0; rss_pages = 0 }
    runs
