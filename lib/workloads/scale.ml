(* Scale-out corpus: a deterministic stream of varied binaries for the
   1k+ placement benches.  Each index derives its own splitmix stream
   (Rng.derive), so generation order, worker count and corpus size never
   change binary i's bytes — generating 100 or 10_000 yields the same
   first 100 files. *)

module Rng = Zipr_util.Rng

type item = { name : string; binary : Zelf.Binary.t }

(* The class mix leans fragmentation-heavy on purpose: shattered text
   spans are where placement strategies actually differ.  Smooth
   binaries place everything colocated or near-referent no matter the
   strategy, and a bench dominated by them measures nothing. *)
let class_of_draw d =
  if d < 40 then `Frag
  else if d < 60 then `Cgc
  else if d < 75 then `Libc_small
  else if d < 90 then `Apache_small
  else `Pathological

let class_name = function
  | `Frag -> "frag"
  | `Cgc -> "cgc"
  | `Libc_small -> "libc"
  | `Apache_small -> "apache"
  | `Pathological -> "path"

let frag_profile rng =
  {
    Cgc.Cb_gen.n_handlers = Rng.int_in rng 6 12;
    n_helpers = Rng.int_in rng 8 24;
    body_ops = Rng.int_in rng 180 480;
    loop_iters = 40;
    use_jump_table = true;
    n_fptrs = Rng.int_in rng 8 20;
    data_islands = Rng.int_in rng 8 20;
    hidden_funcs = Rng.int_in rng 2 6;
    dense_pair = Rng.bool rng;
    vuln = false;
    vuln_fptr = false;
    pathological = false;
    mem_span = 1024;
    pic = Rng.chance rng 0.25;
  }

let libc_small_profile rng =
  {
    Cgc.Cb_gen.n_handlers = Rng.int_in rng 5 9;
    n_helpers = Rng.int_in rng 20 48;
    body_ops = Rng.int_in rng 90 200;
    loop_iters = 60;
    use_jump_table = true;
    n_fptrs = Rng.int_in rng 6 14;
    data_islands = Rng.int_in rng 3 8;
    hidden_funcs = Rng.int_in rng 1 4;
    dense_pair = Rng.bool rng;
    vuln = false;
    vuln_fptr = false;
    pathological = false;
    mem_span = 1024;
    pic = false;
  }

let apache_small_profile rng =
  {
    Cgc.Cb_gen.n_handlers = Rng.int_in rng 5 9;
    n_helpers = Rng.int_in rng 12 32;
    body_ops = Rng.int_in rng 80 180;
    loop_iters = 60;
    use_jump_table = Rng.bool rng;
    n_fptrs = Rng.int_in rng 4 10;
    data_islands = Rng.int_in rng 1 4;
    hidden_funcs = Rng.int_in rng 0 2;
    dense_pair = false;
    vuln = false;
    vuln_fptr = false;
    pathological = false;
    mem_span = 2048;
    pic = Rng.bool rng;
  }

let pathological_profile rng =
  {
    Cgc.Cb_gen.n_handlers = Rng.int_in rng 6 12;
    n_helpers = Rng.int_in rng 6 16;
    body_ops = Rng.int_in rng 120 320;
    loop_iters = 30;
    use_jump_table = true;
    n_fptrs = Rng.int_in rng 4 12;
    data_islands = Rng.int_in rng 4 10;
    hidden_funcs = Rng.int_in rng 1 3;
    dense_pair = true;
    vuln = false;
    vuln_fptr = false;
    pathological = true;
    mem_span = 512;
    pic = false;
  }

(* The "large" class: libc-like-and-larger bodies (>= 256 KiB of text),
   a separate entry point rather than a new [class_of_draw] arm so the
   existing corpus stream's pinned bytes (and every recorded number
   over them) stay put.  Everything in a large member's text is
   recursively reachable (the jump table publishes every handler, the
   rodata fptr table every fptr target) and nothing in it is data, so
   linear sweep and traversal agree on every byte and the cold build
   takes the validated path.  No helpers: one no handler calls is dead
   code, which reads as Ambiguous. *)
let large_profile rng =
  {
    Cgc.Cb_gen.n_handlers = Rng.int_in rng 40 56;
    n_helpers = 0;
    body_ops = Rng.int_in rng 1800 2400;
    loop_iters = 20;
    use_jump_table = true;
    n_fptrs = Rng.int_in rng 8 16;
    data_islands = 0;
    hidden_funcs = 0;
    dense_pair = false;
    vuln = false;
    vuln_fptr = false;
    pathological = false;
    mem_span = 2048;
    pic = false;
  }

let generate_large ~seed index =
  let item_seed = Rng.derive ~corpus_seed:seed ~index in
  let rng = Rng.create item_seed in
  let binary, _meta = Cgc.Cb_gen.generate ~seed:item_seed (large_profile rng) in
  { name = Printf.sprintf "lg%03d-large.zbf" index; binary }

let generate_one ~seed index =
  let item_seed = Rng.derive ~corpus_seed:seed ~index in
  let rng = Rng.create item_seed in
  let cls = class_of_draw (Rng.int rng 100) in
  let profile =
    match cls with
    | `Frag -> frag_profile rng
    | `Cgc -> Cgc.Corpus.profile_for (Rng.int rng 64) ~master_seed:item_seed
    | `Libc_small -> libc_small_profile rng
    | `Apache_small -> apache_small_profile rng
    | `Pathological -> pathological_profile rng
  in
  let binary, _meta = Cgc.Cb_gen.generate ~seed:item_seed profile in
  { name = Printf.sprintf "sc%04d-%s.zbf" index (class_name cls); binary }

let corpus ?(seed = 1) ~count () = List.init count (generate_one ~seed)
