(* The traced run's span store.  Each span records its name, request id,
   parent span, wall-clock interval and the words allocated inside it.
   Spans stay in memory and are written out once, when the run ends. *)

type span = {
  name : string;
  req : int;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  t0 : float;
  a0 : float;
  mutable t1 : float;
  mutable a1 : float;
}

type t = { mutable spans : span array; mutable n : int; mutable open_ : int list }

let create () = { spans = [||]; n = 0; open_ = [] }

let push t s =
  if t.n = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 grown 0 t.n;
    t.spans <- grown
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

let with_span t ~req name f =
  let parent = match t.open_ with i :: _ -> i | [] -> -1 in
  let idx = t.n in
  let a0 = Harness.alloc_words () in
  push t { name; req; parent; t0 = Harness.now (); a0; t1 = 0.0; a1 = 0.0 };
  t.open_ <- idx :: t.open_;
  let close () =
    let s = t.spans.(idx) in
    s.a1 <- Harness.alloc_words ();
    s.t1 <- Harness.now ();
    t.open_ <- List.tl t.open_
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let iter t f =
  for i = 0 to t.n - 1 do
    f i t.spans.(i)
  done

let dur s = s.t1 -. s.t0
let alloc s = s.a1 -. s.a0

(* Total duration and allocation of every span called [name]. *)
let total t name =
  let d = ref 0.0 and a = ref 0.0 in
  iter t (fun _ s ->
      if s.name = name then begin
        d := !d +. dur s;
        a := !a +. alloc s
      end);
  (!d, !a)

(* Summed self time of the spans called [name]: each one's duration
   minus the part its direct children cover. *)
let self_time t name =
  let child = Array.make t.n 0.0 in
  iter t (fun _ s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s);
  let total = ref 0.0 in
  iter t (fun i s -> if s.name = name then total := !total +. dur s -. child.(i));
  !total

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "index\tparent\treq\tname\tstart_us\tend_us\talloc_words\n";
      iter t (fun i s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.0f\t%.0f\t%.0f\n" i s.parent s.req s.name
            (s.t0 *. 1e6) (s.t1 *. 1e6) (alloc s)))
