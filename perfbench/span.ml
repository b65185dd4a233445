(* Spans recorded by the benchmark around the calls it makes into the
   program. Each span holds its name, parent, start, end and the words
   allocated while it was open ([Gc.quick_stat]: minor + major - promoted).
   Spans stay in memory until [dump]; with tracing off [with_] is a plain
   call. *)

type t = {
  name : string;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

let enabled = ref false
let spans : t array ref = ref [||]
let count = ref 0
let current = ref (-1)

let words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let open_ name =
  let s =
    { name; parent = !current; t0 = Unix.gettimeofday (); t1 = 0.; w0 = words (); w1 = 0. }
  in
  if !count = Array.length !spans then
    spans := Array.append !spans (Array.make (max 64 !count) s);
  !spans.(!count) <- s;
  current := !count;
  incr count;
  s

let close_ s =
  s.w1 <- words ();
  s.t1 <- Unix.gettimeofday ();
  current := s.parent

let with_ name f =
  if not !enabled then f ()
  else begin
    let s = open_ name in
    match f () with
    | v ->
        close_ s;
        v
    | exception e ->
        close_ s;
        raise e
  end

let all () = Array.sub !spans 0 !count
let duration s = s.t1 -. s.t0
let mwords s = (s.w1 -. s.w0) /. 1e6
