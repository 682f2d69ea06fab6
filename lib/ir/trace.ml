(** Growable commit-event traces.

    A trace is produced once per (workload, compile configuration) by the
    functional interpreter and then replayed by every timing configuration
    — the trace/timing split that makes the 2,425 simulation points of the
    benchmark harness affordable (see DESIGN.md §5). *)

type t = {
  mutable events : int array;
  mutable len : int;
}

let create ?(capacity = 4096) () = { events = Array.make capacity 0; len = 0 }

let push t ev =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * Array.length t.events) 0 in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end;
  t.events.(t.len) <- ev;
  t.len <- t.len + 1

let length t = t.len
let get t i = t.events.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

(** Aggregate counts used by workload metadata tests and region stats. *)
type summary = {
  instructions : int;
  loads : int;
  stores : int;     (* data stores, excluding checkpoints *)
  ckpts : int;
  boundaries : int;
  atomics : int;
  fences : int;
}

let summarize t =
  let loads = ref 0 and stores = ref 0 and ckpts = ref 0 in
  let boundaries = ref 0 and atomics = ref 0 and fences = ref 0 in
  iter
    (fun ev ->
      match Event.kind ev with
      | Alu -> ()
      | Load -> incr loads
      | Store -> incr stores
      | Ckpt -> incr ckpts
      | Boundary -> incr boundaries
      | Fence -> incr fences
      | Atomic -> incr atomics
      (* flush/pfence traffic is persist-path plumbing, not one of the
         workload-shape counts this summary feeds *)
      | Flush | Pfence -> ())
    t;
  {
    instructions = t.len;
    loads = !loads;
    stores = !stores;
    ckpts = !ckpts;
    boundaries = !boundaries;
    atomics = !atomics;
    fences = !fences;
  }

(** Dynamic region lengths (instructions between consecutive boundaries),
    for Figure 19. The stretch before the first boundary and after the
    last are excluded, matching how region statistics are defined. *)
let region_lengths t =
  let lens = ref [] in
  let since = ref (-1) in
  let pos = ref 0 in
  iter
    (fun ev ->
      (match Event.kind ev with
      | Boundary ->
        if !since >= 0 then lens := (!pos - !since) :: !lens;
        since := !pos
      | Alu | Load | Store | Ckpt | Fence | Atomic | Flush | Pfence -> ());
      incr pos)
    t;
  List.rev !lens
