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

(** Wrap a buffer the producer already filled (takes ownership of
    [events]); the decoded core appends into a local array with an
    inlined bounds check and hands the result over wholesale. *)
let of_array events ~len =
  if len < 0 || len > Array.length events then
    invalid_arg "Trace.of_array: bad length";
  { events; len }

(** Structural equality of two traces (same length, same packed events)
    — the decoded-vs-reference oracle's trace check. Returns the index
    of the first difference on failure. *)
let first_diff a b =
  if a.len <> b.len then Some (min a.len b.len)
  else begin
    let i = ref 0 in
    while !i < a.len && a.events.(!i) = b.events.(!i) do incr i done;
    if !i = a.len then None else Some !i
  end

let equal a b = first_diff a b = None

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
