(* The per-layer ledger: busy time, call count and per-call samples of
   the calls the benchmark makes into each layer's public functions,
   plus named counts. Timing happens only when [on] is set (the traced
   run); otherwise [time] is a plain call, so traced and untraced runs
   execute the same code.

   A timed call may contain another (the fuzz campaign contains its
   compiles). Only outermost calls made inside a measured region add to
   [region_busy], so [region_busy] never counts a second twice and the
   untracked rest of a region's wall time is what no layer claims. *)

let on = ref false

type acc = { mutable calls : int; mutable busy : float; mutable samples : float list }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32
let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let depth = ref 0
let in_region = ref false
let region_busy = ref 0.0
let timed_calls = ref 0 (* inside measured regions *)

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; busy = 0.0; samples = [] } in
    Hashtbl.add accs name a;
    a

let record names dt =
  List.iter
    (fun name ->
      let a = acc name in
      a.calls <- a.calls + 1;
      a.busy <- a.busy +. dt;
      a.samples <- dt :: a.samples)
    names

(* [time names f]: run [f], charging its duration to every ledger row in
   [names] (e.g. the layer's total and its per-scheme split). *)
let time names f =
  if not !on then f ()
  else begin
    if !in_region then incr timed_calls;
    incr depth;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let dt = Unix.gettimeofday () -. t0 in
        decr depth;
        record names dt;
        if !depth = 0 && !in_region then region_busy := !region_busy +. dt)
  end

(* [region f]: run [f] as a measured region; returns its result and wall
   seconds. Regions do not nest. *)
let region f =
  in_region := true;
  let t0 = Unix.gettimeofday () in
  let r = Fun.protect f ~finally:(fun () -> in_region := false) in
  (r, Unix.gettimeofday () -. t0)

let add name v =
  if !on then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let set name v = if !on then Hashtbl.replace counts name v

let count name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)
let calls name = Option.fold ~none:0 ~some:(fun a -> a.calls) (Hashtbl.find_opt accs name)
let busy name = Option.fold ~none:0.0 ~some:(fun a -> a.busy) (Hashtbl.find_opt accs name)

(* Per-call percentile in milliseconds; 0 for a layer never called. *)
let p_ms p name =
  match Hashtbl.find_opt accs name with
  | Some { samples = _ :: _ as s; _ } -> 1000. *. Quant.percentile p s
  | _ -> 0.0

(* Seconds one timed call costs the ledger itself: the clock reads and
   the bookkeeping, measured on an empty call outside any region. Needs
   [on]. *)
let calibrate () =
  let n = 20_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    time [ "ledger.calibrate" ] ignore
  done;
  Hashtbl.remove accs "ledger.calibrate";
  (Unix.gettimeofday () -. t0) /. float_of_int n
