(* The repository benchmark. Run from the repository root:

     dune exec --root . perfbench/main.exe -- \
       --workload sweep|fault-campaign|fuzz --seed N --seconds S --trace 0|1
     dune exec --root . perfbench/main.exe -- record > perfbench/golden.txt

   A run sets its workload up many times (the median is [setup_s]),
   then repeats the workload's measured step until [--seconds] of
   measured time have passed, at least once, and reports medians over
   the repetitions. Every output is checked against [golden.txt]. The
   last line of standard output is the result:
   {"correct", "attempted", "failed", "metrics"}; with [--trace 0] the
   metrics are the end-to-end ones, with [--trace 1] the per-layer
   ledger. Scratch files go to a fresh directory under
   [.perfbench-tmp/], removed on exit. See README.md. *)

open Perfbench

let golden_path = "perfbench/golden.txt"
let tmp_root = ".perfbench-tmp"
let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A fresh scratch directory, removed when the process exits. *)
let make_tmp name =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  let dir = Filename.concat tmp_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  if Sys.file_exists dir then rm_rf dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      rm_rf dir;
      if Sys.readdir tmp_root = [||] then Sys.rmdir tmp_root);
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let line =
    List.find_opt (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.)
  | None -> fail "no VmHWM in /proc/self/status"

(* The commit checked out in the working directory, when it is a git
   checkout; read from the files so no process is started. *)
let commit () =
  let git = ".git" in
  match String.trim (read_file (Filename.concat git "HEAD")) with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match String.trim (read_file (Filename.concat git r)) with
    | sha -> sha
    | exception Sys_error _ -> (
      let packed = try read_file (Filename.concat git "packed-refs") with Sys_error _ -> "" in
      match
        List.find_opt (String.ends_with ~suffix:(" " ^ r)) (String.split_on_char '\n' packed)
      with
      | Some l -> List.hd (String.split_on_char ' ' l)
      | None -> "unknown"))
  | sha -> sha

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Set up [n] times; the durations and the last set-up. Set-up steps
   are short, so many samples keep their median steady. *)
let setups n f =
  let runs = List.init n (fun _ -> time f) in
  (List.map snd runs, fst (List.nth runs (n - 1)))

(* Repeat [step] as measured regions until [seconds] have passed, at
   least once. [prepare] gives each repetition its input, outside the
   region; its durations are returned as set-up samples. *)
let repeat ~seconds ~prepare step =
  let rec go reps setup total =
    if reps <> [] && total >= seconds then (List.rev setup, List.rev reps)
    else
      let env, dt = time prepare in
      let r, wall = Ledger.region (fun () -> step env) in
      go ((r, wall) :: reps) (dt :: setup) (total +. wall)
  in
  go [] [] 0.0

type run = {
  setup : float list;  (** set-up durations *)
  reps : (Work.result * float) list;  (** measured steps and their walls *)
}

let sweep ~golden ~seed ~seconds ~tmp =
  let setup, points = setups 21 Work.sweep_setup in
  Ledger.set "core.plan.distinct" (float_of_int (List.length points));
  let _, reps =
    repeat ~seconds ~prepare:ignore (fun () -> Work.sweep_run ~golden ~seed ~tmp points)
  in
  { setup; reps }

let fault_campaign ~golden ~seed ~seconds =
  let setup, targets = setups 9 Work.fault_setup in
  let _, reps = repeat ~seconds ~prepare:ignore (fun () -> Work.fault_run ~seed targets) in
  { setup; reps = List.map (fun (r, w) -> (Work.fault_result ~golden r, w)) reps }

(* Each repetition needs its own corpus (a used one would resume and do
   less work); creating one is the set-up, sampled four times up front
   and once per repetition. *)
let fuzz ~golden ~seconds ~tmp =
  let n = ref 0 in
  let fresh () =
    incr n;
    Work.fuzz_setup (Filename.concat tmp (Printf.sprintf "corpus-%d" !n))
  in
  let setup, _ = setups 4 fresh in
  let more, reps = repeat ~seconds ~prepare:fresh Work.fuzz_run in
  { setup = setup @ more; reps = List.map (fun (o, w) -> (Work.fuzz_result ~golden o, w)) reps }

let workloads = [ "sweep"; "fault-campaign"; "fuzz" ]

(* ---- metrics ---- *)

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let end_to_end run =
  let walls = List.map snd run.reps in
  [
    ("wall_s", "s", Quant.median walls);
    ("setup_s", "s", Quant.median run.setup);
    ( "ops_per_s", "1/s",
      Quant.median (List.map (fun ((r : Work.result), w) -> float_of_int r.ops /. w) run.reps) );
    ("peak_rss_mb", "MB", peak_rss_mb ());
  ]

let per_layer run ~overhead_per_call =
  let open Ledger in
  let wall = sum (List.map snd run.reps) in
  let fi = float_of_int in
  let calls_busy name = [ (name ^ ".count", "count", fi (calls name)); (name ^ ".busy_s", "s", busy name) ] in
  let cache =
    List.concat_map
      (fun (name, (s : Cwsp_core.Store.stats), _) ->
        [ ("core." ^ name ^ ".hits", "count", fi s.hits); ("core." ^ name ^ ".misses", "count", fi s.misses) ])
      (Cwsp_core.Api.cache_stats ())
  in
  let cells = fi (calls "recovery.cell") in
  calls_busy "sim.replay"
  @ [
      ("sim.replay.p50_ms", "ms", p_ms 50. "sim.replay");
      ("sim.replay.p98_ms", "ms", p_ms 98. "sim.replay");
      ("sim.replay.events_per_s", "1/s", ratio (count "sim.replay.events") (busy "sim.replay"));
    ]
  @ List.map
      (fun c -> (Printf.sprintf "sim.replay.%s.busy_s" c, "s", busy ("sim.replay." ^ c)))
      [ "baseline"; "cwsp"; "other" ]
  @ calls_busy "interp.trace"
  @ [
      ("interp.trace.events", "count", count "interp.trace.events");
      ("interp.trace.events_per_s", "1/s", ratio (count "interp.trace.events") (busy "interp.trace"));
    ]
  @ calls_busy "compiler.compile"
  @ [ ("compiler.compile.p50_ms", "ms", p_ms 50. "compiler.compile") ]
  @ [ ("recovery.target.busy_s", "s", busy "recovery.target") ]
  @ calls_busy "recovery.cell"
  @ [
      ("recovery.cell.p50_ms", "ms", p_ms 50. "recovery.cell");
      ("recovery.cell.p98_ms", "ms", p_ms 98. "recovery.cell");
    ]
  @ List.map
      (fun c ->
        let n = "recovery.cell." ^ Cwsp_recovery.Fault.name c in
        (n ^ ".busy_s", "s", busy n))
      Cwsp_recovery.Fault.all
  @ List.map
      (fun o -> ("recovery.outcome." ^ o, "count", count ("recovery.outcome." ^ o)))
      [ "recovered"; "degraded"; "refused"; "escaped"; "masked" ]
  @ [
      ("recovery.injected_frac", "ratio", ratio (count "recovery.injected") cells);
      ("recovery.sweep_points", "count", count "recovery.sweep_points");
      ("core.plan.jobs", "count", count "core.plan.jobs");
      ("core.plan.distinct", "count", count "core.plan.distinct");
    ]
  @ cache
  @ [
      ("experiments.render.busy_s", "s", busy "experiments.render");
      ("experiments.render.recovery_s", "s", busy "experiments.render.recovery");
      ("experiments.render.mp_s", "s", busy "experiments.render.mp");
      ("fuzz.exec.count", "count", count "fuzz.exec.count");
      ("fuzz.discard_frac", "ratio", ratio (count "fuzz.discards") (count "fuzz.exec.count"));
      ("fuzz.corpus", "count", count "fuzz.corpus");
      ("fuzz.cells", "count", count "fuzz.cells");
      ("fuzz.findings", "count", count "fuzz.findings");
      ("fuzz.other_s", "s", busy "fuzz.campaign" -. busy "fuzz.compile");
      ("bench.untracked_s", "s", wall -. !region_busy);
      ("bench.trace_overhead_frac", "ratio", ratio (fi !timed_calls *. overhead_per_call) wall);
    ]

(* ---- output ---- *)

let json_num v =
  if not (Float.is_finite v) then fail "non-finite metric value %f" v;
  Printf.sprintf "%.17g" v

let json_str s = Printf.sprintf "%S" s

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v) (json_str u))
         ms)
  ^ "}"

let record () =
  let golden = Gate.parse "" in
  let tmp = make_tmp "record" in
  let sweep = Work.sweep_run ~golden ~seed:0 ~tmp (Work.sweep_setup ()) in
  let fault = Work.fault_result ~golden (Work.fault_run ~seed:0 (Work.fault_setup ())) in
  let fuzz =
    Work.fuzz_result ~golden (Work.fuzz_run (Work.fuzz_setup (Filename.concat tmp "corpus")))
  in
  let results = [ sweep; fault; fuzz ] in
  if List.exists (fun (r : Work.result) -> r.bugs > 0) results then
    fail "refusing to record: escaped cells or fuzz findings";
  if Work.functional_mismatches () <> [] then fail "refusing to record: functional mismatch";
  print_endline "# perfbench output gate: written by `perfbench/main.exe record`.";
  print_endline "# Rerecord only with a change that means to alter an output, and say so.";
  List.iter
    (fun (r : Work.result) -> List.iter (fun (k, v) -> print_endline (Gate.line k v)) r.outputs)
    results

let bench () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " workloads);
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  orders the workload's independent units of work");
      ("--seconds", Arg.Set_int seconds, "S  measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1  1 reports the per-layer ledger instead");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | main.exe record";
  if not (List.mem !workload workloads) then fail "--workload must be one of %s" (String.concat ", " workloads);
  let seed = match !seed with Some n -> n | None -> fail "--seed N is required" in
  if !seconds <= 0 || (!trace <> 0 && !trace <> 1) then
    fail "--seconds S > 0 and --trace 0|1 are required";
  if not (Sys.file_exists golden_path) then fail "%s not found (run from the repository root)" golden_path;
  let golden = Gate.load golden_path in
  let tmp = make_tmp !workload in
  let seconds = float_of_int !seconds in
  Ledger.on := !trace = 1;
  let overhead_per_call = if !Ledger.on then Ledger.calibrate () else 0.0 in
  let run =
    match !workload with
    | "sweep" -> sweep ~golden ~seed ~seconds ~tmp
    | "fault-campaign" -> fault_campaign ~golden ~seed ~seconds
    | _ -> fuzz ~golden ~seconds ~tmp
  in
  let metrics = if !trace = 1 then per_layer run ~overhead_per_call else end_to_end run in
  (* outside the measured regions: cWSP builds print what baseline builds print *)
  let functional = Work.functional_mismatches () in
  let results = List.map fst run.reps in
  let mismatched =
    List.concat_map
      (fun (r : Work.result) ->
        List.filter_map (fun (k, v) -> if Gate.matches golden k v then None else Some k) r.outputs)
      results
  in
  let attempted = List.fold_left (fun n (r : Work.result) -> n + r.attempted) 0 results in
  let failed = List.fold_left (fun n (r : Work.result) -> n + r.failed) 0 results in
  let correct = mismatched = [] && functional = [] && failed = 0 in
  List.iter (fun (n, u, v) -> Printf.printf "%-36s %18.6f %s\n" n v u) metrics;
  let strs l = "[" ^ String.concat ", " (List.map json_str l) ^ "]" in
  Printf.printf
    "{\"perfbench\": {\"workload\": %s, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \
     \"reps\": %d, \"rep_wall_s\": [%s], \"setup_s\": [%s], \"setup_quartiles_s\": [%s], \
     \"host\": {\"nproc\": %d, \
     \"ocaml\": %s, \"pool_width\": 1, \"commit\": %s, \"workload_seeds\": {\"order\": %d, \
     \"fault_master_seed\": %d, \"fuzz_master_seed\": %d}}, \"gate\": {\"outputs\": %d, \
     \"mismatched\": %s}, \"functional_mismatches\": %s}}\n"
    (json_str !workload) seed seconds !trace (List.length run.reps)
    (String.concat ", " (List.map (fun (_, w) -> json_num w) run.reps))
    (String.concat ", " (List.map json_num run.setup))
    (let q1, q2, q3 = Quant.quartiles run.setup in String.concat ", " (List.map json_num [ q1; q2; q3 ]))
    (Domain.recommended_domain_count ()) (json_str Sys.ocaml_version) (json_str (commit ()))
    seed Work.fault_master_seed
    (Cwsp_fuzz.Campaign.default_params ~dir:"").p_master_seed
    (List.fold_left (fun n (r : Work.result) -> n + List.length r.outputs) 0 results)
    (strs mismatched) (strs functional);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" correct
    attempted failed (metrics_json metrics)

let () =
  match Sys.argv with
  | [| _; "record" |] -> record ()
  | _ -> bench ()
