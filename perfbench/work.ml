(* The three workloads. Each one has a set-up step and a measured step;
   the measured step returns what it produced, and the gate checks it
   outside the measured region. Every workload runs at pool width 1
   and drives the layers through their public functions, timing each
   call in the ledger when tracing is on. *)

open Cwsp_workloads
module Api = Cwsp_core.Api
module Job = Cwsp_core.Job
module Index = Cwsp_experiments.Index
module Pipeline = Cwsp_compiler.Pipeline
module Campaign = Cwsp_recovery.Campaign
module Fault = Cwsp_recovery.Fault
module Fuzz = Cwsp_fuzz.Campaign
module Rng = Cwsp_util.Rng

(* What one measured step did, for the gate and the failure count. *)
type result = {
  ops : int;  (** units of work done: simulation points, cells, execs *)
  attempted : int;  (** operations judged: experiments, cells, execs *)
  failed : int;  (** of those, ones that escaped, found a bug or differ *)
  bugs : int;  (** escaped cells or fuzz findings, whatever the gate says *)
  outputs : (string * string) list;  (** gate key, value; all must match *)
}

(* Fisher-Yates permutation of [0, n) drawn from [seed]: the order in
   which a run executes independent units of work. *)
let permutation seed n =
  let rng = Rng.create seed in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let shuffle seed l =
  let a = Array.of_list l in
  Array.to_list (Array.map (fun i -> a.(i)) (permutation seed (Array.length a)))

(* The first element per key, in order. *)
let dedupe key l =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun x ->
      let k = key x in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    l

(* Run [f] with the process's standard output sent to [path]; returns
   what [f] wrote and [f]'s result. *)
let capture ~path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect f ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
  in
  (In_channel.with_open_bin path In_channel.input_all, r)

(* ---- sweep: the full paper evaluation ---- *)

(* Set-up: every experiment's plan, deduplicated by job key. *)
let sweep_setup () =
  let plan = List.concat_map (fun (x : Index.entry) -> x.eplan ()) Index.all in
  Ledger.set "core.plan.jobs" (float_of_int (List.length plan));
  dedupe Job.key plan

let trace_compile (j : Job.t) =
  match j.spec with Stats { scheme; _ } -> scheme.s_compile | Trace { compile } -> compile

let scheme_class (s : Cwsp_schemes.Schemes.t) =
  if s.s_name = "baseline" || s.s_name = "cwsp" then s.s_name else "other"

(* Measured step: generate each distinct trace (compile, then
   interpret), replay every distinct timing point, then render every
   experiment, capturing its text. [seed] orders the traces and the
   points; results are memoized per key, so the order changes no
   output. *)
let sweep_run ~golden ~seed ~tmp points =
  Api.reset_caches ();
  let points = shuffle seed points in
  let lengths = Hashtbl.create 64 in
  List.iter
    (fun (j : Job.t) ->
      let cc = trace_compile j in
      ignore (Ledger.time [ "compiler.compile" ] (fun () -> Api.compiled ~scale:j.scale j.workload cc));
      let tr = Ledger.time [ "interp.trace" ] (fun () -> Api.trace ~scale:j.scale j.workload cc) in
      let n = float_of_int (Cwsp_ir.Trace.length tr) in
      Ledger.add "interp.trace.events" n;
      Hashtbl.replace lengths (Job.trace_key j) n)
    (dedupe Job.trace_key points);
  List.iter
    (fun (j : Job.t) ->
      match j.spec with
      | Trace _ -> ()
      | Stats { scheme; cfg } ->
        ignore
          (Ledger.time
             [ "sim.replay"; "sim.replay." ^ scheme_class scheme ]
             (fun () -> Api.stats ~scale:j.scale j.workload scheme cfg));
        Ledger.add "sim.replay.events" (Hashtbl.find lengths (Job.trace_key j)))
    points;
  let path = Filename.concat tmp "render.txt" in
  let rendered =
    List.map
      (fun (x : Index.entry) ->
        let text, headline =
          capture ~path (fun () ->
              Ledger.time [ "experiments.render"; "experiments.render." ^ x.id ] x.erender)
        in
        (x.id, Gate.experiment_value ~text ~headline))
      Index.all
  in
  let outputs = List.map (fun (id, v) -> ("sweep/" ^ id, v)) rendered in
  { ops = List.length points; attempted = List.length outputs;
    failed = List.length (List.filter (fun (k, v) -> not (Gate.matches golden k v)) outputs);
    bugs = 0;
    outputs = ("sweep", Gate.digest (String.concat "\n" (List.map snd rendered))) :: outputs }

(* ---- fault-campaign: the default hardened matrix ---- *)

let fault_workloads = [ "lu-ncg"; "fft"; "kmeans"; "vacation"; "bzip2"; "radix"; "tatp"; "xz" ]
let fault_master_seed = 2024
let fault_seeds = 20
let fault_window = 16

(* Set-up: compile each target under the full pipeline and run its
   failure-free golden execution. *)
let fault_setup () =
  List.map
    (fun name ->
      let w = Registry.find_exn name in
      let c =
        Ledger.time [ "compiler.compile" ] (fun () ->
            Pipeline.compile ~config:Pipeline.cwsp (w.build ~scale:1))
      in
      Ledger.time [ "recovery.target" ] (fun () -> Campaign.target ~name c))
    fault_workloads

(* Measured step: the 8 x 5 x 20 matrix. [seed] orders the cells; each
   cell's randomness derives from its matrix position, so the report is
   the same in any order. *)
let fault_run ~seed targets =
  let map f specs =
    let out = Array.make (Array.length specs) None in
    Array.iter
      (fun i ->
        let sp : Campaign.cell_spec = specs.(i) in
        out.(i) <-
          Some (Ledger.time
                  [ "recovery.cell"; "recovery.cell." ^ Fault.name sp.sp_cls ]
                  (fun () -> f sp)))
      (permutation seed (Array.length specs));
    Array.map Option.get out
  in
  Campaign.run ~map ~window:fault_window ~hardened:true ~master_seed:fault_master_seed
    ~seeds:fault_seeds ~classes:Fault.all targets

(* Gate view of a report: the whole JSON report plus each cell's line,
   so a differing cell counts as one failed operation. *)
let fault_result ~golden (report : Campaign.report) =
  let json = Campaign.to_json report in
  let cells =
    List.filter (String.starts_with ~prefix:"{\"workload\"") (String.split_on_char '\n' json)
    |> List.mapi (fun i l -> (Printf.sprintf "fault-campaign/%d" i, Gate.digest l))
  in
  List.iter
    (fun (c : Campaign.cell) ->
      Ledger.add ("recovery.outcome." ^ String.lowercase_ascii (Campaign.outcome_name c.c_outcome)) 1.0;
      if c.c_injected then Ledger.add "recovery.injected" 1.0;
      Ledger.add "recovery.sweep_points" (float_of_int c.c_sweep_points))
    report.r_cells;
  let failed =
    List.fold_left2
      (fun n (c : Campaign.cell) (k, v) ->
        if c.c_outcome = Escaped || not (Gate.matches golden k v) then n + 1 else n)
      0 report.r_cells cells
  in
  let n = List.length report.r_cells in
  { ops = n; attempted = n; failed; bugs = List.length (Campaign.escaped report);
    outputs = ("fault-campaign", Gate.digest json) :: cells }

(* ---- fuzz: the coverage-guided campaign ---- *)

let fuzz_execs = 2048
let fuzz_batch = (Fuzz.default_params ~dir:"").p_batch

let fuzz_campaign ~execs dir =
  let compile cfg p =
    Ledger.time [ "compiler.compile"; "fuzz.compile" ] (fun () ->
        Cwsp_fuzz.Oracle.default_compile cfg p)
  in
  Ledger.time [ "fuzz.campaign" ] (fun () -> Fuzz.run ~compile (Fuzz.default_params ~dir) ~execs)

(* Set-up: create the corpus. A fresh campaign directory and the
   campaign's first batch, whose generated programs seed the corpus;
   returns the directory and the execs done. *)
let fuzz_setup dir = (dir, (fuzz_campaign ~execs:fuzz_batch dir).o_execs)

(* Measured step: resume the campaign to [execs] execs. Campaigns are
   deterministic across resumes, so the report is that of one
   uninterrupted run. *)
let fuzz_run ?(execs = fuzz_execs) (dir, done_) =
  let o = fuzz_campaign ~execs dir in
  Ledger.add "fuzz.exec.count" (float_of_int o.o_execs);
  Ledger.add "fuzz.discards" (float_of_int o.o_discards);
  Ledger.set "fuzz.corpus" (float_of_int o.o_corpus);
  Ledger.set "fuzz.cells" (float_of_int o.o_cells);
  Ledger.set "fuzz.findings" (float_of_int o.o_findings);
  (o, o.o_execs - done_)

let fuzz_result ~golden ((o : Fuzz.outcome), ops) =
  let key = Printf.sprintf "fuzz/%d" fuzz_execs and value = Gate.digest o.o_report in
  let bugs = o.o_findings in
  let failed = if Gate.matches golden key value then bugs else o.o_execs in
  { ops; attempted = o.o_execs; failed; bugs; outputs = [ (key, value) ] }

(* ---- the cWSP-vs-baseline functional check ---- *)

(* Every registry workload built with the full cWSP pipeline must print
   what its uninstrumented build prints. Returns the workloads that do
   not. *)
let functional_mismatches () =
  List.filter_map
    (fun (w : Defs.t) ->
      let p = w.build ~scale:1 in
      let outputs cfg =
        let c = Pipeline.compile ~config:cfg p in
        Cwsp_interp.Machine.outputs (Cwsp_interp.Machine.run_functional c.prog)
      in
      if outputs Pipeline.cwsp = outputs Pipeline.baseline then None else Some w.name)
    Registry.all
