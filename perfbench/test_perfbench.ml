(* Self-tests of the benchmark: its order statistics on known inputs
   (reference values from Python's statistics module), the output gate,
   and the fuzz workload's determinism and resume behaviour. *)

open Perfbench

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)

let test_median () =
  Alcotest.check close "odd" 2.0 (Quant.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Quant.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single" 7.0 (Quant.median [ 7. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50" 50.5 (Quant.percentile 50. xs);
  Alcotest.check close "p98" 98.02 (Quant.percentile 98. xs);
  Alcotest.check close "p0" 1.0 (Quant.percentile 0. xs);
  Alcotest.check close "p100" 100.0 (Quant.percentile 100. xs)

(* statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Quant.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "two samples" (0.75, 1.5, 2.25) (Quant.quartiles [ 2.; 1. ]);
  Alcotest.check triple "unsorted" (1.5, 3.0, 4.5) (Quant.quartiles [ 5.; 1.; 4.; 2.; 3. ])

let test_gate_trips () =
  let text = "fig13 gmean 1.10\n" in
  let g = Gate.parse (Gate.line "sweep/fig13" (Gate.digest text)) in
  Alcotest.(check bool) "same bytes pass" true (Gate.matches g "sweep/fig13" (Gate.digest text));
  for i = 0 to String.length text - 1 do
    let b = Bytes.of_string text in
    Bytes.set b i (Char.chr (Char.code text.[i] lxor 1));
    Alcotest.(check bool)
      (Printf.sprintf "byte %d changed trips" i)
      false
      (Gate.matches g "sweep/fig13" (Gate.digest (Bytes.to_string b)))
  done;
  Alcotest.(check bool) "unrecorded key trips" false (Gate.matches g "sweep/fig14" (Gate.digest text))

(* The committed gate covers every output the workloads check. *)
let test_golden_complete () =
  let g = Gate.load "golden.txt" in
  let has k = Hashtbl.mem g k in
  List.iter
    (fun (x : Cwsp_experiments.Index.entry) ->
      Alcotest.(check bool) ("sweep/" ^ x.id) true (has ("sweep/" ^ x.id)))
    Cwsp_experiments.Index.all;
  Alcotest.(check bool) "sweep" true (has "sweep");
  Alcotest.(check string) "fault report (as fault_campaign --json)"
    "5273b66754595b4dea766cda654444fb" (Hashtbl.find g "fault-campaign");
  for i = 0 to 799 do
    Alcotest.(check bool) "fault cell" true (has (Printf.sprintf "fault-campaign/%d" i))
  done;
  Alcotest.(check bool) "fuzz" true (has (Printf.sprintf "fuzz/%d" Work.fuzz_execs))

let clean name =
  if Sys.file_exists name then ignore (Sys.command ("rm -rf " ^ Filename.quote name));
  name

let fresh name = Work.fuzz_setup (clean name)

(* Two runs give identical reports; a set-up corpus resumed to N execs
   reports what one uninterrupted N-exec campaign reports; a used
   directory resumes with nothing left to do. *)
let test_fuzz_deterministic () =
  let execs = 2 * Work.fuzz_batch in
  let a, ops = Work.fuzz_run ~execs (fresh "fuzz-a") in
  let b, _ = Work.fuzz_run ~execs (fresh "fuzz-b") in
  Alcotest.(check int) "execs" execs a.o_execs;
  Alcotest.(check int) "measured execs" Work.fuzz_batch ops;
  Alcotest.(check int) "no findings" 0 a.o_findings;
  Alcotest.(check string) "identical reports" a.o_report b.o_report;
  let whole, _ = Work.fuzz_run ~execs (clean "fuzz-c", 0) in
  Alcotest.(check string) "resumed = uninterrupted" whole.o_report a.o_report;
  let again, ops = Work.fuzz_run ~execs ("fuzz-a", execs) in
  Alcotest.(check string) "used directory" a.o_report again.o_report;
  Alcotest.(check int) "nothing left to do" 0 ops;
  Alcotest.(check int) "no new coverage" 0 again.o_new_cells;
  List.iter (fun d -> ignore (clean d)) [ "fuzz-a"; "fuzz-b"; "fuzz-c" ]

let test_permutation () =
  let p = Work.permutation 7 100 in
  Alcotest.(check (array int)) "same seed" p (Work.permutation 7 100);
  let s = Array.copy p in
  Array.sort compare s;
  Alcotest.(check (array int)) "a permutation" (Array.init 100 Fun.id) s

let () =
  Alcotest.run "perfbench"
    [
      ( "quant",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "gate",
        [
          Alcotest.test_case "one-byte change trips" `Quick test_gate_trips;
          Alcotest.test_case "golden complete" `Quick test_golden_complete;
        ] );
      ( "work",
        [
          Alcotest.test_case "fuzz deterministic, resumes" `Quick test_fuzz_deterministic;
          Alcotest.test_case "permutation" `Quick test_permutation;
        ] );
    ]
