(* Scheme-level comparisons on a few real workloads (small but real). *)

open Cwsp_sim
open Cwsp_schemes

let w name = Cwsp_workloads.Registry.find_exn name

let slow name scheme =
  Cwsp_core.Api.slowdown (w name) ~scheme Config.default

let test_baseline_is_one () =
  Alcotest.(check (float 1e-9)) "baseline/baseline" 1.0
    (slow "gobmk" Schemes.baseline)

let test_cwsp_overhead_positive_bounded () =
  List.iter
    (fun name ->
      let s = slow name Schemes.cwsp in
      Alcotest.(check bool) (name ^ " >= 1") true (s >= 1.0);
      Alcotest.(check bool) (name ^ " < 2") true (s < 2.0))
    [ "gobmk"; "lbm"; "radix"; "tatp" ]

let test_ido_worse_than_cwsp () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ ": ido >= cwsp") true
        (slow name Schemes.ido >= slow name Schemes.cwsp -. 0.01))
    [ "radix"; "lbm"; "water-ns" ]

let test_capri_worse_than_cwsp_at_4gb () =
  (* the paper's Fig. 14 claim is suite-level: over write-dense
     applications Capri's 64B redo-buffer persistence loses to cWSP's
     8B persist path at the practical 4GB/s bandwidth *)
  let names = [ "radix"; "water-ns"; "p"; "lu-cg" ] in
  let gm scheme = Cwsp_util.Stats.gmean (List.map (fun n -> slow n scheme) names) in
  let capri = gm Schemes.capri and cwsp = gm Schemes.cwsp in
  Alcotest.(check bool)
    (Printf.sprintf "capri (%.2f) >= cwsp (%.2f) on write-dense gmean" capri cwsp)
    true
    (capri >= cwsp -. 0.01)

let test_replaycache_worst () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ ": replaycache >= capri") true
        (slow name Schemes.replaycache >= slow name Schemes.capri -. 0.05))
    [ "radix"; "water-ns" ]

let test_psp_ideal_bad_on_memory_intensive () =
  (* the whole point of WSP: losing the DRAM cache hurts much more than
     cWSP's persistence machinery (Fig. 18) *)
  List.iter
    (fun name ->
      let psp = slow name Schemes.psp_ideal in
      let cwsp = slow name Schemes.cwsp in
      Alcotest.(check bool)
        (Printf.sprintf "%s: psp(%.2f) > cwsp(%.2f)" name psp cwsp)
        true (psp > cwsp))
    [ "lbm"; "xsbench"; "lulesh" ]

let test_psp_ideal_drops_dram_cache () =
  let cfg = Schemes.psp_ideal.s_reconfig Config.default in
  Alcotest.(check int) "one level fewer"
    (List.length Config.default.levels - 1)
    (List.length cfg.levels)

let test_fig15_stage_ordering () =
  (* stage 1 (no persistence) must be the cheapest; the final stage must
     not exceed the no-pruning stage *)
  let stage n = List.assoc n Schemes.fig15_stages in
  let s name sch = slow name sch in
  List.iter
    (fun name ->
      let s1 = s name (stage "+RegionFormation") in
      let s5 = s name (stage "+WPQDelay") in
      let s6 = s name (stage "+Pruning") in
      Alcotest.(check bool) (name ^ ": stage1 <= stage5") true (s1 <= s5 +. 0.01);
      Alcotest.(check bool) (name ^ ": pruning helps") true (s6 <= s5 +. 0.01))
    [ "radix"; "water-ns"; "bzip2" ]

let test_scheme_binaries_differ () =
  (* cwsp strips checkpoints relative to no-prune *)
  let tr_full = Cwsp_core.Api.trace (w "radix") Cwsp_compiler.Pipeline.cwsp in
  let tr_nop = Cwsp_core.Api.trace (w "radix") Cwsp_compiler.Pipeline.cwsp_no_prune in
  let s_full = Cwsp_ir.Trace.summarize tr_full in
  let s_nop = Cwsp_ir.Trace.summarize tr_nop in
  Alcotest.(check bool) "pruning removed dynamic ckpts" true
    (s_full.ckpts < s_nop.ckpts);
  Alcotest.(check int) "same stores" s_nop.stores s_full.stores

let () =
  Alcotest.run "schemes"
    [
      ( "ordering",
        [
          Alcotest.test_case "baseline = 1" `Quick test_baseline_is_one;
          Alcotest.test_case "cwsp bounded" `Slow test_cwsp_overhead_positive_bounded;
          Alcotest.test_case "ido >= cwsp" `Slow test_ido_worse_than_cwsp;
          Alcotest.test_case "capri >= cwsp" `Slow test_capri_worse_than_cwsp_at_4gb;
          Alcotest.test_case "replaycache worst" `Slow test_replaycache_worst;
          Alcotest.test_case "psp ideal loses" `Slow test_psp_ideal_bad_on_memory_intensive;
          Alcotest.test_case "psp drops DRAM$" `Quick test_psp_ideal_drops_dram_cache;
          Alcotest.test_case "fig15 stages" `Slow test_fig15_stage_ordering;
          Alcotest.test_case "binaries differ" `Slow test_scheme_binaries_differ;
        ] );
    ]
