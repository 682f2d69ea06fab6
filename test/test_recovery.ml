(* End-to-end validation of the recovery protocol (Section VII):
   crash injection at many points, undo-log revert, recovery-slice
   execution, resumption, NVM-state equality — including a negative test
   showing the harness actually detects corruption. *)

open Cwsp_compiler

let compiled_of name =
  Cwsp_core.Api.compiled (Cwsp_workloads.Registry.find_exn name) Pipeline.cwsp

let sweep name ~points =
  let compiled = compiled_of name in
  let tr = Cwsp_core.Api.trace (Cwsp_workloads.Registry.find_exn name) Pipeline.cwsp in
  let total = Cwsp_ir.Trace.length tr in
  let failures = ref [] in
  for i = 0 to points - 1 do
    let crash_at = 1 + (i * (total - 2) / points) in
    match
      Cwsp_recovery.Harness.validate ~seed:(9000 + i) ~crash_at compiled
    with
    | Ok _ -> ()
    | Error e -> failures := Printf.sprintf "@%d: %s" crash_at e :: !failures
  done;
  !failures

let test_sweep name points () =
  Alcotest.(check (list string)) (name ^ " recovery clean") [] (sweep name ~points)

(* early crashes: the program-start and prologue paths *)
let test_early_crashes () =
  let compiled = compiled_of "bzip2" in
  for crash_at = 1 to 40 do
    match Cwsp_recovery.Harness.validate ~seed:crash_at ~crash_at compiled with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "crash@%d: %s" crash_at e
  done

(* repeated seeds vary the persisted subsets at one crash point *)
let test_seed_variation () =
  let compiled = compiled_of "radix" in
  for seed = 0 to 30 do
    match Cwsp_recovery.Harness.validate ~seed ~crash_at:20_000 compiled with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* recovery re-executes only a bounded window of instructions *)
let test_reexecution_bounded () =
  let compiled = compiled_of "water-ns" in
  match Cwsp_recovery.Harness.validate ~seed:5 ~crash_at:30_000 compiled with
  | Ok r ->
    Alcotest.(check bool) "some registers restored" true (r.restored_registers >= 0);
    Alcotest.(check bool) "recovery region near crash" true
      (r.recovery_region > 0)
  | Error e -> Alcotest.fail e

(* NEGATIVE: corrupt one recovery slice; the harness must detect the
   resulting inconsistency for some crash point. This shows the sweep
   above is a real check, not a tautology. *)
let test_corrupted_slice_detected () =
  let compiled = compiled_of "bzip2" in
  (* corrupt every non-empty slice: claim each live-in register is 0xBAD *)
  let corrupted =
    {
      compiled with
      Pipeline.slices =
        Array.map
          (fun slice ->
            List.map (fun (r, _) -> (r, Cwsp_ckpt.Slice.EImm 0xBAD)) slice)
          compiled.Pipeline.slices;
    }
  in
  let tr = Cwsp_core.Api.trace (Cwsp_workloads.Registry.find_exn "bzip2") Pipeline.cwsp in
  let total = Cwsp_ir.Trace.length tr in
  let detected = ref false in
  (try
     for i = 1 to 50 do
       let crash_at = 1 + (i * (total - 2) / 50) in
       match
         Cwsp_recovery.Harness.validate ~seed:i ~crash_at corrupted
       with
       | Ok _ -> ()
       | Error _ ->
         detected := true;
         raise Exit
     done
   with
  | Exit -> ()
  | _ ->
    (* corrupted registers may also trap (bad addresses, stack overflow)
       or hang the re-execution; either way the corruption did not
       silently pass *)
    detected := true);
  Alcotest.(check bool) "corruption detected" true !detected

(* the poison scheme itself: registers not restored by the slice must be
   genuinely dead; stress on the pointer-heavy allocator workload *)
let test_allocator_workload_sweep () =
  Alcotest.(check (list string)) "allocator-heavy recovery clean" []
    (sweep "c" ~points:25)

(* Exactly-once device I/O (Section VIII): a program that emits output
   inside its hot loop; across any crash, released-prefix + regenerated
   output must equal the failure-free stream — validated by the harness
   for every crash point. *)
let test_io_exactly_once () =
  let b = Cwsp_ir.Builder.program () in
  Cwsp_runtime.Libc.add b;
  Cwsp_ir.Builder.global b "iobuf" ~size:512 ();
  Cwsp_ir.Builder.func b "main" ~nparams:0 (fun fb ->
      let open Cwsp_ir.Builder in
      let g = la fb "iobuf" in
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 60) (fun i ->
            let v = load fb (bin fb Add (Reg g) (Reg (bin fb Shl (Reg (bin fb Rem (Reg i) (Imm 64)) ) (Imm 3)))) 0 in
            let w = bin fb Add (Reg v) (Reg i) in
            store fb (bin fb Add (Reg g) (Reg (bin fb Shl (Reg (bin fb Rem (Reg i) (Imm 64))) (Imm 3)))) 0 (Reg w);
            (* device write every iteration *)
            call_void fb "__out" [ Reg w ])
      in
      ret fb None);
  Cwsp_ir.Builder.set_main b "main";
  let prog = Cwsp_ir.Builder.finish b in
  let compiled = Pipeline.compile ~config:Pipeline.cwsp prog in
  let _, tr = Cwsp_interp.Machine.trace_of_program compiled.prog in
  let total = Cwsp_ir.Trace.length tr in
  (* crash at every instruction: the harness checks both NVM state and
     the exactly-once I/O property *)
  let failures = ref [] in
  for crash_at = 1 to total - 2 do
    match Cwsp_recovery.Harness.validate ~seed:crash_at ~crash_at compiled with
    | Ok _ -> ()
    | Error e ->
      if List.length !failures < 3 then
        failures := Printf.sprintf "@%d: %s" crash_at e :: !failures
  done;
  Alcotest.(check (list string)) "I/O exactly-once at every crash point" []
    !failures

(* Crash during recovery: the machine loses power again while
   re-executing after a first failure. Recovery must compose. *)
let test_double_crash () =
  let compiled = compiled_of "bzip2" in
  let tr = Cwsp_core.Api.trace (Cwsp_workloads.Registry.find_exn "bzip2") Pipeline.cwsp in
  let total = Cwsp_ir.Trace.length tr in
  for i = 0 to 19 do
    let c1 = 1 + (i * (total - 2) / 20) in
    (* second failure shortly after resumption — inside or just past the
       re-executed region *)
    List.iter
      (fun c2 ->
        match
          Cwsp_recovery.Harness.validate_chain ~seed:(300 + i)
            ~crash_points:[ c1; c2 ] compiled
        with
        | Ok crashes ->
          Alcotest.(check bool) "at least one crash" true (crashes >= 1)
        | Error e -> Alcotest.failf "c1=%d c2=%d: %s" c1 c2 e)
      [ 3; 17; 120 ]
  done

let test_triple_crash () =
  let compiled = compiled_of "radix" in
  for seed = 0 to 9 do
    match
      Cwsp_recovery.Harness.validate_chain ~seed
        ~crash_points:[ 10_000 + (seed * 1500); 40; 40 ] compiled
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* ---- MC undo-log arrays (Section V-B2) ---- *)

(* The Fig. 10(c) hazard: two speculative regions store to the same
   address. With append-only per-region logs, reverse-chronological
   revert restores the value the oldest unpersisted region must read. *)
let test_mc_logs_fig10c () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  let mem = Cwsp_ir.Memory.create () in
  let addr = 0x2000 in
  (* Rg0 (non-speculative) wrote 100 earlier; NVM holds it *)
  Cwsp_ir.Memory.write mem addr 100;
  (* speculative Rg1 stores 200 (logs old=100), Rg2 stores 300 (logs old=200) *)
  Cwsp_recovery.Mc_logs.log logs ~region:1 ~addr ~old:100 ~value:200;
  Cwsp_ir.Memory.write mem addr 200;
  Cwsp_recovery.Mc_logs.log logs ~region:2 ~addr ~old:200 ~value:300;
  Cwsp_ir.Memory.write mem addr 300;
  (* power failure while Rg0 is the oldest unpersisted region *)
  Cwsp_recovery.Mc_logs.revert_speculative logs ~oldest_unpersisted:0
    ~apply:(fun a old -> Cwsp_ir.Memory.write mem a old);
  Alcotest.(check int) "ld in Rg0 re-reads 100, not 200" 100
    (Cwsp_ir.Memory.read mem addr)

let test_mc_logs_deallocate () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  Cwsp_recovery.Mc_logs.log logs ~region:5 ~addr:0x100 ~old:1 ~value:11;
  Cwsp_recovery.Mc_logs.log logs ~region:5 ~addr:0x200 ~old:2 ~value:22;
  Cwsp_recovery.Mc_logs.log logs ~region:6 ~addr:0x300 ~old:3 ~value:33;
  Alcotest.(check int) "three live" 3 (Cwsp_recovery.Mc_logs.live_entries logs);
  Cwsp_recovery.Mc_logs.deallocate logs ~region:5;
  Alcotest.(check int) "region 5 reclaimed" 1
    (Cwsp_recovery.Mc_logs.live_entries logs);
  Alcotest.(check int) "region 6 intact" 1
    (List.length (Cwsp_recovery.Mc_logs.region_entries logs ~region:6))

let test_mc_logs_revert_excludes_oldest () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  let mem = Cwsp_ir.Memory.create () in
  Cwsp_ir.Memory.write mem 0x100 77 (* R_o's own speculative write *);
  Cwsp_recovery.Mc_logs.log logs ~region:3 ~addr:0x100 ~old:7 ~value:77;
  Cwsp_ir.Memory.write mem 0x200 88;
  Cwsp_recovery.Mc_logs.log logs ~region:4 ~addr:0x200 ~old:8 ~value:88;
  Cwsp_recovery.Mc_logs.revert_speculative logs ~oldest_unpersisted:3
    ~apply:(fun a old -> Cwsp_ir.Memory.write mem a old);
  Alcotest.(check int) "R_o's data store kept (idempotence handles it)" 77
    (Cwsp_ir.Memory.read mem 0x100);
  Alcotest.(check int) "younger region reverted" 8
    (Cwsp_ir.Memory.read mem 0x200)

(* REGRESSION: the recovery-point draw used to be bounded by the window
   instead of the tracked-region count. Right after a boundary step the
   list legitimately holds window+1 regions, so at window=1 the protocol
   could never roll back to the just-closed region. Post-fix, a
   contiguous crash sweep at window=1 must both stay clean and actually
   revert a region at some crash point. *)
let test_window1_rollback_regression () =
  let compiled = compiled_of "lu-ncg" in
  let saw_rollback = ref false in
  for i = 0 to 149 do
    let crash_at = 5_000 + i in
    match
      Cwsp_recovery.Harness.validate ~window:1 ~seed:(800 + i) ~crash_at
        compiled
    with
    | Ok r -> if r.reverted_regions >= 1 then saw_rollback := true
    | Error e -> Alcotest.failf "window=1 crash@%d: %s" crash_at e
  done;
  Alcotest.(check bool) "window=1 selects the just-closed region" true
    !saw_rollback

(* ---- hardened log records: checksums, LSNs, count headers ---- *)

let hardened_logs () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  (* addresses span both MCs (256-byte interleave) *)
  List.iter
    (fun (addr, old, value) ->
      Cwsp_recovery.Mc_logs.log logs ~region:9 ~addr ~old ~value)
    [ (0x100, 1, 2); (0x208, 3, 4); (0x110, 5, 6); (0x218, 7, 8); (0x120, 9, 10) ];
  logs

let test_mc_logs_audit_clean () =
  let au = Cwsp_recovery.Mc_logs.audit_region (hardened_logs ()) ~region:9 in
  Alcotest.(check (list string)) "no structural damage" []
    au.Cwsp_recovery.Mc_logs.au_structural;
  Alcotest.(check int) "no bad records" 0
    (List.length au.Cwsp_recovery.Mc_logs.au_bad)

let test_mc_logs_audit_corruption () =
  let rng = Cwsp_util.Rng.create 4 in
  let detected = ref 0 in
  (* the injector picks a random record/field each time; every single
     corruption must be visible to the audit *)
  for trial = 0 to 19 do
    let logs = hardened_logs () in
    match Cwsp_recovery.Mc_logs.inject_corrupt logs rng ~regions:[ 9 ] with
    | None -> Alcotest.failf "trial %d: nothing to corrupt" trial
    | Some _ ->
      let au = Cwsp_recovery.Mc_logs.audit_region logs ~region:9 in
      if au.Cwsp_recovery.Mc_logs.au_structural <> [] || au.au_bad <> [] then
        incr detected
  done;
  Alcotest.(check int) "every corruption detected" 20 !detected

let test_mc_logs_audit_drop_tail () =
  let rng = Cwsp_util.Rng.create 11 in
  let logs = hardened_logs () in
  (match Cwsp_recovery.Mc_logs.inject_drop_tail logs rng ~regions:[ 9 ] with
  | None -> Alcotest.fail "nothing to drop"
  | Some _ -> ());
  let au = Cwsp_recovery.Mc_logs.audit_region logs ~region:9 in
  Alcotest.(check bool) "count header exposes the dropped tail" true
    (au.Cwsp_recovery.Mc_logs.au_structural <> [])

let test_mc_logs_copy_independent () =
  let logs = hardened_logs () in
  let snap = Cwsp_recovery.Mc_logs.copy logs in
  let rng = Cwsp_util.Rng.create 3 in
  ignore (Cwsp_recovery.Mc_logs.inject_corrupt logs rng ~regions:[ 9 ]);
  let au = Cwsp_recovery.Mc_logs.audit_region snap ~region:9 in
  Alcotest.(check (list string)) "snapshot untouched by later corruption" []
    au.Cwsp_recovery.Mc_logs.au_structural;
  Alcotest.(check int) "snapshot records still verify" 0
    (List.length au.Cwsp_recovery.Mc_logs.au_bad)

(* ---- adversarial fault model ---- *)

let fault_compiled = lazy (compiled_of "lu-ncg")
let fault_golden =
  lazy (Cwsp_recovery.Harness.golden_of (Lazy.force fault_compiled))

(* NEGATIVE corpus: with hardening disabled (blind protocol: trust every
   byte, legacy truncate-first ordering), each fault class must produce
   an observable divergence from the failure-free run for some seed.
   This proves the campaign's oracle sees exactly the damage the
   hardened audits catch — the positive results are not a tautology. *)
let test_blind_diverges cls () =
  let compiled = Lazy.force fault_compiled in
  let golden = Lazy.force fault_golden in
  let diverged = ref false in
  (try
     for seed = 0 to 29 do
       let crash_at = 3_000 + (seed * 1_100) in
       match
         Cwsp_recovery.Harness.validate_fault ~golden ~hardened:false
           ~fault:cls ~seed ~crash_at compiled
       with
       | Ok r ->
         if r.fr_injected <> None && not r.fr_state_ok then begin
           diverged := true;
           raise Exit
         end
       | Error _ ->
         (* the blind protocol wedged outright — also a divergence *)
         diverged := true;
         raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Cwsp_recovery.Fault.name cls ^ " breaks the blind protocol")
    true !diverged

(* POSITIVE: the hardened protocol over the same fault classes — a small
   deterministic campaign must inject real faults, detect them, and
   never let one escape to a wrong committed state. *)
let test_hardened_campaign () =
  let targets =
    [ Cwsp_recovery.Campaign.target ~name:"lu-ncg" (Lazy.force fault_compiled) ]
  in
  let report =
    Cwsp_recovery.Campaign.run ~window:8 ~hardened:true ~master_seed:77
      ~seeds:4 ~classes:Cwsp_recovery.Fault.all targets
  in
  Alcotest.(check (list string)) "zero escaped faults" []
    (List.map
       (fun (c : Cwsp_recovery.Campaign.cell) -> c.c_detail)
       (Cwsp_recovery.Campaign.escaped report));
  let injected =
    List.length
      (List.filter
         (fun (c : Cwsp_recovery.Campaign.cell) -> c.c_injected)
         report.r_cells)
  and detected =
    List.length
      (List.filter
         (fun (c : Cwsp_recovery.Campaign.cell) -> c.c_detected)
         report.r_cells)
  in
  Alcotest.(check bool) "faults were actually injected" true (injected >= 10);
  Alcotest.(check bool) "hardening audits fired" true (detected >= 1);
  (* determinism: the same matrix again is byte-identical *)
  let report2 =
    Cwsp_recovery.Campaign.run ~window:8 ~hardened:true ~master_seed:77
      ~seeds:4 ~classes:Cwsp_recovery.Fault.all targets
  in
  Alcotest.(check string) "campaign is deterministic"
    (Cwsp_recovery.Campaign.to_json report)
    (Cwsp_recovery.Campaign.to_json report2)

(* Crash during recovery: the staged plan is swept — power is cut after
   every prefix of recovery steps, recovery restarts from the surviving
   image, and the final state must still match. Slice instructions must
   be among the swept crash sites. *)
let test_recovery_crash_sweep () =
  let compiled = Lazy.force fault_compiled in
  let golden = Lazy.force fault_golden in
  let points = ref 0 and slice_points = ref 0 in
  for seed = 0 to 7 do
    let crash_at = 4_000 + (seed * 4_000) in
    match
      Cwsp_recovery.Harness.validate_fault ~golden ~hardened:true
        ~fault:Cwsp_recovery.Fault.Recovery_crash ~seed ~crash_at compiled
    with
    | Ok r ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no sweep failures" seed)
        0 r.fr_sweep_failures;
      Alcotest.(check bool) "final state matches" true r.fr_state_ok;
      points := !points + r.fr_sweep_points;
      slice_points := !slice_points + r.fr_sweep_slice_points
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done;
  Alcotest.(check bool) "swept mid-recovery crash sites" true (!points > 0);
  Alcotest.(check bool) "swept recovery-slice instructions" true
    (!slice_points > 0)

let () =
  Alcotest.run "recovery"
    [
      ( "sweeps",
        [
          Alcotest.test_case "bzip2" `Slow (test_sweep "bzip2" 25);
          Alcotest.test_case "radix" `Slow (test_sweep "radix" 25);
          Alcotest.test_case "tatp" `Slow (test_sweep "tatp" 25);
          Alcotest.test_case "xz" `Slow (test_sweep "xz" 25);
          Alcotest.test_case "water-sp" `Slow (test_sweep "water-sp" 25);
          Alcotest.test_case "allocator (c)" `Slow test_allocator_workload_sweep;
          Alcotest.test_case "I/O exactly-once" `Slow test_io_exactly_once;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "early crashes" `Slow test_early_crashes;
          Alcotest.test_case "seed variation" `Slow test_seed_variation;
          Alcotest.test_case "bounded re-execution" `Quick test_reexecution_bounded;
          Alcotest.test_case "corruption detected" `Slow test_corrupted_slice_detected;
          Alcotest.test_case "double crash" `Slow test_double_crash;
          Alcotest.test_case "triple crash" `Slow test_triple_crash;
        ] );
      ( "mc-logs",
        [
          Alcotest.test_case "fig10c overwrite avoidance" `Quick test_mc_logs_fig10c;
          Alcotest.test_case "deallocation" `Quick test_mc_logs_deallocate;
          Alcotest.test_case "oldest excluded" `Quick test_mc_logs_revert_excludes_oldest;
          Alcotest.test_case "audit clean" `Quick test_mc_logs_audit_clean;
          Alcotest.test_case "audit sees corruption" `Quick test_mc_logs_audit_corruption;
          Alcotest.test_case "audit sees dropped tail" `Quick test_mc_logs_audit_drop_tail;
          Alcotest.test_case "copy is independent" `Quick test_mc_logs_copy_independent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "window=1 rollback regression" `Slow
            test_window1_rollback_regression;
          Alcotest.test_case "blind: torn persist diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Torn_persist);
          Alcotest.test_case "blind: dropped tail diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Dropped_tail);
          Alcotest.test_case "blind: log corruption diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Log_corruption);
          Alcotest.test_case "blind: ckpt bit flip diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Ckpt_bitflip);
          Alcotest.test_case "blind: recovery crash diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Recovery_crash);
          Alcotest.test_case "hardened campaign: zero escapes" `Slow
            test_hardened_campaign;
          Alcotest.test_case "recovery-crash sweep" `Slow
            test_recovery_crash_sweep;
        ] );
    ]
