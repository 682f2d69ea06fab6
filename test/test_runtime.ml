(* Tests for the IR runtime: allocator, memory ops, LCG, syscall path. *)

open Cwsp_ir
open Cwsp_interp

let run_with_runtime body =
  let b = Builder.program () in
  Cwsp_runtime.Libc.add b;
  Cwsp_runtime.Kernel.add b;
  Builder.global b "scratch" ~size:1024 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      body fb;
      Builder.ret fb None);
  Builder.set_main b "main";
  let p = Builder.finish b in
  Validate.check_exn p;
  Machine.run_functional p

let test_sbrk_monotonic () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let a = call fb "sbrk" [ Imm 32 ] in
        let b' = call fb "sbrk" [ Imm 32 ] in
        call_void fb "__out" [ Reg (sub fb (Reg b') (Reg a)) ])
  in
  Alcotest.(check (list int)) "32 bytes apart" [ 32 ] (Machine.outputs m)

let test_malloc_distinct_blocks () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let a = call fb "malloc" [ Imm 64 ] in
        let b' = call fb "malloc" [ Imm 64 ] in
        let diff = sub fb (Reg b') (Reg a) in
        let ok = cmp fb Types.Ge (Reg diff) (Imm 64) in
        call_void fb "__out" [ Reg ok ];
        (* blocks are usable *)
        store fb a 0 (Imm 11);
        store fb b' 0 (Imm 22);
        let va = load fb a 0 in
        let vb = load fb b' 0 in
        call_void fb "__out" [ Reg va ];
        call_void fb "__out" [ Reg vb ])
  in
  Alcotest.(check (list int)) "separated and usable" [ 1; 11; 22 ]
    (Machine.outputs m)

let test_free_then_reuse () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let a = call fb "malloc" [ Imm 48 ] in
        call_void fb "free" [ Reg a ];
        let b' = call fb "malloc" [ Imm 48 ] in
        (* first-fit must hand the same block back *)
        let same = cmp fb Types.Eq (Reg a) (Reg b') in
        call_void fb "__out" [ Reg same ])
  in
  Alcotest.(check (list int)) "block reused" [ 1 ] (Machine.outputs m)

let test_malloc_split () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let big = call fb "malloc" [ Imm 256 ] in
        call_void fb "free" [ Reg big ];
        (* two small allocations carved from the freed block *)
        let s1 = call fb "malloc" [ Imm 32 ] in
        let s2 = call fb "malloc" [ Imm 32 ] in
        let distinct = cmp fb Types.Ne (Reg s1) (Reg s2) in
        call_void fb "__out" [ Reg distinct ];
        store fb s1 0 (Imm 1);
        store fb s2 0 (Imm 2);
        let v1 = load fb s1 0 in
        let v2 = load fb s2 0 in
        call_void fb "__out" [ Reg (add fb (Reg v1) (Reg v2)) ])
  in
  Alcotest.(check (list int)) "split works" [ 1; 3 ] (Machine.outputs m)

let test_memcpy_memset () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let s = la fb "scratch" in
        let dst = add fb (Reg s) (Imm 512) in
        let _ = call fb "memset" [ Reg s; Imm 7; Imm 64 ] in
        let _ = call fb "memcpy" [ Reg dst; Reg s; Imm 64 ] in
        let v = load fb dst 56 in
        call_void fb "__out" [ Reg v ];
        let untouched = load fb dst 64 in
        call_void fb "__out" [ Reg untouched ])
  in
  Alcotest.(check (list int)) "copied then stops" [ 7; 0 ] (Machine.outputs m)

let test_lcg_deterministic_and_positive () =
  let run () =
    run_with_runtime (fun fb ->
        let open Builder in
        for _ = 1 to 3 do
          let r = call fb "lcg_next" [] in
          call_void fb "__out" [ Reg r ]
        done)
  in
  let a = Machine.outputs (run ()) in
  let b = Machine.outputs (run ()) in
  Alcotest.(check (list int)) "deterministic" a b;
  Alcotest.(check bool) "positive" true (List.for_all (fun x -> x >= 0) a);
  Alcotest.(check bool) "distinct" true
    (List.sort_uniq compare a |> List.length = 3)

let test_syscall_write_read_roundtrip () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let s = la fb "scratch" in
        store fb s 0 (Imm 111);
        store fb s 8 (Imm 222);
        let w =
          call fb "entry_syscall_64"
            [ Imm Cwsp_runtime.Kernel.sys_write_no; Reg s; Imm 2 ]
        in
        call_void fb "__out" [ Reg w ];
        let dst = add fb (Reg s) (Imm 512) in
        let r =
          call fb "entry_syscall_64"
            [ Imm Cwsp_runtime.Kernel.sys_read_no; Reg dst; Imm 2 ]
        in
        call_void fb "__out" [ Reg r ];
        let v0 = load fb dst 0 in
        let v1 = load fb dst 8 in
        call_void fb "__out" [ Reg v0 ];
        call_void fb "__out" [ Reg v1 ])
  in
  Alcotest.(check (list int)) "write/read roundtrip" [ 2; 2; 111; 222 ]
    (Machine.outputs m)

let test_getpid () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let s = la fb "scratch" in
        let r =
          call fb "entry_syscall_64"
            [ Imm Cwsp_runtime.Kernel.sys_getpid_no; Reg s; Imm 0 ]
        in
        call_void fb "__out" [ Reg r ])
  in
  Alcotest.(check (list int)) "pid" [ 4242 ] (Machine.outputs m)

(* the lifted assembly stub (Section IV-D's Remill alternative) behaves
   exactly like the hand-annotated one *)
let test_lifted_entry_equivalent () =
  let m =
    run_with_runtime (fun fb ->
        let open Builder in
        let s = la fb "scratch" in
        store fb s 0 (Imm 7);
        store fb s 8 (Imm 9);
        let a =
          call fb "entry_syscall_64"
            [ Imm Cwsp_runtime.Kernel.sys_write_no; Reg s; Imm 2 ]
        in
        let b' =
          call fb "entry_syscall_64_lifted"
            [ Imm Cwsp_runtime.Kernel.sys_write_no; Reg s; Imm 2 ]
        in
        call_void fb "__out" [ Reg a ];
        call_void fb "__out" [ Reg b' ];
        let p1 =
          call fb "entry_syscall_64_lifted"
            [ Imm Cwsp_runtime.Kernel.sys_getpid_no; Reg s; Imm 0 ]
        in
        call_void fb "__out" [ Reg p1 ])
  in
  Alcotest.(check (list int)) "same results" [ 2; 2; 4242 ] (Machine.outputs m)

(* the lifted stub needs NO manual boundaries: the pipeline forms its
   regions automatically, and power failures inside it recover *)
let test_lifted_entry_regions_and_recovery () =
  let b = Builder.program () in
  Cwsp_runtime.Libc.add b;
  Cwsp_runtime.Kernel.add b;
  Builder.global b "scratch2" ~size:64 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let s = la fb "scratch2" in
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 8) (fun i ->
            store fb s 0 (Reg i);
            let _ =
              call fb "entry_syscall_64_lifted"
                [ Imm Cwsp_runtime.Kernel.sys_write_no; Reg s; Imm 1 ]
            in
            ())
      in
      ret fb None);
  Builder.set_main b "main";
  let compiled =
    Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp
      (Builder.finish b)
  in
  let fn = Prog.func_exn compiled.prog "entry_syscall_64_lifted" in
  Alcotest.(check bool) "regions formed automatically" true
    (Cwsp_idem.Region_form.boundary_count fn >= 2);
  Alcotest.(check (list string)) "no antidependences" []
    (List.map Cwsp_idem.Antidep.pair_to_string (Cwsp_idem.Antidep.violations fn));
  let _, tr = Machine.trace_of_program compiled.prog in
  let total = Cwsp_ir.Trace.length tr in
  for i = 0 to 29 do
    let crash_at = 1 + (i * (total - 2) / 30) in
    match Cwsp_recovery.Harness.validate ~seed:i ~crash_at compiled with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "lifted path crash@%d: %s" crash_at e
  done

(* the manually annotated entry function keeps its boundaries through the
   full compile pipeline *)
let test_entry_manual_boundaries_survive () =
  let b = Builder.program () in
  Cwsp_runtime.Libc.add b;
  Cwsp_runtime.Kernel.add b;
  Builder.func b "main" ~nparams:0 (fun fb -> Builder.ret fb None);
  Builder.set_main b "main";
  let compiled =
    Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp
      (Builder.finish b)
  in
  let fn = Prog.func_exn compiled.prog "entry_syscall_64" in
  Alcotest.(check bool) "at least 3 boundaries" true
    (Cwsp_idem.Region_form.boundary_count fn >= 3)

let () =
  Alcotest.run "runtime"
    [
      ( "libc",
        [
          Alcotest.test_case "sbrk" `Quick test_sbrk_monotonic;
          Alcotest.test_case "malloc distinct" `Quick test_malloc_distinct_blocks;
          Alcotest.test_case "free/reuse" `Quick test_free_then_reuse;
          Alcotest.test_case "split" `Quick test_malloc_split;
          Alcotest.test_case "memcpy/memset" `Quick test_memcpy_memset;
          Alcotest.test_case "lcg" `Quick test_lcg_deterministic_and_positive;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "write/read" `Quick test_syscall_write_read_roundtrip;
          Alcotest.test_case "getpid" `Quick test_getpid;
          Alcotest.test_case "manual boundaries" `Quick test_entry_manual_boundaries_survive;
          Alcotest.test_case "lifted asm equivalent" `Quick test_lifted_entry_equivalent;
          Alcotest.test_case "lifted asm regions+recovery" `Slow
            test_lifted_entry_regions_and_recovery;
        ] );
    ]
