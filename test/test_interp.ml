(* Tests for the interpreter: sparse memory, machine semantics, traces. *)

open Cwsp_ir
open Cwsp_interp

let qtest = QCheck_alcotest.to_alcotest

(* ---- memory ---- *)

let test_memory_zero_default () =
  let m = Memory.create () in
  Alcotest.(check int) "untouched reads zero" 0 (Memory.read m 0x1000)

let test_memory_alignment () =
  let m = Memory.create () in
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Memory: unaligned address 0x1001") (fun () ->
      ignore (Memory.read m 0x1001))

let prop_memory_roundtrip =
  QCheck.Test.make ~name:"write-read roundtrip" ~count:300
    QCheck.(pair (int_range 0 100_000) int)
    (fun (word_idx, v) ->
      let m = Memory.create () in
      let addr = word_idx * 8 in
      Memory.write m addr v;
      Memory.read m addr = v)

let prop_memory_writes_isolated =
  QCheck.Test.make ~name:"distinct addresses isolated" ~count:300
    QCheck.(triple (int_range 0 10_000) (int_range 0 10_000) int)
    (fun (a, b, v) ->
      QCheck.assume (a <> b);
      let m = Memory.create () in
      Memory.write m (a * 8) v;
      Memory.read m (b * 8) = 0)

let test_memory_snapshot_isolation () =
  let m = Memory.create () in
  Memory.write m 64 7;
  let s = Memory.snapshot m in
  Memory.write m 64 9;
  Alcotest.(check int) "snapshot unaffected" 7 (Memory.read s 64);
  Alcotest.(check int) "original updated" 9 (Memory.read m 64)

let test_memory_equal_and_diff () =
  let a = Memory.create () and b = Memory.create () in
  Memory.write a 128 5;
  Memory.write b 128 5;
  Alcotest.(check bool) "equal" true (Memory.equal a b);
  (* a zero-valued write materializes a page but stays equal *)
  Memory.write a 8192 0;
  Alcotest.(check bool) "zero page still equal" true (Memory.equal a b);
  Memory.write b 256 1;
  Alcotest.(check bool) "not equal" false (Memory.equal a b);
  match Memory.first_diff a b with
  | Some (addr, av, bv) ->
    Alcotest.(check int) "diff addr" 256 addr;
    Alcotest.(check (pair int int)) "values" (0, 1) (av, bv)
  | None -> Alcotest.fail "expected diff"

(* ---- event encoding ---- *)

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event encode/decode" ~count:500
    QCheck.(pair (int_range 0 6) (int_range 0 (1 lsl 40)))
    (fun (tag, payload) ->
      let kind = Event.kind_of_tag tag in
      let ev = Event.encode kind ~payload in
      Event.kind ev = kind && Event.payload ev = payload)

(* ---- machine programs ---- *)

let build_main ?(globals = []) body =
  let b = Builder.program () in
  List.iter (fun (n, size) -> Builder.global b n ~size ()) globals;
  Builder.func b "main" ~nparams:0 (fun fb ->
      body b fb;
      Builder.ret fb None);
  Builder.set_main b "main";
  Builder.finish b

let test_factorial_recursion () =
  let b = Builder.program () in
  Builder.func b "fact" ~nparams:1 (fun fb ->
      let open Builder in
      let n = param fb 0 in
      let is_zero = cmp fb Eq (Reg n) (Imm 0) in
      let then_l = block fb in
      let else_l = block fb in
      br fb is_zero ~ifso:then_l ~ifnot:else_l;
      switch_to fb then_l;
      ret fb (Some (Imm 1));
      switch_to fb else_l;
      let n1 = sub fb (Reg n) (Imm 1) in
      let r = call fb "fact" [ Reg n1 ] in
      let v = mul fb (Reg n) (Reg r) in
      ret fb (Some (Reg v)));
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let r = call fb "fact" [ Imm 10 ] in
      call_void fb "__out" [ Reg r ];
      ret fb None);
  Builder.set_main b "main";
  let p = Builder.finish b in
  Validate.check_exn p;
  let m = Machine.run_functional p in
  Alcotest.(check (list int)) "10!" [ 3628800 ] (Machine.outputs m)

let test_atomic_semantics () =
  let p =
    build_main ~globals:[ ("cell", 8) ] (fun _b fb ->
        let open Builder in
        let c = la fb "cell" in
        store fb c 0 (Imm 10);
        let old = atomic_rmw fb Types.Add c 0 (Imm 5) in
        call_void fb "__out" [ Reg old ];
        let now = load fb c 0 in
        call_void fb "__out" [ Reg now ];
        let casr = cas fb c 0 ~expected:(Imm 15) ~desired:(Imm 99) in
        call_void fb "__out" [ Reg casr ];
        let final = load fb c 0 in
        call_void fb "__out" [ Reg final ];
        let failed_cas = cas fb c 0 ~expected:(Imm 0) ~desired:(Imm 1) in
        call_void fb "__out" [ Reg failed_cas ];
        let unchanged = load fb c 0 in
        call_void fb "__out" [ Reg unchanged ])
  in
  let m = Machine.run_functional p in
  Alcotest.(check (list int)) "atomic outputs" [ 10; 15; 15; 99; 99; 99 ]
    (Machine.outputs m)

let test_fuel_exhaustion () =
  let b = Builder.program () in
  Builder.func b "main" ~nparams:0 (fun fb ->
      let l = Builder.block fb in
      Builder.jmp fb l;
      Builder.switch_to fb l;
      Builder.jmp fb l);
  Builder.set_main b "main";
  let p = Builder.finish b in
  let m = Machine.create (Machine.link p) in
  Alcotest.check_raises "infinite loop hits fuel" Machine.Fuel_exhausted
    (fun () -> Machine.run ~fuel:1000 m Machine.no_hooks)

let test_deep_recursion_trap () =
  let b = Builder.program () in
  Builder.func b "inf" ~nparams:0 (fun fb ->
      let open Builder in
      let r = call fb "inf" [] in
      ret fb (Some (Reg r)));
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let _ = call fb "inf" [] in
      ret fb None);
  Builder.set_main b "main";
  let p = Builder.finish b in
  let m = Machine.create (Machine.link p) in
  let trapped =
    try
      Machine.run ~fuel:100000 m Machine.no_hooks;
      false
    with Machine.Trap _ -> true
  in
  Alcotest.(check bool) "deep recursion traps" true trapped

let test_trace_summary () =
  let p =
    build_main ~globals:[ ("arr", 128) ] (fun _b fb ->
        let open Builder in
        let a = la fb "arr" in
        store fb a 0 (Imm 1);
        store fb a 8 (Imm 2);
        let _ = load fb a 0 in
        fence fb)
  in
  let _, tr = Machine.trace_of_program p in
  let s = Trace.summarize tr in
  Alcotest.(check int) "stores" 2 s.stores;
  Alcotest.(check int) "loads" 1 s.loads;
  Alcotest.(check int) "fences" 1 s.fences;
  Alcotest.(check int) "no boundaries before compilation" 0 s.boundaries

let test_region_lengths () =
  let tr = Trace.create () in
  List.iter (Trace.push tr)
    [
      Event.encode Alu ~payload:0;
      Event.encode Boundary ~payload:0;
      Event.encode Alu ~payload:0;
      Event.encode Alu ~payload:0;
      Event.encode Boundary ~payload:1;
      Event.encode Alu ~payload:0;
      Event.encode Boundary ~payload:2;
    ];
  Alcotest.(check (list int)) "lengths between boundaries" [ 3; 2 ]
    (Trace.region_lengths tr)

let test_store_hook_old_values () =
  let p =
    build_main ~globals:[ ("x", 8) ] (fun _b fb ->
        let open Builder in
        let x = la fb "x" in
        store fb x 0 (Imm 5);
        store fb x 0 (Imm 9))
  in
  let m = Machine.create (Machine.link p) in
  let olds = ref [] in
  let hooks =
    {
      Machine.on_event = ignore;
      on_store = (fun ~addr:_ ~old ~value:_ -> olds := old :: !olds);
    }
  in
  Machine.run m hooks;
  Alcotest.(check (list int)) "old values observed" [ 5; 0 ] !olds

(* ---- interpreter golden ---- *)

(* Every observable of an interpreter run, one line per (run, thread):
   how it ended, the commit trace (length + MD5 of the packed events),
   the outputs, the step count and the final memory (nonzero words in
   address order). Lines are recorded for failed runs too, so a trap or
   fuel exhaustion must also happen at the same step with the same
   partial state. *)
let md5_ints n get =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (get i))
  done;
  Digest.to_hex (Digest.bytes b)

let memory_digest mem =
  let words = ref [] in
  Memory.iter (fun a v -> words := (a, v) :: !words) mem;
  let words = Array.of_list (List.sort compare !words) in
  md5_ints (2 * Array.length words) (fun i ->
      let a, v = words.(i / 2) in
      if i land 1 = 0 then a else v)

let outcome run =
  match run () with
  | () -> "value"
  | exception Machine.Trap msg -> "trap " ^ msg
  | exception Machine.Fuel_exhausted -> "out-of-fuel"

let golden_line label outcome (m : Machine.t) tr mem =
  let outs = Array.of_list (Machine.outputs m) in
  Printf.sprintf "%s | %s | events=%d:%s | outputs=%d:%s | steps=%d | mem=%s"
    label outcome (Trace.length tr)
    (md5_ints (Trace.length tr) (Trace.get tr))
    (Array.length outs)
    (md5_ints (Array.length outs) (Array.get outs))
    (Machine.steps m) (memory_digest mem)

let single_lines ?fuel label p =
  let m = Machine.create (Machine.link p) in
  let tr = Trace.create () in
  let o =
    outcome (fun () ->
        Machine.run ?fuel m { Machine.no_hooks with on_event = Trace.push tr })
  in
  [ golden_line label o m tr m.mem ]

let spmd_lines ?fuel label p ~threads ~worker =
  let t = Multi.create (Machine.link p) ~threads ~worker in
  let trs = Array.init threads (fun _ -> Trace.create ()) in
  let o =
    outcome (fun () ->
        Multi.run ?fuel t (fun tid ->
            { Machine.no_hooks with on_event = Trace.push trs.(tid) }))
  in
  List.init threads (fun tid ->
      golden_line
        (Printf.sprintf "%s t%d" label tid)
        o t.machines.(tid) trs.(tid) t.mem)

let golden_configs = Cwsp_compiler.Pipeline.[ baseline; cwsp ]

let compile config p = (Cwsp_compiler.Pipeline.compile ~config p).prog
let config_name = Cwsp_compiler.Pipeline.config_name

(* The registry and the parallel workloads under both configurations,
   then generated programs: single-threaded ones compiled both ways at a
   2M-step budget, and raw SPMD ones (racy seeds included: whatever the
   interleaving does, it must keep doing it). Each section's labels start
   with its name, which is how the file is split back into sections. *)
let registry_lines =
  lazy
    (List.concat_map
       (fun (w : Cwsp_workloads.Defs.t) ->
         List.concat_map
           (fun config ->
             single_lines
               (Printf.sprintf "registry %s/%s" w.name (config_name config))
               (compile config (w.build ~scale:1)))
           golden_configs)
       Cwsp_workloads.Registry.all)

let parallel_lines =
  lazy
    (List.concat_map
       (fun (w : Cwsp_workloads.W_parallel.t) ->
         List.concat_map
           (fun threads ->
             List.concat_map
               (fun config ->
                 spmd_lines
                   (Printf.sprintf "parallel %s@%d/%s" w.pname threads
                      (config_name config))
                   (compile config (w.pbuild ~scale:1 ~threads))
                   ~threads ~worker:w.worker)
               golden_configs)
           [ 2; 4 ])
       Cwsp_workloads.W_parallel.all)

let fuzz_lines =
  lazy
    (List.concat_map
       (fun seed ->
         let p = Cwsp_fuzz.Gen.gen_program seed in
         List.concat_map
           (fun config ->
             single_lines ~fuel:2_000_000
               (Printf.sprintf "fuzz %d/%s" seed (config_name config))
               (compile config p))
           golden_configs)
       (List.init 80 succ))

let spmd_fuzz_lines =
  lazy
    (List.concat_map
       (fun seed ->
         let p, kind = Cwsp_fuzz.Gen.gen_spmd_program seed in
         List.concat_map
           (fun threads ->
             spmd_lines ~fuel:2_000_000
               (Printf.sprintf "spmd %d@%d/%s" seed threads
                  (match kind with `Drf -> "drf" | `Racy -> "racy"))
               p ~threads ~worker:"worker")
           [ 2; 3 ])
       (List.init 30 succ))

let golden_sections =
  [
    ("registry", registry_lines);
    ("parallel", parallel_lines);
    ("fuzz", fuzz_lines);
    ("spmd", spmd_fuzz_lines);
  ]

let section_of line = List.hd (String.split_on_char ' ' line)

let golden_file =
  lazy
    (Filename.concat (Filename.dirname Sys.executable_name) "interp_golden.txt"
    |> fun path -> In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> ""))

(* The file was recorded while a second, decoded execution core still
   agreed with [Machine] on every line, so each section is the
   differential check against that reference, now frozen. Any change to
   what [Machine]/[Multi] compute or emit fails here. *)
let check_section name () =
  let lines = Lazy.force (List.assoc name golden_sections) in
  let expected =
    List.filter (fun l -> section_of l = name) (Lazy.force golden_file)
  in
  Alcotest.(check int) (name ^ " runs") (List.length expected)
    (List.length lines);
  List.iter2 (Alcotest.(check string) "run") expected lines

(* The file holds the four sections in order and nothing else. Set
   CWSP_INTERP_GOLDEN_OUT=<file> to write the current lines there. *)
let test_interp_golden () =
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun (_, lines) ->
              List.iter (fun l -> output_string oc (l ^ "\n")) (Lazy.force lines))
            golden_sections))
    (Sys.getenv_opt "CWSP_INTERP_GOLDEN_OUT");
  let order =
    List.fold_left
      (fun acc l ->
        match acc with
        | s :: _ when s = section_of l -> acc
        | _ -> section_of l :: acc)
      [] (Lazy.force golden_file)
  in
  Alcotest.(check (list string)) "sections" (List.map fst golden_sections)
    (List.rev order)

let () =
  Alcotest.run "interp"
    [
      ( "memory",
        [
          Alcotest.test_case "zero default" `Quick test_memory_zero_default;
          Alcotest.test_case "alignment" `Quick test_memory_alignment;
          Alcotest.test_case "snapshot isolation" `Quick test_memory_snapshot_isolation;
          Alcotest.test_case "equal/diff" `Quick test_memory_equal_and_diff;
          qtest prop_memory_roundtrip;
          qtest prop_memory_writes_isolated;
        ] );
      ("event", [ qtest prop_event_roundtrip ]);
      ( "machine",
        [
          Alcotest.test_case "factorial recursion" `Quick test_factorial_recursion;
          Alcotest.test_case "atomics" `Quick test_atomic_semantics;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
          Alcotest.test_case "deep recursion traps" `Quick test_deep_recursion_trap;
          Alcotest.test_case "store hook old values" `Quick test_store_hook_old_values;
        ] );
      ( "trace",
        [
          Alcotest.test_case "summary" `Quick test_trace_summary;
          Alcotest.test_case "region lengths" `Quick test_region_lengths;
        ] );
      ("golden", [ Alcotest.test_case "interpreter runs" `Quick test_interp_golden ]);
      ( "differential",
        [
          Alcotest.test_case "registry identity (all workloads x 2 configs)"
            `Quick (check_section "registry");
          Alcotest.test_case
            "SPMD identity (all parallel workloads x 2 threads x 2 configs)"
            `Quick (check_section "parallel");
          Alcotest.test_case
            "SPMD fuzz differential (30 programs x 2 thread counts)" `Quick
            (check_section "spmd");
          Alcotest.test_case "fuzz differential (80 programs x 2 configs)"
            `Quick (check_section "fuzz");
        ] );
    ]
