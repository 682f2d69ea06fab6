(* Tests for the timing simulator: timestamp queues, caches, hierarchy,
   and engine-level monotonicity properties. *)

open Cwsp_sim
open Cwsp_ir

let qtest = QCheck_alcotest.to_alcotest

(* ---- Tsq ---- *)

(* [(admit, completion)] of one push *)
let push q ~ready ~service =
  Tsq.push_u q ~ready ~service;
  ((Tsq.times q).(1), Tsq.last_completion q)

let prop_tsq_fifo_completions_monotone =
  QCheck.Test.make ~name:"Tsq completions non-decreasing" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 50)
           (pair (float_range 0.0 100.0) (float_range 0.1 5.0))))
    (fun (size, items) ->
      let q = Tsq.create ~size in
      let ready = ref 0.0 in
      List.for_all
        (fun (dt, service) ->
          ready := !ready +. dt;
          let prev = Tsq.last_completion q in
          let _, c = push q ~ready:!ready ~service in
          c >= prev)
        items)

let prop_tsq_admit_after_ready =
  QCheck.Test.make ~name:"Tsq admit >= ready" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 50)
           (pair (float_range 0.0 10.0) (float_range 0.1 5.0))))
    (fun (size, items) ->
      let q = Tsq.create ~size in
      let ready = ref 0.0 in
      List.for_all
        (fun (dt, service) ->
          ready := !ready +. dt;
          let a, c = push q ~ready:!ready ~service in
          a >= !ready && c >= a +. service -. 1e-9)
        items)

let test_tsq_backpressure () =
  (* queue of 2 with slow service: the third push must wait *)
  let q = Tsq.create ~size:2 in
  let _, c1 = push q ~ready:0.0 ~service:10.0 in
  let _ = push q ~ready:0.0 ~service:10.0 in
  let a3, _ = push q ~ready:0.0 ~service:10.0 in
  Alcotest.(check (float 1e-9)) "waits for first completion" c1 a3

let test_tsq_occupancy_bounded () =
  let q = Tsq.create ~size:4 in
  for _ = 1 to 20 do
    ignore (push q ~ready:0.0 ~service:100.0)
  done;
  Alcotest.(check bool) "occupancy <= size" true (Tsq.occupancy q ~now:1.0 <= 4)

(* ---- Cache ---- *)

let test_cache_hit_after_fill () =
  let c = Cache.create { cname = "t"; size_bytes = 1024; assoc = 2; hit_ns = 1.0 } in
  Alcotest.(check bool) "first is miss" false (Cache.probe c ~addr:0 ~write:false);
  Alcotest.(check bool) "same line hits" true (Cache.probe c ~addr:8 ~write:false)

let test_cache_dirty_eviction () =
  (* direct-mapped 2-set cache: two lines conflicting in set 0 *)
  let c = Cache.create { cname = "t"; size_bytes = 128; assoc = 1; hit_ns = 1.0 } in
  ignore (Cache.probe c ~addr:0 ~write:true);
  ignore (Cache.probe c ~addr:128 ~write:false);
  Alcotest.(check int) "dirty line evicted" 0 (Cache.last_dirty_evict c)

let test_cache_lru () =
  (* 2-way, 1 set (128B): touch A, B, re-touch A, insert C -> B evicted *)
  let c = Cache.create { cname = "t"; size_bytes = 128; assoc = 2; hit_ns = 1.0 } in
  ignore (Cache.probe c ~addr:0 ~write:true) (* A *);
  ignore (Cache.probe c ~addr:128 ~write:true) (* B *);
  ignore (Cache.probe c ~addr:0 ~write:false) (* refresh A *);
  ignore (Cache.probe c ~addr:256 ~write:false) (* C *);
  Alcotest.(check int) "LRU (B) evicted" 128 (Cache.last_dirty_evict c);
  Alcotest.(check bool) "A survives" true (Cache.probe c ~addr:0 ~write:false)

let test_cache_miss_rate () =
  let c = Cache.create { cname = "t"; size_bytes = 1024; assoc = 2; hit_ns = 1.0 } in
  ignore (Cache.probe c ~addr:0 ~write:false);
  ignore (Cache.probe c ~addr:0 ~write:false);
  Alcotest.(check (float 1e-9)) "1 of 2" 0.5 (Cache.miss_rate c)

(* Differential check of the paged tag store against a reference LRU
   model: per-set lists of (line, dirty), most recent first. Both see
   the same seeded stream of reads, writes and dirty installs; the hit
   flag and dirty-eviction address must agree at every step. Most set
   indices come from a small pool: the first, middle and last sets and
   the sets either side of set [64 * k] for k a power of two, the last
   such k and six random k — so the first and last page boundaries are
   covered for any power-of-two page of >= 64 sets. Tags span assoc + 3
   values per set, so pooled sets overflow and evict. *)
let cache_differential (level : Config.cache_level) ~steps ~seed () =
  let c = Cache.create level in
  let nsets = max 1 (level.size_bytes / (Cache.line_bytes * level.assoc)) in
  let assoc = level.assoc in
  let model : (int, (int * bool) list) Hashtbl.t = Hashtbl.create 64 in
  let hits = ref 0 and total = ref 0 and evictions = ref 0 in
  let ref_probe line ~write =
    let set = line mod nsets in
    let ways = Option.value (Hashtbl.find_opt model set) ~default:[] in
    let hit = List.mem_assoc line ways in
    let dirty = write || (hit && List.assoc line ways) in
    let rest = List.remove_assoc line ways in
    let rest, evicted =
      if hit || List.length rest < assoc then (rest, -1)
      else
        match List.rev rest with
        | (l, d) :: older ->
          (List.rev older, if d then l * Cache.line_bytes else -1)
        | [] -> assert false
    in
    Hashtbl.replace model set ((line, dirty) :: rest);
    incr total;
    if hit then incr hits;
    if evicted >= 0 then incr evictions;
    (hit, evicted)
  in
  let rng = Random.State.make [| seed |] in
  let nb = (nsets - 1) / 64 in
  let boundaries =
    if nb = 0 then []
    else
      List.concat_map
        (fun k -> [ (64 * k) - 1; 64 * k ])
        (List.filter (fun k -> k <= nb) (List.init 20 (fun i -> 1 lsl i))
        @ (nb :: List.init 6 (fun _ -> 1 + Random.State.int rng nb)))
  in
  let pool = Array.of_list ([ 0; nsets - 1; nsets / 2 ] @ boundaries) in
  for step = 1 to steps do
    let set =
      if Random.State.int rng 4 = 0 then Random.State.int rng nsets
      else pool.(Random.State.int rng (Array.length pool))
    in
    let line = (Random.State.int rng (assoc + 3) * nsets) + set in
    let addr = (line * Cache.line_bytes) + Random.State.int rng Cache.line_bytes in
    let kind = Random.State.int rng 3 in
    let write = kind > 0 in
    let hit =
      if kind = 2 then (
        Cache.install_dirty c ~line_addr:(line * Cache.line_bytes);
        None)
      else Some (Cache.probe c ~addr ~write)
    in
    let ref_hit, ref_evict = ref_probe line ~write in
    let what = Printf.sprintf "%s step %d" level.cname step in
    Option.iter (Alcotest.(check bool) (what ^ " hit") ref_hit) hit;
    Alcotest.(check int) (what ^ " dirty evict") ref_evict
      (Cache.last_dirty_evict c)
  done;
  Alcotest.(check bool) "stream evicts dirty lines" true (!evictions > 0);
  Alcotest.(check (float 1e-12)) "miss rate"
    (float_of_int (!total - !hits) /. float_of_int !total)
    (Cache.miss_rate c)

let cache_differential_cases =
  List.map
    (fun ((level : Config.cache_level), seed) ->
      Alcotest.test_case ("differential " ^ level.cname) `Quick
        (cache_differential level ~steps:20_000 ~seed))
    [
      ({ cname = "1-set"; size_bytes = 64 * 4; assoc = 4; hit_ns = 1.0 }, 1);
      (Config.l4, 2);
      (Config.dram_cache, 3);
      ({ cname = "3-set"; size_bytes = 3 * 64 * 2; assoc = 2; hit_ns = 1.0 }, 4);
      ({ cname = "1000-set"; size_bytes = 1000 * 64 * 2; assoc = 2; hit_ns = 1.0 }, 5);
    ]

(* Creating a cache costs O(pages), not O(capacity): a default-platform
   hierarchy (64MB direct-mapped DRAM cache = 1M ways) and the
   multi-core engine's set-up stay far below the 16MB a preallocated
   DRAM-cache tag store costs. *)
let allocated_by f =
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

let test_cache_creation_alloc () =
  let mb = 1024.0 *. 1024.0 in
  let h = allocated_by (fun () -> Hierarchy.create Config.default) in
  Alcotest.(check bool)
    (Printf.sprintf "Hierarchy.create default: %.0f bytes < 1MB" h)
    true (h < mb);
  let traces = Array.init 4 (fun _ -> Trace.create ~capacity:1 ()) in
  let mp = allocated_by (fun () -> Engine_mp.run_traces Config.default `Cwsp traces) in
  Alcotest.(check bool)
    (Printf.sprintf "Engine_mp set-up (4 cores): %.0f bytes < 1MB" mp)
    true (mp < mb)

(* ---- Hierarchy ---- *)

let test_hierarchy_levels () =
  let cfg =
    {
      Config.default with
      levels =
        [
          { cname = "l1"; size_bytes = 128; assoc = 1; hit_ns = 1.0 };
          { cname = "l2"; size_bytes = 1024; assoc = 2; hit_ns = 10.0 };
        ];
    }
  in
  let h = Hierarchy.create cfg in
  let level code = code land Hierarchy.level_mask in
  let c1 = Hierarchy.probe h ~addr:0 ~write:true in
  Alcotest.(check bool) "cold miss reaches memory" true
    (c1 land Hierarchy.from_memory_bit <> 0);
  Alcotest.(check int) "memory is level 2" 2 (level c1);
  Alcotest.(check int) "l1 hit" 0 (level (Hierarchy.probe h ~addr:0 ~write:false));
  (* evict dirty addr 0 from l1 (conflict): the eviction is surfaced,
     and once installed below, addr 0 hits in l2 *)
  let c2 = Hierarchy.probe h ~addr:128 ~write:false in
  Alcotest.(check bool) "dirty l1 eviction" true (c2 land Hierarchy.l1_evict_bit <> 0);
  Alcotest.(check int) "evicted line" 0 h.last_l1_evict;
  Hierarchy.wb_install h ~line_addr:0;
  let c3 = Hierarchy.probe h ~addr:0 ~write:false in
  Alcotest.(check int) "l2 hit" 1 (level c3);
  Alcotest.(check int) "no eviction" (-1) h.last_l1_evict;
  Alcotest.(check int) "nvm reads" 2 h.nvm_reads

(* ---- engine properties over a fixed synthetic trace ---- *)

let synthetic_trace ~stores ~spread =
  let tr = Trace.create () in
  for i = 0 to stores - 1 do
    Trace.push tr (Event.encode Boundary ~payload:0);
    for _ = 1 to 6 do
      Trace.push tr (Event.encode Alu ~payload:0)
    done;
    Trace.push tr (Event.encode Store ~payload:(i * 8 mod spread));
    Trace.push tr (Event.encode Load ~payload:(i * 64 mod spread))
  done;
  tr

let cycles cfg scheme tr = (Engine.run_trace cfg scheme tr).elapsed_ns

let test_baseline_no_persist_stalls () =
  let tr = synthetic_trace ~stores:2000 ~spread:65536 in
  let st = Engine.run_trace Config.default Engine.Baseline tr in
  Alcotest.(check (float 0.0)) "no pb stall" 0.0 st.stall_pb_ns;
  Alcotest.(check (float 0.0)) "no rbt stall" 0.0 st.stall_rbt_ns;
  Alcotest.(check int) "no nvm writes" 0 st.nvm_writes

let test_cwsp_slower_than_baseline () =
  let tr = synthetic_trace ~stores:2000 ~spread:65536 in
  let b = cycles Config.default Engine.Baseline tr in
  let c = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  Alcotest.(check bool) "cwsp >= baseline" true (c >= b)

let test_bandwidth_monotonicity () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let at bw =
    cycles
      { Config.default with path_bandwidth_gbs = bw }
      (Engine.Cwsp Engine.cwsp_full) tr
  in
  Alcotest.(check bool) "1GB/s >= 4GB/s" true (at 1.0 >= at 4.0 -. 1e-6);
  Alcotest.(check bool) "4GB/s >= 32GB/s" true (at 4.0 >= at 32.0 -. 1e-6)

let test_rbt_monotonicity () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let at n =
    cycles { Config.default with rbt_entries = n } (Engine.Cwsp Engine.cwsp_full) tr
  in
  Alcotest.(check bool) "RBT-8 >= RBT-32" true (at 8 >= at 32 -. 1e-6)

let test_wpq_monotonicity () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let at n =
    cycles { Config.default with wpq_entries = n } (Engine.Cwsp Engine.cwsp_full) tr
  in
  Alcotest.(check bool) "WPQ-8 >= WPQ-32" true (at 8 >= at 32 -. 1e-6)

let test_drain_slower_than_speculation () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let spec = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  let drain =
    cycles Config.default
      (Engine.Cwsp
         { Engine.cwsp_full with mc_speculation = false; boundary_drain = true })
      tr
  in
  Alcotest.(check bool) "MC speculation helps" true (drain >= spec)

let test_ido_slower_than_cwsp () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let c = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  let i = cycles Config.default Engine.Ido tr in
  Alcotest.(check bool) "ido >= cwsp" true (i >= c)

let test_storage_bytes () =
  Alcotest.(check int) "paper's 176 bytes" 176 (Engine.storage_bytes ~rbt_entries:16)

let test_deterministic_replay () =
  let tr = synthetic_trace ~stores:1000 ~spread:65536 in
  let a = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  let b = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  Alcotest.(check (float 0.0)) "bit-identical" a b

(* ---- Stats golden ---- *)

(* Every [Stats.t] field, floats as exact hex. *)
let stats_line (s : Stats.t) =
  Printf.sprintf
    "elapsed=%h instrs=%d loads=%d stores=%d ckpts=%d boundaries=%d atomics=%d \
     fences=%d nvm_reads=%d l1miss=%h llcmiss=%h nvm_writes=%d log_writes=%d \
     wpq_hits=%d pb=%h rbt=%h drain=%h sync=%h wb=%h wpq_hit=%h redo=%h \
     wb_occ=%h/%d"
    s.elapsed_ns s.instructions s.loads s.stores s.ckpt_stores s.boundaries
    s.atomics s.fences s.nvm_reads s.l1_miss_rate s.llc_miss_rate s.nvm_writes
    s.log_writes s.wpq_hits s.stall_pb_ns s.stall_rbt_ns s.stall_drain_ns
    s.stall_sync_ns s.stall_wb_ns s.stall_wpq_hit_ns s.stall_redo_ns
    (Cwsp_util.Stats.Acc.mean s.wb_occupancy)
    (Cwsp_util.Stats.Acc.count s.wb_occupancy)

let golden_workloads = [ "lu-ncg"; "fft"; "vacation" ]

let golden_configs =
  [
    ("default", Config.default);
    ("with_l3", Config.with_l3);
    ("psp_no_dram_cache", Config.psp_no_dram_cache);
    ("fig1_levels2", Config.fig1_levels 2);
    ("fig1_levels5", Config.fig1_levels 5);
    ("cxl", Config.cxl Nvm.cxl_a);
  ]

let golden_schemes =
  let open Cwsp_schemes.Schemes in
  [ baseline; cwsp; cwsp_no_prune; cwsp_no_speculation; ido; capri;
    replaycache; psp_ideal; explicit_flush ]
  @ List.map snd fig15_stages

(* One line per (workload, platform, scheme) point, replayed through the
   public [Api.stats] path (scheme reconfiguration included). *)
let golden_lines () =
  Cwsp_core.Api.reset_caches ();
  List.concat_map
    (fun wname ->
      let w = Cwsp_workloads.Registry.find_exn wname in
      List.concat_map
        (fun (cname, cfg) ->
          List.map
            (fun (s : Cwsp_schemes.Schemes.t) ->
              Printf.sprintf "%s %s %s %s" wname cname s.s_name
                (stats_line (Cwsp_core.Api.stats w s cfg)))
            golden_schemes)
        golden_configs)
    golden_workloads

(* [sim_golden.txt] was recorded from the engine before the probe stream
   split; any replay change that moves a bit of any field fails here.
   Set CWSP_SIM_GOLDEN_OUT=<file> to write the current lines there. *)
let test_stats_golden () =
  let lines = golden_lines () in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines))
    (Sys.getenv_opt "CWSP_SIM_GOLDEN_OUT");
  let expected =
    Filename.concat (Filename.dirname Sys.executable_name) "sim_golden.txt"
    |> fun path -> In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "golden points" (List.length expected) (List.length lines);
  List.iter2 (Alcotest.(check string) "stats") expected lines

(* ---- probe streams ---- *)

let registry_trace name cc =
  Cwsp_core.Api.trace (Cwsp_workloads.Registry.find_exn name) cc

let all_schemes = List.map (fun (s : Cwsp_schemes.Schemes.t) -> s.s_engine) golden_schemes

(* Probe outcomes depend on the geometry only: a stream recorded on the
   default platform replays bit-identically on the fig21/fig25/fig27
   points (persist bandwidth, WPQ size, NVM technology) and with other
   level names and hit latencies (Fig. 1's per-level latencies stay per
   point), against a replay that records on the point itself. *)
let test_stream_invariance () =
  let tr = registry_trace "vacation" Cwsp_compiler.Pipeline.cwsp in
  let p = Engine.record_probes Config.default tr in
  let renamed =
    List.map
      (fun (l : Config.cache_level) -> { l with cname = l.cname ^ "'"; hit_ns = 1.5 *. l.hit_ns })
      Config.default.levels
  in
  List.iter
    (fun (what, cfg) ->
      List.iter
        (fun scheme ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s" what (Engine.scheme_name scheme))
            (stats_line (Engine.run_trace cfg scheme tr))
            (stats_line (Engine.replay cfg scheme tr p)))
        all_schemes)
    [
      ("1GB/s", { Config.default with path_bandwidth_gbs = 1.0 });
      ("WPQ-8", { Config.default with wpq_entries = 8 });
      ("STT-RAM", { Config.default with mem = Nvm.sttram });
      ("latencies", { Config.default with levels = renamed });
    ]

(* The memo key is the geometry: platforms differing in anything else
   share one stream; ideal PSP's DRAM$-less hierarchy gets its own. *)
let test_stream_memo_key () =
  let w = Cwsp_workloads.Registry.find_exn "lu-ncg" in
  let cc = Cwsp_compiler.Pipeline.cwsp in
  let probes cfg = Cwsp_core.Api.probes w cc cfg in
  let base = probes Config.default in
  Alcotest.(check bool) "bandwidth + NVM share the stream" true
    (base == probes { Config.default with path_bandwidth_gbs = 1.0; mem = Nvm.reram });
  Alcotest.(check bool) "psp-ideal has its own" false
    (base == probes (Cwsp_schemes.Schemes.psp_ideal.s_reconfig Config.default));
  Alcotest.(check bool) "psp-ideal = no-DRAM$ platform" true
    (probes Config.psp_no_dram_cache
     == probes (Cwsp_schemes.Schemes.psp_ideal.s_reconfig Config.default))

let test_stream_guards () =
  let tr = registry_trace "lu-ncg" Cwsp_compiler.Pipeline.cwsp in
  let other = registry_trace "lu-ncg" Cwsp_compiler.Pipeline.baseline in
  let p = Engine.record_probes Config.default tr in
  let raises what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "other geometry" (fun () ->
      Engine.replay Config.psp_no_dram_cache Engine.Baseline tr p);
  raises "other trace length" (fun () ->
      Engine.replay Config.default Engine.Baseline other p)

let () =
  Alcotest.run "sim"
    [
      ( "tsq",
        [
          qtest prop_tsq_fifo_completions_monotone;
          qtest prop_tsq_admit_after_ready;
          Alcotest.test_case "backpressure" `Quick test_tsq_backpressure;
          Alcotest.test_case "occupancy bounded" `Quick test_tsq_occupancy_bounded;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "dirty eviction" `Quick test_cache_dirty_eviction;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          Alcotest.test_case "creation allocation" `Quick test_cache_creation_alloc;
        ]
        @ cache_differential_cases );
      ("hierarchy", [ Alcotest.test_case "levels" `Quick test_hierarchy_levels ]);
      ( "engine",
        [
          Alcotest.test_case "baseline free" `Quick test_baseline_no_persist_stalls;
          Alcotest.test_case "cwsp >= baseline" `Quick test_cwsp_slower_than_baseline;
          Alcotest.test_case "bandwidth monotone" `Quick test_bandwidth_monotonicity;
          Alcotest.test_case "rbt monotone" `Quick test_rbt_monotonicity;
          Alcotest.test_case "wpq monotone" `Quick test_wpq_monotonicity;
          Alcotest.test_case "speculation helps" `Quick test_drain_slower_than_speculation;
          Alcotest.test_case "ido slower" `Quick test_ido_slower_than_cwsp;
          Alcotest.test_case "rbt storage = 176B" `Quick test_storage_bytes;
          Alcotest.test_case "deterministic" `Quick test_deterministic_replay;
        ] );
      ("golden", [ Alcotest.test_case "stats" `Quick test_stats_golden ]);
      ( "probe stream",
        [
          Alcotest.test_case "geometry invariance" `Quick test_stream_invariance;
          Alcotest.test_case "memo key" `Quick test_stream_memo_key;
          Alcotest.test_case "guards" `Quick test_stream_guards;
        ] );
    ]
