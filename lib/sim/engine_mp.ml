(** Multi-core timing engine (extension of [Engine] to the paper's 8-core
    platform).

    Each core owns its private L1D, write buffer, persist buffer and RBT;
    the L2 and deeper levels, the memory controllers' WPQs and the
    persist-path bandwidth are shared. Per-thread commit traces (from
    [Cwsp_interp.Multi]) are replayed in global time order: at every step
    the core with the smallest local clock consumes its next event, so
    shared-queue contention is observed in the order a real machine would
    produce it.

    Simplification versus the paper's gem5 runs: no coherence traffic is
    modeled — the PB is coherence-agnostic by design (Section V-A1) and
    the workloads are data-race-free, so coherence misses would add a
    scheme-independent constant to both sides of every ratio.

    Like the single-core engine, the per-event path is allocation-free
    (DESIGN.md §12): per-core timeline floats live in an [Engine.clocks]
    (flat all-float record), cache results travel as packed ints, and
    the shared line-persist table is an [Imap]. *)

open Cwsp_ir

(* Float.max for the NaN-free timestamp domain (ties keep [a]). *)
let[@inline] fmax (a : float) (b : float) = if b > a then b else a

type core = {
  cid : int;
  l1 : Cache.t;
  wb : Tsq.t;
  pb : Engine.pb;
  rbt : Engine.rbt;
  c : Engine.clocks;
  stats : Stats.t;
  trace : Trace.t;
  mutable pos : int;
}

type t = {
  cfg : Config.t;
  shared : Cache.t array; (* L2 and deeper *)
  shared_hit_ns : float array;
  wpqs : Tsq.t array;
  line_persist : Imap.t;
  cores : core array;
  numa_ns : float array; (* per-MC copy of [Config.numa_of_mc] *)
}

let create (cfg : Config.t) (traces : Trace.t array) : t =
  let l1_level, shared_levels =
    match cfg.levels with
    | l1 :: rest -> (l1, rest)
    | [] -> invalid_arg "Engine_mp: empty hierarchy"
  in
  {
    cfg;
    shared = Array.of_list (List.map Cache.create shared_levels);
    shared_hit_ns =
      Array.of_list
        (List.map (fun (l : Config.cache_level) -> l.hit_ns) shared_levels);
    wpqs = Array.init cfg.n_mcs (fun _ -> Tsq.create ~size:cfg.wpq_entries);
    line_persist = Imap.create 4096;
    cores =
      Array.mapi
        (fun cid trace ->
          {
            cid;
            l1 = Cache.create l1_level;
            wb = Tsq.create ~size:cfg.wb_entries;
            pb = Engine.pb_create cfg.pb_entries;
            rbt = Engine.rbt_create cfg.rbt_entries;
            c = Engine.clocks_create ();
            stats = Stats.create ();
            trace;
            pos = 0;
          })
        traces;
    numa_ns = Array.init cfg.n_mcs (fun mc -> Config.numa_of_mc cfg mc);
  }

(* Private L1 then the shared levels. Packed result: bit 0 = L1 hit,
   bit 1 = served by memory, bit 2 = dirty L1 eviction (line address in
   [Cache.last_dirty_evict c.l1]); bits 3+ = shared level index that
   served the access. The caller derives the latency from the code, so
   no float crosses a call boundary. *)
let l1_hit_bit = 1
let from_mem_bit = 2
let l1_evict_bit = 4

let mem_access t (c : core) ~addr ~write =
  let l1_hit = Cache.probe c.l1 ~addr ~write in
  let evict =
    if Cache.last_dirty_evict c.l1 >= 0 then l1_evict_bit else 0
  in
  if l1_hit then l1_hit_bit lor evict
  else begin
    let n = Array.length t.shared in
    (* non-escaping refs compile to registers; a local rec function
       here would allocate a closure per L1 miss *)
    let code = ref (-1) in
    let i = ref 0 in
    while !code < 0 && !i < n do
      let hit = Cache.probe t.shared.(!i) ~addr ~write:false in
      let line = Cache.last_dirty_evict t.shared.(!i) in
      (if line >= 0 && !i + 1 < n then
         Cache.install_dirty t.shared.(!i + 1) ~line_addr:line);
      if hit then code := !i lsl 3 else incr i
    done;
    (if !code < 0 then from_mem_bit else !code) lor evict
  end

(* per-core persist path (Fig. 3b: each core has its own path to the
   MCs); the WPQs and media bandwidth behind them are shared.
   Leaves the core-visible stall in [c.c.pstall]. *)
let persist t (c : core) ~addr ~commit ~logged =
  let cfg = t.cfg in
  let gap = 8.0 /. cfg.path_bandwidth_gbs in
  Engine.pb_admit_send c.pb ~ready:commit ~gap;
  let admit = Array.unsafe_get c.pb.Engine.fs 1
  and send = Array.unsafe_get c.pb.Engine.fs 2 in
  let line = Layout.line_of_addr addr in
  let mc = Config.mc_of_line cfg line in
  let arrive = send +. cfg.path_latency_ns +. Array.unsafe_get t.numa_ns mc in
  let per_entry = 8.0 /. cfg.mem.write_bw_gbs in
  let service = if logged then per_entry *. 1.125 else per_entry in
  let q = t.wpqs.(mc) in
  Tsq.push_u q ~ready:arrive ~service;
  let wpq_admit = Array.unsafe_get (Tsq.times q) 1 in
  Engine.pb_record_free c.pb wpq_admit;
  c.c.all_pm <- fmax c.c.all_pm wpq_admit;
  c.c.region_pm <- fmax c.c.region_pm wpq_admit;
  Imap.put t.line_persist line wpq_admit;
  c.stats.nvm_writes <- c.stats.nvm_writes + 1;
  if logged then c.stats.log_writes <- c.stats.log_writes + 1;
  c.c.pstall <- fmax 0.0 (admit -. commit)

let handle_store t (c : core) ~addr ~is_ckpt ~persisting =
  if is_ckpt then c.stats.ckpt_stores <- c.stats.ckpt_stores + 1
  else c.stats.stores <- c.stats.stores + 1;
  let commit = c.c.now +. t.cfg.cycle_ns in
  c.c.now <- commit;
  let code = mem_access t c ~addr ~write:true in
  (if code land l1_evict_bit <> 0 then begin
     let line = Cache.last_dirty_evict c.l1 in
     let delay_start =
       if persisting then
         fmax c.c.now (Imap.find_def t.line_persist line neg_infinity)
       else c.c.now
     in
     Tsq.push_u c.wb ~ready:delay_start ~service:t.cfg.wb_drain_ns;
     let admit = Array.unsafe_get (Tsq.times c.wb) 1 in
     (if Array.length t.shared > 0 then
        Cache.install_dirty t.shared.(0) ~line_addr:line);
     let stall = fmax 0.0 (admit -. delay_start) in
     c.c.s_wb <- c.c.s_wb +. stall;
     c.c.now <- c.c.now +. stall
   end);
  if persisting then begin
    persist t c ~addr ~commit ~logged:true;
    let stall = c.c.pstall in
    c.c.s_pb <- c.c.s_pb +. stall;
    c.c.now <- c.c.now +. stall
  end

let handle_load t (c : core) ~addr =
  c.stats.loads <- c.stats.loads + 1;
  let code = mem_access t c ~addr ~write:false in
  let lat =
    if code land l1_hit_bit <> 0 then 2.0
    else if code land from_mem_bit <> 0 then t.cfg.mem.read_ns
    else Array.unsafe_get t.shared_hit_ns (code lsr 3)
  in
  let charged = if lat <= 2.0 then lat else lat /. t.cfg.mlp in
  c.c.now <- c.c.now +. t.cfg.cycle_ns +. charged

let step t (c : core) ~persisting =
  let ev = Trace.get c.trace c.pos in
  c.pos <- c.pos + 1;
  let tag = Event.tag ev in
  if tag = Event.tag_alu then c.c.now <- c.c.now +. t.cfg.cycle_ns
  else if tag = Event.tag_load then handle_load t c ~addr:(Event.payload ev)
  else if tag = Event.tag_store then
    handle_store t c ~addr:(Event.payload ev) ~is_ckpt:false ~persisting
  else if tag = Event.tag_ckpt then
    handle_store t c ~addr:(Event.payload ev) ~is_ckpt:true ~persisting
  else if tag = Event.tag_flush || tag = Event.tag_pfence then
    (* the multi-core engine models only the implicit cWSP persist path;
       explicit-persistency hints cost their issue cycle *)
    c.c.now <- c.c.now +. t.cfg.cycle_ns
  else if tag = Event.tag_boundary then begin
    c.stats.boundaries <- c.stats.boundaries + 1;
    if persisting then begin
      let completion = fmax c.c.now c.c.region_pm in
      let stall = Engine.rbt_push c.rbt ~now:c.c.now ~completion in
      c.c.s_rbt <- c.c.s_rbt +. stall;
      c.c.now <- c.c.now +. stall
    end;
    c.c.region_pm <- c.c.now
  end
  else begin
    (* fence or atomic: sync point; drains this core's pending persists *)
    (if tag = Event.tag_atomic then begin
       c.stats.atomics <- c.stats.atomics + 1;
       c.c.now <- c.c.now +. t.cfg.atomic_ns;
       handle_load t c ~addr:(Event.payload ev);
       handle_store t c ~addr:(Event.payload ev) ~is_ckpt:false ~persisting
     end
     else begin
       c.stats.fences <- c.stats.fences + 1;
       c.c.now <- c.c.now +. t.cfg.cycle_ns
     end);
    if persisting then begin
      let stall = fmax 0.0 (c.c.all_pm -. c.c.now) in
      c.c.s_sync <- c.c.s_sync +. stall;
      c.c.now <- c.c.now +. stall
    end
  end

type result = {
  per_core : Stats.t array;
  elapsed_ns : float; (* completion of the slowest core *)
}

(** Replay per-thread traces on an N-core machine. [scheme] is either
    [`Baseline] or [`Cwsp] (the full cWSP hardware). *)
let run_traces (cfg : Config.t) (scheme : [ `Baseline | `Cwsp ])
    (traces : Trace.t array) : result =
  let t = create cfg traces in
  let persisting = scheme = `Cwsp in
  let ncores = Array.length t.cores in
  (* global time order: always advance the core with the smallest clock *)
  let rec loop () =
    let best = ref (-1) in
    for i = 0 to ncores - 1 do
      let c = Array.unsafe_get t.cores i in
      if
        c.pos < Trace.length c.trace
        && (!best < 0 || c.c.Engine.now < t.cores.(!best).c.Engine.now)
      then best := i
    done;
    if !best >= 0 then begin
      step t t.cores.(!best) ~persisting;
      loop ()
    end
  in
  loop ();
  Array.iter
    (fun c ->
      c.stats.instructions <- Trace.length c.trace;
      Engine.clocks_flush c.c c.stats;
      c.stats.l1_miss_rate <- Cache.miss_rate c.l1)
    t.cores;
  {
    per_core = Array.map (fun c -> c.stats) t.cores;
    elapsed_ns =
      Array.fold_left (fun acc c -> fmax acc c.c.Engine.now) 0.0 t.cores;
  }
