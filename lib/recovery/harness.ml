(** Power-failure injection and the cWSP recovery protocol (Section VII) —
    the validation the paper explicitly leaves as future work ("No Power
    Failure Recovery Test", Section VIII).

    The harness executes a compiled program while maintaining exactly the
    state the cWSP hardware keeps:

    - per-region undo logs at the memory controllers (here: (addr, old)
      pairs tagged with the dynamic region index);
    - the register checkpoints, which are ordinary stores to the NVM
      checkpoint area made by the program itself;
    - the recovery-slice table produced by the compiler.

    At a random instruction it "cuts power": it picks the oldest
    unpersisted region R_o within the RBT window, reverts all speculative
    NVM updates of younger regions with the undo logs, un-persists a
    random per-MC FIFO prefix-complement of R_o's own stores (stores to
    the same location always target the same MC, so per-location
    visibility is a prefix — matching real persist-path FIFOs), reverts
    R_o's checkpoint-area stores, and then runs the recovery protocol:
    evaluate R_o's recovery slice to restore its live-in registers
    (every other register is poisoned to catch liveness bugs) and resume
    execution from R_o's entry. Crash consistency holds iff the final NVM
    state equals a failure-free run's.

    Call frames *below* the recovery point are restored from the boundary
    snapshot: they model the NVM-resident stack (spilled registers and
    return addresses live in ordinary persistent memory on a real
    machine; our IR keeps them in interpreter frames). *)

open Cwsp_ir
open Cwsp_interp
module Obs = Cwsp_obs.Obs
module Recorder = Cwsp_flight.Recorder

let poison = 0x5F5F5F5F

(* Flight-recorder event codes, routed through [Obs.record] so the sites
   stay a single no-op branch when no recorder is installed. *)
let k_boundary = Recorder.kind_code Recorder.Boundary
let k_telemetry = Recorder.kind_code Recorder.Telemetry

(* CWSP_FLIGHT=1 turns the flight recorder on for every experiment in
   the process — the CI switch for proving recorder-on runs match the
   recorder-off goldens and perf baselines. Read once at startup. *)
let flight_env = Sys.getenv_opt "CWSP_FLIGHT" = Some "1"

(* [Fault.cls] codes as the ring records them ([Recorder.fault_name]). *)
let fault_code = function
  | Fault.Torn_persist -> 1
  | Fault.Dropped_tail -> 2
  | Fault.Log_corruption -> 3
  | Fault.Ckpt_bitflip -> 4
  | Fault.Recovery_crash -> 5

type region_record = {
  region_index : int;
  static_id : int;       (* global boundary id that opened this region;
                            -1 for region 0 (program start); -2 for the
                            resume point of a post-recovery execution *)
  frames : Machine.frame list; (* snapshot at region entry *)
  depth : int;
  outputs_at_entry : int;
    (* device outputs produced before this region started: the I/O
       released once every earlier region persisted ([Io_buffer]) *)
  mutable has_sync : bool;
    (* an atomic committed inside this region. Sync primitives persist
       synchronously with their trailing checkpoints as one
       failure-atomic unit (the MC's failure-atomic logging, Fig. 10b):
       crash-wise the unit is all-or-nothing *)
}

type tracked = {
  machine : Machine.t;
  compiled : Cwsp_compiler.Pipeline.compiled;
  window : int; (* RBT size: max concurrently-unpersisted regions *)
  io : Io_buffer.t;  (* region-buffered device I/O (Section VIII) *)
  logs : Mc_logs.t;  (* per-MC per-region undo-log arrays (Section V-B2) *)
  slot_sums : (int, int) Hashtbl.t;
    (* MC-side shadow metadata for the checkpoint area: slot address ->
       checksum of its current value, updated atomically with each slot
       persist. Recovery audits slice inputs against it (absent = zero) *)
  mutable regions : region_record list; (* newest first, length <= window+1 *)
  mutable region_count : int;
  mutable sync_floor : int;
    (* highest *closed* region that contained a sync primitive: stores
       prior to a committed atomic are persisted before it commits
       (Section VIII), so the recovery point can never move at or before
       such a region *)
}

let copy_frame (fr : Machine.frame) = { fr with regs = Array.copy fr.regs }

let make_tracked ~window ~compiled ~machine ~region0 =
  let t =
    {
      machine;
      compiled;
      window;
      io = Io_buffer.create ();
      logs = Mc_logs.create ~n_mcs:2;
      slot_sums = Hashtbl.create 64;
      regions = [];
      region_count = 0;
      sync_floor = -1;
    }
  in
  t.regions <- [ region0 ];
  t

let create ?(window = 16) (compiled : Cwsp_compiler.Pipeline.compiled) =
  let linked = Machine.link compiled.prog in
  let machine = Machine.create linked in
  make_tracked ~window ~compiled ~machine
    ~region0:
      { region_index = 0; static_id = -1; frames = []; depth = 0;
        outputs_at_entry = 0; has_sync = false }

(** Track a machine that is itself resuming after a recovery: crashes
    before its first boundary roll back to the resume point (whose
    registers the previous recovery already restored), not to program
    start. Enables crash-during-recovery validation. *)
let create_resumed ?(window = 16) (compiled : Cwsp_compiler.Pipeline.compiled)
    (machine : Machine.t) =
  make_tracked ~window ~compiled ~machine
    ~region0:
      { region_index = 0; static_id = -2;
        frames = List.map copy_frame machine.frames; depth = machine.depth;
        outputs_at_entry = 0; has_sync = false }

let current_region t = List.hd t.regions

let on_boundary t static_id =
  (* closing a region that contained a sync primitive seals it: the drain
     semantics of Section VIII guarantee everything up to and including
     it is persistent *)
  let closed_sync =
    let cur = current_region t in
    if cur.has_sync then t.sync_floor <- cur.region_index;
    cur.has_sync
  in
  (* flight recorder: a boundary commit plus persist-path telemetry.
     [Obs.record] is a single no-op branch unless a recorder sink is
     installed (validate_fault ~flight:true), so untraced runs pay two
     dead branches per region boundary. *)
  let live = Mc_logs.live_entries t.logs in
  Obs.record k_boundary t.machine.steps static_id live
    (if closed_sync then 1 else 0);
  Obs.record k_telemetry (List.length t.regions) live t.sync_floor
    (Hashtbl.length t.slot_sums);
  (* regions falling out of the tracking window are treated as persisted
     (non-speculative): the MCs reclaim their log arrays, exactly the
     hardware's deallocation protocol *)
  let rec trim n = function
    | [] -> []
    | x :: rest ->
      if n = 0 then begin
        List.iter
          (fun (r : region_record) ->
            Mc_logs.deallocate t.logs ~region:r.region_index)
          (x :: rest);
        []
      end
      else x :: trim (n - 1) rest
  in
  t.region_count <- t.region_count + 1;
  Io_buffer.on_region_start t.io ~region_index:t.region_count
    ~total_outputs:(List.length t.machine.outputs);
  let snapshot = List.map copy_frame t.machine.frames in
  t.regions <-
    {
      region_index = t.region_count;
      static_id;
      frames = snapshot;
      depth = t.machine.depth;
      outputs_at_entry = List.length t.machine.outputs;
      has_sync = false;
    }
    :: trim t.window t.regions

let hooks t : Machine.hooks =
  {
    on_event =
      (fun ev ->
        let tag = Event.tag ev in
        if tag = Event.tag_boundary then on_boundary t (Event.payload ev)
        else if tag = Event.tag_atomic then (current_region t).has_sync <- true);
    on_store =
      (fun ~addr ~old ~value ->
        (* every speculative store is undo-logged on arrival at its MC *)
        Mc_logs.log t.logs ~region:(current_region t).region_index ~addr ~old
          ~value;
        if Layout.is_ckpt_addr addr then
          Hashtbl.replace t.slot_sums addr (Fault.value_sum value));
  }

(** Run for [steps] instructions (or to completion). Returns [true] if the
    program halted before the budget. *)
let run_until t steps =
  let h = hooks t in
  let target = t.machine.steps + steps in
  while t.machine.status = Machine.Running && t.machine.steps < target do
    Machine.step t.machine h
  done;
  t.machine.status = Machine.Halted

(* ---- crash-state construction ---- *)

let revert_ckpt_stores mem entries =
  List.iter
    (fun (e : Mc_logs.entry) ->
      if Layout.is_ckpt_addr e.e_addr then Memory.write mem e.e_addr e.e_old)
    entries

(* Un-persist a random per-MC suffix of the oldest unpersisted region's
   data stores. Entries come newest-first per MC, so a per-MC *suffix*
   in program order is a per-MC *prefix* of the reversed lists. *)
let revert_partial rng mem (entries : Mc_logs.entry list) ~n_mcs =
  let mc_of addr = (addr lsr 8) mod n_mcs in
  (* how many of each MC's stores persisted (in program order) *)
  let per_mc_total = Array.make n_mcs 0 in
  List.iter
    (fun (e : Mc_logs.entry) ->
      if not (Layout.is_ckpt_addr e.e_addr) then
        per_mc_total.(mc_of e.e_addr) <- per_mc_total.(mc_of e.e_addr) + 1)
    entries;
  let persisted_prefix =
    Array.map (fun n -> if n = 0 then 0 else Cwsp_util.Rng.int rng (n + 1)) per_mc_total
  in
  let seen_from_end = Array.make n_mcs 0 in
  List.iter
    (fun (e : Mc_logs.entry) ->
      if not (Layout.is_ckpt_addr e.e_addr) then begin
        let mc = mc_of e.e_addr in
        let pos_from_start = per_mc_total.(mc) - seen_from_end.(mc) in
        seen_from_end.(mc) <- seen_from_end.(mc) + 1;
        if pos_from_start > persisted_prefix.(mc) then
          Memory.write mem e.e_addr e.e_old
      end)
    entries

type crash_report = {
  crash_step : int;
  recovery_region : int;      (* dynamic index of the oldest unpersisted region *)
  reverted_regions : int;
  reexecuted_instructions : int; (* instructions between recovery point and crash *)
  restored_registers : int;
  released_outputs : int list;
    (* device I/O already released at the crash (Section VIII: the redo
       buffers of persisted regions were flushed); oldest first *)
}

(** Cut power now, build the surviving NVM state, run the recovery
    protocol, and return a machine resumed at the recovery point plus a
    report. [rng] drives which regions/stores are treated as persisted. *)
let crash_and_recover ?(n_mcs = 2) rng (t : tracked) :
    Machine.t * crash_report =
  let crash_step = t.machine.steps in
  let mem = Memory.snapshot t.machine.mem in
  (* choose the oldest unpersisted region within the window; never at or
     before a closed sync region (its commit drained everything older) *)
  let eligible =
    List.length
      (List.filter
         (fun (r : region_record) -> r.region_index > t.sync_floor)
         t.regions)
  in
  let avail = max 1 eligible in
  (* every eligible tracked region is a legal recovery point. (The bound
     used to be [min avail t.window], which could never select the oldest
     tracked region: right after a boundary step the list legitimately
     holds window+1 regions, so a crash landing exactly on a region
     boundary silently skipped the just-closed region — and at window=1
     no rollback ever happened at all.) *)
  let back = Cwsp_util.Rng.int rng avail in
  (* regions list is newest first: element [back] is R_o *)
  let younger = List.filteri (fun i _ -> i < back) t.regions in
  let r_o = List.nth t.regions back in
  let r_o_entries = Mc_logs.region_entries t.logs ~region:r_o.region_index in
  (* 1. revert speculative NVM updates of younger regions: the MCs replay
     their per-region log arrays in reverse chronological order *)
  Mc_logs.revert_speculative t.logs ~oldest_unpersisted:r_o.region_index
    ~apply:(fun addr old -> Memory.write mem addr old);
  (* 2. un-persist R_o's own stores: a random per-MC FIFO suffix for
     ordinary regions; everything for a still-open sync region (the
     atomic + trailing checkpoints are one failure-atomic unit that did
     not complete) *)
  if r_o.has_sync then
    List.iter
      (fun (e : Mc_logs.entry) -> Memory.write mem e.e_addr e.e_old)
      r_o_entries
  else revert_partial rng mem r_o_entries ~n_mcs;
  (* 3. checkpoint-area stores of unpersisted regions are reverted too:
     the recovery slice must see the slots as of R_o's entry *)
  revert_ckpt_stores mem r_o_entries;
  let linked = t.machine.linked in
  (* I/O of persisted regions was released to the device; the rest was
     still buffered and is discarded with the crash *)
  let released_outputs =
    let n = Io_buffer.released t.io ~oldest_unpersisted:r_o.region_index in
    assert (n = r_o.outputs_at_entry);
    let all = List.rev t.machine.outputs in
    List.filteri (fun i _ -> i < n) all
  in
  if r_o.static_id = -2 then begin
    (* crash before the first boundary of a post-recovery execution:
       roll back to the resume point (registers were restored by the
       previous recovery and live in the snapshot) *)
    let m =
      Machine.resume linked ~mem
        ~frames:(`Frames (List.map copy_frame r_o.frames))
        ~depth:r_o.depth
    in
    ( m,
      {
        crash_step;
        recovery_region = 0;
        reverted_regions = List.length younger;
        reexecuted_instructions = crash_step;
        restored_registers = 0;
        released_outputs;
      } )
  end
  else if r_o.static_id < 0 then begin
    (* crash before the first boundary: restart the program from scratch
       on the surviving memory *)
    let m = Machine.resume linked ~mem ~frames:`Fresh ~depth:0 in
    ( m,
      {
        crash_step;
        recovery_region = 0;
        reverted_regions = List.length younger;
        reexecuted_instructions = crash_step;
        restored_registers = 0;
        released_outputs;
      } )
  end
  else begin
    (* 4. recovery slice: restore R_o's live-in registers *)
    let slice = t.compiled.slices.(r_o.static_id) in
    let frames = List.map copy_frame r_o.frames in
    let fr = List.hd frames in
    Array.fill fr.regs 0 (Array.length fr.regs) poison;
    let slot r2 = Memory.read mem (Layout.ckpt_slot ~tid:0 ~depth:r_o.depth r2) in
    let addr_of g =
      match Hashtbl.find_opt linked.global_addr g with
      | Some a -> a
      | None -> failwith ("recovery slice references unknown global " ^ g)
    in
    List.iter
      (fun (r, expr) -> fr.regs.(r) <- Cwsp_ckpt.Slice.eval ~slot ~addr_of expr)
      slice;
    let m = Machine.resume linked ~mem ~frames:(`Frames frames) ~depth:r_o.depth in
    ( m,
      {
        crash_step;
        recovery_region = r_o.region_index;
        reverted_regions = List.length younger;
        reexecuted_instructions = crash_step - 0;
        restored_registers = List.length slice;
        released_outputs;
      } )
  end

(** Full experiment: run [compiled] to completion twice — once undisturbed
    (golden) and once with a power failure at [crash_at] instructions —
    and compare the final NVM states. Returns [Ok report] on bitwise
    equality. *)
let validate ?(window = 16) ?(n_mcs = 2) ~seed ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) :
    (crash_report, string) result =
  let rng = Cwsp_util.Rng.create seed in
  (* golden run *)
  let golden = Machine.create (Machine.link compiled.prog) in
  Machine.run golden Machine.no_hooks;
  (* crashing run *)
  let t = create ~window compiled in
  let halted = run_until t crash_at in
  if halted then Error "program halted before the crash point"
  else begin
    let recovered, report = crash_and_recover ~n_mcs rng t in
    (* a recovered run that never halts is a divergence to report, not a
       hang: allow a generous multiple of the failure-free step count *)
    let fuel = (4 * golden.steps) + 10_000 in
    match Machine.run ~fuel recovered Machine.no_hooks with
    | exception Machine.Fuel_exhausted ->
      Error
        (Printf.sprintf
           "recovered run failed to halt within %d steps (crash@%d, region %d)"
           fuel report.crash_step report.recovery_region)
    | () ->
    let io_ok =
      (* exactly-once device I/O (Section VIII): released prefix plus the
         recovered run's output must equal the failure-free output *)
      report.released_outputs @ Machine.outputs recovered
      = Machine.outputs golden
    in
    if not io_ok then
      Error
        (Printf.sprintf
           "device I/O diverged after recovery (crash@%d, region %d): %d             released + %d regenerated vs %d golden"
           report.crash_step report.recovery_region
           (List.length report.released_outputs)
           (List.length (Machine.outputs recovered))
           (List.length (Machine.outputs golden)))
    else if Memory.equal golden.mem recovered.mem then Ok report
    else
      match Memory.first_diff golden.mem recovered.mem with
      | Some (addr, g, r) ->
        Error
          (Printf.sprintf
             "NVM mismatch after recovery at 0x%x: golden=%d recovered=%d \
              (crash@%d, region %d)"
             addr g r report.crash_step report.recovery_region)
      | None -> Error "memories differ but no diff found"
  end

(** Multi-failure validation: run to [c], crash, recover, resume, crash
    again at the next point of [crash_points] — recovery itself must be
    crash consistent. Compares the final NVM state and the exactly-once
    I/O stream against a failure-free run. *)
let validate_chain ?(window = 16) ?(n_mcs = 2) ~seed ~crash_points
    (compiled : Cwsp_compiler.Pipeline.compiled) :
    (int, string) result =
  let rng = Cwsp_util.Rng.create seed in
  let golden = Machine.create (Machine.link compiled.prog) in
  Machine.run golden Machine.no_hooks;
  let rec go tracked crash_points released_acc crashes =
    let t = tracked in
    match crash_points with
    | [] ->
      (* no more failures: run to completion through the harness hooks *)
      let h = hooks t in
      while t.machine.status = Machine.Running do
        Machine.step t.machine h
      done;
      let final_io = released_acc @ Machine.outputs t.machine in
      if final_io <> Machine.outputs golden then
        Error
          (Printf.sprintf "device I/O diverged after %d crashes" crashes)
      else if Memory.equal golden.mem t.machine.mem then Ok crashes
      else (
        match Memory.first_diff golden.mem t.machine.mem with
        | Some (addr, g, r) ->
          Error
            (Printf.sprintf
               "NVM mismatch after %d crashes at 0x%x: golden=%d got=%d"
               crashes addr g r)
        | None -> Error "memories differ but no diff found")
    | c :: rest ->
      if run_until t c then
        (* halted before this crash point: just check the final state *)
        go t [] released_acc crashes
      else begin
        let recovered, report = crash_and_recover ~n_mcs rng t in
        let t' = create_resumed ~window t.compiled recovered in
        go t' rest (released_acc @ report.released_outputs) (crashes + 1)
      end
  in
  go (create ~window compiled) crash_points [] 0

(* ==================================================================== *)
(* Explicit-persistency oracle: the dynamic ground truth for the        *)
(* Persist_check static tier. Models hardware WITHOUT the cWSP persist  *)
(* path: a data store is durable only once a flush captured its line    *)
(* AND a later pfence (or sync primitive) drained it. Register          *)
(* checkpoints keep their hardware path (write-through, undo-logged per *)
(* open region so a crash can't leave a half-written ckpt run), and an  *)
(* atomic is a failure-atomic unit that completes with its closing      *)
(* boundary. The crash is maximally adversarial and deterministic:      *)
(* cache contents AND the flushed-but-unfenced set are lost. Recovery   *)
(* is blind — resume at the newest boundary, no undo logs to roll back  *)
(* with — so the final state is right iff the compiler really did make  *)
(* every prior store durable: exactly the obligation Persist_check      *)
(* discharges statically. A mutant that drops/moves one flush or fence  *)
(* escapes here dynamically at some crash point.                        *)
(* ==================================================================== *)

type explicit_tracked = {
  e_machine : Machine.t;
  e_compiled : Cwsp_compiler.Pipeline.compiled;
  e_nvm : Memory.t; (* the durable image, maintained alongside the run *)
  e_pending : (int, int) Hashtbl.t; (* flushed, not yet fenced: addr -> value *)
  mutable e_pending_atomic : (int * int) option;
      (* an atomic's (addr, value) awaiting its closing boundary *)
  mutable e_last_store : (int * int) option;
      (* the store the current instruction just performed, so the atomic
         event can claim its value (hook order is store-then-event) *)
  mutable e_ckpt_undo : (int * int) list; (* open region's ckpt (addr, old) *)
  mutable e_boundary : (int * Machine.frame list * int * int) option;
      (* newest boundary: static id, frame snapshot, depth, outputs *)
}

let explicit_drain e =
  Hashtbl.iter (fun addr v -> Memory.write e.e_nvm addr v) e.e_pending;
  Hashtbl.reset e.e_pending

let explicit_hooks e : Machine.hooks =
  {
    on_store =
      (fun ~addr ~old:_ ~value ->
        if Layout.is_ckpt_addr addr then begin
          (* hardware persist path of the checkpoint engine: write-through,
             journaled until the region's boundary commits the run *)
          let nold = Memory.read e.e_nvm addr in
          Memory.write e.e_nvm addr value;
          e.e_ckpt_undo <- (addr, nold) :: e.e_ckpt_undo
        end
        else e.e_last_store <- Some (addr, value));
    on_event =
      (fun ev ->
        let tag = Event.tag ev in
        if tag = Event.tag_flush then begin
          let addr = Event.payload ev in
          if not (Layout.is_ckpt_addr addr) then
            (* the writeback captures the line's current cache contents *)
            Hashtbl.replace e.e_pending addr (Memory.read e.e_machine.mem addr);
          e.e_last_store <- None
        end
        else if tag = Event.tag_pfence || tag = Event.tag_fence then begin
          explicit_drain e;
          e.e_last_store <- None
        end
        else if tag = Event.tag_atomic then begin
          (* full sync: drains the persist stream; its own write is a
             failure-atomic unit completing at the closing boundary *)
          explicit_drain e;
          (match e.e_last_store with
          | Some (a, v) when a = Event.payload ev ->
            e.e_pending_atomic <- Some (a, v)
          | _ -> ());
          e.e_last_store <- None
        end
        else if tag = Event.tag_boundary then begin
          (* flight recorder: boundary commit in the explicit model,
             with the flushed-but-unfenced set as persist telemetry *)
          Obs.record k_boundary e.e_machine.steps (Event.payload ev)
            (Hashtbl.length e.e_pending)
            (match e.e_pending_atomic with Some _ -> 1 | None -> 0);
          (match e.e_pending_atomic with
          | Some (a, v) -> Memory.write e.e_nvm a v
          | None -> ());
          e.e_pending_atomic <- None;
          e.e_ckpt_undo <- [];
          e.e_boundary <-
            Some
              ( Event.payload ev,
                List.map copy_frame e.e_machine.frames,
                e.e_machine.depth,
                List.length e.e_machine.outputs );
          e.e_last_store <- None
        end
        else e.e_last_store <- None);
  }

(** Explicit-persistency crash experiment: run [compiled] (an
    [Explicit]-mode binary) to [crash_at] instructions, cut power —
    losing the caches, the flushed-but-unfenced set and any uncommitted
    atomic, and reverting the open region's checkpoint-area stores —
    then blindly resume at the newest boundary via its recovery slice
    and compare the final NVM state and the exactly-once device output
    stream against a failure-free run. Deterministic: the adversary
    always takes everything a fence had not sealed. *)
let validate_explicit ?(flight = false) ?on_flight ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) : (crash_report, string) result
    =
  let flight = flight || flight_env in
  let golden = Machine.create (Machine.link compiled.prog) in
  Machine.run golden Machine.no_hooks;
  let linked = Machine.link compiled.prog in
  let machine = Machine.create linked in
  let e =
    {
      e_machine = machine;
      e_compiled = compiled;
      e_nvm = Memory.snapshot machine.mem;
      e_pending = Hashtbl.create 64;
      e_pending_atomic = None;
      e_last_store = None;
      e_ckpt_undo = [];
      e_boundary = None;
    }
  in
  (* In the explicit model the recorder lives in the durable image
     directly: each append is its own flush+fence (the commit-word
     ordering is the failure-atomicity), so the ring survives the
     deterministic crash whole. *)
  let frec = if flight then Some (Recorder.format e.e_nvm) else None in
  let with_sink f =
    match frec with
    | Some fr ->
      Obs.with_recorder
        (fun k a b c d ->
          match Recorder.kind_of_code k with
          | Some kind -> Recorder.append fr ~kind a b c d
          | None -> ())
        f
    | None -> f ()
  in
  with_sink @@ fun () ->
  let h = explicit_hooks e in
  while e.e_machine.status = Machine.Running && e.e_machine.steps < crash_at do
    Machine.step e.e_machine h
  done;
  if e.e_machine.status = Machine.Halted then
    Error "program halted before the crash point"
  else begin
    let crash_step = e.e_machine.steps in
    (* power is lost: only [e_nvm] survives; the open region's ckpt run
       is rolled back so the recovery slice sees the slots as of the
       newest boundary (newest-first replay restores the oldest value) *)
    let image = Memory.snapshot e.e_nvm in
    List.iter (fun (addr, old) -> Memory.write image addr old) e.e_ckpt_undo;
    let recovered, recovery_region, restored, released_outputs =
      match e.e_boundary with
      | None ->
        ( Machine.resume linked ~mem:image ~frames:`Fresh ~depth:0,
          0, 0, [] )
      | Some (static_id, frames, depth, outs) ->
        let slice = compiled.slices.(static_id) in
        let frames = List.map copy_frame frames in
        let fr = List.hd frames in
        Array.fill fr.regs 0 (Array.length fr.regs) poison;
        let slot r = Memory.read image (Layout.ckpt_slot ~tid:0 ~depth r) in
        let addr_of g =
          match Hashtbl.find_opt linked.global_addr g with
          | Some a -> a
          | None -> failwith ("recovery slice references unknown global " ^ g)
        in
        List.iter
          (fun (r, expr) ->
            fr.regs.(r) <- Cwsp_ckpt.Slice.eval ~slot ~addr_of expr)
          slice;
        let released =
          List.filteri (fun i _ -> i < outs) (Machine.outputs e.e_machine)
        in
        ( Machine.resume linked ~mem:image ~frames:(`Frames frames) ~depth,
          static_id, List.length slice, released )
    in
    (* recovery-side flight events: new crash epoch on the surviving
       image, then the crash record and the blind-resume decision *)
    if flight then begin
      (match Recorder.attach image with
      | Some r ->
        Recorder.bump_epoch r;
        Recorder.append r ~kind:Recorder.Crash crash_step recovery_region 0 0;
        Recorder.append r ~kind:Recorder.Resume recovery_region restored 0 0
      | None -> ());
      match on_flight with
      | Some f -> f (Recorder.dump_string image)
      | None -> ()
    end;
    (* bound the blind re-execution the same way [validate] bounds its
       recovered run: non-termination is a reportable divergence *)
    let fuel = (4 * golden.steps) + 10_000 in
    match Machine.run ~fuel recovered Machine.no_hooks with
    | exception Machine.Fuel_exhausted ->
      Error
        (Printf.sprintf
           "explicit-mode recovered run failed to halt within %d steps \
            (crash@%d)"
           fuel crash_step)
    | () ->
    let report =
      {
        crash_step;
        recovery_region;
        reverted_regions = 0;
        reexecuted_instructions = crash_step;
        restored_registers = restored;
        released_outputs;
      }
    in
    if released_outputs @ Machine.outputs recovered <> Machine.outputs golden
    then
      Error
        (Printf.sprintf
           "device I/O diverged after explicit-mode recovery (crash@%d): %d \
            released + %d regenerated vs %d golden"
           crash_step
           (List.length released_outputs)
           (List.length (Machine.outputs recovered))
           (List.length (Machine.outputs golden)))
    else if
      Memory.equal_except ~except:Layout.is_flight_addr golden.mem
        recovered.mem
    then Ok report
    else
      match
        Memory.first_diff_except ~except:Layout.is_flight_addr golden.mem
          recovered.mem
      with
      | Some (addr, g, r) ->
        Error
          (Printf.sprintf
             "NVM mismatch after explicit-mode recovery at 0x%x: golden=%d \
              recovered=%d (crash@%d, boundary %d)"
             addr g r crash_step recovery_region)
      | None -> Error "memories differ but no diff found"
  end

(* ==================================================================== *)
(* Adversarial fault model: crashes where the persistence path itself   *)
(* is faulty (torn persists, dropped persist-buffer tails, log/ckpt     *)
(* corruption, power failure during recovery). The clean-crash paths    *)
(* above trust every surviving byte; the hardened protocol below audits *)
(* the undo logs (checksums, LSNs, count headers) and the checkpoint    *)
(* area before committing to a rollback boundary, degrading to deeper   *)
(* boundaries whose logs verify and refusing outright rather than ever  *)
(* producing a wrong final NVM image.                                   *)
(* ==================================================================== *)

type golden = { g_mem : Memory.t; g_outputs : int list; g_steps : int }

(** Failure-free reference run, shared across a campaign's cells. *)
let golden_of (compiled : Cwsp_compiler.Pipeline.compiled) =
  let m = Machine.create (Machine.link compiled.prog) in
  Machine.run m Machine.no_hooks;
  { g_mem = m.mem; g_outputs = Machine.outputs m; g_steps = m.steps }

(** The surviving durable state at the instant power is lost, before any
    recovery runs and before any fault is injected into it: the NVM
    image (with the chosen un-persisted suffix of R_o's stores removed),
    the MC log arrays, the checkpoint-area shadow checksums, and the
    tracking metadata recovery needs. Unlike [crash_and_recover], which
    interleaves crash construction with recovery, this is a pure value —
    injectors mutate it, and both the blind and the hardened protocols
    can be run (repeatedly, for the crash-during-recovery sweep) against
    copies of it. *)
type crash_state = {
  cs_mem : Memory.t;
  cs_logs : Mc_logs.t;
  cs_slot_sums : (int, int) Hashtbl.t;
  cs_regions : region_record list; (* newest first, as tracked *)
  cs_nominal : int; (* position of R_o, the nominal recovery point *)
  cs_released : int list; (* device outputs already released, oldest first *)
  cs_sync_floor : int;
  cs_crash_step : int;
  cs_linked : Machine.linked;
  cs_compiled : Cwsp_compiler.Pipeline.compiled;
}

(** Cut power now and build the surviving durable state. Physically
    honest about per-location persist FIFOs: R_o's un-persisted suffix
    skips addresses a younger tracked region also stored to (a younger
    persisted store to the same location implies R_o's earlier store
    persisted first), and younger regions' speculative stores are left
    in the image — reverting them is recovery's job, not the crash's. *)
let cut_power ?(n_mcs = 2) rng (t : tracked) : crash_state =
  ignore n_mcs;
  let eligible =
    List.length
      (List.filter
         (fun (r : region_record) -> r.region_index > t.sync_floor)
         t.regions)
  in
  let avail = max 1 eligible in
  let back = Cwsp_util.Rng.int rng avail in
  let r_o = List.nth t.regions back in
  let mem = Memory.snapshot t.machine.mem in
  let slot_sums = Hashtbl.copy t.slot_sums in
  let r_o_entries = Mc_logs.region_entries t.logs ~region:r_o.region_index in
  let younger_covers = Hashtbl.create 64 in
  List.iteri
    (fun i (r : region_record) ->
      if i < back then
        List.iter
          (fun (e : Mc_logs.entry) -> Hashtbl.replace younger_covers e.e_addr ())
          (Mc_logs.region_entries t.logs ~region:r.region_index))
    t.regions;
  let unpersist (e : Mc_logs.entry) =
    if not (Hashtbl.mem younger_covers e.e_addr) then begin
      Memory.write mem e.e_addr e.e_old;
      (* slot metadata persists atomically with the slot store: an
         un-persisted checkpoint store rolls its shadow checksum back *)
      if Layout.is_ckpt_addr e.e_addr then
        Hashtbl.replace slot_sums e.e_addr (Fault.value_sum e.e_old)
    end
  in
  if r_o.has_sync then
    (* still-open sync region: the atomic + trailing checkpoints are one
       failure-atomic unit that did not complete — nothing persisted *)
    List.iter unpersist r_o_entries
  else begin
    (* random per-MC FIFO suffix of R_o's data stores un-persists, and
       R_o's checkpoint-area stores are treated as unpersisted (the
       trailing checkpoint of R_o's opening boundary had not drained) *)
    let mc_of addr = Mc_logs.mc_of t.logs addr in
    let per_mc_total = Array.make 8 0 in
    List.iter
      (fun (e : Mc_logs.entry) ->
        if not (Layout.is_ckpt_addr e.e_addr) then
          per_mc_total.(mc_of e.e_addr) <- per_mc_total.(mc_of e.e_addr) + 1)
      r_o_entries;
    let persisted_prefix =
      Array.map
        (fun n -> if n = 0 then 0 else Cwsp_util.Rng.int rng (n + 1))
        per_mc_total
    in
    let seen_from_end = Array.make 8 0 in
    List.iter
      (fun (e : Mc_logs.entry) ->
        if Layout.is_ckpt_addr e.e_addr then unpersist e
        else begin
          let mc = mc_of e.e_addr in
          let pos_from_start = per_mc_total.(mc) - seen_from_end.(mc) in
          seen_from_end.(mc) <- seen_from_end.(mc) + 1;
          if pos_from_start > persisted_prefix.(mc) then unpersist e
        end)
      r_o_entries
  end;
  let released =
    let n = Io_buffer.released t.io ~oldest_unpersisted:r_o.region_index in
    assert (n = r_o.outputs_at_entry);
    List.filteri (fun i _ -> i < n) (List.rev t.machine.outputs)
  in
  {
    cs_mem = mem;
    cs_logs = Mc_logs.copy t.logs;
    cs_slot_sums = slot_sums;
    cs_regions = t.regions;
    cs_nominal = back;
    cs_released = released;
    cs_sync_floor = t.sync_floor;
    cs_crash_step = t.machine.steps;
    cs_linked = t.machine.linked;
    cs_compiled = t.compiled;
  }

(* Newest verified record per address across all tracked regions; the
   position (index into cs_regions) tells which side of a rollback
   boundary last wrote the address. Per address the order is exact: a
   location always maps to one MC, whose per-region lists are newest
   first, and list position is newest first too. *)
let newest_per_addr cs =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun idx (r : region_record) ->
      List.iter
        (fun (e : Mc_logs.entry) ->
          if
            Mc_logs.entry_ok ~region:r.region_index e
            && not (Hashtbl.mem tbl e.e_addr)
          then Hashtbl.add tbl e.e_addr (idx, e))
        (Mc_logs.region_entries cs.cs_logs ~region:r.region_index))
    cs.cs_regions;
  tbl

(* Checkpoint-slot addresses a region's recovery slice reads. *)
let slice_slot_addrs cs (r : region_record) =
  if r.static_id < 0 then []
  else
    cs.cs_compiled.slices.(r.static_id)
    |> List.concat_map (fun (_, e) -> Cwsp_ckpt.Slice.slot_refs e)
    |> List.sort_uniq compare
    |> List.map (fun reg -> Layout.ckpt_slot ~tid:0 ~depth:r.depth reg)

(* ---- fault injection into a crash state ---- *)

let inject rng (cls : Fault.cls) cs : string option =
  let sorted_candidates l =
    Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) l)
  in
  match cls with
  | Fault.Recovery_crash -> None (* realized as the mid-recovery sweep *)
  | Fault.Torn_persist ->
      (* tear the NVM word of a store that did persist; prefer one whose
         newest write is on the persisted side of the nominal boundary —
         tears inside the revert set are repaired without ever being
         noticed, which is legal but uninteresting *)
      let m = newest_per_addr cs in
      let deep, any =
        Hashtbl.fold
          (fun addr (idx, (e : Mc_logs.entry)) (deep, any) ->
            (* a store that changed nothing cannot tear observably *)
            if Memory.read cs.cs_mem addr = e.e_old then (deep, any)
            else
              let c = (addr, e) in
              ((if idx > cs.cs_nominal then c :: deep else deep), c :: any))
          m ([], [])
      in
      let pool = if deep <> [] then deep else any in
      if pool = [] then None
      else begin
        let arr = sorted_candidates pool in
        let addr, e = arr.(Cwsp_util.Rng.int rng (Array.length arr)) in
        let old = e.e_old in
        Memory.mutate cs.cs_mem addr (fun v -> Fault.tear rng ~value:v ~old);
        Some (Printf.sprintf "torn persist at 0x%x" addr)
      end
  | Fault.Dropped_tail ->
      (* one MC's persist buffer silently dropped its newest data writes
         for a supposedly-persisted region: the undo-log records are
         intact (logging happens on the arrival path), the data never
         reached NVM. Only newest-per-address stores are droppable — a
         younger persisted store to the same location would contradict
         the per-location FIFO. *)
      let m = newest_per_addr cs in
      let candidates =
        Hashtbl.fold
          (fun addr (idx, (e : Mc_logs.entry)) acc ->
            if idx > cs.cs_nominal then (addr, e) :: acc else acc)
          m []
      in
      if candidates = [] then None
      else begin
        let arr = sorted_candidates candidates in
        let k = 1 + Cwsp_util.Rng.int rng (min 3 (Array.length arr)) in
        let dropped = ref [] in
        for _ = 1 to k do
          let addr, (e : Mc_logs.entry) =
            arr.(Cwsp_util.Rng.int rng (Array.length arr))
          in
          if not (List.mem addr !dropped) then begin
            Memory.write cs.cs_mem addr e.e_old;
            if Layout.is_ckpt_addr addr then
              Hashtbl.replace cs.cs_slot_sums addr (Fault.value_sum e.e_old);
            dropped := addr :: !dropped
          end
        done;
        Some
          (Printf.sprintf "dropped persist-buffer writes at [%s]"
             (String.concat "; "
                (List.map (Printf.sprintf "0x%x") !dropped)))
      end
  | Fault.Log_corruption ->
      Mc_logs.inject_corrupt cs.cs_logs rng
        ~regions:(List.map (fun (r : region_record) -> r.region_index) cs.cs_regions)
  | Fault.Ckpt_bitflip ->
      (* bit rot in a checkpoint slot (the slot's shadow checksum still
         describes the intended value). A flip in a slot the nominal
         revert set covers is healed by the replay before the slice
         reads it — legal but unobservable — so prefer slots the slice
         reads whose checkpoint is OLDER than the rollback boundary
         (pruning makes slices read ancient slots), then any uncovered
         written slot, then anything the slice reads. *)
      let r_o = List.nth cs.cs_regions cs.cs_nominal in
      let m = newest_per_addr cs in
      let covered a =
        match Hashtbl.find_opt m a with
        | Some (idx, _) -> idx <= cs.cs_nominal
        | None -> false
      in
      let slice_slots = slice_slot_addrs cs r_o in
      let written =
        Hashtbl.fold (fun a _ acc -> a :: acc) cs.cs_slot_sums []
        |> List.sort compare
      in
      let pool1 = List.filter (fun a -> not (covered a)) slice_slots in
      let pool2 = List.filter (fun a -> not (covered a)) written in
      let slots =
        if pool1 <> [] then pool1
        else if pool2 <> [] then pool2
        else slice_slots
      in
      if slots = [] then None
      else begin
        let a = List.nth slots (Cwsp_util.Rng.int rng (List.length slots)) in
        Memory.mutate cs.cs_mem a (Fault.flip_bit rng);
        Some (Printf.sprintf "bit flip in checkpoint slot 0x%x" a)
      end

(* ---- hardened recovery: audit, degradation ladder, staged plan ---- *)

type rung_check = {
  rc_usable : bool; (* this rung's rollback can be trusted *)
  rc_fatal : bool; (* no deeper rung can help: stop the ladder *)
  rc_notes : string list; (* detection messages *)
  rc_skip : Mc_logs.entry list; (* corrupt records proven immaterial *)
}

(** Audit rollback boundary [back] (position in [cs_regions]).

    - Revert-set regions (positions <= back) must have verifiable logs:
      count headers match, LSNs contiguous, record checksums good. A
      corrupt record is tolerated only if an OLDER verified record
      covers the same address — reverse-chronological replay overwrites
      whatever the corrupt record would have written, so its loss is
      immaterial. (Its address field may itself be the corrupted field;
      under the single-fault adversary the shadow lookup then misses and
      we refuse rather than trust it.) Structural damage or an
      unshadowed corrupt record is fatal: records are missing or
      untrustworthy, so the region's write set is unknowable and no
      deeper rung restores it either.
    - Persisted-side regions (positions > back) are audited for
      *persistence*: the newest verified record per address carries the
      checksum of the value NVM must hold. A mismatch (torn persist,
      dropped persist-buffer write) fails the rung but a deeper rung
      that pulls the damaged region into the revert set repairs it.
    - The rung's slice inputs are audited: every checkpoint slot the
      slice reads must either be rewritten by the revert replay (a
      revert-set record covers it) or match its shadow checksum.
    - Rolling back must not cross a committed sync point nor re-release
      device I/O; both bound the ladder below. *)
let check_rung cs ~back =
  let notes = ref [] and fatal = ref false and soft = ref false in
  let skip = ref [] in
  let note msg = notes := msg :: !notes in
  let rung = List.nth cs.cs_regions back in
  if rung.region_index <= cs.cs_sync_floor then begin
    fatal := true;
    note "rollback would cross a committed sync point"
  end;
  if rung.outputs_at_entry <> List.length cs.cs_released then begin
    fatal := true;
    note "rollback would re-release device I/O"
  end;
  let n_regions = List.length cs.cs_regions in
  let region_arr = Array.of_list cs.cs_regions in
  let entries_at i =
    Mc_logs.region_entries cs.cs_logs ~region:region_arr.(i).region_index
  in
  (* audit the revert set *)
  for i = 0 to min back (n_regions - 1) do
    let rid = region_arr.(i).region_index in
    let a = Mc_logs.audit_region cs.cs_logs ~region:rid in
    List.iter
      (fun msg ->
        fatal := true;
        note ("undo log unusable: " ^ msg))
      a.au_structural;
    List.iter
      (fun (bad : Mc_logs.entry) ->
        let shadowed =
          let found = ref false in
          for j = i to back do
            if not !found then
              List.iter
                (fun (e : Mc_logs.entry) ->
                  if
                    e != bad
                    && Mc_logs.entry_ok ~region:region_arr.(j).region_index e
                    && e.e_addr = bad.e_addr
                    && (j > i || e.e_lsn < bad.e_lsn)
                  then found := true)
                (entries_at j)
          done;
          !found
        in
        if shadowed then begin
          skip := bad :: !skip;
          note
            (Printf.sprintf
               "corrupt log record in region %d tolerated (older record \
                covers 0x%x)"
               rid bad.e_addr)
        end
        else begin
          fatal := true;
          note
            (Printf.sprintf "unshadowed corrupt log record in region %d" rid)
        end)
      a.au_bad
  done;
  (* audit persistence of the persisted side *)
  let m = newest_per_addr cs in
  let mismatches = ref [] in
  Hashtbl.iter
    (fun addr (idx, (e : Mc_logs.entry)) ->
      if idx > back && Fault.value_sum (Memory.read cs.cs_mem addr) <> e.e_new_sum
      then mismatches := (addr, idx) :: !mismatches)
    m;
  List.iter
    (fun (addr, idx) ->
      soft := true;
      note
        (Printf.sprintf
           "persisted store at 0x%x (region %d) is not in NVM" addr
           region_arr.(idx).region_index))
    (List.sort compare !mismatches);
  (* audit the checkpoint area — every slot, not just the ones this
     rung's slice reads: a rotted slot that no surviving record covers
     cannot be healed by ANY rung (its true value is unknowable, the
     metadata only stores a checksum), so it must keep failing rungs
     until the ladder refuses rather than commit an image with a wrong
     word in it *)
  let covered a =
    match Hashtbl.find_opt m a with Some (idx, _) -> idx <= back | None -> false
  in
  let slot_alarms = ref [] in
  Hashtbl.iter
    (fun a expect ->
      if
        (not (covered a))
        && Fault.value_sum (Memory.read cs.cs_mem a) <> expect
      then slot_alarms := a :: !slot_alarms)
    cs.cs_slot_sums;
  (* slice inputs the program never stored to read as zero *)
  List.iter
    (fun a ->
      if
        (not (Hashtbl.mem cs.cs_slot_sums a))
        && (not (covered a))
        && Memory.read cs.cs_mem a <> 0
      then slot_alarms := a :: !slot_alarms)
    (slice_slot_addrs cs rung);
  List.iter
    (fun a ->
      soft := true;
      note (Printf.sprintf "checkpoint slot 0x%x fails its checksum" a))
    (List.sort_uniq compare !slot_alarms);
  {
    rc_usable = (not !fatal) && not !soft;
    rc_fatal = !fatal;
    rc_notes = List.rev !notes;
    rc_skip = !skip;
  }

(* The recovery runtime's durable actions, as an explicit instruction
   sequence so a second power failure can be injected after ANY of them.
   Hardened ordering: a durable intent record pins the chosen rung
   first, every revert (an absolute write — idempotent) runs next, the
   logs are truncated only once all reverts are durable, and the slice
   evaluates last into volatile registers. Replaying the whole plan
   after a mid-recovery crash is therefore a no-op-or-completion, never
   a corruption. *)
type recovery_step =
  | S_intent of int (* durably pin the chosen rung's region index *)
  | S_revert of int * int (* absolute write: addr, rung-entry value *)
  | S_truncate (* drop all MC logs (and headers) *)
  | S_slice of int * Cwsp_ckpt.Slice.expr (* restore one live-in register *)

type world = {
  w_mem : Memory.t;
  w_logs : Mc_logs.t;
  w_sums : (int, int) Hashtbl.t;
  mutable w_intent : int option;
}

let world_of cs =
  {
    w_mem = Memory.snapshot cs.cs_mem;
    w_logs = Mc_logs.copy cs.cs_logs;
    w_sums = Hashtbl.copy cs.cs_slot_sums;
    w_intent = None;
  }

let exec_step w = function
  | S_intent r -> w.w_intent <- Some r
  | S_revert (addr, v) ->
      Memory.write w.w_mem addr v;
      (* recovery's writes go through the MCs like any store: slot
         metadata follows the slot *)
      if Layout.is_ckpt_addr addr then
        Hashtbl.replace w.w_sums addr (Fault.value_sum v)
  | S_truncate -> Mc_logs.reset w.w_logs
  | S_slice _ -> () (* registers are volatile; materialized at resume *)

let run_plan w plan = List.iter (exec_step w) plan

(** Hardened full-revert plan for rung [back]: replay EVERY record of
    every region at positions <= back (minus proven-immaterial corrupt
    ones), newest region first, newest record first — after which every
    logged address holds its exact rung-entry value; idempotent
    re-execution regenerates the rest. *)
let build_plan cs ~back ~skip =
  let rung = List.nth cs.cs_regions back in
  let reverts =
    List.concat
      (List.filteri (fun i _ -> i <= back) cs.cs_regions
      |> List.map (fun (r : region_record) ->
             Mc_logs.region_entries cs.cs_logs ~region:r.region_index
             |> List.filter (fun e -> not (List.memq e skip))
             |> List.map (fun (e : Mc_logs.entry) ->
                    S_revert (e.e_addr, e.e_old))))
  in
  let slices =
    if rung.static_id < 0 then []
    else
      List.map
        (fun (r, e) -> S_slice (r, e))
        cs.cs_compiled.slices.(rung.static_id)
  in
  (S_intent rung.region_index :: reverts) @ (S_truncate :: slices)

(** Blind (legacy-ordering) plan: trust every record, revert only the
    younger regions plus R_o's checkpoint stores, and — the vulnerability
    the hardened ordering fixes — free the log space while loading the
    records into volatile buffers, BEFORE the reverts are applied. Built
    from [logs] so a restart after a mid-recovery crash sees whatever
    log state survived. *)
let blind_plan cs ~logs =
  let back = cs.cs_nominal in
  let rung = List.nth cs.cs_regions back in
  let reverts =
    List.concat
      (List.mapi
         (fun i (r : region_record) ->
           if i > back then []
           else
             Mc_logs.region_entries logs ~region:r.region_index
             |> List.filter (fun (e : Mc_logs.entry) ->
                    i < back || Layout.is_ckpt_addr e.e_addr)
             |> List.map (fun (e : Mc_logs.entry) ->
                    S_revert (e.e_addr, e.e_old)))
         cs.cs_regions)
  in
  let slices =
    if rung.static_id < 0 then []
    else
      List.map
        (fun (r, e) -> S_slice (r, e))
        cs.cs_compiled.slices.(rung.static_id)
  in
  (S_truncate :: reverts) @ slices

(** Resume execution at rung [back] on [w]'s memory: evaluate the rung's
    recovery slice into a poisoned register file (or restart/rewind for
    the pre-first-boundary cases). *)
let resume_at cs w ~back =
  let rung = List.nth cs.cs_regions back in
  let linked = cs.cs_linked in
  if rung.static_id = -2 then
    Machine.resume linked ~mem:w.w_mem
      ~frames:(`Frames (List.map copy_frame rung.frames))
      ~depth:rung.depth
  else if rung.static_id < 0 then
    Machine.resume linked ~mem:w.w_mem ~frames:`Fresh ~depth:0
  else begin
    let slice = cs.cs_compiled.slices.(rung.static_id) in
    let frames = List.map copy_frame rung.frames in
    let fr = List.hd frames in
    Array.fill fr.regs 0 (Array.length fr.regs) poison;
    let slot r = Memory.read w.w_mem (Layout.ckpt_slot ~tid:0 ~depth:rung.depth r) in
    let addr_of g =
      match Hashtbl.find_opt linked.global_addr g with
      | Some a -> a
      | None -> failwith ("recovery slice references unknown global " ^ g)
    in
    List.iter
      (fun (r, expr) -> fr.regs.(r) <- Cwsp_ckpt.Slice.eval ~slot ~addr_of expr)
      slice;
    Machine.resume linked ~mem:w.w_mem ~frames:(`Frames frames) ~depth:rung.depth
  end

(* Run the resumed machine to completion and compare against the golden
   run. A trap, a hang, or any NVM/IO divergence is a wrong outcome —
   the oracle, independent of all checksums. The flight-recorder region
   is excluded: it is observability state, written on the crashing path
   only, and legitimately differs from the failure-free image. *)
let run_and_compare cs golden m =
  let fuel = (4 * golden.g_steps) + 10_000 in
  match Machine.run ~fuel m Machine.no_hooks with
  | () ->
      Memory.equal_except ~except:Layout.is_flight_addr golden.g_mem m.mem
      && cs.cs_released @ Machine.outputs m = golden.g_outputs
  | exception Machine.Trap _ -> false
  | exception Machine.Fuel_exhausted -> false

type fault_outcome = Recovered | Degraded | Refused

type fault_report = {
  fr_crash_step : int;
  fr_nominal_region : int; (* dynamic index of the nominal recovery point *)
  fr_rung_region : int; (* region recovery actually used; -1 if refused *)
  fr_outcome : fault_outcome;
  fr_injected : string option; (* what the adversary did, if anything bit *)
  fr_detections : string list; (* what the audits saw *)
  fr_state_ok : bool; (* final state matches golden (vacuous for Refused) *)
  fr_sweep_points : int; (* mid-recovery crash sites exercised *)
  fr_sweep_slice_points : int; (* ... of which were slice instructions *)
  fr_sweep_failures : int; (* sweep runs with a wrong final state *)
  fr_flight : string option;
    (* flight-recorder dump (text artifact) when recording was enabled:
       the ring's surviving words after the crash, the recovery-side
       events appended to them, ready for [cwsp_postmortem] *)
}

(* Mid-recovery crash sites: every non-revert step (intent, truncate and
   every recovery-slice instruction), plus an evenly-strided sample of
   the revert writes (they are all the same instruction shape; sweeping
   thousands of them per cell buys nothing). Index k means "power fails
   after plan step k has executed". *)
let sweep_cuts plan ~max_reverts =
  let reverts = ref [] and others = ref [] in
  List.iteri
    (fun i s ->
      match s with
      | S_revert _ -> reverts := i :: !reverts
      | _ -> others := i :: !others)
    plan;
  let reverts = Array.of_list (List.rev !reverts) in
  let n = Array.length reverts in
  let sampled =
    if n <= max_reverts then Array.to_list reverts
    else List.init max_reverts (fun i -> reverts.(i * n / max_reverts))
  in
  List.sort compare (sampled @ !others)

let slice_cut_count plan cuts =
  let arr = Array.of_list plan in
  List.length
    (List.filter (fun k -> match arr.(k) with S_slice _ -> true | _ -> false) cuts)

(** One fault experiment against a crash state. [restart] receives the
    post-second-crash world and must bring recovery to completion the
    way the protocol under test would. Returns (all-runs-consistent,
    sweep stats). When [sweep] is empty only the crash-free recovery
    runs. *)
let execute_recovery cs golden ~back ~plan ~restart ~sweep =
  let once cut =
    let w = world_of cs in
    (match cut with
    | None -> run_plan w plan
    | Some k ->
        List.iteri (fun i s -> if i <= k then exec_step w s) plan;
        (* power failed; volatile state (loaded plan, registers) is gone *)
        restart w);
    run_and_compare cs golden (resume_at cs w ~back)
  in
  let clean_ok = once None in
  let failures =
    List.length (List.filter (fun k -> not (once (Some k))) sweep)
  in
  (clean_ok && failures = 0, failures)

(** Validate one adversarial crash. Runs [compiled] to [crash_at], cuts
    power, injects [fault] into the surviving state (for
    [Recovery_crash] the injection IS a second power failure swept
    across every recovery step), then recovers — hardened (audit +
    degradation ladder + staged idempotent plan) or blind (trust
    everything, legacy ordering) — and compares the final state against
    a failure-free run. The returned report says what the adversary did,
    what the audits detected, and whether the final state is right;
    [Refused] means recovery proved it could not proceed safely and
    stopped without committing any image. *)
let validate_fault ?(window = 16) ?(n_mcs = 2) ?golden ?(flight = false)
    ~hardened ?fault ~seed ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) : (fault_report, string) result
    =
  let flight = flight || flight_env in
  let rng = Cwsp_util.Rng.create seed in
  let golden = match golden with Some g -> g | None -> golden_of compiled in
  let t = create ~window compiled in
  (* The recorder ring is formatted inside the tracked machine's own NVM
     image and fed through [Obs.record] sites; its writes bypass the
     instrumentation hooks (never undo-logged) and nothing in recovery
     reads it, so enabling it cannot change any outcome. Its rng draws
     come from a dedicated stream so the main [rng]'s draw sequence is
     byte-identical with recording on or off. *)
  let frec = if flight then Some (Recorder.format t.machine.mem) else None in
  let with_sink f =
    match frec with
    | Some fr ->
      Obs.with_recorder
        (fun k a b c d ->
          match Recorder.kind_of_code k with
          | Some kind -> Recorder.append fr ~kind a b c d
          | None -> ())
        f
    | None -> f ()
  in
  with_sink @@ fun () ->
  if run_until t crash_at then Error "program halted before the crash point"
  else begin
    let cs = cut_power ~n_mcs rng t in
    (* the ring is ordinary NVM: the in-flight append can tear at the
       crash, leaving a frontier slot that fails its checksum *)
    (match frec with
    | Some fr ->
      let frng = Cwsp_util.Rng.stream (Cwsp_util.Rng.create seed) 0x666c74 in
      if Cwsp_util.Rng.bool frng then (
        match Recorder.frontier_words fr with
        | [] -> ()
        | ws ->
          let a = List.nth ws (Cwsp_util.Rng.int frng (List.length ws)) in
          Memory.mutate cs.cs_mem a (fun v ->
              Fault.tear frng ~value:v ~old:0))
    | None -> ());
    let injected =
      match fault with None -> None | Some cls -> inject rng cls cs
    in
    let nominal_region =
      (List.nth cs.cs_regions cs.cs_nominal).region_index
    in
    let want_sweep = fault = Some Fault.Recovery_crash in
    (* recovery-side recorder: re-attach on the surviving image (cursor
       rebuilt by slot scan), open a new crash epoch, and log what the
       adversary did and what the ladder decides *)
    let rrec = if flight then Recorder.attach cs.cs_mem else None in
    (match rrec with Some r -> Recorder.bump_epoch r | None -> ());
    let rapp kind a b c d =
      match rrec with
      | Some r -> Recorder.append r ~kind a b c d
      | None -> ()
    in
    rapp Recorder.Crash cs.cs_crash_step nominal_region n_mcs 0;
    (match fault with
    | Some cls when injected <> None || cls = Fault.Recovery_crash ->
      rapp Recorder.Inject (fault_code cls) 0 0 0
    | _ -> ());
    let report ~rung_region ~outcome ~detections ~state_ok ~sweep ~plan
        ~failures =
      {
        fr_crash_step = cs.cs_crash_step;
        fr_nominal_region = nominal_region;
        fr_rung_region = rung_region;
        fr_outcome = outcome;
        fr_injected =
          (if want_sweep then Some "power failure during recovery (sweep)"
           else injected);
        fr_detections = detections;
        fr_state_ok = state_ok;
        fr_sweep_points = List.length sweep;
        fr_sweep_slice_points = slice_cut_count plan sweep;
        fr_sweep_failures = failures;
        fr_flight =
          (if flight then Some (Recorder.dump_string cs.cs_mem) else None);
      }
    in
    (* mid-recovery power failures re-attach the ring of the sweep
       world's image and open yet another epoch before replaying *)
    let flight_restart w =
      if flight then
        match Recorder.attach w.w_mem with
        | Some r ->
          Recorder.bump_epoch r;
          Recorder.append r ~kind:Recorder.Restart 0 0 0 0
        | None -> ()
    in
    if not hardened then begin
      (* blind protocol: trust every surviving byte *)
      let plan = blind_plan cs ~logs:cs.cs_logs in
      let sweep =
        if want_sweep then sweep_cuts plan ~max_reverts:8 else []
      in
      let restart w =
        (* a blind restart re-reads whatever logs survived — after the
           premature truncation, usually nothing *)
        flight_restart w;
        run_plan w (blind_plan cs ~logs:w.w_logs)
      in
      let ok, failures =
        execute_recovery cs golden ~back:cs.cs_nominal ~plan ~restart ~sweep
      in
      rapp Recorder.Decision 0 cs.cs_nominal 0 (if ok then 1 else 0);
      rapp Recorder.Resume nominal_region 0 (List.length plan) 0;
      Ok
        (report ~rung_region:nominal_region ~outcome:Recovered ~detections:[]
           ~state_ok:ok ~sweep ~plan ~failures)
    end
    else begin
      (* hardened protocol: audit, degrade, or refuse *)
      let n = List.length cs.cs_regions in
      let rec ladder back detections =
        if back >= n then begin
          rapp Recorder.Decision 2 n (List.length detections + 1) 1;
          Ok
            (report ~rung_region:(-1) ~outcome:Refused
               ~detections:
                 (detections @ [ "no verifiable rollback boundary left" ])
               ~state_ok:true ~sweep:[] ~plan:[] ~failures:0)
        end
        else begin
          let rc = check_rung cs ~back in
          rapp Recorder.Rung back
            (if rc.rc_usable then 1 else 0)
            (if rc.rc_fatal then 1 else 0)
            (List.length rc.rc_skip);
          if rc.rc_fatal then begin
            rapp Recorder.Decision 2 back
              (List.length (detections @ rc.rc_notes))
              1;
            Ok
              (report ~rung_region:(-1) ~outcome:Refused
                 ~detections:(detections @ rc.rc_notes) ~state_ok:true
                 ~sweep:[] ~plan:[] ~failures:0)
          end
          else if not rc.rc_usable then
            ladder (back + 1) (detections @ rc.rc_notes)
          else begin
            let detections = detections @ rc.rc_notes in
            let plan = build_plan cs ~back ~skip:rc.rc_skip in
            let sweep =
              if want_sweep then sweep_cuts plan ~max_reverts:8 else []
            in
            let restart w =
              flight_restart w;
              (* the durable intent record makes the plan idempotent:
                 no intent yet -> recovery never started, run it all;
                 intent + live logs -> reverts are absolute writes,
                 replay them and truncate; intent + empty logs -> all
                 durable work is done, only the volatile slice remains *)
              match w.w_intent with
              | None -> run_plan w plan
              | Some _ ->
                  if Mc_logs.live_entries w.w_logs > 0 then
                    List.iter
                      (fun s ->
                        match s with
                        | S_revert _ | S_truncate -> exec_step w s
                        | _ -> ())
                      plan
            in
            let ok, failures =
              execute_recovery cs golden ~back ~plan ~restart ~sweep
            in
            let rung_region = (List.nth cs.cs_regions back).region_index in
            let outcome =
              if back = cs.cs_nominal then Recovered else Degraded
            in
            rapp Recorder.Decision
              (if outcome = Recovered then 0 else 1)
              back
              (List.length detections)
              (if ok then 1 else 0);
            let count p = List.length (List.filter p plan) in
            rapp Recorder.Resume rung_region
              (count (function S_slice _ -> true | _ -> false))
              (count (function S_revert _ -> true | _ -> false))
              0;
            Ok
              (report ~rung_region ~outcome ~detections ~state_ok:ok ~sweep
                 ~plan ~failures)
          end
        end
      in
      ladder cs.cs_nominal []
    end
  end
