(** The single-core timing engine: replays a commit-event trace under a
    persistence scheme, advancing a nanosecond timeline and charging
    stalls where the modeled hardware produces backpressure (the cWSP
    hardware of Fig. 9: PB -> persist path -> per-MC WPQs with
    asynchronous undo logging; RBT admission for MC speculation; WB
    stale-read delaying; WPQ-hit load delaying).

    Two stages: trace -> per-geometry probe stream -> timing; cache
    outcomes depend only on the trace and each level's size and
    associativity, so they are recorded once per geometry. *)

type cwsp_flags = {
  persist_path : bool;   (** Fig. 15 stage 2: persist committed stores *)
  mc_speculation : bool; (** stage 3: RBT admission + MC undo logging *)
  boundary_drain : bool; (** prior-work behaviour: region-end drains *)
  wb_delay : bool;       (** stage 4: stale-read prevention at the WB *)
  wpq_delay : bool;      (** stage 5: delay loads hitting the WPQ *)
}

val cwsp_full : cwsp_flags
val cwsp_flags_none : cwsp_flags

type scheme =
  | Baseline
  | Cwsp of cwsp_flags
  | Ido
  | Capri
  | Replaycache
  | Explicit_flush
      (** compiler-inserted clwb/sfence persistency: data stores stay in
          the cache until flushed; register checkpoints keep the
          hardware persist path *)

val scheme_name : scheme -> string

(** {2 Hardware sub-models (shared with the multi-core engine)} *)

(** All-float mutable timeline state (flat, unboxed representation —
    DESIGN.md §12): current time, persist high-water marks, the stall
    breakdown accumulated during a run, and the out-params of the
    allocation-free helpers. The multi-core engine keeps one per core. *)
type clocks = {
  mutable now : float;
  mutable all_pm : float;     (** drain point for fences *)
  mutable region_pm : float;  (** max persist of current region *)
  mutable s_pb : float;
  mutable s_rbt : float;
  mutable s_drain : float;
  mutable s_sync : float;
  mutable s_wb : float;
  mutable s_wpq_hit : float;
  mutable s_redo : float;
  mutable wb_occ_sum : float;
  mutable pstall : float;     (** out-param of the persist helpers *)
}

val clocks_create : unit -> clocks

(** Flush the accumulated stall breakdown (and [now] as elapsed) into a
    [Stats.t]. *)
val clocks_flush : clocks -> Stats.t -> unit

(** Persist-buffer: bounded slots freed on WPQ admission; sends
    serialized at the persist-path bandwidth. The record is transparent
    so the multi-core engine can read the [fs] result cells with
    unboxed array loads. *)
type pb = {
  free_at : float array;
  size : int;
  mutable count : int;
  fs : float array;  (** 0 = last send; 1 = admit out; 2 = send out *)
}

val pb_create : int -> pb

(** Admit an entry ready at [ready]; the resulting slot-admit and send
    times are left in [fs.(1)] / [fs.(2)] (allocation-free). *)
val pb_admit_send : pb -> ready:float -> gap:float -> unit

val pb_record_free : pb -> float -> unit

(** Region-boundary table: ring of region persist-completion times;
    admission stalls only when all entries hold unpersisted regions. *)
type rbt = { comp : float array; rsize : int; mutable rcount : int }

val rbt_create : int -> rbt

(** Returns the admission stall. *)
val rbt_push : rbt -> now:float -> completion:float -> float

(** 11 bytes per RBT entry (Section IX-N): 176 bytes at the default 16. *)
val storage_bytes : rbt_entries:int -> int

(** {2 Running} *)

(** A trace's cache-probe outcomes under one cache geometry: one code per
    probe (a load probes once, a store or checkpoint once, an atomic
    twice), the dirty-L1-eviction line addresses entering the write
    buffer, and the end-of-run NVM reads and miss rates. Immutable. *)
type probes

(** Per-level [(size_bytes, assoc)]: all a stream depends on but the trace. *)
val geometry : Config.t -> (int * int) list

(** Stage 1: walk the trace once through a fresh [Hierarchy]. *)
val record_probes : Config.t -> Cwsp_ir.Trace.t -> probes

(** Stage 2: time the trace under [scheme] on [cfg], reading cache
    outcomes from the stream. Hit latencies come from [cfg.levels].
    Raises [Invalid_argument] unless the stream was recorded from a
    trace of the same length under [geometry cfg]. *)
val replay : Config.t -> scheme -> Cwsp_ir.Trace.t -> probes -> Stats.t

(** [replay cfg scheme trace (record_probes cfg trace)]. *)
val run_trace : Config.t -> scheme -> Cwsp_ir.Trace.t -> Stats.t
