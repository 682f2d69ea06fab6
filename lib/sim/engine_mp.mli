(** Multi-core timing engine: per-core L1D/WB/PB/RBT, shared L2+ levels,
    WPQs and media bandwidth. Per-thread commit traces are replayed in
    global time order (the core with the smallest clock advances), so
    shared-queue contention is observed in arrival order. *)

open Cwsp_ir

type result = {
  per_core : Stats.t array;
  elapsed_ns : float; (** completion of the slowest core *)
}

(** Replay per-thread traces (from [Multi.traces_of_program]) under
    either no persistence or the full cWSP hardware. *)
val run_traces :
  Config.t -> [ `Baseline | `Cwsp ] -> Trace.t array -> result
