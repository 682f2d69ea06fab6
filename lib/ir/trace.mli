(** Growable commit-event traces.

    A trace is produced once per (workload, compile configuration) by the
    functional interpreter and then replayed by every timing
    configuration — the trace/timing split that makes the benchmark
    harness's 2,425 simulation points affordable (DESIGN.md §5). *)

type t

val create : ?capacity:int -> unit -> t
val push : t -> int -> unit
val length : t -> int
val get : t -> int -> int
val iter : (int -> unit) -> t -> unit

(** Aggregate counts used by workload metadata tests and region stats. *)
type summary = {
  instructions : int;
  loads : int;
  stores : int; (** data stores, excluding checkpoints *)
  ckpts : int;
  boundaries : int;
  atomics : int;
  fences : int;
}

val summarize : t -> summary

(** Dynamic region lengths (instructions between consecutive boundaries),
    for Figure 19. *)
val region_lengths : t -> int list
