(** The campaign's coverage map. A cell is a short string key with a
    category prefix:

    - ["rule:<config>:<rule>:<severity>"] — a verifier rule fired on
      this program under that compile configuration;
    - ["fault:<class>:<outcome>"] — an adversarial fault class ended in
      recovered/degraded/refused;
    - ["crash:*"], ["explicit:*"], ["monitor:*"] — dynamic oracle
      outcomes;
    - ["shape:*"] — region-shape features of the compiled program (loop
      headers, alias classes, atomics, flush patterns, dynamic boundary
      and region-length buckets);
    - ["outcome:*"] — how far the input got through the oracle.

    Inputs that light up a cell no map entry covers yet are retained in
    the corpus. Each cell remembers whether a fresh generator program or
    a mutant reached it first, so reports can show what mutation buys
    over generation alone. *)

type origin = Gen | Mut

type t

val create : unit -> t
val mem : t -> string -> bool
val count : t -> int
val count_origin : t -> origin -> int

(** Add cells; returns how many were new. The first writer's [origin]
    sticks. *)
val add : t -> origin:origin -> string list -> int

(** (cell, origin) pairs in insertion order — the persisted form. *)
val to_list : t -> (string * origin) list

val of_list : (string * origin) list -> t

(** Distinct cells, sorted. *)
val cells_sorted : t -> string list

(** (category-prefix, cell count), sorted by category. *)
val by_category : t -> (string * int) list

(** Power-of-two bucket of a non-negative count (0, 1, 2, 4, ... capped
    at 65536) — coarse enough that coverage saturates, fine enough that
    "deeper" still reads as new. *)
val bucket : int -> int

(** Region-shape feature cells of a compiled program plus one dynamic
    trace of it. *)
val shape_cells :
  Cwsp_compiler.Pipeline.compiled -> trace:Cwsp_ir.Trace.t -> string list
