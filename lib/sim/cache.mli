(** Set-associative write-back, write-allocate cache with LRU
    replacement. Tag storage is paged: a page of sets is allocated on its
    first probe, so creating even the 64MB direct-mapped DRAM cache costs
    O(pages) and memory follows the sets actually touched. *)

type t

val line_bytes : int

val create : Config.cache_level -> t

(** Access the line containing [addr], allocating on miss; [write] marks
    it dirty. Allocation-free (the engines' hot path): returns the hit
    flag; a dirty eviction's line address is left in [last_dirty_evict]
    (-1 when none) until the next probe. *)
val probe : t -> addr:int -> write:bool -> bool

val last_dirty_evict : t -> int

(** Install a dirty line arriving as a writeback from an upper level. *)
val install_dirty : t -> line_addr:int -> unit

val miss_rate : t -> float
