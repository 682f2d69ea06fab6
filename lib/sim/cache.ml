(** Set-associative write-back, write-allocate cache with LRU replacement.

    Tag storage is a lazily paged flat-int store (DESIGN.md §12). The
    sets are grouped into pages of [1 lsl page_bits] sets; a page is one
    int array holding its entries [set * assoc + way], each packing the
    tag and dirty bit ([tag lsl 1 lor dirty], -1 = invalid), followed by
    their LRU clocks — so a probe is a handful of unboxed int loads. The
    page table starts out all [[||]] and a page is allocated on its first
    probe, so creating a cache costs O(pages) and memory follows the
    footprint actually touched. It exists for the 64MB direct-mapped
    DRAM cache (1M ways): every replay builds a fresh hierarchy, and
    preallocating its tags cost each one 16MB of allocation plus the
    major-GC work that allocation forces while hundreds of MB of traces
    are resident. *)

type t = {
  nsets : int;
  assoc : int;
  set_mask : int; (* nsets - 1 when nsets is a power of two, else -1 *)
  tag_shift : int; (* log2 nsets when [set_mask >= 0] *)
  pages : int array array; (* [tags.. ; lrus..] per page, [||] = untouched *)
  lru_off : int; (* offset of a page's LRU clocks: its sets * assoc *)
  mutable tick : int; (* LRU clock *)
  mutable hits : int;
  mutable misses : int;
  mutable last_dirty_evict : int; (* line address, -1 = none; see [probe] *)
}

let line_bytes = 64

(* log2 of the sets per page *)
let page_bits = 8

let create (level : Config.cache_level) =
  let nsets = max 1 (level.size_bytes / (line_bytes * level.assoc)) in
  let pow2 = nsets land (nsets - 1) = 0 in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  {
    nsets;
    assoc = level.assoc;
    set_mask = (if pow2 then nsets - 1 else -1);
    tag_shift = (if pow2 then log2 nsets else 0);
    pages = Array.make (((nsets - 1) lsr page_bits) + 1) [||];
    lru_off = min nsets (1 lsl page_bits) * level.assoc;
    tick = 0;
    hits = 0;
    misses = 0;
    last_dirty_evict = -1;
  }

(* First probe of page [p]: all ways invalid, all clocks 0. *)
let[@inline never] alloc_page t p =
  let a = Array.make (2 * t.lru_off) (-1) in
  Array.fill a t.lru_off t.lru_off 0;
  t.pages.(p) <- a;
  a

(** Allocation-free access (the engines' hot path, bar a page's first
    probe): returns whether the line containing [addr] hit, allocating
    it on miss; [write] marks it dirty. A dirty eviction leaves its line
    address in [last_dirty_evict] (-1 when none) until the next probe. *)
let probe t ~addr ~write : bool =
  t.tick <- t.tick + 1;
  t.last_dirty_evict <- -1;
  let line = addr / line_bytes in
  let set_idx, tag =
    if t.set_mask >= 0 then (line land t.set_mask, line lsr t.tag_shift)
    else (line mod t.nsets, line / t.nsets)
  in
  let p = set_idx lsr page_bits in
  let page = Array.unsafe_get t.pages p in
  let page = if Array.length page > 0 then page else alloc_page t p in
  let base = (set_idx land ((1 lsl page_bits) - 1)) * t.assoc in
  let loff = t.lru_off in
  let assoc = t.assoc in
  (* non-escaping refs compile to registers *)
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < assoc do
    if Array.unsafe_get page (base + !i) asr 1 = tag then found := !i;
    incr i
  done;
  if !found >= 0 then begin
    let e = base + !found in
    t.hits <- t.hits + 1;
    Array.unsafe_set page (loff + e) t.tick;
    if write then Array.unsafe_set page e (Array.unsafe_get page e lor 1);
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* victim: invalid way if any, else least-recently used
       (ties keep the lowest way index) *)
    let victim = ref 0 in
    let i = ref 0 in
    let stop = ref false in
    while (not !stop) && !i < assoc do
      if Array.unsafe_get page (base + !i) < 0 then begin
        victim := !i;
        stop := true
      end
      else begin
        if
          Array.unsafe_get page (loff + base + !i)
          < Array.unsafe_get page (loff + base + !victim)
        then victim := !i;
        incr i
      end
    done;
    let e = base + !victim in
    let old = Array.unsafe_get page e in
    if old >= 0 && old land 1 = 1 then
      t.last_dirty_evict <- (((old asr 1) * t.nsets) + set_idx) * line_bytes;
    Array.unsafe_set page e ((tag lsl 1) lor Bool.to_int write);
    Array.unsafe_set page (loff + e) t.tick;
    false
  end

let last_dirty_evict t = t.last_dirty_evict

(** Mark a line dirty without an access (used for writebacks arriving from
    an upper level); allocates like a write access. *)
let install_dirty t ~line_addr = ignore (probe t ~addr:line_addr ~write:true)

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total
