(** Sparse paged word-addressable memory.

    4 KiB pages materialize on first touch; untouched memory reads as
    zero. Words are native ints (the IR machine word); addresses must be
    8-byte aligned — workloads and the runtime only ever issue aligned
    accesses, and the simulator's 8-byte persist-path granularity
    (Section V-A2) matches this. *)

let page_words = 512
let page_bytes = page_words * 8

(* Shift/mask forms of the page arithmetic: [page_bytes] is a computed
   top-level value, so [a / page_bytes] compiles to a real division
   without flambda. Addresses are non-negative (checked), so the shifts
   are exact. *)
let page_key a = a lsr 12
let word_index a = (a land 4095) lsr 3

(* [last_key]/[last_page] is a one-entry translation cache: the
   interpreter exhibits strong page locality, and going through
   [Hashtbl] costs a hash plus (on the read path) an allocated option
   per access. The hashtable stays the source of truth — the cache
   only ever aliases an array that is already installed in it. *)
type t = {
  pages : (int, int array) Hashtbl.t;
  mutable last_key : int;
  mutable last_page : int array;
}

let no_page : int array = [||]
let create () = { pages = Hashtbl.create 256; last_key = -1; last_page = no_page }

let check_addr a =
  if a land 7 <> 0 then
    invalid_arg (Printf.sprintf "Memory: unaligned address 0x%x" a);
  if a < 0 then invalid_arg "Memory: negative address"

let read t a =
  check_addr a;
  let key = page_key a in
  if key = t.last_key then Array.unsafe_get t.last_page (word_index a)
  else
    match Hashtbl.find t.pages key with
    | page ->
      t.last_key <- key;
      t.last_page <- page;
      Array.unsafe_get page (word_index a)
    | exception Not_found -> 0

let write t a v =
  check_addr a;
  let key = page_key a in
  let page =
    if key = t.last_key then t.last_page
    else
      match Hashtbl.find t.pages key with
      | p ->
        t.last_key <- key;
        t.last_page <- p;
        p
      | exception Not_found ->
        let p = Array.make page_words 0 in
        Hashtbl.add t.pages key p;
        t.last_key <- key;
        t.last_page <- p;
        p
  in
  Array.unsafe_set page (word_index a) v

(** Read-modify-write one word: [mutate t a f] stores [f (read t a)].
    The persistence-path fault injectors use this to tear or bit-flip a
    surviving NVM word in place. *)
let mutate t a f = write t a (f (read t a))

let snapshot t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter (fun k p -> Hashtbl.add pages k (Array.copy p)) t.pages;
  { pages; last_key = -1; last_page = no_page }

(** Structural equality treating absent pages as zero-filled. *)
let equal a b =
  let covered t other =
    Hashtbl.fold
      (fun k p ok ->
        ok
        &&
        match Hashtbl.find_opt other.pages k with
        | Some q -> p = q
        | None -> Array.for_all (fun w -> w = 0) p)
      t.pages true
  in
  covered a b && covered b a

(** Like [equal], but words whose address satisfies [except] are ignored.
    Identical pages still take the fast structural-compare path; only
    pages that differ fall back to the word-wise scan. *)
let equal_except ~except a b =
  let covered t other =
    Hashtbl.fold
      (fun k p ok ->
        ok
        &&
        let q =
          match Hashtbl.find_opt other.pages k with
          | Some q -> q
          | None -> no_page
        in
        (q != no_page && p = q)
        ||
        let base = k * page_bytes in
        let ok = ref true in
        Array.iteri
          (fun i v ->
            let w = if q == no_page then 0 else q.(i) in
            if v <> w && not (except (base + (i * 8))) then ok := false)
          p;
        !ok)
      t.pages true
  in
  covered a b && covered b a

(** First differing (addr, a_value, b_value), for test diagnostics. *)
let first_diff a b =
  let exception Found of int * int * int in
  let scan t other =
    Hashtbl.iter
      (fun k p ->
        let q =
          match Hashtbl.find_opt other.pages k with
          | Some q -> q
          | None -> Array.make page_words 0
        in
        Array.iteri
          (fun i v -> if v <> q.(i) then raise (Found ((k * page_bytes) + (i * 8), v, q.(i))))
          p)
      t.pages
  in
  try
    scan a b;
    (* catch words present only in b *)
    (try
       scan b a;
       None
     with Found (addr, bv, av) -> Some (addr, av, bv))
  with Found (addr, av, bv) -> Some (addr, av, bv)

(** [first_diff] restricted to addresses where [except] is false. *)
let first_diff_except ~except a b =
  let exception Found of int * int * int in
  let scan t other =
    Hashtbl.iter
      (fun k p ->
        let q =
          match Hashtbl.find_opt other.pages k with
          | Some q -> q
          | None -> Array.make page_words 0
        in
        Array.iteri
          (fun i v ->
            let addr = (k * page_bytes) + (i * 8) in
            if v <> q.(i) && not (except addr) then raise (Found (addr, v, q.(i))))
          p)
      t.pages
  in
  try
    scan a b;
    (try
       scan b a;
       None
     with Found (addr, bv, av) -> Some (addr, av, bv))
  with Found (addr, av, bv) -> Some (addr, av, bv)

let iter f t =
  Hashtbl.iter
    (fun k p ->
      Array.iteri (fun i v -> if v <> 0 then f ((k * page_bytes) + (i * 8)) v) p)
    t.pages
