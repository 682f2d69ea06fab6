(* Randomized well-formed program generator: the fuzzer's seed source,
   shared with the test suites (test_fuzz: compiler oracles; test_interp:
   interpreter golden; test_race: labelled SPMD seeds).
   Emits nested loops, branches, random arithmetic DAGs, loads/stores
   with both provable and unprovable addresses (mixing Exact/Within/Any
   aliasing), calls into the runtime allocator, atomics and fences.
   Every seed is reproducible from its number. *)

open Cwsp_ir
open Cwsp_util

let n_globals = 3

(* random operand: a live register or a small immediate *)
let rand_operand rng regs =
  if Rng.bool rng || regs = [] then Types.Imm (Rng.int rng 1000 - 500)
  else Types.Reg (Rng.pick rng (Array.of_list regs))

let rand_binop rng =
  Rng.pick rng [| Types.Add; Sub; Mul; And; Or; Xor; Shl; Lshr |]

let rand_global rng = Printf.sprintf "fz%d" (Rng.int rng n_globals)

(* emit a random address computation over global [g]: exact, strided or
   opaque (via a register the alias analysis cannot track) *)
let rand_address rng fb regs g =
  let open Builder in
  let base = la fb g in
  match Rng.int rng 3 with
  | 0 -> (base, 8 * Rng.int rng 32) (* exact offset *)
  | 1 ->
    let idx =
      match regs with
      | [] -> imm fb (Rng.int rng 32)
      | _ -> Rng.pick rng (Array.of_list regs)
    in
    let bounded = bin fb And (Reg idx) (Imm 31) in
    (bin fb Add (Reg base) (Reg (bin fb Shl (Reg bounded) (Imm 3))), 0)
  | _ ->
    (* launder the pointer through memory: Any provenance *)
    let slot = la fb "fzptr" in
    store fb slot 0 (Reg base);
    let p = load fb slot 0 in
    (p, 8 * Rng.int rng 32)

let rec gen_block rng fb depth regs budget =
  let open Builder in
  let regs = ref regs in
  let n = 3 + Rng.int rng 8 in
  for _ = 1 to n do
    if !budget > 0 then begin
      decr budget;
      match Rng.int rng 10 with
      | 0 | 1 | 2 ->
        let d = bin fb (rand_binop rng) (rand_operand rng !regs) (rand_operand rng !regs) in
        regs := d :: !regs
      | 3 | 4 ->
        let g = rand_global rng in
        let a, off = rand_address rng fb !regs g in
        let v = load fb a off in
        regs := v :: !regs
      | 5 | 6 ->
        let g = rand_global rng in
        let a, off = rand_address rng fb !regs g in
        store fb a off (rand_operand rng !regs)
      | 7 when depth > 0 ->
        let c = cmp fb Types.Ne (rand_operand rng !regs) (Imm 0) in
        let saved = !regs in
        if_ fb c
          ~then_:(fun () -> gen_block rng fb (depth - 1) saved budget)
          ~else_:(fun () -> gen_block rng fb (depth - 1) saved budget)
      | 7 ->
        let d = mov fb (rand_operand rng !regs) in
        regs := d :: !regs
      | 8 when depth > 0 ->
        let iters = 2 + Rng.int rng 5 in
        let saved = !regs in
        let _ =
          loop fb ~from:(Imm 0) ~below:(Imm iters) (fun i ->
              gen_block rng fb (depth - 1) (i :: saved) budget)
        in
        ()
      | 8 ->
        let g = rand_global rng in
        let a, off = rand_address rng fb !regs g in
        let v = atomic_rmw fb Types.Add a off (rand_operand rng !regs) in
        regs := v :: !regs
      | _ ->
        if Rng.int rng 4 = 0 then fence fb
        else begin
          let p = call fb "malloc" [ Imm (8 * (1 + Rng.int rng 4)) ] in
          store fb p 0 (rand_operand rng !regs);
          let v = load fb p 0 in
          regs := v :: !regs;
          if Rng.bool rng then call_void fb "free" [ Reg p ]
        end
    end
  done;
  (* make some values observable *)
  match !regs with
  | r :: _ -> call_void fb "__out" [ Reg r ]
  | [] -> ()

let gen_program seed : Prog.t =
  let rng = Rng.create seed in
  let b = Builder.program () in
  Cwsp_runtime.Libc.add b;
  for i = 0 to n_globals - 1 do
    Builder.global b (Printf.sprintf "fz%d" i) ~size:256 ()
  done;
  Builder.global b "fzptr" ~size:8 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      let budget = ref (40 + Rng.int rng 60) in
      gen_block rng fb 2 [] budget;
      Builder.ret fb None);
  Builder.set_main b "main";
  Builder.finish b

(* ---- SPMD generation ---- *)

(* Random SPMD programs for the interpreter golden's SPMD runs and as
   a soundness hammer for the race tier: a [`Drf] seed mixes tid-striped
   private traffic, a spinlock-protected shared section and an atomic
   shared accumulator — all idioms [Cwsp_verify.Race_check] certifies —
   while a [`Racy] seed plants exactly one defect (unlocked shared
   section, plain accumulator, or a stride widened into the neighbour's
   stripe). Workers deliberately avoid the allocator and [lcg_next]:
   their bump pointer / hidden state is itself shared and would race. *)

let spmd_threads = 4 (* stripe sizing bound; runs may use fewer *)
let spmd_stripe = 32 (* words of private stripe per thread *)

let gen_spmd_program seed : Prog.t * [ `Drf | `Racy ] =
  let open Builder in
  let rng = Rng.create (0x5bd1e995 * (seed + 1)) in
  let racy = Rng.int rng 3 = 0 in
  let defect = Rng.int rng 3 in
  let b = Builder.program () in
  Cwsp_runtime.Libc.add b;
  Builder.global b "sp_arr" ~size:(spmd_stripe * spmd_threads * 8) ();
  Builder.global b "sp_shared" ~size:(32 * 8) ();
  Builder.global b "sp_res" ~size:(spmd_threads * 8) ();
  Builder.global b "sp_lock" ~size:8 ();
  Builder.global b "sp_acc" ~size:8 ();
  Builder.func b "worker" ~nparams:1 (fun fb ->
      let tid = param fb 0 in
      let arr = la fb "sp_arr" in
      let shared = la fb "sp_shared" in
      let lock = la fb "sp_lock" in
      let accw = la fb "sp_acc" in
      let mybase =
        bin fb Add (Reg arr) (Reg (bin fb Mul (Reg tid) (Imm (spmd_stripe * 8))))
      in
      let acc = imm fb (Rng.int rng 100) in
      let iters = 4 + Rng.int rng 8 in
      let locked_section =
        (* the drawn defect must actually exist in the program *)
        Rng.int rng 4 < 3 || (racy && defect = 0)
      in
      let use_acc = Rng.bool rng in
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm iters) (fun i ->
            (* tid-striped private traffic; defect 2 widens the index
               mask into the neighbour's stripe *)
            let mask =
              if racy && defect = 2 then (2 * spmd_stripe) - 1
              else spmd_stripe - 1
            in
            let idx = bin fb And (Reg (bin fb Add (Reg i) (Reg acc))) (Imm mask) in
            let off = bin fb Shl (Reg idx) (Imm 3) in
            let slot = bin fb Add (Reg mybase) (Reg off) in
            let v = load fb slot 0 in
            let v2 = bin fb (rand_binop rng) (Reg v) (rand_operand rng [ acc; i ]) in
            store fb slot 0 (Reg v2);
            emit fb (Types.Mov (acc, Reg (bin fb Xor (Reg acc) (Reg v2))));
            (* shared section; defect 0 drops the lock *)
            if locked_section then begin
              let sidx = bin fb And (Reg acc) (Imm 31) in
              let sslot = bin fb Add (Reg shared) (Reg (bin fb Shl (Reg sidx) (Imm 3))) in
              if racy && defect = 0 then begin
                let sv = load fb sslot 0 in
                store fb sslot 0 (Reg (bin fb Add (Reg sv) (Imm 1)))
              end
              else begin
                call_void fb "spin_lock" [ Reg lock ];
                let sv = load fb sslot 0 in
                store fb sslot 0 (Reg (bin fb Add (Reg sv) (Imm 1)));
                call_void fb "spin_unlock" [ Reg lock ]
              end
            end;
            (* shared accumulator; defect 1 downgrades it to plain *)
            if use_acc || (racy && defect = 1) then
              if racy && defect = 1 then begin
                let av = load fb accw 0 in
                store fb accw 0 (Reg (bin fb Add (Reg av) (Reg v2)))
              end
              else ignore (atomic_rmw fb Types.Add accw 0 (Reg v2)))
      in
      let res = la fb "sp_res" in
      let rslot = bin fb Add (Reg res) (Reg (bin fb Shl (Reg tid) (Imm 3))) in
      store fb rslot 0 (Reg acc);
      ret fb None);
  Builder.func b "main" ~nparams:0 (fun fb ->
      call_void fb "worker" [ Imm 0 ];
      ret fb None);
  Builder.set_main b "main";
  (Builder.finish b, if racy then `Racy else `Drf)
