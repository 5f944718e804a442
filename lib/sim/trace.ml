(** The profile-guided superblock trace engine (tier 2 of [`Traced]).

    Tier 1 is the fused block dispatch with a per-leader entry-heat
    counter and a two-entry successor (edge) profile.  When a leader
    crosses the hot threshold, {!form} grows a superblock along the
    dominant successor path: a bounded run of fused-block shapes, each
    ending in a guardable junction — a conditional branch, a direct
    jump, or a register-indirect jump, all with fusible delay slots —
    and closed by a loop back-edge, an unguardable block, a cold or
    bimodal edge, or the length bound.  The expected path is compiled
    exactly like a fused block, only longer: one instruction-level
    continuation chain whose statically-knowable statistics — including
    the cross-junction delay-slot interlocks that the fused engine must
    probe dynamically, and the annul accounting of squashing branches
    the path falls through — are pre-summed into a single delta applied
    once on trace entry.

    Exactness comes from the guards.  Each junction that can leave the
    expected path compiles a side exit that (a) subtracts the pre-summed
    delta of everything that will now not execute (the off-path
    continuation of this junction plus every later segment), (b) refunds
    the corresponding pre-paid fuel, (c) performs whatever the off path
    genuinely does (run the annulled-on-path slots, charge the annul
    cycles of slots the path expected to run, latch the in-flight load
    register), and (d) hands the off-path pc back to the dispatch loop.
    Dynamic early exits inside the path (division by zero, checked-load
    type traps, resumable generic-arithmetic traps) reuse the fused
    engine's {!Fuse.compile_op} with trace-wide undo deltas and fuel
    refunds.  The result is bit-identical {!Stats.t}, abort codes and
    fuel trajectory — [Out_of_fuel] tail included, because a trace
    pre-pays its retirements like a block does and falls back to block
    granularity when fuel runs short (enforced by the four-way engine
    differential suite). *)

module M = Machine
module Insn = Tagsim_mipsx.Insn
module Reg = Tagsim_mipsx.Reg
module Word = Tagsim_mipsx.Word
module Image = Tagsim_asm.Image

(* Block entries before a leader is considered hot. *)
let default_threshold = 32

(* Superblock length bound, in blocks. *)
let max_segments = 64

(* A trace must span at least two blocks: a single-segment trace is the
   fused block it came from, with an extra guard. *)
let min_segments = 2

(* How a trace segment ends, and which successor the path expects:
   a conditional branch guarded on its condition; J/Jal with a static
   successor, no guard; Jr/Jalr guarded on the latched jump target. *)
type jct =
  | Cond of { expect_taken : bool; target : int }
  | Jump of { link : bool }
  | Indirect of { rs : int; link : bool }

type seg = {
  sg_pc : int; (* leader *)
  sg_stop : int; (* terminator address *)
  sg_len : int; (* body length (sg_stop - sg_pc) *)
  sg_term : Image.entry;
  sg_s1 : Image.entry; (* fused delay slots *)
  sg_s2 : Image.entry;
  sg_squash : bool;
  sg_jct : jct;
  sg_next : int; (* expected successor leader (trace exit for the last) *)
  sg_prob : float; (* observed share of the expected successor *)
}

(* --- Growth. --- *)

(* Expected probability of reaching a segment before growth stops: the
   product of the observed junction shares along the path.  Growing
   past a junction only pays off if the path usually survives it; a
   junction that would drop the product below the cutoff still joins
   the trace as its final, guarded segment (a side exit at the last
   junction rolls back nothing), but nothing is grown beyond it. *)
let reach_cutoff = 0.5

(* The leading recorded successor of a junction, with its share of the
   recorded total.  The observation floor adapts to tiny test
   thresholds. *)
let dominant (ts : M.tstate) pc =
  let c1 = ts.M.ts_cnt1.(pc) and c2 = ts.M.ts_cnt2.(pc) in
  let s, c =
    if c1 >= c2 then (ts.M.ts_succ1.(pc), c1) else (ts.M.ts_succ2.(pc), c2)
  in
  let floor = min 4 (max 1 (ts.M.ts_threshold - 1)) in
  if s >= 0 && c >= floor then
    Some (s, float_of_int c /. float_of_int (c1 + c2))
  else None

type candidate = Seg of seg | No_dominant | Unfit

(* The share credited to a [Jr ra] whose return address the growth's
   call-return stack predicts: near-certain — the matching call is on
   the path, and the calling convention restores [ra] before the return
   — but guarded like any expected successor, so a program that returns
   somewhere else only side-exits. *)
let matched_return_prob = 0.99

(* Can the block led by [pc] be a trace segment, and where does its
   expected path go?  [ret] is the innermost unreturned call's return
   address, if the path crossed one — it beats the edge profile for
   [Jr ra], whose profile blurs every call site of the function
   together.  [Unfit] is structural (no junction, unfusible slots);
   [No_dominant] may resolve once more edge profile accumulates. *)
let segment_of (m : M.t) (ts : M.tstate) ~ret pc : candidate =
  let sh = Fuse.shape m pc in
  match (sh.Fuse.sh_term, sh.Fuse.sh_slots) with
  | Some e, Fuse.Fused (s1, s2) -> (
      let stop = sh.Fuse.sh_stop in
      let fall = stop + 3 in
      let mk ?(p = 1.0) jct next =
        Seg
          {
            sg_pc = pc;
            sg_stop = stop;
            sg_len = stop - pc;
            sg_term = e;
            sg_s1 = s1;
            sg_s2 = s2;
            sg_squash = sh.Fuse.sh_squash;
            sg_jct = jct;
            sg_next = next;
            sg_prob = p;
          }
      in
      match e.Image.insn with
      | Insn.J target -> mk (Jump { link = false }) target
      | Insn.Jal target -> mk (Jump { link = true }) target
      | Insn.B (_, target) | Insn.Bi (_, target) | Insn.Btag (_, target) -> (
          if target = fall then
            (* Degenerate branch-to-fall-through: with slots running
               either way there is nothing to guard; an annulling one
               still differs in accounting, so leave it to tier 1. *)
            if sh.Fuse.sh_squash then Unfit
            else mk (Jump { link = false }) target
          else
            match dominant ts pc with
            | Some (d, p) when d = target ->
                mk ~p (Cond { expect_taken = true; target }) target
            | Some (d, p) when d = fall ->
                mk ~p (Cond { expect_taken = false; target }) fall
            | Some _ | None -> No_dominant)
      | Insn.Jr rs -> (
          match ret with
          | Some r when rs = Reg.ra ->
              mk ~p:matched_return_prob (Indirect { rs; link = false }) r
          | _ -> (
              match dominant ts pc with
              | Some (d, p) -> mk ~p (Indirect { rs; link = false }) d
              | None -> No_dominant))
      | Insn.Jalr rs -> (
          match dominant ts pc with
          | Some (d, p) -> mk ~p (Indirect { rs; link = true }) d
          | None -> No_dominant)
      | _ -> Unfit)
  | _ -> Unfit

(* Grow the superblock from [head] along expected successors.  Growth
   closes on a loop back-edge into the path, on a block that cannot be
   a segment, on a junction without a dominant successor, at
   [max_segments], or when the product of junction shares says the tail
   would rarely be reached ([reach_cutoff]).  A back-edge into the
   *head* closes specially: the path is a whole loop body, so it is
   unrolled as many times as the length bound and the iteration's
   completion probability allow, amortising the per-entry costs (one
   delta apply, one dispatch, one entry probe) over several iterations
   while the exit stays head-aligned for self-chaining.  [Ok] carries
   the segments and the exit pc; [Error retryable] reports a head not
   (yet) worth a trace. *)
let grow (m : M.t) (ts : M.tstate) head =
  let n = Array.length m.M.code in
  let blocks = m.M.blocks in
  (* [stack]: return addresses of calls crossed on the path and not yet
     returned from — the call-return hint for [Jr ra] junctions. *)
  let rec go acc count pc reach stack =
    let close retryable =
      if count >= min_segments && pc >= 0 && pc < n then
        Ok (Array.of_list (List.rev acc), pc)
      else Error retryable
    in
    if pc = head && count > 0 then begin
      let body = List.rev acc in
      let by_len = max_segments / count in
      let by_reach =
        (* enough iterations that 95% of entries exit before the end:
           unrolling further buys nothing, stopping earlier re-enters
           mid-run *)
        if reach >= 0.999 then max_segments
        else max 1 (int_of_float (log 0.05 /. log reach))
      in
      let k = max 1 (min by_len by_reach) in
      if k * count >= min_segments then
        Ok (Array.concat (List.init k (fun _ -> Array.of_list body)), head)
      else Error false
    end
    else if List.exists (fun s -> s.sg_pc = pc) acc then close false
    else if count = max_segments then close false
    else if reach < reach_cutoff then close false
    else if pc < 0 || pc >= n || blocks.(pc) = None then close false
    else
      let ret = match stack with r :: _ -> Some r | [] -> None in
      match segment_of m ts ~ret pc with
      | Unfit -> close false
      | No_dominant -> close true
      | Seg s ->
          let stack' =
            match s.sg_jct with
            | Jump { link = true } | Indirect { link = true; _ } ->
                (s.sg_stop + 3) :: stack
            | Indirect { link = false; rs } when rs = Reg.ra -> (
                match stack with _ :: rest -> rest | [] -> [])
            | _ -> stack
          in
          go (s :: acc) (count + 1) s.sg_next (reach *. s.sg_prob) stack'
  in
  go [] 0 head 1.0 []

(* --- Compilation. --- *)

(* The success-path cycle charge a division owes back when it aborts
   (the reference never charges an aborting division, but the pre-sum
   did). *)
let div_extra (e : Image.entry) =
  match e.Image.insn with
  | Insn.Alu (((Insn.Div | Insn.Rem) as op), _, _, _) ->
      Some (Stats.slot e.Image.annot, M.alu_cycles op)
  | _ -> None

let compress_sum accs =
  let a = Fuse.acc_create () in
  List.iter (Fuse.acc_add a) accs;
  Fuse.compress a

(* The guard condition of a conditional branch, pre-resolved with the
   comparison inlined (no indirect evaluator call on the hot path). *)
let cond_test (hw : M.hw) (e : Image.entry) : M.t -> bool =
  match e.Image.insn with
  | Insn.B (b, _) -> (
      let rs = b.Insn.rs and rt = b.Insn.rt in
      match b.Insn.cond with
      | Insn.Eq -> fun t -> t.M.regs.(rs) = t.M.regs.(rt)
      | Insn.Ne -> fun t -> t.M.regs.(rs) <> t.M.regs.(rt)
      | Insn.Lt ->
          fun t -> Word.to_signed t.M.regs.(rs) < Word.to_signed t.M.regs.(rt)
      | Insn.Ge ->
          fun t -> Word.to_signed t.M.regs.(rs) >= Word.to_signed t.M.regs.(rt)
      | Insn.Gt ->
          fun t -> Word.to_signed t.M.regs.(rs) > Word.to_signed t.M.regs.(rt)
      | Insn.Le ->
          fun t -> Word.to_signed t.M.regs.(rs) <= Word.to_signed t.M.regs.(rt))
  | Insn.Bi (b, _) -> (
      let rs = b.Insn.bi_rs in
      let immw = Word.of_int b.Insn.bi_imm in
      let imms = Word.to_signed immw in
      match b.Insn.bi_cond with
      | Insn.Eq -> fun t -> t.M.regs.(rs) = immw
      | Insn.Ne -> fun t -> t.M.regs.(rs) <> immw
      | Insn.Lt -> fun t -> Word.to_signed t.M.regs.(rs) < imms
      | Insn.Ge -> fun t -> Word.to_signed t.M.regs.(rs) >= imms
      | Insn.Gt -> fun t -> Word.to_signed t.M.regs.(rs) > imms
      | Insn.Le -> fun t -> Word.to_signed t.M.regs.(rs) <= imms)
  | Insn.Btag (b, _) ->
      let shift = hw.M.tag_shift and width = hw.M.tag_width in
      let rs = b.Insn.bt_rs in
      let neg = b.Insn.bt_neg and tag = b.Insn.bt_tag in
      if neg then fun t -> Word.field ~shift ~width t.M.regs.(rs) <> tag
      else fun t -> Word.field ~shift ~width t.M.regs.(rs) = tag
  | _ -> assert false

(* Trace-tier operation specialisation: the superblock compiler can
   afford more compile time per instruction than block fusion, so the
   common never-trapping straight-line operations compile to closures
   with the operator inlined — no indirect evaluator call on the hot
   path.  Anything that can trap or touch memory falls back to the
   shared [Fuse.compile_op]; the computations mirror it exactly. *)
let spec_op (e : Image.entry) ~(next : Fuse.chain_fn) : Fuse.chain_fn option =
  match e.Image.insn with
  | Insn.Nop -> Some next
  | Insn.Alu (op, rd, rs, rt) -> (
      match op with
      | Insn.Div | Insn.Rem -> None
      | _ when rd = Reg.zero -> Some next
      | Insn.Add ->
          Some
            (fun t ->
              t.M.regs.(rd) <- Word.of_int (Word.add t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Sub ->
          Some
            (fun t ->
              t.M.regs.(rd) <- Word.of_int (Word.sub t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.And ->
          Some
            (fun t ->
              t.M.regs.(rd) <-
                Word.of_int (Word.logand t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Or ->
          Some
            (fun t ->
              t.M.regs.(rd) <-
                Word.of_int (Word.logor t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Xor ->
          Some
            (fun t ->
              t.M.regs.(rd) <-
                Word.of_int (Word.logxor t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Nor ->
          Some
            (fun t ->
              t.M.regs.(rd) <-
                Word.of_int (Word.lognor t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Slt ->
          Some
            (fun t ->
              t.M.regs.(rd) <-
                Word.of_int
                  (if Word.lt_signed t.M.regs.(rs) t.M.regs.(rt) then 1 else 0);
              next t)
      | Insn.Sltu ->
          Some
            (fun t ->
              t.M.regs.(rd) <-
                Word.of_int
                  (if Word.lt_unsigned t.M.regs.(rs) t.M.regs.(rt) then 1
                   else 0);
              next t)
      | Insn.Sll ->
          Some
            (fun t ->
              t.M.regs.(rd) <- Word.of_int (Word.sll t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Srl ->
          Some
            (fun t ->
              t.M.regs.(rd) <- Word.of_int (Word.srl t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Sra ->
          Some
            (fun t ->
              t.M.regs.(rd) <- Word.of_int (Word.sra t.M.regs.(rs) t.M.regs.(rt));
              next t)
      | Insn.Mul ->
          Some
            (fun t ->
              t.M.regs.(rd) <- Word.of_int (Word.mul t.M.regs.(rs) t.M.regs.(rt));
              next t))
  | Insn.Alui (op, rd, rs, imm) -> (
      if (op = Insn.Div || op = Insn.Rem) && imm = 0 then None
      else if rd = Reg.zero then Some next
      else
        let b = Word.of_int imm in
        match op with
        | Insn.Add ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.add t.M.regs.(rs) b);
                next t)
        | Insn.Sub ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.sub t.M.regs.(rs) b);
                next t)
        | Insn.And ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.logand t.M.regs.(rs) b);
                next t)
        | Insn.Or ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.logor t.M.regs.(rs) b);
                next t)
        | Insn.Xor ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.logxor t.M.regs.(rs) b);
                next t)
        | Insn.Nor ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.lognor t.M.regs.(rs) b);
                next t)
        | Insn.Slt ->
            Some
              (fun t ->
                t.M.regs.(rd) <-
                  Word.of_int (if Word.lt_signed t.M.regs.(rs) b then 1 else 0);
                next t)
        | Insn.Sltu ->
            Some
              (fun t ->
                t.M.regs.(rd) <-
                  Word.of_int (if Word.lt_unsigned t.M.regs.(rs) b then 1 else 0);
                next t)
        | Insn.Sll ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.sll t.M.regs.(rs) b);
                next t)
        | Insn.Srl ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.srl t.M.regs.(rs) b);
                next t)
        | Insn.Sra ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.sra t.M.regs.(rs) b);
                next t)
        | Insn.Mul ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.mul t.M.regs.(rs) b);
                next t)
        | Insn.Div ->
            (* [imm] is a compile-time non-zero constant: no trap. *)
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.div t.M.regs.(rs) b);
                next t)
        | Insn.Rem ->
            Some
              (fun t ->
                t.M.regs.(rd) <- Word.of_int (Word.rem t.M.regs.(rs) b);
                next t))
  | Insn.Li (rd, imm) ->
      if rd = Reg.zero then Some next
      else
        let v = Word.of_int imm in
        Some
          (fun t ->
            t.M.regs.(rd) <- v;
            next t)
  | Insn.La (rd, addr) ->
      if rd = Reg.zero then Some next
      else
        let v = Word.of_int addr in
        Some
          (fun t ->
            t.M.regs.(rd) <- v;
            next t)
  | Insn.Mv (rd, rs) ->
      if rd = Reg.zero then Some next
      else
        Some
          (fun t ->
            t.M.regs.(rd) <- t.M.regs.(rs);
            next t)
  | _ -> None

(* Compile the expected path of [segs] into one continuation chain with
   one entry delta, building right to left so each junction knows the
   chain, the pre-summed statistics and the pre-paid fuel of everything
   after it. *)
let compile_trace (m : M.t) (segs : seg array) exit_pc : M.trace =
  let hw = m.M.hw in
  let code = m.M.code in
  (* Specialised closure when the operation cannot trap, shared
     compiler otherwise. *)
  let op_of e ~pc ~undo ~refund ~(next : Fuse.chain_fn) =
    match spec_op e ~next with
    | Some f -> f
    | None -> Fuse.compile_op hw e ~pc ~undo ~refund ~next
  in
  let k = Array.length segs in
  let slots_run i =
    (* Annulled only when the expected path falls through a squashing
       branch. *)
    let s = segs.(i) in
    not
      (s.sg_squash
      && match s.sg_jct with Cond { expect_taken; _ } -> not expect_taken | _ -> false)
  in
  (* The cross-junction in-flight load reaching segment [i]'s first
     instruction — statically the previous junction's second delay slot
     (annulled slots leave none).  The trace entry keeps the fused
     engine's one dynamic probe instead. *)
  let cross_prev i =
    if i = 0 then None
    else if slots_run (i - 1) then Some segs.(i - 1).sg_s2
    else None
  in
  let steps_of i = segs.(i).sg_len + 1 in
  let total_steps = ref 0 in
  for i = 0 to k - 1 do
    total_steps := !total_steps + steps_of i
  done;
  (* [chain]: the continuation at the start of the segment after the one
     being compiled; seeded with the trace exit, which latches the
     expected path's in-flight load for the next dispatch. *)
  let final_pl =
    if slots_run (k - 1) then Fuse.exit_pl_of segs.(k - 1).sg_s2.Image.insn
    else -1
  in
  let chain =
    ref
      (fun (t : M.t) ->
        t.M.pending_load <- final_pl;
        exit_pc)
  in
  (* [after]: expected-path statistics of every segment to the right of
     the one being compiled (immutable once captured by a closure — a
     fresh accumulator replaces it each iteration). *)
  let after = ref (Fuse.acc_create ()) in
  let refund_after = ref 0 in
  for i = k - 1 downto 0 do
    let s = segs.(i) in
    let l = s.sg_pc and len = s.sg_len and c = s.sg_stop in
    let suffix = !after in
    let ra_ref = !refund_after in
    let cont = !chain in
    (* Expected-path unit contributions: body, terminator, then the
       delay slots — or the branch's annul accounting when the expected
       path squashes them. *)
    let units =
      Array.init (len + 3) (fun u ->
          if u < len then
            let prev = if u = 0 then cross_prev i else Some code.(l + u - 1) in
            Fuse.contribution prev code.(l + u)
          else if u = len then
            let prev = if len > 0 then Some code.(c - 1) else cross_prev i in
            Fuse.contribution prev s.sg_term
          else if slots_run i then
            if u = len + 1 then Fuse.contribution None s.sg_s1
            else Fuse.contribution (Some s.sg_s1) s.sg_s2
          else if u = len + 1 then begin
            let a = Fuse.acc_create () in
            Fuse.acc_squash a (Stats.slot s.sg_term.Image.annot);
            a
          end
          else Fuse.acc_create ())
    in
    let path_hi = if slots_run i then len + 2 else len + 1 in
    (* Trace-wide undo for a dynamic exit at unit [lo - 1]: the rest of
       this segment's expected path plus every later segment. *)
    let undo_from ?extra lo =
      lazy
        (let a = Fuse.acc_create () in
         for j = lo to path_hi do
           Fuse.acc_add a units.(j)
         done;
         Fuse.acc_add a suffix;
         (match extra with
         | Some (si, cc) -> Fuse.acc_charge a si cc
         | None -> ());
         Fuse.compress a)
    in
    let empty_undo ?extra () =
      lazy
        (let a = Fuse.acc_create () in
         (match extra with
         | Some (si, cc) -> Fuse.acc_charge a si cc
         | None -> ());
         Fuse.compress a)
    in
    (* Slot contributions independent of the expected path (the off path
       of an expected-fall squashing branch runs them even though the
       pre-sum holds the annul accounting instead). *)
    let sc1 = Fuse.contribution None s.sg_s1 in
    let sc2 = Fuse.contribution (Some s.sg_s1) s.sg_s2 in
    let post_pl = Fuse.exit_pl_of s.sg_s2.Image.insn in
    let si = Stats.slot s.sg_term.Image.annot in
    (* On-path slot chain: slots flow into [cont2]; an in-slot dynamic
       exit undoes the slot remainder and every later segment (the
       slots ride the junction's retirement, so only later segments'
       fuel is refunded). *)
    let on_slots cont2 =
      let s2op =
        op_of s.sg_s2 ~pc:c
          ~undo:(undo_from ?extra:(div_extra s.sg_s2) (len + 3))
          ~refund:ra_ref ~next:cont2
      in
      op_of s.sg_s1 ~pc:c
        ~undo:(undo_from ?extra:(div_extra s.sg_s1) (len + 2))
        ~refund:ra_ref ~next:s2op
    in
    (* Off-path slot chain: runs after a guard already rolled back every
       later segment, with the slot pair's own statistics in force, so
       an in-slot exit owes only the unexecuted slot remainder. *)
    let off_slots pc_off =
      let fin (t : M.t) =
        t.M.pending_load <- post_pl;
        pc_off
      in
      let s2op =
        op_of s.sg_s2 ~pc:c
          ~undo:(empty_undo ?extra:(div_extra s.sg_s2) ())
          ~refund:0 ~next:fin
      in
      op_of s.sg_s1 ~pc:c
        ~undo:
          (lazy
            (let a = Fuse.acc_create () in
             Fuse.acc_add a sc2;
             (match div_extra s.sg_s1 with
             | Some (si, cc) -> Fuse.acc_charge a si cc
             | None -> ());
             Fuse.compress a))
        ~refund:0 ~next:s2op
    in
    let jchain : Fuse.chain_fn =
      match s.sg_jct with
      | Jump { link } ->
          let base = on_slots cont in
          if link then
            let ra_v = c + 3 in
            fun t ->
              t.M.regs.(Reg.ra) <- ra_v;
              base t
          else base
      | Indirect { rs; link } ->
          (* Slots run before the target is known; the guard then tests
             the latched target against the expected successor. *)
          let expected = s.sg_next in
          let d_suffix = Fuse.compress suffix in
          let guard (t : M.t) =
            if t.M.jump_target = expected then cont t
            else begin
              Fuse.delta_undo t.M.stats d_suffix;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              t.M.pending_load <- post_pl;
              t.M.jump_target
            end
          in
          let ch = on_slots guard in
          if link then
            let ra_v = c + 3 in
            fun t ->
              t.M.jump_target <- t.M.regs.(rs);
              t.M.regs.(Reg.ra) <- ra_v;
              ch t
          else
            fun t ->
              t.M.jump_target <- t.M.regs.(rs);
              ch t
      | Cond { expect_taken; target } ->
          let fall = c + 3 in
          let pc_off = if expect_taken then fall else target in
          let test = cond_test hw s.sg_term in
          if not s.sg_squash then begin
            (* Slots run on both paths with identical statistics; the
               side exit only owes the later segments. *)
            let on = on_slots cont in
            let d_suffix = Fuse.compress suffix in
            let off_chain = off_slots pc_off in
            let off (t : M.t) =
              Fuse.delta_undo t.M.stats d_suffix;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              off_chain t
            in
            if expect_taken then fun t -> if test t then on t else off t
            else fun t -> if test t then off t else on t
          end
          else if expect_taken then begin
            (* Expected taken: slot statistics are pre-summed; falling
               through annuls them — undo slots and later segments, then
               charge the annul cycles the reference charges. *)
            let on = on_slots cont in
            let d_undo = compress_sum [ sc1; sc2; suffix ] in
            let off (t : M.t) =
              Fuse.delta_undo t.M.stats d_undo;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              let st = t.M.stats in
              st.Stats.squashed <- st.Stats.squashed + 2;
              st.Stats.cycles <- st.Stats.cycles + 2;
              st.Stats.kind_cycles.(si) <- st.Stats.kind_cycles.(si) + 2;
              t.M.pending_load <- -1;
              fall
            in
            fun t -> if test t then on t else off t
          end
          else begin
            (* Expected fall-through: the annul accounting is pre-summed
               and the path continues with nothing dynamic; taking the
               branch undoes it (and the later segments), then runs the
               slots for real — applying their statistics first, since
               the pre-sum deliberately left them out. *)
            let d_undo = compress_sum [ units.(len + 1); suffix ] in
            let slots_apply = Fuse.apply_fn (compress_sum [ sc1; sc2 ]) in
            let off_chain = off_slots target in
            let off (t : M.t) =
              Fuse.delta_undo t.M.stats d_undo;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              slots_apply t.M.stats;
              off_chain t
            in
            fun t -> if test t then off t else cont t
          end
    in
    (* Thread the body into the junction, innermost first. *)
    let rec body u (next : Fuse.chain_fn) : Fuse.chain_fn =
      if u < 0 then next
      else
        let e = code.(l + u) in
        body (u - 1)
          (op_of e ~pc:(l + u)
             ~undo:(undo_from ?extra:(div_extra e) (u + 1))
             ~refund:(len - u + ra_ref)
             ~next)
    in
    chain := body (len - 1) jchain;
    refund_after := ra_ref + steps_of i;
    let nt = Fuse.acc_create () in
    Fuse.acc_add nt suffix;
    for j = 0 to path_hi do
      Fuse.acc_add nt units.(j)
    done;
    after := nt
  done;
  let head = segs.(0).sg_pc in
  let entry_apply = Fuse.apply_fn (Fuse.compress !after) in
  let body0 = !chain in
  (* The one dynamic interlock probe, as on fused block entry: the
     trace's first instruction against a load in flight from whatever
     ran before it. *)
  let er1, er2 = Fuse.read_regs code.(head).Image.insn in
  let exec =
    if er1 < 0 && er2 < 0 then fun (t : M.t) ->
      entry_apply t.M.stats;
      body0 t
    else fun (t : M.t) ->
      let pl = t.M.pending_load in
      if pl >= 0 && (pl = er1 || pl = er2) then Fuse.interlock_stats t;
      entry_apply t.M.stats;
      body0 t
  in
  {
    M.tr_pc = head;
    M.tr_blocks = k;
    M.tr_steps = !total_steps;
    M.tr_exit = exit_pc;
    M.tr_exec = exec;
    M.tr_next = None;
  }

(* --- Formation (called by the run loop at the hot threshold). --- *)

let form (t : M.t) head =
  match t.M.tstate with
  | None -> ()
  | Some ts ->
      if ts.M.ts_traces.(head) = None then begin
        match grow t ts head with
        | Ok (segs, exit_pc) ->
            M.note_trace_formed ();
            ts.M.ts_traces.(head) <- Some (compile_trace t segs exit_pc)
        | Error retryable ->
            (* Retryable heads re-arm the heat counter and try again
               once more edge profile has accumulated; structural
               failures stay saturated so the check never repeats. *)
            if retryable then ts.M.ts_heat.(head) <- 0
      end

(* --- Attachment. --- *)

let attach ?(threshold = default_threshold) (m : M.t) =
  Fuse.attach m;
  let n = Array.length m.M.code in
  match m.M.tstate with
  | Some ts when Array.length ts.M.ts_traces = n -> ()
  | _ ->
      m.M.tstate <-
        Some
          {
            M.ts_traces = Array.make n None;
            M.ts_heat = Array.make n 0;
            M.ts_succ1 = Array.make n (-1);
            M.ts_cnt1 = Array.make n 0;
            M.ts_succ2 = Array.make n (-1);
            M.ts_cnt2 = Array.make n 0;
            M.ts_threshold = threshold;
            M.ts_form = form;
          }

let create ?fuel ?threshold ~hw image =
  let m = M.create ?fuel ~engine:`Traced ~hw image in
  attach ?threshold m;
  m
